"""svg: deterministic planar figures, projection of lifted gadgets."""

import random
from fractions import Fraction as F

import pytest

from epsnet.errors import UnsupportedDimensionError
from epsnet.gadgets import gadget_hexagon_3d, gadget_simplex
from epsnet.geometry import PointSet, SubsetHull
from epsnet.ranges import BoxRange, EpsilonProfile, WeightedNet
from epsnet.svg import render_svg

from helpers import slow_render_svg


def P2(*pts):
    return PointSet(2, tuple(pts))


SQUARE = P2((0, 0), (4, 0), (0, 4), (4, 4), (2, 2))


def test_plain_cloud():
    doc = render_svg(SQUARE)
    assert doc.count("<circle") == 5
    assert "<path" not in doc and "<polygon" not in doc
    assert doc.startswith("<svg ") and doc.endswith("</svg>\n")


def test_output_is_reproducible():
    net = WeightedNet(((2, 2),), EpsilonProfile((F(1, 2),)))
    assert render_svg(SQUARE, net) == render_svg(SQUARE, net)


def test_net_points_become_crosses():
    net = WeightedNet(
        ((1, 1), (3, 3)), EpsilonProfile((F(1, 3), F(1, 2)))
    )
    doc = render_svg(SQUARE, net)
    assert doc.count("<circle") == 5
    assert doc.count("<path") == 2


def test_witness_regions():
    doc = render_svg(
        SQUARE,
        extras=[
            SubsetHull(SQUARE, (0, 1, 2, 3)),
            BoxRange(((1, 3), (1, 3))),
            [(F(0), F(0)), (F(4), F(4))],
        ],
    )
    assert doc.count("<polygon") == 2  # hull and box
    assert doc.count("<line") == 1  # degenerate two-point region
    assert 'fill-opacity="0.25"' in doc


def test_lifted_gadget_projects_poles_to_one_cross():
    doc = render_svg(gadget_hexagon_3d().pointset)
    assert doc.count("<circle") == 6
    assert doc.count("<path") == 1


def test_unsupported_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        render_svg(gadget_simplex(4).pointset)
    with pytest.raises(UnsupportedDimensionError):
        render_svg(SQUARE, extras=[BoxRange(((0, 1), (0, 1), (0, 1)))])


def test_viewport_margin_keeps_everything_inside():
    doc = render_svg(P2((-100, 3), (250, 7)))
    for token in doc.split():
        for key in ("cx=", "cy="):
            if token.startswith(key):
                value = float(token.split('"')[1])
                assert 0 <= value <= 480


def _random_extras(rng, P):
    def point():
        return (F(rng.randint(-30, 30), rng.choice((1, 2, 3, 7))),
                F(rng.randint(-30, 30), rng.choice((1, 4, 5))))

    extras = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            extras.append(SubsetHull(P, tuple(rng.sample(range(P.n), rng.randint(1, P.n)))))
        elif kind == 1:
            (x0, y0), (x1, y1) = point(), point()
            extras.append(BoxRange(((min(x0, x1), max(x0, x1)), (min(y0, y1), max(y0, y1)))))
        else:
            pts = [point() for _ in range(rng.randint(1, 5))]
            extras.append(pts + pts[:1])
    return extras


def test_matches_fraction_reference_byte_for_byte():
    """Integer screen coordinates print exactly the Fraction figure's bytes:
    rational and negative coordinates, half-integer net points, 3D
    projection collisions, every kind of extra, flat and tiny sets."""
    rng = random.Random(5)
    sets = [
        SQUARE,
        P2((F(-7, 3), F(1, 2)), (F(5, 6), F(-9, 4)), (F(11, 5), F(0)), (F(-1, 7), F(13, 6))),
        P2((0, 5), (3, 5), (9, 5)),  # flat on y
        P2((F(1, 3), F(1, 5)), (F(1, 2), F(1, 4))),  # both spans below one unit
        P2((2, 2),),
        gadget_hexagon_3d().pointset,
        PointSet(3, ((0, 0, 1), (0, 0, -1), (1, 2, 0), (1, 2, 5), (F(-3, 2), 4, 0))),
    ]
    for trial in range(60):
        d = rng.choice((2, 3))
        dens = (1,) if trial % 2 else (1, 2, 3, 6, 11)
        pts = [
            tuple(F(rng.randint(-40, 40), rng.choice(dens)) for _ in range(d))
            for _ in range(rng.randint(1, 12))
        ]
        if d == 3 and len(pts) > 1:
            x, y, _ = pts[0]
            pts.append((x, y, F(rng.randint(50, 60))))  # a projection collision
        sets.append(PointSet(d, tuple(pts)))
    for P in sets:
        k = rng.randint(1, 3)
        # midpoints of input points: half-integers on integer input
        mids = [
            tuple((a + b) / 2 for a, b in zip(rng.choice(P.points), rng.choice(P.points)))
            for _ in range(k)
        ]
        net = WeightedNet(mids, EpsilonProfile(tuple(F(i, 4) for i in range(1, k + 1))))
        extras = _random_extras(rng, P)
        for args in ((P,), (P, net), (P, net, extras), (P, None, extras)):
            assert render_svg(*args) == slow_render_svg(*args)
