"""Deterministic SVG figures for planar instances.

Three-dimensional inputs are drawn as their xy-projection; points whose
projections coincide (the pole pairs of the lifted gadgets) collapse to a
single cross.  Output depends only on the input, so figures can be pinned
byte for byte.

Every drawn coordinate is scaled by one positive common denominator to an
integer, and each screen coordinate is written as an integer numerator over
one integer denominator.  Integer true division is correctly rounded, as is
the float of a Fraction, so each printed number is that of the exact
rational screen coordinate.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import UnsupportedDimensionError
from .geometry import Point, PointSet, SubsetHull, hull2d, integer_coords
from .ranges import BoxRange, WeightedNet

_SIZE = 480
_PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#b279a2", "#e45756")

Extra = Union[SubsetHull, BoxRange, Sequence[Point]]


def _extra_points(extra: Extra) -> tuple[list[tuple], bool]:
    """The projected points of an extra, and whether they are a box's
    corners, drawn as they are, rather than points whose hull is drawn."""
    if isinstance(extra, BoxRange):
        if len(extra.intervals) != 2:
            raise UnsupportedDimensionError("only planar boxes can be drawn")
        (x0, x1), (y0, y1) = extra.intervals
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)], True
    pts = extra.points if isinstance(extra, SubsetHull) else extra
    return [(p[0], p[1]) for p in pts], False


def render_svg(
    P: PointSet,
    net: Optional[WeightedNet] = None,
    extras: Iterable[Extra] = (),
) -> str:
    """Point cloud as dots, net points as crosses, witnesses as regions."""
    if P.dim not in (2, 3):
        raise UnsupportedDimensionError(f"cannot draw dimension {P.dim}")
    shapes = [_extra_points(e) for e in extras]
    marks = [(q[0], q[1]) for q in net.points] if net is not None else []
    others = marks + [v for pts, _ in shapes for v in pts]
    scale, ipts = integer_coords(P)
    den = lcm(scale, *(c.denominator for q in others for c in q))
    f = den // scale
    dots = [(p[0] * f, p[1] * f) for p in ipts]
    iothers = [
        (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for x, y in others
    ]
    crosses = iothers[: len(marks)]
    regions = []
    at = len(marks)
    for pts, is_box in shapes:
        verts = iothers[at : at + len(pts)]
        at += len(pts)
        if not is_box:
            verts = sorted(set(verts))
            if len(verts) >= 3:
                verts = hull2d(verts)
        regions.append(verts)
    if P.dim == 3:
        # projection collisions mark the lifted pole pairs
        seen: dict[tuple[int, int], int] = {}
        for q in dots:
            seen[q] = seen.get(q, 0) + 1
        crosses.extend(q for q, count in sorted(seen.items()) if count > 1)
        dots = [q for q in dots if seen[q] == 1]

    everything = dots + crosses + [v for region in regions for v in region]
    if not everything:
        raise ValueError("nothing to draw")
    xs = [q[0] for q in everything]
    ys = [q[1] for q in everything]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    # span at least one unit (den in scaled units) so a flat set still draws
    span = max(hi_x - lo_x, hi_y - lo_y, den)
    # Screen x is (x - lo_x + margin + off_x) * _SIZE / (span + 2 * margin)
    # with margin = span / 20 and off_x = (span - (hi_x - lo_x)) / 2, which
    # centres the shorter axis inside the square viewport; y points up.
    # Over the denominator 22 * span both are _SIZE times an integer.
    px = 22 * span
    base_x = 11 * span - 10 * (hi_x - lo_x) - 20 * lo_x
    base_y = 11 * span + 10 * (hi_y - lo_y) + 20 * lo_y

    def sx(x: int) -> str:
        return f"{_SIZE * (20 * x + base_x) / px:.2f}"

    def sy(y: int) -> str:
        return f"{_SIZE * (base_y - 20 * y) / px:.2f}"

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]
    for i, region in enumerate(regions):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in region)
        if len(region) >= 3:
            out.append(
                f'<polygon points="{pts}" fill="{color}" fill-opacity="0.25" '
                f'stroke="{color}" stroke-width="1"/>'
            )
        elif len(region) == 2:
            (x0, y0), (x1, y1) = region
            out.append(
                f'<line x1="{sx(x0)}" y1="{sy(y0)}" x2="{sx(x1)}" y2="{sy(y1)}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
    for x, y in dots:
        out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="3.5" fill="#1f2430"/>')
    for x, y in crosses:
        cx, cy = float(sx(x)), float(sy(y))
        arm = 6.0
        out.append(
            f'<path d="M {cx - arm:.2f} {cy - arm:.2f} L {cx + arm:.2f} {cy + arm:.2f} '
            f'M {cx - arm:.2f} {cy + arm:.2f} L {cx + arm:.2f} {cy - arm:.2f}" '
            f'stroke="#c0392b" stroke-width="2.5" fill="none"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
