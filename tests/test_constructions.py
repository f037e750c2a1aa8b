"""Constructors against the exact verifiers and brute-force oracles."""

import random
from fractions import Fraction as F
from math import comb

import pytest

from epsnet.constructions import (
    ConstructionTrace,
    ConvexRangeClass,
    box_median_point,
    check_box_pair_conditions,
    check_box_triple_conditions,
    check_convex_pair_conditions,
    classify_small_range,
    construct_box_pair_2d,
    construct_box_pair_highd,
    construct_box_triple_2d,
    construct_convex_pair,
)
from epsnet.errors import (
    BudgetExceededError,
    ConditionError,
    ConstructionFailureError,
    DegenerateInputError,
)
from epsnet.geometry import PointSet
from epsnet.ranges import EpsilonProfile, max_subset_avoiding
from epsnet.verification import (
    verify_weighted_net_boxes,
    verify_weighted_net_convex,
)

from helpers import brute_verify_boxes, brute_verify_convex_2d, random_pointset

PAIR = EpsilonProfile((F(3, 7), F(4, 7)))
TRIPLE = EpsilonProfile((F(3, 8), F(1, 2), F(5, 8)))
CONVEX = EpsilonProfile((F(3, 5), F(4, 5)))


def affine_map(P, scales, shifts):
    pts = tuple(
        tuple(s * c + t for c, s, t in zip(p, scales, shifts)) for p in P.points
    )
    return PointSet(P.dim, pts)


def map_point(q, scales, shifts):
    return tuple(s * c + t for c, s, t in zip(q, scales, shifts))


# ---------------------------------------------------------------------------
# condition checks


def test_convex_pair_conditions_table():
    assert check_convex_pair_conditions(2, CONVEX)
    assert check_convex_pair_conditions(2, EpsilonProfile((F(3, 5), F(9, 10))))
    assert not check_convex_pair_conditions(2, EpsilonProfile((F(1, 2), F(9, 10))))
    assert not check_convex_pair_conditions(2, EpsilonProfile((F(3, 5), F(3, 4))))
    # d = 3: needs e1 >= 5/7 and 3*e1 + e2 >= 3
    assert check_convex_pair_conditions(3, EpsilonProfile((F(5, 7), F(6, 7))))
    assert not check_convex_pair_conditions(3, EpsilonProfile((F(5, 7), F(5, 7))))
    with pytest.raises(ValueError):
        check_convex_pair_conditions(1, CONVEX)
    with pytest.raises(ValueError):
        check_convex_pair_conditions(2, TRIPLE)


def test_box_pair_conditions_table():
    assert check_box_pair_conditions(2, PAIR)
    assert check_box_pair_conditions(2, EpsilonProfile((F(1, 2), F(5, 8))))
    assert not check_box_pair_conditions(2, EpsilonProfile((F(2, 5), F(3, 5))))
    assert not check_box_pair_conditions(2, EpsilonProfile((F(3, 7), F(1, 2))))
    assert check_box_pair_conditions(3, EpsilonProfile((F(9, 19), F(10, 19))))
    assert not check_box_pair_conditions(3, PAIR)
    with pytest.raises(ValueError):
        check_box_pair_conditions(1, PAIR)


def test_box_triple_conditions_table():
    assert check_box_triple_conditions(TRIPLE)
    assert check_box_triple_conditions(EpsilonProfile((F(3, 8), F(1, 2), F(9, 10))))
    assert not check_box_triple_conditions(EpsilonProfile((F(1, 3), F(1, 2), F(2, 3))))
    assert not check_box_triple_conditions(EpsilonProfile((F(3, 8), F(1, 2), F(3, 5))))
    with pytest.raises(ValueError):
        check_box_triple_conditions(PAIR)


def test_range_class_invariants():
    assert classify_small_range(3, 2) == ConvexRangeClass("small", "A")
    assert classify_small_range(2, 2) == ConvexRangeClass("small", "A")
    assert classify_small_range(1, 3) == ConvexRangeClass("small", "B")
    with pytest.raises(ValueError):
        ConvexRangeClass("big", "A")
    with pytest.raises(ValueError):
        ConvexRangeClass("small", "both")
    with pytest.raises(ValueError):
        ConvexRangeClass("huge", "A")


# ---------------------------------------------------------------------------
# median point


def test_median_point_three_on_a_line():
    P = PointSet(1, ((F(1),), (F(2),), (F(3),)))
    net = box_median_point(P)
    assert net.points == ((F(2),),)
    assert net.profile.eps == (F(1, 2),)


def test_median_point_is_input_coordinatewise():
    rng = random.Random(7)
    for d in (1, 2, 3):
        for _ in range(5):
            P = random_pointset(rng, rng.randint(3, 11), d)
            net = box_median_point(P)
            q = net.points[0]
            for a in range(d):
                assert q[a] in P.axis_coords(a)
            assert all(brute_verify_boxes(P, net))


def test_median_point_even_count():
    P = PointSet(1, ((F(1),), (F(2),), (F(3),), (F(4),)))
    assert box_median_point(P).points == ((F(2),),)


# ---------------------------------------------------------------------------
# box pairs


def test_box_pair_small_brute():
    rng = random.Random(11)
    for _ in range(4):
        P = random_pointset(rng, 14, 2)
        net, trace = construct_box_pair_2d(P, PAIR)
        assert net.k == 2
        assert all(brute_verify_boxes(P, net))
        assert trace.method == "box-pair"
        assert len(trace.hyperplanes) == 2


def test_box_pair_seven_points():
    rng = random.Random(23)
    P = random_pointset(rng, 7, 2)
    net, _ = construct_box_pair_2d(P, PAIR)
    assert all(brute_verify_boxes(P, net))


def test_box_pair_multiples_of_seven_always_succeed():
    rng = random.Random(5)
    for n in (14, 21, 35, 49, 70, 98):
        P = random_pointset(rng, n, 2, lo=-200, hi=200)
        net, _ = construct_box_pair_2d(P, PAIR)
        assert verify_weighted_net_boxes(P, net).passed


def test_box_pair_other_sizes_verified_or_reported():
    rng = random.Random(31)
    ok = 0
    for n in range(7, 30):
        P = random_pointset(rng, n, 2)
        try:
            net, _ = construct_box_pair_2d(P, PAIR)
        except ConstructionFailureError:
            assert n % 7 != 0
            continue
        ok += 1
        assert verify_weighted_net_boxes(P, net).passed
    assert ok >= 10


def test_box_pair_generous_profile():
    rng = random.Random(43)
    eps = EpsilonProfile((F(1, 2), F(5, 8)))
    for n in (9, 16, 25, 40, 100):
        P = random_pointset(rng, n, 2, lo=-300, hi=300)
        net, _ = construct_box_pair_2d(P, eps)
        assert verify_weighted_net_boxes(P, net).passed


def test_box_pair_highd():
    rng = random.Random(3)
    eps3 = EpsilonProfile((F(9, 19), F(10, 19)))
    for n in (19, 38):
        P = random_pointset(rng, n, 3, lo=-100, hi=100)
        net, trace = construct_box_pair_highd(P, eps3)
        assert len(trace.hyperplanes) == 3
        assert verify_weighted_net_boxes(P, net).passed
    loose = EpsilonProfile((F(1, 2), F(5, 8)))
    for n in (12, 24):
        P = random_pointset(rng, n, 3, lo=-100, hi=100)
        net, _ = construct_box_pair_highd(P, loose)
        assert verify_weighted_net_boxes(P, net).passed


def test_box_pair_highd_small_brute():
    rng = random.Random(17)
    loose = EpsilonProfile((F(1, 2), F(5, 8)))
    P = random_pointset(rng, 12, 3)
    net, _ = construct_box_pair_highd(P, loose)
    assert all(brute_verify_boxes(P, net))


def test_box_pair_d4():
    rng = random.Random(29)
    eps = EpsilonProfile((F(27, 55), F(28, 55)))
    P = random_pointset(rng, 55, 4, lo=-400, hi=400)
    net, trace = construct_box_pair_highd(P, eps)
    assert len(trace.hyperplanes) == 4
    assert verify_weighted_net_boxes(P, net).passed


def test_box_pair_condition_error():
    rng = random.Random(1)
    P = random_pointset(rng, 14, 2)
    with pytest.raises(ConditionError):
        construct_box_pair_2d(P, EpsilonProfile((F(2, 5), F(3, 5))))


def test_box_pair_needs_2d():
    rng = random.Random(1)
    P = random_pointset(rng, 14, 3)
    with pytest.raises(DegenerateInputError):
        construct_box_pair_2d(P, PAIR)


def test_box_pair_duplicate_coordinate_rejected():
    P = PointSet(2, tuple((F(x), F(y)) for x, y in
                          [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (5, 6)]))
    with pytest.raises(DegenerateInputError):
        construct_box_pair_2d(P, PAIR)


# ---------------------------------------------------------------------------
# box triples


def test_box_triple_small_brute():
    rng = random.Random(13)
    P = random_pointset(rng, 16, 2)
    net, trace = construct_box_triple_2d(P, TRIPLE)
    assert net.k == 3
    assert all(brute_verify_boxes(P, net))
    assert trace.method == "box-triple"


def test_box_triple_even_sizes_always_succeed():
    rng = random.Random(37)
    for n in (16, 24, 40, 56, 80):
        P = random_pointset(rng, n, 2, lo=-250, hi=250)
        net, _ = construct_box_triple_2d(P, TRIPLE)
        assert verify_weighted_net_boxes(P, net).passed


def test_box_triple_odd_sizes_verified_or_reported():
    rng = random.Random(41)
    ok = 0
    for n in range(9, 41, 2):
        P = random_pointset(rng, n, 2)
        try:
            net, _ = construct_box_triple_2d(P, TRIPLE)
        except ConstructionFailureError:
            continue
        ok += 1
        assert verify_weighted_net_boxes(P, net).passed
    assert ok >= 8


def test_box_triple_wide_profile():
    rng = random.Random(47)
    eps = EpsilonProfile((F(3, 8), F(1, 2), F(9, 10)))
    for n in (16, 40):
        P = random_pointset(rng, n, 2, lo=-250, hi=250)
        net, _ = construct_box_triple_2d(P, eps)
        assert verify_weighted_net_boxes(P, net).passed


def test_box_triple_four_clusters():
    # four tight clusters at the corners of a square
    quads = [
        [(10, 10), (11, 13), (12, 11), (13, 12)],
        [(-10, 14), (-11, 16), (-12, 15), (-13, 17)],
        [(-14, -10), (-15, -12), (-16, -11), (-17, -13)],
        [(14, -14), (15, -16), (16, -15), (17, -17)],
    ]
    pts = tuple((F(x), F(y)) for quad in quads for x, y in quad)
    P = PointSet(2, pts)
    net, _ = construct_box_triple_2d(P, TRIPLE)
    assert all(brute_verify_boxes(P, net))


def test_box_triple_mirrored_orientation():
    # quadrant counts 6/2/2/6, so exactly one orientation mirrors
    pts = (
        [(-8 + i, 3 + i) for i in range(6)]
        + [(-2, -1), (-1, -2)]
        + [(1, 1), (2, 2)]
        + [(3 + i, -3 - i) for i in range(6)]
    )
    P = PointSet(2, tuple((F(x), F(y)) for x, y in pts))
    net, trace = construct_box_triple_2d(P, TRIPLE)
    flipped = affine_map(P, (F(-1), F(1)), (F(0), F(0)))
    net2, trace2 = construct_box_triple_2d(flipped, TRIPLE)
    assert ("mirrored x" in trace.notes) != ("mirrored x" in trace2.notes)
    assert verify_weighted_net_boxes(flipped, net2).passed
    assert all(brute_verify_boxes(P, net))


def test_box_triple_condition_error():
    rng = random.Random(1)
    P = random_pointset(rng, 16, 2)
    with pytest.raises(ConditionError):
        construct_box_triple_2d(P, EpsilonProfile((F(1, 3), F(1, 2), F(2, 3))))


def test_box_triple_needs_2d():
    rng = random.Random(2)
    P = random_pointset(rng, 16, 3)
    with pytest.raises(DegenerateInputError):
        construct_box_triple_2d(P, TRIPLE)


# ---------------------------------------------------------------------------
# convex pairs


def test_convex_pair_small_brute():
    rng = random.Random(61)
    P = random_pointset(rng, 10, 2, no_collinear=True)
    net, trace = construct_convex_pair(P, CONVEX)
    assert brute_verify_convex_2d(P, net) == [True, True]
    assert len(trace.hyperplanes) == 1
    sizes = dict(trace.class_sizes)
    assert sizes["small_A"] + sizes["small_B"] == comb(10, 7)
    assert sizes["big"] == comb(10, 9)


def test_convex_pair_verifier_sizes():
    rng = random.Random(67)
    for n in (10, 15):
        P = random_pointset(rng, n, 2, no_collinear=True)
        net, _ = construct_convex_pair(P, CONVEX)
        report = verify_weighted_net_convex(P, net)
        assert report.passed


def test_convex_pair_n20():
    rng = random.Random(71)
    P = random_pointset(rng, 20, 2, lo=-60, hi=60, no_collinear=True)
    net, _ = construct_convex_pair(P, CONVEX)
    assert verify_weighted_net_convex(P, net).passed


def test_convex_pair_tiny_disc():
    # a far-away cluster: both net points must land inside it
    pts = []
    rng = random.Random(73)
    while True:
        xs = rng.sample(range(1000, 1030), 12)
        ys = rng.sample(range(2000, 2030), 12)
        pts = tuple((F(x), F(y)) for x, y in zip(xs, ys))
        P = PointSet(2, pts)
        try:
            P.check_general_position()
        except Exception:
            continue
        break
    net, _ = construct_convex_pair(P, CONVEX)
    for q in net.points:
        assert F(1000) <= q[0] <= F(1030)
        assert F(2000) <= q[1] <= F(2030)
    assert brute_verify_convex_2d(P, net) == [True, True]


def test_convex_pair_d3():
    rng = random.Random(79)
    eps = EpsilonProfile((F(5, 7), F(6, 7)))
    while True:
        P = random_pointset(rng, 7, 3)
        try:
            P.check_general_position()
            break
        except Exception:
            continue
    net, _ = construct_convex_pair(P, eps)
    from epsnet.verification import verify_weighted_net

    assert verify_weighted_net(P, net, kind="convex").passed


def test_convex_pair_planar_ignores_member_budget():
    # the halfplane path enumerates no subset hulls, so a family far over
    # the default budget does not stop it
    rng = random.Random(83)
    P = random_pointset(rng, 30, 2, lo=-200, hi=200, no_collinear=True)
    t1, t2 = CONVEX.min_strict_count(1, 30), CONVEX.min_strict_count(2, 30)
    assert comb(30, t1) + comb(30, t2) > 2_000_000
    net, _ = construct_convex_pair(P, CONVEX)
    assert max_subset_avoiding(P, net.points) < t1
    for q in net.points:
        assert max_subset_avoiding(P, [q]) < t2


def test_convex_pair_lp_path_keeps_member_budget():
    rng = random.Random(79)
    eps = EpsilonProfile((F(5, 7), F(6, 7)))
    while True:
        P = random_pointset(rng, 7, 3)
        try:
            P.check_general_position()
            break
        except DegenerateInputError:
            continue
    need = comb(7, eps.min_strict_count(1, 7)) + comb(7, eps.min_strict_count(2, 7))
    with pytest.raises(BudgetExceededError) as exc:
        construct_convex_pair(P, eps, member_budget=need - 1)
    assert exc.value.required == need
    construct_convex_pair(P, eps, member_budget=need)


def test_convex_pair_condition_error():
    rng = random.Random(1)
    P = random_pointset(rng, 10, 2, no_collinear=True)
    with pytest.raises(ConditionError):
        construct_convex_pair(P, EpsilonProfile((F(1, 2), F(9, 10))))


# ---------------------------------------------------------------------------
# shared properties


def test_determinism_and_replayable_traces():
    rng = random.Random(83)
    P = random_pointset(rng, 16, 2)
    for build in (
        lambda Q: construct_box_pair_2d(Q, PAIR),
        lambda Q: construct_box_triple_2d(Q, TRIPLE),
    ):
        try:
            net1, tr1 = build(P)
        except ConstructionFailureError:
            continue
        net2, tr2 = build(P)
        assert net1 == net2
        assert tr1 == tr2
    Q = random_pointset(rng, 12, 2, no_collinear=True)
    assert construct_convex_pair(Q, CONVEX) == construct_convex_pair(Q, CONVEX)


def test_equivariance_under_positive_affine_maps():
    rng = random.Random(89)
    scales = (F(3), F(2))
    shifts = (F(7), F(-5))
    P = random_pointset(rng, 14, 2)
    netp, _ = construct_box_pair_2d(P, PAIR)
    netp2, _ = construct_box_pair_2d(affine_map(P, scales, shifts), PAIR)
    assert netp2.points == tuple(map_point(q, scales, shifts) for q in netp.points)

    Pt = random_pointset(rng, 16, 2)
    nett, _ = construct_box_triple_2d(Pt, TRIPLE)
    nett2, _ = construct_box_triple_2d(affine_map(Pt, scales, shifts), TRIPLE)
    assert nett2.points == tuple(map_point(q, scales, shifts) for q in nett.points)

    Pm = random_pointset(rng, 9, 2)
    netm = box_median_point(Pm)
    netm2 = box_median_point(affine_map(Pm, scales, shifts))
    assert netm2.points == tuple(map_point(q, scales, shifts) for q in netm.points)

    Pc = random_pointset(rng, 12, 2, no_collinear=True)
    netc, _ = construct_convex_pair(Pc, CONVEX)
    netc2, _ = construct_convex_pair(affine_map(Pc, scales, shifts), CONVEX)
    assert netc2.points == tuple(map_point(q, scales, shifts) for q in netc.points)


def test_net_points_inside_bounding_box():
    rng = random.Random(97)
    for n, builder, eps in (
        (14, construct_box_pair_2d, PAIR),
        (16, construct_box_triple_2d, TRIPLE),
    ):
        P = random_pointset(rng, n, 2)
        net, _ = builder(P, eps)
        box = P.bounding_box()
        for q in net.points:
            assert all(lo <= c <= hi for c, (lo, hi) in zip(q, box))
