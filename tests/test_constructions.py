"""Constructors against the exact verifiers and brute-force oracles."""

import random
from fractions import Fraction as F
from math import comb

import pytest

from epsnet.constructions import (
    _box_triple_slabs,
    _convex_pair_2d,
    _left_counts,
    box_median_point,
    check_box_pair_conditions,
    check_box_triple_conditions,
    check_convex_pair_conditions,
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
from epsnet.geometry import PointSet, halving_hyperplane, integer_coords
from epsnet.ranges import EpsilonProfile, WeightedNet, max_subset_avoiding
from epsnet.verification import (
    verify_weighted_net_boxes,
    verify_weighted_net_convex,
)

from helpers import (
    _slow_axis_cut,
    brute_verify_boxes,
    brute_verify_convex_2d,
    random_pointset,
    slow_box_median_point,
    slow_box_pair_highd,
    slow_box_triple_2d,
    slow_box_triple_slabs,
    slow_convex_pair_2d,
    slow_side_counts,
)

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


_CONDITION_MESSAGES = [
    (construct_convex_pair, 2, (F(1, 2), F(3, 4)),
     "convex pair conditions fail: (i) 2*1/2 + 3/4 < 2;"
     " (ii) 1/2 < (2d-1)/(2d+1) = 3/5"),
    (construct_convex_pair, 2, (F(3, 5), F(3, 4)),
     "convex pair conditions fail: (i) 2*3/5 + 3/4 < 2"),
    (construct_convex_pair, 2, (F(29, 50), F(9, 10)),
     "convex pair conditions fail: (ii) 29/50 < (2d-1)/(2d+1) = 3/5"),
    (construct_convex_pair, 3, (F(2, 3), F(3, 4)),
     "convex pair conditions fail: (i) 3*2/3 + 3/4 < 3;"
     " (ii) 2/3 < (2d-1)/(2d+1) = 5/7"),
    (construct_box_pair_highd, 2, (F(2, 5), F(3, 5)),
     "box pair conditions fail: (i) 2/5 < 3^(d-1)/(2*3^(d-1)+1) = 3/7"),
    (construct_box_pair_highd, 2, (F(3, 7), F(1, 2)),
     "box pair conditions fail: (ii) 3/7 + 1/2 < 1"),
    (construct_box_pair_highd, 3, (F(2, 5), F(1, 2)),
     "box pair conditions fail: (i) 2/5 < 3^(d-1)/(2*3^(d-1)+1) = 9/19;"
     " (ii) 2/5 + 1/2 < 1"),
    (construct_box_triple_2d, 2, (F(3, 8), F(2, 5), F(5, 8)),
     "box triple conditions fail: (ii) 2/5 < 1/2"),
    (construct_box_triple_2d, 2, (F(3, 8), F(1, 2), F(3, 5)),
     "box triple conditions fail: (iii) 3/8 + 3/5 < 1"),
    (construct_box_triple_2d, 2, (F(1, 3), F(2, 5), F(1, 2)),
     "box triple conditions fail: (i) 1/3 < 3/8; (ii) 2/5 < 1/2;"
     " (iii) 1/3 + 1/2 < 1"),
]


@pytest.mark.parametrize(
    "build, d, eps, message",
    _CONDITION_MESSAGES,
    ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(_CONDITION_MESSAGES)],
)
def test_condition_error_messages(build, d, eps, message):
    """Each constructor names exactly the inequalities its profile fails."""
    P = random_pointset(random.Random(3), 8, d)
    with pytest.raises(ConditionError) as info:
        build(P, EpsilonProfile(eps))
    assert str(info.value) == message


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
        net, trace = construct_box_pair_highd(P, PAIR)
        assert net.k == 2
        assert all(brute_verify_boxes(P, net))
        assert trace.method == "box-pair"
        assert len(trace.hyperplanes) == 2


def test_box_pair_seven_points():
    rng = random.Random(23)
    P = random_pointset(rng, 7, 2)
    net, _ = construct_box_pair_highd(P, PAIR)
    assert all(brute_verify_boxes(P, net))


def test_box_pair_multiples_of_seven_always_succeed():
    rng = random.Random(5)
    for n in (14, 21, 35, 49, 70, 98):
        P = random_pointset(rng, n, 2, lo=-200, hi=200)
        net, _ = construct_box_pair_highd(P, PAIR)
        assert verify_weighted_net_boxes(P, net).passed


def test_box_pair_other_sizes_verified_or_reported():
    rng = random.Random(31)
    ok = 0
    for n in range(7, 30):
        P = random_pointset(rng, n, 2)
        try:
            net, _ = construct_box_pair_highd(P, PAIR)
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
        net, _ = construct_box_pair_highd(P, eps)
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
        construct_box_pair_highd(P, EpsilonProfile((F(2, 5), F(3, 5))))


def test_box_pair_duplicate_coordinate_rejected():
    P = PointSet(2, tuple((F(x), F(y)) for x, y in
                          [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (5, 6)]))
    with pytest.raises(DegenerateInputError):
        construct_box_pair_highd(P, PAIR)


def _outcome(build, *args):
    """A construction's result, or the type, message and trace it fails with."""
    try:
        return build(*args)
    except (ConditionError, ConstructionFailureError, DegenerateInputError) as exc:
        return type(exc), str(exc), getattr(exc, "trace", None)


def _rational_pointset(rng, n, d):
    """n points with distinct per-axis coordinates over mixed denominators."""
    cols = []
    for _ in range(d):
        col = set()
        while len(col) < n:
            col.add(F(rng.randint(-60, 60), rng.choice((1, 2, 3, 5, 7, 12))))
        col = sorted(col)
        rng.shuffle(col)
        cols.append(col)
    return PointSet(d, tuple(zip(*cols)))


_BOX_PAIR_PROFILES = {
    2: [PAIR, EpsilonProfile((F(1, 2), F(5, 8))), EpsilonProfile((F(3, 5), F(4, 5)))],
    3: [EpsilonProfile((F(9, 19), F(10, 19))), EpsilonProfile((F(1, 2), F(5, 8)))],
    4: [EpsilonProfile((F(27, 55), F(28, 55))), EpsilonProfile((F(1, 2), F(3, 4)))],
}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_box_pair_matches_fraction_reference(d):
    """The rank-space pair against the Fraction construction: the same
    (net, trace), or the same error and message, on integer, negative and
    mixed-denominator coordinates, odd and even n, tight and loose caps."""
    rng = random.Random(1000 + d)
    built = mirrored = through = 0
    profiles = _BOX_PAIR_PROFILES[d] + [EpsilonProfile((F(2, 5), F(3, 5)))]
    for trial in range(150 if d < 4 else 50):
        n = rng.randint(5, 40)
        if trial % 3 == 0:
            P = _rational_pointset(rng, n, d)
        else:
            P = random_pointset(rng, n, d, lo=-rng.choice((n, 100)), hi=100)
        for eps in profiles:
            got = _outcome(construct_box_pair_highd, P, eps)
            assert got == _outcome(slow_box_pair_highd, P, eps), (P, eps)
            trace = got[1] if isinstance(got[0], WeightedNet) else got[2]
            built += isinstance(got[0], WeightedNet)
            if trace is not None:
                mirrored += any("mirrored" in t for t in trace.notes)
                through += any("through" in t for t in trace.notes)
    assert built and mirrored and through
    dup = PointSet(d, P.points + P.points[:1])
    assert _outcome(construct_box_pair_highd, dup, profiles[0]) == _outcome(
        slow_box_pair_highd, dup, profiles[0]
    )
    # mirrored inputs: each axis reversed gives the reference's answer too
    P = random_pointset(rng, 21, d)
    for a in range(d):
        flipped = PointSet(d, tuple(
            tuple(-c if b == a else c for b, c in enumerate(p)) for p in P.points
        ))
        for eps in profiles:
            want = _outcome(slow_box_pair_highd, flipped, eps)
            assert _outcome(construct_box_pair_highd, flipped, eps) == want


def test_box_pair_failure_messages_match_reference():
    """Disjoint slab boxes fail with the reference's message and trace."""
    rng = random.Random(61)
    failed = 0
    for _ in range(200):
        P = random_pointset(rng, rng.randint(8, 13), 2, lo=-30, hi=30)
        got = _outcome(construct_box_pair_highd, P, PAIR)
        assert got == _outcome(slow_box_pair_highd, P, PAIR)
        if got[0] is ConstructionFailureError:
            assert got[1].startswith("slab boxes ") and "are disjoint on axis" in got[1]
            failed += 1
    assert failed


def test_box_pair_cut_is_the_kill_cap():
    """Wherever the pair conditions hold, the Fraction cut search stops at
    its first count, floor(e1*n), and passes through a point exactly when
    the survivor side would exceed floor(e2*n): the cut the rank-space
    pair takes.  So no axis is ever left without a cut, and the kill side,
    below the level-1 threshold, never forms a slab."""
    for den in range(2, 16):
        for a in range(1, den):
            for b in range(a, den):
                eps = EpsilonProfile((F(a, den), F(b, den)))
                if not check_box_pair_conditions(2, eps):
                    continue
                for n in range(1, 40):
                    kill, surv = int(eps[0] * n), int(eps[1] * n)
                    _, k, on_pt = _slow_axis_cut(list(range(n)), kill, surv)
                    assert (k, on_pt) == (kill, n - kill > surv)
                    assert k < eps.min_strict_count(1, n)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_median_point_matches_fraction_reference(d):
    rng = random.Random(70 + d)
    for trial in range(40):
        n = rng.randint(1, 30)
        if trial % 2:
            P = _rational_pointset(rng, n, d)
        else:
            P = random_pointset(rng, n, d, lo=-100, hi=100)
        assert box_median_point(P) == slow_box_median_point(P)
    P = PointSet(d, tuple((F(i % 3, 2),) * d for i in range(5)))
    assert _outcome(box_median_point, P) == _outcome(slow_box_median_point, P)


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


def test_box_triple_slabs_match_full_grid():
    """The slab scan cropped to each slab's t1 window against the full
    n x n grid: the same list of yields, ``[None, None]`` slabs included,
    on seeded rank permutations with odd and even n from 3 to 70.  The
    cases must hold slabs where the p1 rule's t2 threshold changes a
    member (the yields differ with t2 = t1), slabs where level-3 boxes do
    (they differ with t3 = n + 1) and empty families.  At (1/2, 1/2, 1/2)
    t3 = t1, so every member is a level-3 box."""
    rng = random.Random(2311)
    profiles = [
        EpsilonProfile(eps)
        for eps in (
            TRIPLE.eps,
            (F(3, 8), F(1, 2), F(9, 10)),
            (F(2, 5), F(1, 2), F(3, 4)),
            (F(1, 2), F(1, 2), F(1, 2)),
        )
    ]
    seen = set()
    for n in range(3, 71):
        # consecutive n share a profile, so each profile meets both parities
        eps = profiles[n // 2 % 4]
        t1, t2, t3 = (eps.min_strict_count(i, n) for i in (1, 2, 3))
        xrank, yrank = rng.sample(range(n), n), rng.sample(range(n), n)
        got = list(_box_triple_slabs(xrank, yrank, t1, t2, t3))
        assert got == list(slow_box_triple_slabs(xrank, yrank, t1, t2, t3)), (
            n, eps, xrank, yrank,
        )
        if any(None in found for _, _, found in got):
            seen.add("empty family")
        if "t2" not in seen and got != list(
            _box_triple_slabs(xrank, yrank, t1, t1, t3)
        ):
            seen.add("t2")
        if "t3" not in seen and got != list(
            _box_triple_slabs(xrank, yrank, t1, t2, n + 1)
        ):
            seen.add("t3")
    assert seen == {"empty family", "t2", "t3"}


# (seed, n) of random_pointset inputs whose family B fails on axis x or y
_TRIPLE_FAILURES = [(4, 13), (180, 5), (194, 13), (218, 21)]


def test_box_triple_matches_fraction_reference():
    """The rank-model triple against the Fraction construction: the same
    (net, trace), or the same error, message and trace, for odd and even
    n from 5 to 62, integer, negative and mixed-denominator coordinates,
    mirrored and plain sets, two profiles and family failures on both
    axes."""
    rng = random.Random(1203)
    profiles = (TRIPLE, EpsilonProfile((F(3, 8), F(1, 2), F(9, 10))))
    cases = []
    for n in range(5, 63, 3):
        if n % 2:
            P = _rational_pointset(rng, n, 2)
        else:
            P = random_pointset(rng, n, 2, lo=-150, hi=150)
        cases.append((P, profiles[n % 4 < 2]))
        flipped = affine_map(P, (F(-1), F(1)), (F(0), F(0)))
        cases.append((flipped, profiles[n % 4 >= 2]))
    for seed, n in _TRIPLE_FAILURES:
        cases.append((random_pointset(random.Random(seed), n, 2), TRIPLE))
    seen = set()
    for P, eps in cases:
        got = _outcome(construct_box_triple_2d, P, eps)
        assert got == _outcome(slow_box_triple_2d, P, eps), (P, eps)
        if isinstance(got[0], WeightedNet):
            seen.add("mirrored" if "mirrored x" in got[1].notes else "plain")
        else:
            seen.add(got[1][-6:])
    assert seen == {"mirrored", "plain", "axis x", "axis y"}


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


def _rational_general_position(rng, n):
    """n points with mixed denominators, distinct per axis, no three on a
    line."""
    while True:
        pts = tuple(
            (F(rng.randint(-900, 900), rng.choice((1, 2, 3, 7))),
             F(rng.randint(-900, 900), rng.choice((1, 4, 5))))
            for _ in range(n)
        )
        P = PointSet(2, pts)
        try:
            P.check_general_position()
        except DegenerateInputError:
            continue
        return P


def test_left_counts_match_per_pair_orientations():
    rng = random.Random(401)
    for trial in range(25):
        n = 3 + trial * 57 // 24  # 3 .. 60
        P = _rational_general_position(rng, n)
        _, ipts = integer_coords(P)
        order = sorted(range(n), key=lambda i: ipts[i])
        above = [rng.random() < 0.5 for _ in range(n)]
        for a, u in enumerate(order):
            left, up = _left_counts(ipts, above, order, a)
            for w in range(n):
                if w == u:
                    continue
                want_left, want_right, want_up, _ = slow_side_counts(ipts, above, u, w)
                assert (left[w], up[w]) == (want_left, want_up)
                assert want_left + want_right == n - 2


def test_convex_pair_2d_matches_collected_fraction_clipping():
    rng = random.Random(409)
    outcomes = set()
    for trial in range(30):
        n = rng.randint(5, 60) if trial % 3 else rng.randint(5, 15)
        P = _rational_general_position(rng, n)
        if trial % 5 == 4:
            # few points above: family B can empty while A does not
            above = [rng.random() < 0.15 for _ in range(n)]
        else:
            H = halving_hyperplane(P, 1)
            above = [H.side(p) > 0 for p in P.points]
        if trial % 2:
            t1, t2 = CONVEX.min_strict_count(1, n), CONVEX.min_strict_count(2, n)
        else:
            # arbitrary thresholds, many of which empty a family
            t1 = rng.randint(3, n)
            t2 = rng.randint(t1, n)
        try:
            want = slow_convex_pair_2d(P, above, t1, t2)
        except ConstructionFailureError as exc:
            with pytest.raises(ConstructionFailureError) as got:
                _convex_pair_2d(P, above, t1, t2)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc)[:8])
            continue
        assert _convex_pair_2d(P, above, t1, t2) == want
        outcomes.add("net")
    assert outcomes == {"net", "family A", "family B"}


def test_convex_pair_planar_ignores_member_budget():
    # the halfplane path enumerates no subset hulls, so a family of more
    # than two million of them does not stop it
    rng = random.Random(83)
    P = random_pointset(rng, 30, 2, lo=-200, hi=200, no_collinear=True)
    t1, t2 = CONVEX.min_strict_count(1, 30), CONVEX.min_strict_count(2, 30)
    assert comb(30, t1) + comb(30, t2) > 2_000_000
    net, _ = construct_convex_pair(P, CONVEX)
    assert max_subset_avoiding(P, net.points) < t1
    for q in net.points:
        assert max_subset_avoiding(P, [q]) < t2


def test_convex_pair_lp_path_refuses_before_enumerating(monkeypatch):
    # n = 15 in d = 3: C(15, 11) + 2 * C(15, 13) = 1575 member hulls, over
    # the cap of 400, refused before a single hull is built
    rng = random.Random(79)
    eps = EpsilonProfile((F(5, 7), F(6, 7)))
    while True:
        P = random_pointset(rng, 15, 3)
        try:
            P.check_general_position()
            break
        except DegenerateInputError:
            continue

    def no_hulls(*args):
        raise AssertionError("a member hull was built")

    monkeypatch.setattr("epsnet.constructions.SubsetHull", no_hulls)
    t1, t2 = eps.min_strict_count(1, 15), eps.min_strict_count(2, 15)
    with pytest.raises(BudgetExceededError) as exc:
        construct_convex_pair(P, eps)
    assert exc.value.required == comb(15, t1) + 2 * comb(15, t2) == 1575


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
        lambda Q: construct_box_pair_highd(Q, PAIR),
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
    netp, _ = construct_box_pair_highd(P, PAIR)
    netp2, _ = construct_box_pair_highd(affine_map(P, scales, shifts), PAIR)
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
        (14, construct_box_pair_highd, PAIR),
        (16, construct_box_triple_2d, TRIPLE),
    ):
        P = random_pointset(rng, n, 2)
        net, _ = builder(P, eps)
        box = P.bounding_box()
        for q in net.points:
            assert all(lo <= c <= hi for c, (lo, hi) in zip(q, box))
