"""verification: exact verdicts, counting bound, piercing."""

import dataclasses
import random
from fractions import Fraction as F
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from epsnet.constructions import construct_convex_pair
from epsnet.errors import BudgetExceededError, DimensionMismatchError
from epsnet.gadgets import (
    certify,
    gadget_five_clusters,
    gadget_hexagon_3d,
    gadget_simplex,
)
from epsnet.geometry import (
    HPolytope,
    PointSet,
    SubsetHull,
    centroid,
    hull2d,
    integer_coords,
    point_in_hull,
)
from epsnet.io_formats import read_pointset
from epsnet.ranges import (
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    count_in_box,
    hull_holds,
    max_subset_avoiding,
)
from epsnet.verification import (
    counting_bound,
    pierceable_by_two,
    verify_weighted_net,
    verify_weighted_net_boxes,
    verify_weighted_net_convex,
)

from helpers import (
    REPEATED_11,
    brute_verify_boxes,
    subset_verify_boxes,
    brute_verify_convex_2d,
    point_in_convex_polygon,
    random_pointset,
    slow_verify_boxes,
    slow_verify_convex,
)

DATA = Path(__file__).parent / "data"


def P2(*pts):
    return PointSet(2, tuple(tuple(F(c) for c in p) for p in pts))


def random_net(rng, d, k, lo=-50, hi=50, profile=None):
    if profile is None:
        cuts = sorted(rng.randint(1, 9) for _ in range(k))
        profile = EpsilonProfile(tuple(F(c, 10) for c in cuts))
    pts = tuple(tuple(F(rng.randint(lo, hi)) for _ in range(d)) for _ in range(k))
    return WeightedNet(pts, profile)


# --- counting bound -----------------------------------------------------------


def test_counting_bound_values():
    eps = EpsilonProfile((F(3, 5), F(4, 5)))
    assert counting_bound(10, 1, 2, eps) == 2
    assert counting_bound(10, 0, 0, eps) == 10
    # d small sets and one big set at the boundary d*e1 + e2 = d
    assert counting_bound(10, 2, 1, eps) == 0


def test_counting_bound_validation():
    eps = EpsilonProfile((F(3, 5), F(4, 5)))
    with pytest.raises(ValueError):
        counting_bound(10, -1, 0, eps)
    with pytest.raises(ValueError):
        counting_bound(10, 0, 0, EpsilonProfile((F(1, 2),)))


def test_counting_bound_vs_measured_intersections():
    rng = random.Random(55)
    eps = EpsilonProfile((F(3, 5), F(4, 5)))
    checked = 0
    while checked < 150:
        n = rng.randint(5, 15)
        ps = random_pointset(rng, n, 2, lo=-20, hi=20)
        t1 = int(eps[0] * n) + 1
        t2 = int(eps[1] * n) + 1
        k = rng.randint(0, 2)
        l = rng.randint(0, 2 - k) if k < 2 else 0
        if k + l == 0 or t2 > n:
            continue
        scale, ipts = integer_coords(ps)
        hulls = []
        for _ in range(k):
            hulls.append(hull2d(sorted(rng.sample(ipts, t1))))
        for _ in range(l):
            hulls.append(hull2d(sorted(rng.sample(ipts, t2))))
        measured = sum(
            1
            for p in ipts
            if all(point_in_convex_polygon(p, h) >= 0 for h in hulls)
        )
        assert measured > counting_bound(n, k, l, eps)
        checked += 1


# --- box verification -----------------------------------------------------------


def test_far_net_fails_with_bounding_box_witness():
    ps = P2((0, 0), (1, 2), (3, 1), (2, 4))
    net = WeightedNet(
        ((F(100), F(100)), (F(101), F(101))),
        EpsilonProfile((F(3, 7), F(4, 7))),
    )
    report = verify_weighted_net_boxes(ps, net)
    assert not report.passed
    assert report.verdicts == (False, False)
    v = report.violations[0]
    assert v.level == 1
    assert v.witness.intervals == ps.bounding_box()
    assert v.net_count == 0 and v.point_count == 4


def test_center_net_passes_square():
    ps = P2((0, 0), (4, 2), (1, 4), (3, 1))  # distinct coords per axis
    net = WeightedNet(((F(2), F(2)),), EpsilonProfile((F(1, 2),)))
    report = verify_weighted_net_boxes(ps, net)
    # the point (2,2) is inside every box with 3+ points of this set
    assert report.passed == all(brute_verify_boxes(ps, net))


def assert_box_report_matches_bruteforce(ps, net):
    report = verify_weighted_net_boxes(ps, net)
    assert list(report.verdicts) == brute_verify_boxes(ps, net)
    for v in report.violations:
        assert count_in_box(ps, v.witness) == v.point_count
        assert v.witness.count_net_points(net.points) == v.net_count
        assert v.point_count >= net.profile.min_strict_count(v.level, ps.n)
        assert v.net_count < v.level
    return report


def test_box_verifier_matches_bruteforce():
    rng = random.Random(60)
    for _ in range(60):
        n = rng.randint(3, 9)
        ps = random_pointset(rng, n, rng.choice([1, 2]), lo=-12, hi=12)
        k = rng.randint(1, 3)
        # mix far-away and near-median nets to get both verdicts
        net = random_net(rng, ps.dim, k, lo=-15, hi=15)
        assert_box_report_matches_bruteforce(ps, net)
    # repeated coordinates and duplicate points; net points on input
    # points, so on repeated coordinates, or at half-integers between them
    sets = [P2(*REPEATED_11)]
    for _ in range(30):
        ps = random_pointset(
            rng, rng.randint(3, 9), rng.choice([1, 2]), lo=-4, hi=4, distinct=False
        )
        sets.append(PointSet(ps.dim, ps.points + (rng.choice(ps.points),)))
    seen = set()
    for ps in sets:
        for _ in range(4):
            k = rng.randint(1, 3)
            pts = tuple(
                rng.choice(ps.points)
                if rng.random() < 0.5
                else tuple(F(rng.randint(-8, 10), 2) for _ in range(ps.dim))
                for _ in range(k)
            )
            cuts = sorted(rng.randint(1, 9) for _ in range(k))
            net = WeightedNet(pts, EpsilonProfile(tuple(F(c, 10) for c in cuts)))
            seen.update(assert_box_report_matches_bruteforce(ps, net).verdicts)
    assert seen == {True, False}


def test_box_brute_force_matches_subset_sweep():
    """The integer box walk gives the verdicts of the sweep over every
    subset's bounding box, on repeated coordinates and duplicate points."""
    rng = random.Random(64)
    seen = set()
    for trial in range(90):
        d = 1 + trial % 3
        ps = random_pointset(
            rng, rng.randint(2, 9), d, lo=-5, hi=5, distinct=trial % 2 == 0
        )
        ps = PointSet(d, ps.points + (rng.choice(ps.points),))
        k = rng.randint(1, 3)
        pts = tuple(
            rng.choice(ps.points)
            if rng.random() < 0.5
            else tuple(F(rng.randint(-8, 8), 2) for _ in range(d))
            for _ in range(k)
        )
        cuts = sorted(rng.randint(1, 9) for _ in range(k))
        net = WeightedNet(pts, EpsilonProfile(tuple(F(c, 10) for c in cuts)))
        verdicts = brute_verify_boxes(ps, net)
        assert verdicts == subset_verify_boxes(ps, net)
        seen.update(verdicts)
    assert seen == {True, False}


def test_box_violations_reported_at_lowest_level():
    ps = P2((0, 0), (1, 1), (2, 2), (3, 3), (4, 4))
    net = WeightedNet(
        ((F(50), F(50)), (F(60), F(60))),
        EpsilonProfile((F(1, 5), F(2, 5))),
    )
    report = verify_weighted_net_boxes(ps, net)
    assert not report.passed
    seen = set()
    for v in report.violations:
        assert v.witness.intervals not in seen
        seen.add(v.witness.intervals)
    assert min(v.level for v in report.violations) == 1


def test_verify_dispatcher():
    ps = P2((0, 0), (4, 2), (1, 4), (3, 1))
    net = WeightedNet(((F(2), F(2)),), EpsilonProfile((F(1, 2),)))
    a = verify_weighted_net(ps, net, RangeSpaceKind.AXIS_PARALLEL_BOXES)
    assert a.kind is RangeSpaceKind.AXIS_PARALLEL_BOXES


@pytest.mark.parametrize(
    "kind, want",
    [
        ("boxes", RangeSpaceKind.AXIS_PARALLEL_BOXES),
        ("convex", RangeSpaceKind.CONVEX_SETS),
        (RangeSpaceKind.AXIS_PARALLEL_BOXES, RangeSpaceKind.AXIS_PARALLEL_BOXES),
        (RangeSpaceKind.CONVEX_SETS, RangeSpaceKind.CONVEX_SETS),
    ],
)
def test_verify_dispatcher_parses_kind(kind, want):
    ps = P2((0, 0), (4, 2), (1, 4), (3, 1))
    net = WeightedNet(((F(2), F(2)),), EpsilonProfile((F(1, 2),)))
    assert verify_weighted_net(ps, net, kind).kind is want


def test_verify_dispatcher_rejects_unknown_kind():
    ps = P2((0, 0), (4, 2), (1, 4), (3, 1))
    net = WeightedNet(((F(2), F(2)),), EpsilonProfile((F(1, 2),)))
    with pytest.raises(ValueError):
        verify_weighted_net(ps, net, "disks")


def test_verify_dispatcher_budget_caps_convex_only():
    rng = random.Random(61)
    ps = random_pointset(rng, 30, 2, lo=-99, hi=99)
    net = WeightedNet(((F(0), F(0)),), EpsilonProfile((F(1, 2),)))
    with pytest.raises(BudgetExceededError):
        verify_weighted_net(ps, net, "convex", budget=10)
    rep = verify_weighted_net(ps, net, "boxes", max_violations=1, budget=10)
    assert len(rep.violations) <= 1


# --- the shared level loop against the per-kind loops ----------------------------


def _differential_net(rng, ps, k):
    """k net points: input points (on repeated coordinates and duplicates),
    points on segments between input points (hull edges among them), and
    half-integer points; thresholds may repeat, and the top one may need
    every input point (t = n)."""
    pts = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.35:
            pts.append(rng.choice(ps.points))
        elif roll < 0.65:
            a, b = rng.sample(ps.points, 2)
            j = F(rng.randint(0, 4), 4)
            pts.append(tuple(x + j * (y - x) for x, y in zip(a, b)))
        else:
            pts.append(tuple(F(rng.randint(-9, 9), 2) for _ in range(ps.dim)))
    n = ps.n
    cuts = sorted(rng.choice([F(1, 5), F(2, 5), F(1, 2), F(3, 5), F(4, 5), F(n - 1, n)])
                  for _ in range(k))
    if rng.random() < 0.3:
        cuts = [cuts[0]] * k
    return WeightedNet(tuple(pts), EpsilonProfile(tuple(cuts)))


def _differential_sets(rng, d, count, n_max):
    sets = []
    for _ in range(count):
        ps = random_pointset(rng, rng.randint(3, n_max), d, lo=-4, hi=4, distinct=False)
        if rng.random() < 0.5:
            ps = PointSet(d, ps.points + (rng.choice(ps.points),))
        sets.append(ps)
    return sets


def _same_report(got, want):
    assert dataclasses.replace(got, elapsed=0.0) == want


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_levels_match_per_kind_loop(d):
    rng = random.Random(700 + d)
    for ps in _differential_sets(rng, d, 25, 9):
        for cap in (1, 3, 16):
            net = _differential_net(rng, ps, rng.randint(1, 3))
            _same_report(
                verify_weighted_net_boxes(ps, net, max_violations=cap),
                slow_verify_boxes(ps, net, max_violations=cap),
            )


def _threshold_net(rng, ps, k):
    """k net points that mostly pass: the centroid, input points, points on
    segments between input points (hull edges among them) and repeats of an
    earlier net point.  Each level's threshold sits just above its largest
    avoiding subset (the level passes) or just below it (the level fails)."""
    pts = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.35:
            pts.append(centroid(ps.points))
        elif roll < 0.55:
            pts.append(rng.choice(ps.points))
        elif roll < 0.8 or not pts:
            a, b = rng.sample(ps.points, 2)
            j = F(rng.randint(0, 4), 4)
            pts.append(tuple(x + j * (y - x) for x, y in zip(a, b)))
        else:
            pts.append(rng.choice(pts))
    n = ps.n
    cuts = []
    for level in range(1, k + 1):
        worst = max(max_subset_avoiding(ps, Q) for Q in combinations(pts, k - level + 1))
        passing = worst < n and (worst == 0 or rng.random() < 0.7)
        cuts.append(F(2 * worst + 1 if passing else 2 * worst - 1, 2 * n))
    return WeightedNet(tuple(pts), EpsilonProfile(tuple(sorted(cuts))))


_CONSTRUCTION_PROFILES = {
    2: EpsilonProfile((F(3, 5), F(4, 5))),
    3: EpsilonProfile((F(5, 7), F(6, 7))),
}


@pytest.mark.parametrize("d, count, n_max", [(1, 25, 9), (2, 25, 9), (3, 8, 7)])
def test_convex_levels_match_per_kind_loop(d, count, n_max):
    """Random nets, which mostly fail, plus nets that pass some or all
    levels: threshold nets on every set, and constructed pairs on sets in
    general position.  Both oracle-settled and swept levels occur."""
    rng = random.Random(710 + d)
    cases = []
    for ps in _differential_sets(rng, d, count, n_max):
        for cap in (1, 3, 16):
            net = _differential_net(rng, ps, rng.randint(1, 3 if d == 2 else 2))
            cases.append((ps, net, cap))
    rng = random.Random(730 + d)
    for ps in _differential_sets(rng, d, count, n_max):
        net = _threshold_net(rng, ps, rng.randint(1, 3 if d == 2 else 2))
        cases.append((ps, net, rng.choice((1, 16))))
    if d > 1:
        for n in range(4, n_max + 1):
            ps = random_pointset(rng, n, d, lo=-9, hi=9, no_collinear=True)
            net, _ = construct_convex_pair(ps, _CONSTRUCTION_PROFILES[d])
            cases.append((ps, net, 16))
    verdicts = set()
    for ps, net, cap in cases:
        got = verify_weighted_net_convex(ps, net, max_violations=cap)
        _same_report(got, slow_verify_convex(ps, net, max_violations=cap))
        verdicts.add(got.verdicts)
    assert any(all(v) for v in verdicts)
    assert any(True in v and False in v for v in verdicts)
    assert any(not any(v) for v in verdicts)


@pytest.mark.parametrize("verify", [verify_weighted_net_boxes, verify_weighted_net_convex])
@pytest.mark.parametrize("q", [(1, 1, 99), (1,)])
def test_net_of_another_dimension_is_refused(verify, q):
    ps = P2((0, 0), (1, 2), (2, 1), (3, 3))
    net = WeightedNet((tuple(F(c) for c in q),), EpsilonProfile((F(1, 2),)))
    with pytest.raises(DimensionMismatchError):
        verify(ps, net)


def _lp_hull_holds(P, q):
    return lambda mask: point_in_hull(
        q, SubsetHull(P, tuple(i for i in range(P.n) if mask >> i & 1))
    )


def test_no_lp_for_subset_hulls_in_low_dimensions(monkeypatch):
    """In d <= 3 subset-hull membership reads the oracle masks: with the LP
    membership test made to raise, convex verification and certify give the
    reports of references that decide membership by polygons and LPs."""
    rng = random.Random(720)
    cases = [
        (ps, _differential_net(rng, ps, rng.randint(1, 2)))
        for d in (1, 2, 3)
        for ps in _differential_sets(rng, d, 6, 7)
    ]
    instances = [gadget_five_clusters(k) for k in (1, 2, 3)]
    instances += [gadget_hexagon_3d(), gadget_simplex(3)]
    want_verify = [slow_verify_convex(ps, net) for ps, net in cases]
    monkeypatch.setattr("epsnet.gadgets.hull_holds", _lp_hull_holds)
    want_certify = [certify(g) for g in instances]
    monkeypatch.undo()

    def no_lp(*args):
        raise AssertionError("LP hull membership in d <= 3")

    monkeypatch.setattr("epsnet.ranges.point_in_hull", no_lp)
    monkeypatch.setattr("epsnet.geometry.point_in_hull", no_lp)
    for (ps, net), want in zip(cases, want_verify):
        _same_report(verify_weighted_net_convex(ps, net), want)
    assert [certify(g) for g in instances] == want_certify


# --- convex verification ---------------------------------------------------------


def test_far_net_fails_convex():
    ps = P2((0, 0), (1, 2), (3, 1), (2, 4), (4, 3))
    net = WeightedNet(
        ((F(100), F(100)), (F(101), F(101))),
        EpsilonProfile((F(3, 5), F(4, 5))),
    )
    report = verify_weighted_net_convex(ps, net)
    assert not report.passed
    v = report.violations[0]
    assert v.level == 1 and v.net_count == 0
    assert len(v.witness.indices) == int(F(3, 5) * 5) + 1


def test_convex_violations_build_point_tests_once(monkeypatch):
    """A failing net builds every input point's hull test once, at its
    first violation, and a passing net builds none; the counts are those
    of the exact LP."""
    import epsnet.verification

    P = read_pointset(str(DATA / "points14.json"))
    far = read_pointset(str(DATA / "net_far.json"))
    built = []

    def counted(base, q):
        built.append(q)
        return hull_holds(base, q)

    monkeypatch.setattr(epsnet.verification, "hull_holds", counted)
    report = verify_weighted_net_convex(
        P, WeightedNet(far.points, EpsilonProfile((F(1, 2),)))
    )
    assert not report.passed and len(report.violations) > 1
    assert len(built) == 1 + P.n
    for v in report.violations:
        assert v.point_count == sum(point_in_hull(p, v.witness) for p in P.points)
    built.clear()
    net, _ = construct_convex_pair(P, EpsilonProfile((F(3, 5), F(4, 5))))
    assert verify_weighted_net_convex(P, net).passed
    assert len(built) == net.k


def test_convex_budget_exceeded():
    rng = random.Random(61)
    ps = random_pointset(rng, 30, 2, lo=-99, hi=99)
    net = WeightedNet(
        ((F(0), F(0)), (F(1), F(1))), EpsilonProfile((F(3, 5), F(4, 5)))
    )
    with pytest.raises(BudgetExceededError) as exc:
        verify_weighted_net_convex(ps, net, budget=10_000)
    assert exc.value.required > 10_000
    assert "reduce n" in str(exc.value)


def test_convex_budget_counts_the_swept_levels_only():
    """In the plane only the failing level is swept, so the budget figure
    and the hint are that level's: level 1 passes with C(14, 10) = 1001
    hulls unvisited, level 2 fails and sweeps C(14, 12) = 91."""
    ps = P2(*((i, i * i % 61) for i in range(14)))
    net = WeightedNet(
        ((F(9, 2), F(15)), (F(100), F(100))), EpsilonProfile((F(2, 3), F(4, 5)))
    )
    for budget in (1000, 91):
        report = verify_weighted_net_convex(ps, net, budget=budget)
        assert report.verdicts == (True, False)
        assert report.ranges_examined == comb(14, 10) + comb(14, 12)
    # a passing net sweeps nothing, so no budget refuses it, not even -1
    passing = WeightedNet(((F(9, 2), F(15)), (F(8), F(30))), net.profile)
    report = verify_weighted_net_convex(ps, passing, budget=-1)
    assert report.verdicts == (True, True)
    with pytest.raises(BudgetExceededError) as exc:
        verify_weighted_net_convex(ps, net, budget=90)
    assert exc.value.required == 91
    assert str(exc.value) == (
        "convex verification needs 91 subset hulls at n=14, over the budget"
        " of 90; reduce n to <= 13 or raise eps_2 to >= 6/7 (so the level-2"
        " subsets shrink)"
    )
    # d >= 4 sweeps every level, passing or not
    ps4 = PointSet(4, tuple(tuple(i ** a for a in range(1, 5)) for i in range(7)))
    net4 = WeightedNet(
        ((F(0),) * 4, (F(1),) * 4), EpsilonProfile((F(1, 2), F(3, 4)))
    )
    with pytest.raises(BudgetExceededError) as exc:
        verify_weighted_net_convex(ps4, net4, budget=1)
    assert exc.value.required == comb(7, 4) + comb(7, 6)
    assert "raise eps_1" in str(exc.value)


def test_convex_agrees_with_subset_bruteforce():
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(4, 10)
        ps = random_pointset(rng, n, 2, lo=-10, hi=10)
        k = rng.randint(1, 2)
        net = random_net(rng, 2, k, lo=-12, hi=12)
        report = verify_weighted_net_convex(ps, net)
        assert list(report.verdicts) == brute_verify_convex_2d(ps, net)
        for v in report.violations:
            hull_pts = v.witness.points
            assert (
                sum(1 for q in net.points if point_in_hull(q, v.witness))
                == v.net_count
            )
            assert v.net_count < v.level


def test_convex_rational_net_points_agree_with_bruteforce():
    # input denominators 1-3, net denominators 5, 7 and 11, which the
    # input's integer scale does not divide; a net point on a hull edge or
    # equal to an input point counts as inside
    rng = random.Random(64)
    seen = set()
    for trial in range(36):
        n = rng.randint(5, 9)
        base = random_pointset(rng, n, 2, lo=-12, hi=12)
        ps = PointSet(2, tuple(
            (x / rng.randint(1, 3), y / rng.randint(1, 3)) for x, y in base.points
        ))
        a, b = rng.sample(ps.points, 2)
        j = F(rng.randint(1, 6), 7)
        on_edge = (a[0] + j * (b[0] - a[0]), a[1] + j * (b[1] - a[1]))
        free = (F(rng.randint(-60, 60), 11), F(rng.randint(-60, 60), 5))
        kinds = [on_edge, rng.choice(ps.points), free]
        k = 1 + trial % 2
        pts = tuple(kinds[(trial + i) % 3] for i in range(k))
        cuts = sorted(rng.randint(3, 9) for _ in range(k))
        net = WeightedNet(pts, EpsilonProfile(tuple(F(c, 10) for c in cuts)))
        report = verify_weighted_net_convex(ps, net)
        want = brute_verify_convex_2d(ps, net)
        assert list(report.verdicts) == want
        seen.update(want)
        ts = [net.profile.min_strict_count(i, n) for i in range(1, k + 1)]
        assert report.ranges_examined == sum(comb(n, t) for t in ts if t <= n)
        for v in report.violations:
            inside = sum(1 for q in net.points if point_in_hull(q, v.witness))
            assert inside == v.net_count < v.level
    assert seen == {True, False}
    # the only 4-subset is the whole quadrilateral: a net point on its edge
    # passes, the same point nudged outward by 1/1000 fails
    quad = P2(("-1/2", "0"), ("1/2", "0"), ("1/3", "1/3"), ("0", "1/2"))
    prof = EpsilonProfile((F(3, 4),))
    edge = (F(1, 2) - F(1, 6) * F(2, 7), F(1, 3) * F(2, 7))
    assert verify_weighted_net_convex(quad, WeightedNet((edge,), prof)).passed
    out = (edge[0] + F(1, 1000), edge[1])
    assert not verify_weighted_net_convex(quad, WeightedNet((out,), prof)).passed


def test_convex_1d_and_3d_paths():
    rng = random.Random(63)
    one = random_pointset(rng, 7, 1, lo=-20, hi=20)
    net1 = WeightedNet(((one.points[3][0],),), EpsilonProfile((F(1, 2),)))
    # 1d: the median point hits every majority interval
    med = sorted(p[0] for p in one.points)[3]
    report = verify_weighted_net_convex(one, WeightedNet(((med,),), EpsilonProfile((F(1, 2),))))
    assert report.passed
    three = random_pointset(rng, 6, 3, lo=-6, hi=6)
    far = WeightedNet(
        ((F(99), F(99), F(99)),), EpsilonProfile((F(2, 3),))
    )
    assert not verify_weighted_net_convex(three, far).passed


# --- pierceable_by_two ------------------------------------------------------------


def _square(cx, cy, r=1):
    return HPolytope.from_bounds([(F(cx - r), F(cx + r)), (F(cy - r), F(cy + r))])


def test_five_disjoint_polygons_not_pierceable():
    family = [_square(6 * i, 0) for i in range(5)]
    assert pierceable_by_two(family) is None


def test_identical_members_pierced_by_one_point_twice():
    x = _square(0, 0)
    pair = pierceable_by_two([x, x, x])
    assert pair is not None
    a, b = pair
    assert x.contains(a) and x.contains(b)


def test_two_cluster_family_needs_both_points():
    family = [_square(0, 0), _square(0, 1), _square(9, 0), _square(9, 1)]
    pair = pierceable_by_two(family)
    assert pair is not None
    a, b = pair
    for member in family:
        assert member.contains(a) or member.contains(b)


def test_pierce_budget():
    family = [_square(i, 0) for i in range(19)]
    with pytest.raises(BudgetExceededError):
        pierceable_by_two(family, budget=4)


def _brute_pierceable_by_two(pointsets):
    """Arrangement-vertex oracle for subset-hull families in 2D."""
    hulls = [hull2d(sorted(ps)) for ps in pointsets]
    candidates = set()
    for h in hulls:
        candidates.update(h)
    # intersections of all edge pairs
    def edges(h):
        m = len(h)
        if m == 1:
            return []
        if m == 2:
            return [(h[0], h[1])]
        return [(h[i], h[(i + 1) % m]) for i in range(m)]

    all_edges = [e for h in hulls for e in edges(h)]
    for (a, b), (c, d) in combinations(all_edges, 2):
        den = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
        if den == 0:
            continue
        t = F((c[0] - a[0]) * (d[1] - c[1]) - (c[1] - a[1]) * (d[0] - c[0]), den)
        if 0 <= t <= 1:
            x = a[0] + t * (b[0] - a[0])
            y = a[1] + t * (b[1] - a[1])
            candidates.add((x, y))
    cands = sorted(candidates)
    covers = []
    for q in cands:
        covers.append(
            frozenset(i for i, h in enumerate(hulls) if point_in_convex_polygon(q, h) >= 0)
        )
    full = frozenset(range(len(hulls)))
    for ca, cb in combinations(covers, 2):
        if ca | cb == full:
            return True
    return any(c == full for c in covers)


def test_pierceable_matches_arrangement_oracle():
    rng = random.Random(64)
    for _ in range(25):
        m = rng.randint(2, 5)
        raw = []
        hulls = []
        for _ in range(m):
            k = rng.randint(1, 4)
            pts = sorted(
                {(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(k)}
            )
            raw.append([tuple(map(F, p)) for p in pts])
        family = []
        for pts in raw:
            ps = PointSet(2, tuple(pts))
            family.append(SubsetHull(ps, tuple(range(len(pts)))))
        got = pierceable_by_two(family)
        want = _brute_pierceable_by_two([[tuple(map(int, p)) for p in pts] for pts in raw])
        assert (got is not None) == want
        if got:
            a, b = got
            for member in family:
                assert point_in_hull(a, member) or point_in_hull(b, member)
