"""verification: exact verdicts, counting bound, piercing, falsifier."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from epsnet.errors import BudgetExceededError
from epsnet.geometry import (
    HPolytope,
    PointSet,
    SubsetHull,
    hull2d,
    integer_coords,
    point_in_convex_polygon,
    point_in_hull,
)
from epsnet.ranges import (
    BoxRange,
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    count_in_box,
)
from epsnet.verification import (
    adversarial_search,
    counting_bound,
    pierceable_by_two,
    verify_weighted_net,
    verify_weighted_net_boxes,
    verify_weighted_net_convex,
)

from helpers import (
    brute_verify_boxes,
    brute_verify_convex_2d,
    random_pointset,
)


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


def test_box_methods_and_bruteforce_agree():
    rng = random.Random(60)
    for _ in range(60):
        n = rng.randint(3, 9)
        ps = random_pointset(rng, n, rng.choice([1, 2]), lo=-12, hi=12)
        k = rng.randint(1, 3)
        # mix far-away and near-median nets to get both verdicts
        net = random_net(rng, ps.dim, k, lo=-15, hi=15)
        fast = verify_weighted_net_boxes(ps, net, method="regions")
        slow = verify_weighted_net_boxes(ps, net, method="enumerate")
        brute = brute_verify_boxes(ps, net)
        assert list(fast.verdicts) == list(slow.verdicts) == brute
        for v in fast.violations + slow.violations:
            assert count_in_box(ps, v.witness) == v.point_count
            assert v.witness.count_net_points(net.points) == v.net_count
            assert v.point_count >= net.profile.min_strict_count(v.level, ps.n)
            assert v.net_count < v.level


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
        hit = adversarial_search(ps, net, RangeSpaceKind.CONVEX_SETS, 20, seed=trial)
        if hit is not None:
            assert not report.verdicts[hit.level - 1]
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


# --- adversarial search -------------------------------------------------------------


def test_adversarial_deterministic_and_sound():
    rng = random.Random(65)
    ps = random_pointset(rng, 10, 2, lo=-20, hi=20)
    net = WeightedNet(
        ((F(99), F(99)), (F(98), F(98))), EpsilonProfile((F(2, 5), F(3, 5)))
    )
    first = adversarial_search(ps, net, RangeSpaceKind.AXIS_PARALLEL_BOXES, 200, seed=9)
    second = adversarial_search(ps, net, RangeSpaceKind.AXIS_PARALLEL_BOXES, 200, seed=9)
    assert first == second
    assert first is not None
    assert count_in_box(ps, first.witness) == first.point_count
    assert first.point_count >= net.profile.min_strict_count(first.level, ps.n)
    assert first.net_count < first.level


def test_adversarial_none_on_valid_net():
    ps = P2((0, 0), (4, 2), (1, 4), (3, 1))
    net = WeightedNet(((F(2), F(2)),), EpsilonProfile((F(1, 2),)))
    assert verify_weighted_net_boxes(ps, net).passed
    for seed in range(3):
        assert (
            adversarial_search(
                ps, net, RangeSpaceKind.AXIS_PARALLEL_BOXES, 2000, seed=seed
            )
            is None
        )


@pytest.mark.parametrize("kind", [RangeSpaceKind.AXIS_PARALLEL_BOXES, RangeSpaceKind.CONVEX_SETS])
def test_adversarial_agreement_with_exact(kind):
    rng = random.Random(66)
    hits = 0
    bad = 0
    while bad < 25:
        n = rng.randint(6, 11)
        ps = random_pointset(rng, n, 2, lo=-15, hi=15)
        net = random_net(rng, 2, rng.randint(1, 2), lo=-18, hi=18)
        if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
            exact = verify_weighted_net_boxes(ps, net)
        else:
            exact = verify_weighted_net_convex(ps, net)
        if exact.passed:
            continue
        bad += 1
        trials = 2500 if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES else 120
        v = adversarial_search(ps, net, kind, trials, seed=bad)
        if v is not None:
            hits += 1
    assert hits >= int(0.95 * bad)
