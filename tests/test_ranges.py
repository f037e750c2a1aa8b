"""ranges: counting, box regions, avoidance oracle."""

import random
from fractions import Fraction as F

import pytest

from epsnet import ranges
from epsnet.errors import DimensionMismatchError, UnsupportedDimensionError
from epsnet.gadgets import (
    ClaimKind,
    gadget_hexagon_3d,
    gadget_simplex,
    threshold_probe_pairs,
)
from epsnet.geometry import PointSet, SubsetHull, point_in_hull
from epsnet.ranges import (
    BoxRange,
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    box_masks,
    box_regions_avoiding,
    box_signature,
    count_in_box,
    max_mask_intersection,
    max_subset_avoiding,
    max_subset_avoiding_witness,
    undominated,
)

from helpers import (
    REPEATED_11,
    _slow_axis_orders,
    brute_in_hull,
    brute_max_box_count,
    naive_count_in_box,
    random_pointset,
    slow_box_regions_avoiding,
    slow_candidate_masks_3d,
    slow_largest_box_avoiding,
    slow_max_mask_intersection,
    slow_max_subset_avoiding_witness,
    slow_undominated,
    subset_box_counts,
)


def P2(*pts):
    return PointSet(2, tuple(tuple(F(c) for c in p) for p in pts))


# --- types -------------------------------------------------------------------


def test_box_validation_and_contains():
    b = BoxRange(((F(0), F(2)), (F(1), F(1))))
    assert b.dim == 2
    assert b.contains((F(2), F(1)))
    assert not b.contains((F(2), F(2)))
    with pytest.raises(ValueError):
        BoxRange(((F(1), F(0)),))


def test_profile_validation():
    p = EpsilonProfile((F(3, 7), F(4, 7)))
    assert p.k == 2 and list(p) == [F(3, 7), F(4, 7)]
    with pytest.raises(ValueError):
        EpsilonProfile((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        EpsilonProfile((F(0), F(1, 2)))
    with pytest.raises(ValueError):
        EpsilonProfile(())


def test_profile_strict_count():
    p = EpsilonProfile((F(3, 7), F(4, 7)))
    # more than 3 at n=7 means at least 4
    assert p.min_strict_count(1, 7) == 4
    assert p.min_strict_count(2, 7) == 5
    # exact multiples still require strictly more
    assert EpsilonProfile((F(1, 2),)).min_strict_count(1, 10) == 6


def test_weighted_net_validation():
    prof = EpsilonProfile((F(1, 2), F(2, 3)))
    net = WeightedNet(((F(0), F(0)), (F(1), F(1))), prof)
    assert net.k == 2 and net.dim == 2
    with pytest.raises(ValueError):
        WeightedNet(((F(0), F(0)),), prof)
    with pytest.raises(ValueError):
        WeightedNet(((F(0), F(0)), (F(1),)), prof)


def test_range_space_kind_parse():
    assert RangeSpaceKind("convex") is RangeSpaceKind.CONVEX_SETS
    assert RangeSpaceKind("boxes") is RangeSpaceKind.AXIS_PARALLEL_BOXES
    with pytest.raises(ValueError):
        RangeSpaceKind("disks")


# --- count_in_box ------------------------------------------------------------


def test_count_trivial_boxes():
    ps = P2((0, 0), (1, 2), (3, 1))
    lo, hi = zip(*ps.bounding_box())
    assert count_in_box(ps, BoxRange(tuple(zip(lo, hi)))) == 3
    degenerate = BoxRange(((F(1), F(1)), (F(2), F(2))))
    assert count_in_box(ps, degenerate) == 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_count_matches_naive(d):
    rng = random.Random(40 + d)
    for _ in range(120):
        ps = random_pointset(rng, rng.randint(1, 18), d, lo=-10, hi=10, distinct=False)
        lo = [F(rng.randint(-12, 10)) for _ in range(d)]
        hi = [l + rng.randint(0, 12) for l in lo]
        box = BoxRange(tuple(zip(lo, hi)))
        assert count_in_box(ps, box) == naive_count_in_box(ps, lo, hi)


def _mask(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_regions_avoiding_vs_bruteforce(d):
    """The largest dodging region holds as many points as the best box over
    all subset bounding boxes, on inputs with repeated coordinates and
    duplicate points, avoiding input points, points built from input
    coordinates, and half-integer points."""
    rng = random.Random(70 + d)
    for trial in range(30):
        n = rng.randint(1, 8)
        pts = [tuple(F(rng.randint(0, 3)) for _ in range(d)) for _ in range(n)]
        if n > 2:
            pts[-1] = pts[0]
        P = PointSet(d, tuple(pts))
        boxes = subset_box_counts(P)
        pool = list(P.points)
        pool += [tuple(rng.choice(pts)[a] for a in range(d)) for _ in range(4)]
        pool += [tuple(F(rng.randint(-1, 8), 2) for _ in range(d)) for _ in range(4)]
        for m in (1, 2, 3):
            avoid = [rng.choice(pool) for _ in range(m)]
            regions = list(box_regions_avoiding(P, avoid))
            assert len(regions) == (2 * d) ** m
            best = max(region.bit_count() for region in regions)
            assert best == brute_max_box_count(boxes, avoid), (trial, avoid)
            for region in regions:
                inside = [p for i, p in enumerate(P.points) if region >> i & 1]
                if not inside:
                    continue
                lo = [min(p[a] for p in inside) for a in range(d)]
                hi = [max(p[a] for p in inside) for a in range(d)]
                assert naive_count_in_box(P, lo, hi) == len(inside)
                assert not any(
                    all(l <= c <= h for c, l, h in zip(q, lo, hi)) for q in avoid
                )


def test_box_regions_avoiding_order():
    P = P2((0, 0), (2, 1), (1, 3))
    q = (F(1), F(1))
    assert list(box_regions_avoiding(P, [q])) == [0b001, 0b010, 0b001, 0b100]
    assert list(box_regions_avoiding(P, [q, q]))[1] == 0  # x < 1 and x > 1
    assert list(box_regions_avoiding(P, [])) == [0b111]
    assert [_mask(r) for r in slow_box_regions_avoiding(P, [q])] == [
        0b001, 0b010, 0b001, 0b100
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_regions_avoiding_matches_slow(d):
    """Each (axis, side) mask is the set of points strictly below or above
    q on that axis, and the region masks are the Fraction filter's index
    sets, region for region in order, on repeated coordinates and duplicate
    points, for q an input point, q sharing a coordinate with one,
    half-integer q and repeated avoided points; the mask descent over
    box_masks finds the largest region."""
    rng = random.Random(90 + d)
    empty = 0
    for trial in range(60):
        n = rng.randint(1, 9)
        pts = [tuple(F(rng.randint(0, 3)) for _ in range(d)) for _ in range(n)]
        if n > 2:
            pts[-1] = pts[0]
        P = PointSet(d, tuple(pts))
        pool = list(P.points)
        pool += [tuple(rng.choice(pts)[a] for a in range(d)) for _ in range(4)]
        pool += [
            tuple(rng.choice(pts)[a] if a else F(rng.randint(-1, 8), 2) for a in range(d))
            for _ in range(3)
        ]
        pool += [tuple(F(rng.randint(-1, 8), 2) for _ in range(d)) for _ in range(3)]
        for q in pool:
            sides = []
            for a in range(d):
                sides.append(_mask(i for i, p in enumerate(pts) if p[a] < q[a]))
                sides.append(_mask(i for i, p in enumerate(pts) if p[a] > q[a]))
            assert ranges._box_side_masks(P, q) == sides, (pts, q)
            assert box_masks(P, q) == ranges._mask_order(set(sides) - {0})
        for m in (1, 2, 3):
            avoid = [rng.choice(pool) for _ in range(m)]
            if m > 1 and trial % 3 == 0:
                avoid[-1] = avoid[0]
            fast = list(box_regions_avoiding(P, avoid))
            slow = [_mask(inside) for inside in slow_box_regions_avoiding(P, avoid)]
            assert fast == slow, (P.points, avoid)
            empty += fast.count(0)
            lists = [box_masks(P, q) for q in avoid]
            for stop_at in (None, 1, 3):
                got, mask = max_mask_intersection(lists, stop_at)
                want = slow_largest_box_avoiding(P, avoid, stop_at)
                assert mask.bit_count() == got and mask in fast
                if stop_at is None or want < stop_at:
                    assert got == want
                else:
                    assert got >= stop_at
    assert empty > 0


def test_axis_orders_match_fraction_sort_on_ties():
    """Sorted on integer coordinates, each axis order is the stable Fraction
    sort, and its coordinates read back over ``P.scale`` are the sorted
    Fractions: repeated coordinates, equal rationals written over
    different denominators, and duplicate points keep index order."""
    rng = random.Random(19)
    sets = [
        P2(*REPEATED_11),
        PointSet(2, tuple((F(2 * i % 5, 2), F(i % 3, 3)) for i in range(12))),
        PointSet(1, ((F(1, 2),), (F(-3, 4),), (F(2, 4),), (F(1, 2),), (F(-6, 8),))),
    ]
    for d in (1, 2, 3):
        for _ in range(5):
            pts = [
                tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(d))
                for _ in range(rng.randint(1, 12))
            ]
            sets.append(PointSet(d, tuple(pts + pts[:2])))
    for P in sets:
        for (coords, order, rank), (want_coords, want_order) in zip(
            ranges._axis_orders(P), _slow_axis_orders(P)
        ):
            back = tuple(F(c, P.scale) for c in coords)
            assert (back, order) == (want_coords, want_order)
            assert [order[r] for r in rank] == list(range(P.n))


def test_box_signature_is_rank_comparison():
    """q's signature decides strict above / below by rank alone."""
    P = P2((1, 5), (3, 5), (3, 2), (1, 2), (2, 7))
    for q in [(F(3), F(5)), (F(2), F(9)), (F(0), F(2)), (F(5, 2), F(2))]:
        sig = box_signature(P, q)
        for a in range(2):
            rank = ranges._axis_orders(P)[a][2]
            right, left = sig[a]
            for i, p in enumerate(P.points):
                assert (rank[i] >= right) == (p[a] > q[a])
                assert (rank[i] < left) == (p[a] < q[a])


# --- max_subset_avoiding -------------------------------------------------------


def test_avoid_far_point_keeps_everything():
    ps = P2((0, 0), (1, 3), (4, 1), (2, 2))
    assert max_subset_avoiding(ps, [(F(100), F(100))]) == 4


def test_avoid_triangle_interior():
    ps = P2((0, 0), (6, 0), (0, 6))
    assert max_subset_avoiding(ps, [(F(1), F(1))]) == 2


def test_avoid_point_of_the_set():
    ps = P2((0, 0), (1, 3), (4, 1))
    # the avoided input point can never be in S
    assert max_subset_avoiding(ps, [(F(0), F(0))]) == 2


def test_avoid_1d():
    ps = PointSet(1, tuple((F(c),) for c in [1, 2, 5, 9]))
    assert max_subset_avoiding(ps, [(F(4),)]) == 2
    assert max_subset_avoiding(ps, [(F(0),)]) == 4
    assert max_subset_avoiding(ps, [(F(2),), (F(9),)]) == 1


def test_avoid_unsupported_dimension():
    ps = PointSet(4, ((F(0), F(0), F(0), F(0)), (F(1), F(2), F(3), F(4))))
    with pytest.raises(UnsupportedDimensionError):
        max_subset_avoiding(ps, [(F(9), F(9), F(9), F(9))])


def test_stop_at_early_exit_is_a_lower_bound():
    ps = P2((0, 0), (1, 3), (4, 1), (2, 2), (5, 5), (6, 0))
    full = max_subset_avoiding(ps, [(F(3), F(2))])
    early = max_subset_avoiding(ps, [(F(3), F(2))], stop_at=2)
    assert 2 <= early <= full


def _brute_max_avoiding(ps, avoid):
    best = 0
    n = ps.n
    for mask in range(1, 1 << n):
        idx = tuple(i for i in range(n) if mask >> i & 1)
        if len(idx) <= best:
            continue
        sub = [ps.points[i] for i in idx]
        if all(not brute_in_hull(q, sub) for q in avoid):
            best = len(idx)
    return best


@pytest.mark.parametrize("d", [1, 2])
def test_avoidance_oracle_vs_bruteforce(d):
    rng = random.Random(500 + d)
    for _ in range(40):
        n = rng.randint(2, 7)
        ps = random_pointset(rng, n, d, lo=-6, hi=6, distinct=False)
        k = rng.randint(1, 2)
        avoid = [
            tuple(F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(d))
            for _ in range(k)
        ]
        assert max_subset_avoiding(ps, avoid) == _brute_max_avoiding(ps, avoid)


def test_avoidance_oracle_vs_bruteforce_3d():
    rng = random.Random(900)
    for _ in range(25):
        n = rng.randint(2, 7)
        ps = random_pointset(rng, n, 3, lo=-4, hi=4, distinct=False)
        avoid = [tuple(F(rng.randint(-4, 4)) for _ in range(3))]
        if rng.random() < 0.5:
            avoid.append(tuple(F(rng.randint(-4, 4)) for _ in range(3)))
        assert max_subset_avoiding(ps, avoid) == _brute_max_avoiding(ps, avoid)


def P3(*pts):
    return PointSet(3, tuple(tuple(F(c) for c in p) for p in pts))


_BASE3 = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1), (2, 2, 0), (-1, 3, 1)]

# (points, q) pairs on which the tie rules of the 3D oracle decide masks
_DEGENERATE_3D = {
    "q-is-an-input-point": (_BASE3, (1, 1, 1)),
    "q-is-the-origin-input-point": (_BASE3, (0, 0, 0)),
    "q-is-a-midpoint": (_BASE3, (1, 1, 0)),
    "q-is-a-midpoint-of-a-diagonal": (_BASE3, (1, F(1, 2), F(1, 2))),
    "q-coplanar-with-three-points": (_BASE3, (3, -1, 0)),
    "q-inside-a-triangle": (_BASE3, (F(1, 2), F(1, 2), 0)),
    "points-on-one-ray": (
        [(1, 1, 1), (2, 2, 2), (3, 3, 3), (-1, -1, -1), (1, 0, 0), (0, 1, 0)],
        (0, 0, 0),
    ),
    "points-on-one-ray-only": ([(1, 2, 0), (2, 4, 0), (3, 6, 0)], (0, 0, 0)),
    "duplicate-points": (
        [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        (0, 0, 0),
    ),
    "duplicates-of-q": ([(1, 1, 1), (1, 1, 1), (2, 0, 1), (0, 2, 1)], (1, 1, 1)),
    "every-point-is-q": ([(1, 2, 3)] * 3, (1, 2, 3)),
    "n-is-1": ([(1, 0, 0)], (0, 0, 0)),
    "n-is-1-at-q": ([(1, 0, 0)], (1, 0, 0)),
    "mixed-denominators": (
        [(F(1, 2), 0, 0), (0, F(2, 3), 0), (0, 0, 1), (1, 1, F(5, 4)), (-1, 2, 0)],
        (F(1, 3), F(2, 5), F(-3, 7)),
    ),
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE_3D))
def test_3d_oracle_matches_slow_oracle_on_degenerate_q(name):
    pts, q = _DEGENERATE_3D[name]
    P = P3(*pts)
    q = tuple(F(c) for c in q)
    fast = ranges._candidate_masks.__wrapped__(P, q)
    assert fast == slow_candidate_masks_3d(P, q)
    if all(p == q for p in P.points):
        assert fast == ()


def test_3d_oracle_matches_slow_oracle_on_random_grid_probes():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 7)
        P = P3(*(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(n)))
        if rng.random() < 0.3:
            q = rng.choice(P.points)
        else:
            q = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        fast = ranges._candidate_masks.__wrapped__(P, q)
        assert fast == slow_candidate_masks_3d(P, q), (P.points, q)


@pytest.mark.parametrize(
    "make", [gadget_hexagon_3d, lambda: gadget_simplex(3)], ids=["hexagon3d", "simplex3"]
)
def test_3d_oracle_matches_slow_oracle_on_gadget_probes(make):
    instance = make()
    claim = next(c for c in instance.claims if c.kind is ClaimKind.ORACLE_THRESHOLD)
    pairs = threshold_probe_pairs(instance, claim.trials, claim.seed)[:200]
    probes = {q for pair in pairs for q in pair}
    for q in probes:
        fast = ranges._candidate_masks.__wrapped__(instance.pointset, q)
        assert fast == slow_candidate_masks_3d(instance.pointset, q), q


def test_mask_order_does_not_depend_on_insertion_order():
    """Re-inserting a returned tuple's masks in reverse order into a fresh
    set gives the same tuple: equal popcounts are ordered by mask value,
    not by the set's iteration order."""
    rng = random.Random(78)
    for _ in range(400):
        d = rng.choice((2, 3))
        n = rng.randint(1, 8)
        P = PointSet(d, [tuple(F(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n)])
        if rng.random() < 0.3:
            q = rng.choice(P.points)
        else:
            q = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
        masks = ranges._candidate_masks.__wrapped__(P, q)
        assert ranges._mask_order(set(reversed(masks))) == masks, (P.points, q)


def test_witness_is_sound():
    rng = random.Random(321)
    for _ in range(30):
        n = rng.randint(3, 8)
        ps = random_pointset(rng, n, 2, lo=-8, hi=8, distinct=False)
        avoid = [tuple(F(rng.randint(-8, 8)) for _ in range(2)) for _ in range(2)]
        size, idx = max_subset_avoiding_witness(ps, avoid)
        assert size == len(idx)
        if size:
            hull = SubsetHull(ps, idx)
            for q in avoid:
                assert not point_in_hull(q, hull)


def test_avoid_requires_points():
    ps = P2((0, 0), (1, 1))
    with pytest.raises(ValueError):
        max_subset_avoiding(ps, [])


# --- subset-hull membership ------------------------------------------------------


def _hull_membership_cases(rng, d, count):
    """(P, probes) on degenerate sets: repeated points, and in d >= 2 every
    point on one line or (d = 3) one slanted plane; probes are input points,
    points on segments between input points (hull edges among them) and
    points strictly outside P's bounding box."""
    for trial in range(count):
        n = rng.randint(2, 5)
        shape = trial % 3 if d > 1 else 0
        if shape == 1:  # collinear
            a = [rng.randint(-2, 2) for _ in range(d)]
            v = [rng.randint(-2, 2) or 1 for _ in range(d)]
            pts = [[a[i] + s * v[i] for i in range(d)] for s in rng.sample(range(-3, 4), n)]
        else:
            pts = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
            if shape == 2 and d == 3:  # coplanar: z = x - y
                pts = [[x, y, x - y] for x, y, _ in pts]
        pts.append(rng.choice(pts))
        P = PointSet(d, [tuple(F(c) for c in p) for p in pts])
        probes = list(P.points[:2])
        for _ in range(3):
            a, b = rng.sample(P.points, 2)
            j = F(rng.randint(0, 4), 4)
            probes.append(tuple(x + j * (y - x) for x, y in zip(a, b)))
        probes.append(tuple(F(rng.randint(-5, 5), 2) for _ in range(d)))
        probes.append(tuple(F(3) for _ in range(d)))
        yield P, probes


@pytest.mark.parametrize("d, count", [(1, 10), (2, 12), (3, 12), (4, 2)])
def test_hull_holds_matches_lp_and_caratheodory(d, count):
    """``hull_holds`` against the LP of ``point_in_hull`` and the
    Caratheodory brute force, on every non-empty subset; d = 4 is the LP
    path itself."""
    rng = random.Random(730 + d)
    for P, probes in _hull_membership_cases(rng, d, count):
        for q in probes:
            holds = ranges.hull_holds(P, q)
            for mask in range(1, 1 << P.n):
                idx = tuple(i for i in range(P.n) if mask >> i & 1)
                want = point_in_hull(q, SubsetHull(P, idx))
                assert want == brute_in_hull(q, [P.points[i] for i in idx])
                assert holds(mask) == want, (P.points, q, idx)


def test_hull_holds_checks_the_dimension():
    ps = P2((0, 0), (1, 2), (2, 1))
    with pytest.raises(DimensionMismatchError):
        ranges.hull_holds(ps, (F(1), F(1), F(0)))
    with pytest.raises(DimensionMismatchError):
        ranges.hull_holds(ps, (F(1),))


# --- the mask descent ----------------------------------------------------------


def test_mask_intersection_matches_closure_descent():
    """The module-level descent returns the closure descent's (size, mask)
    on seeded random lists in mask order: k = 1..4, empty lists, duplicate
    masks, repeated lists, and stop_at None, 1, 2, 3 and above n."""
    rng = random.Random(4242)
    stopped = 0
    for trial in range(3000):
        n = rng.randint(1, 12)
        lists = []
        for _ in range(rng.randint(1, 4)):
            if lists and rng.random() < 0.2:
                lists.append(rng.choice(lists))  # a repeated list
                continue
            masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 8))]
            masks += rng.sample(masks, min(len(masks), rng.randint(0, 2)))
            lists.append(tuple(sorted(masks, key=lambda m: (-m.bit_count(), m))))
        for stop_at in (None, 1, 2, 3, n + 1):
            got = max_mask_intersection(lists, stop_at)
            assert got == slow_max_mask_intersection(lists, stop_at), (lists, stop_at)
            stopped += stop_at is not None and got[0] >= stop_at
    assert stopped > 1000


def test_mask_intersection_empty_list():
    """A point no subset avoids has no masks, and nothing avoids it."""
    assert max_mask_intersection([()]) == (0, 0)
    assert max_mask_intersection([(0b11, 0b01), ()]) == (0, 0)
    ps = P2((1, 1), (1, 1), (1, 1))
    assert ranges._candidate_masks(ps, (F(1), F(1))) == ()
    assert max_subset_avoiding_witness(ps, [(F(1), F(1))]) == (0, ())
    with pytest.raises(ValueError):
        max_mask_intersection([])


def test_undominated_matches_down_closures():
    """The bitset dominance keeps the same lists as the comparison of
    down-closures, on seeded lists of n <= 6 bits: empty lists, masks
    repeated in a list, equal lists in other orders and masks inside
    other masks; each list is dominated by a kept one."""
    rng = random.Random(2727)
    pruned = ties = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        lists = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if lists and roll < 0.2:
                lists.append(rng.choice(lists)[::-1])  # an equal list
                continue
            masks = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 4))]
            if masks and roll < 0.4:
                masks.append(masks[0] & rng.randint(1, (1 << n) - 1) or masks[0])
            lists.append(tuple(masks + rng.sample(masks, min(len(masks), 1))))
        kept = undominated(lists)
        assert kept == slow_undominated(lists, n), lists
        for j, masks in enumerate(lists):
            assert any(
                all(any(not m & ~m2 for m2 in masks) for m in lists[i]) for i in kept
            ), (lists, j)
        pruned += len(kept) < len(lists)
        ties += len(set(map(frozenset, lists))) < len(lists)
    assert pruned > 200 and ties > 50


def _random_avoid_instances(seed, trials):
    rng = random.Random(seed)
    for _ in range(trials):
        d = rng.choice((1, 2, 3))
        n = rng.randint(1, 8)
        P = PointSet(d, [tuple(F(rng.randint(-3, 3)) for _ in range(d)) for _ in range(n)])
        pool = list(P.points) + [
            tuple(F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(d))
            for _ in range(4)
        ]
        yield P, [rng.choice(pool) for _ in range(rng.randint(1, 3))]


def test_mask_intersection_stop_at():
    for P, avoid in _random_avoid_instances(61, 150):
        lists = [ranges._candidate_masks(P, q) for q in avoid]
        full, mask = max_mask_intersection(lists)
        assert mask.bit_count() == full
        for stop_at in range(1, P.n + 2):
            early, mask = max_mask_intersection(lists, stop_at)
            assert mask.bit_count() == early
            if full >= stop_at:
                assert stop_at <= early <= full
            else:
                assert early == full


def test_mask_intersection_repeated_point():
    for P, avoid in _random_avoid_instances(62, 150):
        lists = [ranges._candidate_masks(P, q) for q in avoid]
        size = max_mask_intersection(lists)[0]
        assert max_mask_intersection(lists + lists[:1])[0] == size
        assert max_mask_intersection(lists[:1] * 2)[0] == max_mask_intersection(lists[:1])[0]
        assert max_subset_avoiding(P, avoid + avoid[:1]) == size


def test_witness_matches_slow_descent():
    """On test_witness_is_sound's instances and on random degenerate ones,
    the split-out descent returns the same (size, indices) as the descent
    it replaced, with and without early stops."""
    rng = random.Random(321)
    for _ in range(30):
        n = rng.randint(3, 8)
        ps = random_pointset(rng, n, 2, lo=-8, hi=8, distinct=False)
        avoid = [tuple(F(rng.randint(-8, 8)) for _ in range(2)) for _ in range(2)]
        for stop_at in (None, 1, 3):
            assert max_subset_avoiding_witness(ps, avoid, stop_at) == (
                slow_max_subset_avoiding_witness(ps, avoid, stop_at)
            )
    for P, avoid in _random_avoid_instances(63, 150):
        assert max_subset_avoiding_witness(P, avoid) == (
            slow_max_subset_avoiding_witness(P, avoid)
        )
