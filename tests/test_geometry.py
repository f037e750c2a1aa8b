"""geometry: primitives, hull membership, intersections, splits."""

import random
from fractions import Fraction as F
from itertools import combinations, permutations
from math import gcd

import pytest

from epsnet.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InfeasibleCountError,
)
from epsnet.geometry import (
    HPolytope,
    Halfspace,
    Hyperplane,
    PointSet,
    SubsetHull,
    as_point,
    centroid,
    clip_polygon_halfplane,
    common_integer_coords,
    frac,
    halving_hyperplane,
    hull2d,
    integer_coords,
    orient2d,
    point_in_hull,
    polytopes_intersect,
    split_at_count,
)

from helpers import (
    brute_in_hull,
    brute_separating_hyperplane_outside,
    affine_rank,
    clip_polygon_to_hull,
    point_in_convex_polygon,
    random_pointset,
    slow_check_general_position,
    slow_clip_polygon_halfplane,
)


def P2(*pts):
    return PointSet(2, tuple(tuple(F(c) for c in p) for p in pts))


# --- scalars and containers --------------------------------------------------


def test_frac_accepts_exact_forms():
    assert frac(3) == 3
    assert frac("3/7") == F(3, 7)
    assert frac("0.25") == F(1, 4)
    assert frac(F(2, 5)) == F(2, 5)


def test_frac_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        frac(0.1)
    with pytest.raises(TypeError):
        frac(True)


def test_pointset_validation():
    with pytest.raises(DimensionMismatchError):
        PointSet(2, ((F(1),),))
    with pytest.raises(ValueError):
        PointSet(2, ())
    ps = P2((0, 0), (3, 1), (1, 2))
    assert ps.n == 3 and len(ps) == 3
    assert ps.bounding_box() == ((F(0), F(3)), (F(0), F(2)))


class _CountingFraction(F):
    """A Fraction that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_pointset_hash_is_cached():
    from epsnet.ranges import _axis_orders

    pts = tuple((_CountingFraction(i, 7), _CountingFraction(3 * i + 1, 5)) for i in range(9))
    P = PointSet(2, pts)
    Q = PointSet(2, tuple((F(i, 7), F(3 * i + 1, 5)) for i in range(9)))
    assert P == Q and hash(P) == hash(Q)
    # the same points from ints, Fractions and "p/q" strings hash equal
    for forms in (
        [
            ((2, 4), (6, -8)),
            ((F(2), F(4)), (F(6), F(-8))),
            (("2", "8/2"), ("18/3", "-16/2")),
        ],
        [((F(1, 2), 3), (F(-5, 4), F(6, 4))), (("1/2", "6/2"), ("-5/4", "3/2"))],
    ):
        first, *rest = (PointSet(2, rows) for rows in forms)
        for other in rest:
            assert other == first and hash(other) == hash(first)
    before = _CountingFraction.hashes
    for _ in range(5):
        hash(P)
    assert _CountingFraction.hashes == before
    _axis_orders(P)
    info = _axis_orders.cache_info()
    for _ in range(3):
        assert _axis_orders(Q) == _axis_orders(P)
    after = _axis_orders.cache_info()
    assert after.hits == info.hits + 6 and after.misses == info.misses
    assert _CountingFraction.hashes == before


def _reference_general_position_error(d, pts):
    """The message check_general_position must raise, or None, by rank."""
    for a in range(d):
        if len({p[a] for p in pts}) != len(pts):
            return "duplicate coordinates along some axis"
    for sub in combinations(pts, d + 1):
        if affine_rank(sub) < d:
            return f"{d + 1} points on a common hyperplane: {sub}"
    return None


def test_integer_det_matches_leibniz():
    from epsnet.geometry import _det

    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 5)
        # many zeros, so pivots are often missing and rows must swap
        mat = [[rng.choice((0, 0, 1, -2, 3, rng.randint(-10**6, 10**6)))
                for _ in range(n)] for _ in range(n)]
        want = 0
        for perm in permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
            term = -1 if inversions % 2 else 1
            for r, c in enumerate(perm):
                term *= mat[r][c]
            want += term
        assert _det(mat) == want


@pytest.mark.parametrize("d", [2, 3])
def test_general_position_matches_affine_rank(d):
    rng = random.Random(100 + d)
    dens = (1, 2, 3, 5, 7, 12)

    def rational():
        return F(rng.randint(-40, 40), rng.choice(dens))

    if d == 3:
        # the first three project onto a line in the xy-plane, so the
        # elimination meets a zero pivot on a non-singular matrix
        skewed = [(0, 0, 0), (1, 1, 5), (2, 2, 3), (3, 7, 1)]
        PointSet(3, tuple(tuple(map(F, p)) for p in skewed)).check_general_position()
    outcomes = set()
    for trial in range(80):
        n = rng.randint(d + 1, 8)
        pts = [tuple(rational() for _ in range(d)) for _ in range(n)]
        plant = trial % 4
        if plant == 1:
            # a point on the line (d=2) or plane (d=3) of d others
            base = rng.sample(pts, d)
            w = [F(rng.randint(-3, 4), rng.choice(dens)) for _ in range(d - 1)]
            q = tuple(
                base[0][a] + sum(wi * (b[a] - base[0][a]) for wi, b in zip(w, base[1:]))
                for a in range(d)
            )
            pts.insert(rng.randrange(n + 1), q)
        elif plant == 2:
            # one coordinate repeated on a random axis
            i, j = rng.sample(range(n), 2)
            a = rng.randrange(d)
            pts[i] = pts[i][:a] + (pts[j][a],) + pts[i][a + 1:]
        want = _reference_general_position_error(d, pts)
        outcomes.add(want is None)
        if want is None:
            PointSet(d, tuple(pts)).check_general_position()
            continue
        with pytest.raises(DegenerateInputError) as exc:
            PointSet(d, tuple(pts)).check_general_position()
        assert str(exc.value) == want
    assert outcomes == {True, False}


def _general_position_error(check, P):
    try:
        check(P)
    except DegenerateInputError as exc:
        return str(exc)
    return None


def test_planar_general_position_matches_bareiss_at_larger_n():
    rng = random.Random(311)
    dens = (1, 2, 3, 5, 7, 12)

    def rational():
        return F(rng.randint(-10**4, 10**4), rng.choice(dens))

    def between(p, q):
        t = F(rng.randint(1, 9), 10)
        return tuple(a + t * (b - a) for a, b in zip(p, q))

    outcomes = set()
    for trial in range(60):
        n = rng.randint(3, 60)
        pts = [(rational(), rational()) for _ in range(n)]
        plant = trial % 4
        if plant == 1:
            # the lowest index sits between the other two: i->j and i->k
            # point in opposite directions
            i, j, k = sorted(rng.sample(range(n), 3))
            pts[i] = between(pts[j], pts[k])
        elif plant == 2:
            # the middle index sits between the other two
            i, j, k = sorted(rng.sample(range(n), 3))
            pts[j] = between(pts[i], pts[k])
        elif plant == 3:
            # several collinear triples, one per chosen line
            for _ in range(rng.randint(2, 4)):
                i, j, k = rng.sample(range(n), 3)
                pts[k] = between(pts[i], pts[j])
        P = PointSet(2, tuple(pts))
        want = _general_position_error(slow_check_general_position, P)
        if n <= 15:
            assert want == _reference_general_position_error(2, pts)
        assert _general_position_error(PointSet.check_general_position, P) == want
        outcomes.add(want and want.split(":")[0])
    assert outcomes == {None, "3 points on a common hyperplane"}


def test_planar_general_position_reports_first_triple():
    # (0, 2, 3) is met first when scanning k, but (0, 1, 5) comes first in
    # combinations order
    pts = [(0, 0), (1, 3), (3, 1), (6, 2), (7, -4), (2, 6)]
    P = PointSet(2, tuple((F(x), F(y)) for x, y in pts))
    with pytest.raises(DegenerateInputError) as exc:
        P.check_general_position()
    assert str(exc.value) == _general_position_error(slow_check_general_position, P)
    assert str(exc.value) == (
        "3 points on a common hyperplane: ((Fraction(0, 1), Fraction(0, 1)),"
        " (Fraction(1, 1), Fraction(3, 1)), (Fraction(2, 1), Fraction(6, 1)))"
    )


def test_general_position_flag():
    with pytest.raises(DegenerateInputError):
        P2((0, 0), (1, 1), (2, 2)).check_general_position()
    with pytest.raises(DegenerateInputError):
        # distinct points but a duplicated x-coordinate
        P2((0, 0), (0, 1), (2, 5)).check_general_position()
    P2((0, 0), (1, 3), (2, 1)).check_general_position()


def test_hyperplane_sides():
    h = Hyperplane.axis(2, 1, F(3, 2))
    assert h.side((F(0), F(2))) == 1
    assert h.side((F(5), F(1))) == -1
    assert h.side((F(7), F(3, 2))) == 0
    with pytest.raises(ValueError):
        Hyperplane((F(0), F(0)), F(1))


def test_halfspace_contains():
    hs = Halfspace((F(1), F(0)), F(2))
    assert hs.contains((F(2), F(9)))
    assert not hs.contains((F(3), F(0)))
    open_hs = Halfspace((F(1), F(0)), F(2), closed=False)
    assert not open_hs.contains((F(2), F(9)))
    assert open_hs.contains((F(1), F(0)))


def test_box_polytope():
    box = HPolytope.from_bounds([(F(0), F(1)), (F(0), F(2))])
    assert box.contains((F(1), F(2)))
    assert not box.contains((F(1), F(3)))


def test_subset_hull_validation():
    ps = P2((0, 0), (1, 0), (0, 1))
    hull = SubsetHull(ps, (0, 2))
    assert hull.points == ((F(0), F(0)), (F(0), F(1)))
    with pytest.raises(ValueError):
        SubsetHull(ps, (0, 0))
    with pytest.raises(IndexError):
        SubsetHull(ps, (5,))


# --- point_in_hull -----------------------------------------------------------


def test_vertex_in_own_hull():
    ps = P2((0, 0), (4, 0), (0, 4))
    hull = SubsetHull(ps, (0, 1, 2))
    assert point_in_hull((F(0), F(0)), hull)


def test_centroid_strictly_inside_simplex():
    ps = P2((0, 0), (4, 0), (0, 4))
    hull = SubsetHull(ps, (0, 1, 2))
    c = centroid(hull.points)
    # the centroid and a cross-polytope around it lie in the hull
    for a in range(2):
        for step in (F(-1, 2), F(0), F(1, 2)):
            q = tuple(v + step if i == a else v for i, v in enumerate(c))
            assert point_in_hull(q, hull)


def test_point_above_plane_not_in_planar_hull():
    # a flat hull in 3d contains no point off its plane
    ps = PointSet(
        3,
        tuple(
            (F(x), F(y), F(0))
            for x, y in [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
        )
        + ((F(0), F(0), F(1)),),
    )
    hull = SubsetHull(ps, tuple(range(6)))
    assert not point_in_hull(ps.points[6], hull)
    assert point_in_hull((F(0), F(0), F(0)), hull)


def test_segment_hull_membership():
    ps = P2((0, 0), (4, 2))
    hull = SubsetHull(ps, (0, 1))
    assert point_in_hull((F(2), F(1)), hull)
    assert not point_in_hull((F(2), F(2)), hull)


def test_dimension_mismatch_raises():
    ps = P2((0, 0), (1, 1))
    with pytest.raises(DimensionMismatchError):
        point_in_hull((F(0),), SubsetHull(ps, (0, 1)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_membership_agrees_with_caratheodory_oracle(d):
    rng = random.Random(100 + d)
    trials = 400 if d < 3 else 250
    for _ in range(trials):
        m = rng.randint(d + 1, d + 4)
        ps = random_pointset(rng, m, d, lo=-6, hi=6, distinct=False)
        hull = SubsetHull(ps, tuple(range(m)))
        q = tuple(F(rng.randint(-7, 7), rng.randint(1, 2)) for _ in range(d))
        assert point_in_hull(q, hull) == brute_in_hull(q, ps.points)


@pytest.mark.parametrize("d", [2, 3])
def test_membership_agrees_with_separating_hyperplane_oracle(d):
    rng = random.Random(200 + d)
    done = 0
    while done < 150:
        m = rng.randint(d + 1, d + 3)
        ps = random_pointset(rng, m, d, lo=-5, hi=5, distinct=False)
        if affine_rank(ps.points) != d:
            continue
        hull = SubsetHull(ps, tuple(range(m)))
        q = tuple(F(rng.randint(-6, 6)) for _ in range(d))
        inside = point_in_hull(q, hull)
        assert inside != brute_separating_hyperplane_outside(q, ps.points)
        done += 1


# --- polytopes_intersect -----------------------------------------------------


def test_disjoint_unit_boxes():
    a = HPolytope.from_bounds([(F(0), F(1)), (F(0), F(1))])
    b = HPolytope.from_bounds([(F(2), F(3)), (F(0), F(1))])
    assert polytopes_intersect([a, b]) is None


def test_single_polytope_returns_witness():
    a = HPolytope.from_bounds([(F(0), F(1)), (F(0), F(1))])
    w = polytopes_intersect([a])
    assert w is not None and a.contains(w)


def test_touching_boxes_closed_vs_open():
    a = HPolytope.from_bounds([(F(0), F(1)), (F(0), F(1))])
    b = HPolytope.from_bounds([(F(1), F(2)), (F(0), F(1))])
    w = polytopes_intersect([a, b])
    assert w is not None and w[0] == 1
    # make the shared facet open on one side: now empty
    open_b = HPolytope(
        2,
        tuple(
            Halfspace(h.normal, h.offset, closed=False)
            if h.normal == (F(-1), F(0))
            else h
            for h in b.halfspaces
        ),
    )
    assert polytopes_intersect([a, open_b]) is None


def test_hull_and_box_mix():
    ps = P2((0, 0), (4, 0), (0, 4))
    tri = SubsetHull(ps, (0, 1, 2))
    box = HPolytope.from_bounds([(F(3), F(9)), (F(0), F(9))])
    w = polytopes_intersect([tri, box])
    assert w is not None
    assert point_in_hull(w, tri) and box.contains(w)
    far = HPolytope.from_bounds([(F(5), F(9)), (F(5), F(9))])
    assert polytopes_intersect([tri, far]) is None


def test_intersect_order_independence():
    rng = random.Random(7)
    for _ in range(25):
        family = []
        for _ in range(3):
            lo = [F(rng.randint(-4, 2)) for _ in range(2)]
            hi = [l + rng.randint(0, 4) for l in lo]
            family.append(HPolytope.from_bounds(list(zip(lo, hi))))
        ps = random_pointset(rng, 4, 2, lo=-4, hi=4, distinct=False)
        family.append(SubsetHull(ps, (0, 1, 2, 3)))
        verdicts = set()
        for perm in permutations(range(len(family))):
            w = polytopes_intersect([family[i] for i in perm])
            verdicts.add(w is None)
            if w is not None:
                for body in family:
                    if isinstance(body, HPolytope):
                        assert body.contains(w)
                    else:
                        assert point_in_hull(w, body)
        assert len(verdicts) == 1


def test_intersect_rejects_mixed_dimensions():
    a = HPolytope.from_bounds([(F(0), F(1))])
    b = HPolytope.from_bounds([(F(0), F(1)), (F(0), F(1))])
    with pytest.raises(DimensionMismatchError):
        polytopes_intersect([a, b])


def test_intersect_agrees_with_clipping():
    # LP emptiness must agree with the 2d polygon clipping fast path
    rng = random.Random(11)
    for _ in range(60):
        a = random_pointset(rng, 5, 2, lo=-6, hi=6, distinct=False)
        b = random_pointset(rng, 5, 2, lo=-6, hi=6, distinct=False)
        ha = hull2d(sorted(a.points))
        hb = hull2d(sorted(b.points))
        poly = clip_polygon_to_hull(list(ha), hb)
        w = polytopes_intersect(
            [SubsetHull(a, tuple(range(5))), SubsetHull(b, tuple(range(5)))]
        )
        assert (w is not None) == bool(poly)
        for v in poly:
            assert point_in_convex_polygon(v, ha) >= 0
            assert point_in_convex_polygon(v, hb) >= 0


# --- splits ------------------------------------------------------------------


def test_halving_line_examples():
    onedim = PointSet(1, ((F(1),), (F(2),), (F(3),), (F(4),)))
    assert halving_hyperplane(onedim, 0).offset == F(5, 2)
    diag = P2((0, 0), (1, 1), (2, 2), (3, 3))
    h = halving_hyperplane(diag, 1)
    assert h.normal == (F(0), F(1)) and h.offset == F(3, 2)


def test_halving_counts_random_and_large():
    rng = random.Random(5)
    for n in [1, 2, 3, 20, 321, 10_000]:
        coords = rng.sample(range(-200_000, 200_000), n)
        ps = PointSet(1, tuple((F(c),) for c in coords))
        h = halving_hyperplane(ps, 0)
        below = sum(1 for p in ps.points if h.side(p) < 0)
        above = sum(1 for p in ps.points if h.side(p) > 0)
        assert below == n // 2 and above == n - n // 2


def test_halving_rejects_duplicates():
    ps = P2((0, 0), (0, 1), (1, 2))
    with pytest.raises(DegenerateInputError):
        halving_hyperplane(ps, 0)


def test_split_at_count_exact():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 25)
        ps = random_pointset(rng, n, 2, lo=-40, hi=40)
        c = rng.randint(0, n)
        h = split_at_count(ps, 1, c)
        assert sum(1 for p in ps.points if h.side(p) < 0) == c
        assert all(h.side(p) != 0 for p in ps.points)


def test_split_count_out_of_range():
    ps = P2((0, 0), (1, 1))
    with pytest.raises(InfeasibleCountError):
        split_at_count(ps, 0, 3)


def test_split_at_extremes():
    ps = P2((0, 0), (1, 1), (2, 2))
    low = split_at_count(ps, 0, 0)
    high = split_at_count(ps, 0, 3)
    assert all(low.side(p) > 0 for p in ps.points)
    assert all(high.side(p) < 0 for p in ps.points)


# --- 2d fast paths -----------------------------------------------------------


def test_orient2d_signs():
    assert orient2d((0, 0), (1, 0), (0, 1)) > 0
    assert orient2d((0, 0), (0, 1), (1, 0)) < 0
    assert orient2d((0, 0), (1, 1), (2, 2)) == 0


def test_hull2d_known():
    pts = sorted([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    hull = hull2d(pts)
    assert sorted(hull) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    # counterclockwise orientation
    m = len(hull)
    for i in range(m):
        assert orient2d(hull[i], hull[(i + 1) % m], hull[(i + 2) % m]) > 0


def test_hull2d_small_and_collinear():
    assert hull2d([(0, 0)]) == [(0, 0)]
    assert hull2d([(0, 0), (1, 1)]) == [(0, 0), (1, 1)]
    assert set(hull2d([(0, 0), (1, 1), (2, 2), (3, 3)])) == {(0, 0), (3, 3)}


def test_hull2d_random_against_membership():
    rng = random.Random(13)
    for _ in range(50):
        pts = sorted(
            {(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(rng.randint(1, 12))}
        )
        hull = hull2d(pts)
        assert set(hull) <= set(pts)
        for p in pts:
            assert point_in_convex_polygon(p, hull) >= 0


def test_point_in_convex_polygon_cases():
    sq = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert point_in_convex_polygon((2, 2), sq) == 1
    assert point_in_convex_polygon((0, 2), sq) == 0
    assert point_in_convex_polygon((5, 2), sq) == -1
    assert point_in_convex_polygon((1, 1), [(1, 1)]) == 0
    assert point_in_convex_polygon((2, 2), [(1, 1), (3, 3)]) == 0
    assert point_in_convex_polygon((2, 3), [(1, 1), (3, 3)]) == -1


def test_clip_to_hull_shrinks_square():
    sq = [(F(0), F(0)), (F(4), F(0)), (F(4), F(4)), (F(0), F(4))]
    tri = [(2, -1), (9, 5), (2, 5)]
    poly = clip_polygon_to_hull(sq, tri)
    assert poly
    for v in poly:
        assert point_in_convex_polygon(v, sq) >= 0
        assert point_in_convex_polygon(v, tri) >= 0
    gone = clip_polygon_to_hull(sq, [(10, 10), (11, 10), (10, 11)])
    assert gone == []


def _affine(poly):
    return [(F(x, w), F(y, w)) for x, y, w in poly]


def _clip_both(poly, cuts):
    """Clip a homogeneous polygon and its Fraction copy by the same cuts,
    checking after each cut that the vertex lists agree in order."""
    fast = [(x, y, 1) for x, y in poly]
    slow = [(F(x), F(y)) for x, y in poly]
    for a, b in cuts:
        fast = clip_polygon_halfplane(fast, a, b)
        slow = slow_clip_polygon_halfplane(slow, a, b)
        assert _affine(fast) == slow
        for x, y, w in fast:
            assert w > 0 and gcd(x, y, w) == 1
    return slow


def test_clip_homogeneous_degenerate_cuts():
    sq = [(0, 0), (4, 0), (4, 4), (0, 4)]
    # through a vertex and across the opposite edge
    assert _clip_both(sq, [((0, 0), (2, 1))]) == [
        (F(0), F(0)), (F(4), F(2)), (F(4), F(4)), (F(0), F(4))
    ]
    # along an edge, keeping the square / keeping only that edge
    assert _clip_both(sq, [((0, 0), (4, 0))]) == _affine([(x, y, 1) for x, y in sq])
    assert _clip_both(sq, [((4, 0), (0, 0))]) == [(F(0), F(0)), (F(4), F(0))]
    # tangent at a vertex, both ways
    assert len(_clip_both(sq, [((3, -1), (5, 1))])) == 4
    assert _clip_both(sq, [((5, 1), (3, -1))]) == [(F(4), F(0))]
    # to a point, then to nothing
    assert _clip_both(sq, [((5, 1), (3, -1)), ((0, 0), (1, 0))]) == [(F(4), F(0))]
    assert _clip_both(sq, [((5, 1), (3, -1)), ((0, 1), (1, 1))]) == []
    # to a segment, then a cut across it, then one along it, then nothing
    seg = [((4, 0), (0, 0)), ((3, 0), (3, 1)), ((0, 0), (4, 0)), ((1, 1), (1, 0))]
    assert _clip_both(sq, seg[:2]) == [(F(0), F(0)), (F(3), F(0))]
    assert _clip_both(sq, seg[:3]) == [(F(0), F(0)), (F(3), F(0))]
    assert _clip_both(sq, seg) == [(F(1), F(0)), (F(3), F(0))]
    assert _clip_both(sq, seg + [((2, -5), (2, 5))]) == [(F(1), F(0)), (F(2), F(0))]
    assert _clip_both(sq, seg + [((5, 5), (5, -5))]) == []
    # everything outside at once
    assert _clip_both(sq, [((0, 10), (1, 10))]) == []
    assert clip_polygon_halfplane([], (0, 0), (1, 0)) == []


def test_clip_homogeneous_returns_untouched_polygon():
    poly = [(0, 0, 1), (8, 0, 1), (0, 8, 1)]
    assert clip_polygon_halfplane(poly, (0, 0), (1, 0)) is poly
    assert clip_polygon_halfplane(poly, (9, 9), (9, 10)) is poly


def test_clip_homogeneous_matches_fraction_clipping():
    rng = random.Random(17)
    for _ in range(150):
        lo, hi = -rng.randint(2, 30), rng.randint(2, 30)
        poly = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
        cuts = []
        for _ in range(rng.randint(1, 12)):
            a = (rng.randint(2 * lo, 2 * hi), rng.randint(2 * lo, 2 * hi))
            b = a
            while b == a:
                b = (rng.randint(2 * lo, 2 * hi), rng.randint(2 * lo, 2 * hi))
            cuts.append((a, b))
        _clip_both(poly, cuts)


def test_integer_coords_scaling():
    ps = P2(("1/2", "1/3"), (1, 2))
    scale, scaled = integer_coords(ps)
    assert scale == 6
    assert scaled == ((3, 2), (6, 12))
    for p, s in zip(ps.points, scaled):
        assert all(c * scale == sc for c, sc in zip(p, s))
    # net points with denominators the input scale does not divide
    extra = [(F(1, 4), F(2, 7)), (F(5), F(-1, 3))]
    ipts, iextra = common_integer_coords(ps, extra)
    assert ipts == ((42, 28), (84, 168)) and iextra == [(21, 24), (420, -28)]
    assert common_integer_coords(ps, []) == (scaled, [])


def test_as_point_checks_dim():
    with pytest.raises(DimensionMismatchError):
        as_point((1, 2, 3), dim=2)
