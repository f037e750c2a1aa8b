"""Shared brute-force oracles and random-instance generators for the tests.

The oracles are deliberately independent of the library's LP machinery:
membership uses Caratheodory subsets solved by Gaussian elimination,
separation enumerates candidate hyperplanes, counting is a naive scan.
At the end sit the plain versions of optimised kernels (the planar
general-position check, the planar convex-pair construction with its
Fraction polygon clipping, the 3D avoidance oracle, the Fraction simplex
tableau, the Fraction box region filter, the closure mask descent,
dominance by down-closures, the search over points, the Fraction
arrangement vertices, the Fraction probe lattice, the oracle-threshold
check that queries every pair, the Fraction lens hulls and per-point
count and membership claims, the verifiers' per-kind level loops, the
Fraction box pair, triple and median point, the Fraction SVG coordinate
map, and the point-set reader that turns every coordinate into a
Fraction),
which differential tests hold the library's kernels to, output for output.
"""

from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
import json
from math import comb
import random

import numpy as np

from epsnet.constructions import (
    ConstructionTrace,
    _count_small_side,
    check_box_pair_conditions,
    check_box_triple_conditions,
)
from epsnet.errors import (
    ConditionError,
    ConstructionFailureError,
    DegenerateInputError,
    UnsupportedDimensionError,
)
from epsnet.gadgets import _PROBE_GRID, ClaimResult, _fmt
from epsnet.geometry import (
    Halfspace,
    Hyperplane,
    PointSet,
    SubsetHull,
    _det,
    as_point,
    centroid,
    common_integer_coords,
    hull2d,
    integer_coords,
    orient2d,
    point_in_hull,
)
from epsnet.io_formats import json_to_fraction
from epsnet.linprog import ONE, ZERO
from epsnet.ranges import (
    BoxRange,
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    _candidate_masks,
    hull_holds,
    max_subset_avoiding,
)
from epsnet.svg import _PALETTE as SVG_PALETTE, _SIZE as SVG_SIZE
from epsnet.verification import (
    VerificationReport,
    Violation,
    verify_weighted_net_boxes,
)


# --- exact linear algebra ---------------------------------------------------


def solve_unique(mat, rhs):
    """Solve mat . x = rhs if the columns are independent and the system is
    consistent; return None otherwise.  mat is rows x cols, rows >= cols."""
    rows = [list(r) + [b] for r, b in zip(mat, rhs)]
    nr, nc = len(rows), len(mat[0])
    piv_rows = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            return None  # rank-deficient columns
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_rows.append(c)
        r += 1
        if r == nr:
            break
    if len(piv_rows) < nc:
        return None
    for i in range(r, nr):
        if rows[i][nc] != 0:
            return None  # inconsistent
    return [rows[i][nc] for i in range(nc)]


def affine_rank(pts):
    """Dimension of the affine hull of pts."""
    base = pts[0]
    vecs = [[c - b for c, b in zip(p, base)] for p in pts[1:]]
    rank = 0
    cols = len(base)
    rows = [v[:] for v in vecs]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


# --- membership oracles ------------------------------------------------------


def point_in_convex_polygon(q, poly):
    """+1 strictly inside, 0 on the boundary, -1 outside a CCW convex polygon
    of integer points (as ``hull2d`` returns it)."""
    m = len(poly)
    if m == 1:
        return 0 if tuple(q) == tuple(poly[0]) else -1
    if m == 2:
        a, b = poly
        if orient2d(a, b, q) != 0:
            return -1
        return 0 if min(a, b) <= tuple(q) <= max(a, b) else -1
    on_edge = False
    for i in range(m):
        s = orient2d(poly[i], poly[(i + 1) % m], q)
        if s < 0:
            return -1
        if s == 0:
            on_edge = True
    return 0 if on_edge else 1


def brute_in_hull(q, pts):
    """q in conv(pts), by Caratheodory: some affinely independent subset of
    size <= d+1 carries q with nonnegative barycentric coordinates."""
    d = len(q)
    if any(tuple(p) == tuple(q) for p in pts):
        return True
    for m in range(2, d + 2):
        for sub in combinations(pts, m):
            mat = [[p[a] for p in sub] for a in range(d)]
            mat.append([F(1)] * m)
            lam = solve_unique(mat, list(q) + [F(1)])
            if lam is not None and all(v >= 0 for v in lam):
                return True
    return False


def brute_separating_hyperplane_outside(q, pts):
    """q strictly outside conv(pts), via candidate hyperplanes spanned by d
    points of pts + {q}.  Valid when pts affinely spans R^d."""
    d = len(q)
    candidates = list(combinations(list(pts) + [tuple(q)], d))
    for cand in candidates:
        if affine_rank(cand) != d - 1:
            continue
        # normal orthogonal to the spanned directions
        normal = _normal_of(cand, d)
        if normal is None:
            continue
        off = sum(a * b for a, b in zip(normal, cand[0]))
        qv = sum(a * b for a, b in zip(normal, q)) - off
        if qv == 0:
            continue
        side = [sum(a * b for a, b in zip(normal, p)) - off for p in pts]
        if qv > 0 and all(s <= 0 for s in side):
            return True
        if qv < 0 and all(s >= 0 for s in side):
            return True
    return False


def _normal_of(cand, d):
    """A nonzero vector orthogonal to the affine hull of d points in R^d."""
    base = cand[0]
    vecs = [[c - b for c, b in zip(p, base)] for p in cand[1:]]
    # solve vecs . normal = 0 with one coordinate pinned to 1
    for pinned in range(d):
        mat = []
        rhs = []
        for v in vecs:
            row = [v[a] for a in range(d) if a != pinned]
            mat.append(row)
            rhs.append(-v[pinned])
        if not mat:
            normal = [F(0)] * d
            normal[pinned] = F(1)
            return tuple(normal)
        sol = solve_unique(mat, rhs)
        if sol is not None:
            normal = []
            it = iter(sol)
            for a in range(d):
                normal.append(F(1) if a == pinned else next(it))
            return tuple(normal)
    return None


# --- instances ---------------------------------------------------------------


# eleven planar points with three duplicate points and repeated coordinates
# on both axes
REPEATED_11 = [
    [4, 2], [1, 0], [1, 0], [4, 2], [2, 2], [3, 1], [3, 1], [1, 3], [3, 2],
    [1, 1], [4, 3],
]


def random_pointset(rng: random.Random, n, d, lo=-50, hi=50, distinct=True,
                    no_collinear=False):
    """Random integer-coordinate PointSet, optionally with pairwise-distinct
    per-axis coordinates and (in 2D) no three collinear points."""
    while True:
        if distinct:
            cols = [rng.sample(range(lo, hi + 1), n) for _ in range(d)]
            pts = [tuple(F(cols[a][i]) for a in range(d)) for i in range(n)]
        else:
            # n distinct cells of the grid, each cell index read in base m
            m = hi - lo + 1
            pts = [
                tuple(F(lo + cell // m**a % m) for a in range(d))
                for cell in rng.sample(range(m**d), n)
            ]
        ps = PointSet(d, tuple(pts))
        if no_collinear:
            try:
                ps.check_general_position()
            except Exception:
                continue
        return ps


def naive_count_in_box(P, lo, hi):
    cnt = 0
    for p in P.points:
        if all(l <= c <= h for c, l, h in zip(p, lo, hi)):
            cnt += 1
    return cnt


def subset_box_counts(P):
    """{(lo, hi): |P in box|} over the bounding box of every nonempty subset
    of P (2^n subsets)."""
    boxes = {}
    for r in range(1, P.n + 1):
        for sub in combinations(P.points, r):
            lo = tuple(min(p[a] for p in sub) for a in range(P.dim))
            hi = tuple(max(p[a] for p in sub) for a in range(P.dim))
            if (lo, hi) not in boxes:
                boxes[lo, hi] = naive_count_in_box(P, lo, hi)
    return boxes


def brute_max_box_count(boxes, pts):
    """Largest count among ``subset_box_counts`` boxes holding none of pts;
    0 if none."""
    best = 0
    for (lo, hi), cnt in boxes.items():
        if not any(all(l <= c <= h for c, l, h in zip(q, lo, hi)) for q in pts):
            best = max(best, cnt)
    return best


# --- brute-force net verifiers -------------------------------------------------


def brute_verify_boxes(P, net):
    """Per-level verdicts over every candidate box, on integer coordinates.

    A box that breaks a level shrinks onto the bounding box of its points,
    keeping its count and losing no net point it missed; that box has, on
    each axis, endpoints at coordinates of the points inside it.  The walk
    takes an axis-0 interval between input coordinates, then an axis-1
    interval between the coordinates of the points inside it, and so on,
    so it visits every such box once, and stops early where fewer points
    remain than the lowest threshold.
    """
    d, n, k = P.dim, P.n, net.k
    ipts, inet = common_integer_coords(P, net.points)
    thresholds = [net.profile.min_strict_count(i, n) for i in range(1, k + 1)]
    verdicts = [True] * k

    def walk(a, members, lo, hi):
        if len(members) < thresholds[0]:
            return
        if a == d:
            net_in = sum(
                1 for q in inet if all(l <= c <= h for c, l, h in zip(q, lo, hi))
            )
            for i in range(net_in, k):
                if len(members) >= thresholds[i]:
                    verdicts[i] = False
            return
        values = sorted({p[a] for p in members})
        for i, l in enumerate(values):
            for h in values[i:]:
                inside = [p for p in members if l <= p[a] <= h]
                walk(a + 1, inside, lo + (l,), hi + (h,))

    walk(0, ipts, (), ())
    return verdicts


def subset_verify_boxes(P, net):
    """Per-level verdicts over every subset bounding box (2^n of them): the
    cross-check of ``brute_verify_boxes`` at small n."""
    n = P.n
    k = net.k
    thresholds = [net.profile.min_strict_count(i, n) for i in range(1, k + 1)]
    verdicts = [True] * k
    pts = P.points
    for r in range(1, n + 1):
        for sub in combinations(pts, r):
            lo = [min(p[a] for p in sub) for a in range(P.dim)]
            hi = [max(p[a] for p in sub) for a in range(P.dim)]
            cnt = naive_count_in_box(P, lo, hi)
            net_in = sum(
                1
                for q in net.points
                if all(l <= c <= h for c, l, h in zip(q, lo, hi))
            )
            for i in range(1, k + 1):
                if cnt >= thresholds[i - 1] and net_in < i:
                    verdicts[i - 1] = False
    return verdicts


def brute_max_subset_avoiding_2d(P, avoid):
    """Largest subset whose hull contains no avoided point, over all 2^n
    subsets (d=2)."""
    n = P.n
    scale, ipts = integer_coords(P)
    iavoid = [tuple(c * scale for c in q) for q in avoid]
    best = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        sub = sorted(ipts[i] for i in range(n) if mask >> i & 1)
        hull = hull2d(sub)
        if all(point_in_convex_polygon(q, hull) < 0 for q in iavoid):
            best = size
    return best


def brute_verify_convex_2d(P, net):
    """Per-level verdicts over the hulls of all 2^n subsets (d=2)."""
    n = P.n
    k = net.k
    scale, ipts = integer_coords(P)
    inet = [tuple(c * scale for c in q) for q in net.points]
    thresholds = [net.profile.min_strict_count(i, n) for i in range(1, k + 1)]
    verdicts = [True] * k
    for mask in range(1, 1 << n):
        sub = sorted(ipts[i] for i in range(n) if mask >> i & 1)
        hull = hull2d(sub)
        cnt = sum(1 for p in ipts if point_in_convex_polygon(p, hull) >= 0)
        net_in = sum(1 for q in inet if point_in_convex_polygon(q, hull) >= 0)
        for i in range(1, k + 1):
            if cnt >= thresholds[i - 1] and net_in < i:
                verdicts[i - 1] = False
    return verdicts


# --- the general-position check, before its planar O(n^2) scan --------------


def slow_check_general_position(P):
    """``PointSet.check_general_position`` with one Bareiss determinant per
    (d+1)-subset in every dimension: the reference for the planar scan's
    verdict and message."""
    P.require_distinct_coords()
    d = P.dim
    if P.n < d + 1:
        return
    _, ipts = integer_coords(P)
    for idx in combinations(range(P.n), d + 1):
        base = ipts[idx[0]]
        rows = [[ipts[i][j] - base[j] for j in range(d)] for i in idx[1:]]
        if _det(rows) == 0:
            sub = tuple(P.points[i] for i in idx)
            raise DegenerateInputError(
                f"{d + 1} points on a common hyperplane: {sub}"
            )


# --- planar convex pairs, before the sweep and the integer clipping ----------


def slow_clip_polygon_halfplane(poly, a, b):
    """Sutherland-Hodgman clip of a convex polygon to the left of line a->b,
    on affine vertices with Fraction crossings."""
    if not poly:
        return []
    out = []
    m = len(poly)
    sides = [orient2d(a, b, p) for p in poly]
    for i in range(m):
        p, sp = poly[i], sides[i]
        q, sq = poly[(i + 1) % m], sides[(i + 1) % m]
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = F(sp, sp - sq)
            out.append(
                (
                    p[0] + t * (q[0] - p[0]),
                    p[1] + t * (q[1] - p[1]),
                )
            )
    # collapse duplicates introduced by vertices exactly on the line
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def clip_polygon_to_hull(poly, hull):
    """Intersect a convex polygon with a convex hull (CCW vertex list)."""
    m = len(hull)
    if m == 1:
        q = hull[0]
        return [q] if poly and point_in_convex_polygon(q, poly) >= 0 else []
    if m == 2:
        a, b = hull
        poly = slow_clip_polygon_halfplane(poly, a, b)
        poly = slow_clip_polygon_halfplane(poly, b, a)
        return poly
    for i in range(m):
        poly = slow_clip_polygon_halfplane(poly, hull[i], hull[(i + 1) % m])
        if not poly:
            break
    return poly


def slow_side_counts(ipts, above, u, w):
    """(left, right, above_left, above_right): the points strictly on each
    side of the line u->w and how many of them are ``above``, one
    orientation per point."""
    pu, pw = ipts[u], ipts[w]
    left = right = above_left = above_right = 0
    for k in range(len(ipts)):
        s = orient2d(pu, pw, ipts[k])
        if s > 0:
            left += 1
            above_left += above[k]
        elif s < 0:
            right += 1
            above_right += above[k]
    return left, right, above_left, above_right


def slow_convex_pair_2d(P, above, t1, t2):
    """``constructions._convex_pair_2d`` with per-pair side counts and
    Fraction clipping of each family's collected cuts: the reference for
    its net, class sizes and failure messages."""
    n = P.n
    scale, ipts = integer_coords(P)
    order = sorted(range(n), key=lambda i: ipts[i])
    c_min = (t1 + 1) // 2  # at least half the subset above the halving line
    b_min = t1 - c_min + 1  # non-above count forced by a sub-c_min subset
    n_above = sum(above)
    sizes = [
        ("small_A", _count_small_side(n, n_above, t1, c_min, True)),
        ("small_B", _count_small_side(n, n_above, t1, c_min, False)),
        ("big", comb(n, t2)),
    ]
    cuts_a = []
    cuts_b = []
    for u, w in combinations(order, 2):
        pu, pw = ipts[u], ipts[w]
        left, right, above_left, above_right = slow_side_counts(ipts, above, u, w)
        # closed halfplanes: points on the boundary line count for both
        for a_pt, b_pt, cnt, up in (
            (pu, pw, n - right, n_above - above_right),
            (pw, pu, n - left, n_above - above_left),
        ):
            if cnt < t1:
                continue
            big = cnt >= t2
            if big or up >= c_min:
                cuts_a.append((a_pt, b_pt, (u, w)))
            if big or cnt - up >= b_min:
                cuts_b.append((a_pt, b_pt, (u, w)))
    xs = [p[0] for p in ipts]
    ys = [p[1] for p in ipts]
    corners = (
        (min(xs) - 1, min(ys) - 1),
        (max(xs) + 1, min(ys) - 1),
        (max(xs) + 1, max(ys) + 1),
        (min(xs) - 1, max(ys) + 1),
    )
    points = []
    for name, cuts in (("A", cuts_a), ("B", cuts_b)):
        poly = [tuple(F(c) for c in v) for v in corners]
        for a_pt, b_pt, pair in cuts:
            poly = slow_clip_polygon_halfplane(poly, a_pt, b_pt)
            if not poly:
                raise ConstructionFailureError(
                    f"family {name} has empty intersection (emptied at the"
                    f" halfplane through input points {pair[0]} and {pair[1]})"
                )
        v = min(poly)
        points.append((v[0] / scale, v[1] / scale))
    return points[0], points[1], sizes


# --- the 3D avoidance oracle, before its integer kernel ----------------------


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def slow_candidate_masks_3d(P, q):
    """``ranges._candidate_masks`` for d=3 with generic dot and cross
    products, uncached: the reference its inlined kernel must reproduce,
    mask order included."""
    pts, (iq,) = common_integer_coords(P, (q,))
    masks = set()
    diffs = [tuple(a - b for a, b in zip(p, iq)) for p in pts]
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    anchors = [u for u in diffs if u != (0, 0, 0)]
    cands = [
        (u, v)
        for u in anchors
        for v in anchors + axes
        if u is not v
    ]
    cands += [(e, u) for u in anchors for e in axes]
    for u, v in cands:
        nrm = _cross3(u, v)
        if nrm == (0, 0, 0):
            continue
        mask = 0
        for i, w in enumerate(diffs):
            s = _dot(nrm, w)
            if s > 0:
                mask |= 1 << i
            elif s == 0:
                t2 = _dot(_cross3(u, w), nrm)
                if t2 > 0 or (t2 == 0 and _dot(u, w) > 0):
                    mask |= 1 << i
        if mask:
            masks.add(mask)
    return tuple(sorted(masks, key=lambda m: (-m.bit_count(), m)))


# --- the exact simplex in Fraction arithmetic --------------------------------


class FractionTableau:
    """The simplex tableau in ``Fraction``s: every entry a rational, the
    pivot row divided by the pivot.  It takes the integer rows ``solve``
    builds and offers ``linprog._Tableau``'s interface; the integer tableau
    must match it pivot for pivot and result for result."""

    def __init__(self, rows, rhs, den, basis, ncols):
        self.rows = [[F(v, d) for v in row] for row, d in zip(rows, den)]
        self.rhs = [F(b, d) for b, d in zip(rhs, den)]
        self.basis = basis
        self.ncols = ncols

    def value(self, r):
        return self.rhs[r]

    def drop(self, r):
        del self.rows[r], self.rhs[r], self.basis[r]

    def pivot(self, r, c):
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        piv = prow[c]
        if piv != 1:
            inv = ONE / piv
            prow = rows[r] = [v * inv if v else v for v in prow]
            rhs[r] *= inv
        prhs = rhs[r]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f == 0:
                continue
            rows[i] = [v - f * p if p else v for v, p in zip(row, prow)]
            rhs[i] -= f * prhs
        self.basis[r] = c

    def minimize(self, cost, cden):
        """Run simplex with Bland's rule on the given cost vector.

        Returns (status, objective value).  The cost vector is reduced
        against the current basis first.
        """
        rows, rhs, basis = self.rows, self.rhs, self.basis
        red = [F(v, cden) for v in cost]
        z = ZERO
        for r, bv in enumerate(basis):
            f = red[bv]
            if f != 0:
                for j, p in enumerate(rows[r]):
                    if p:
                        red[j] -= f * p
                z -= f * rhs[r]
        while True:
            enter = -1
            for j in range(self.ncols):
                if red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", -z
            leave = -1
            best = None
            for i in range(len(rows)):
                a = rows[i][enter]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", ZERO
            f = red[enter]
            self.pivot(leave, enter)
            for j, p in enumerate(rows[leave]):
                if p:
                    red[j] -= f * p
            z -= f * rhs[leave]


class DenseTableau(FractionTableau):
    """``FractionTableau`` with every entry of every row updated on each
    pivot, zeros included: the reference the zero-skipping pivot must match
    pivot for pivot."""

    def pivot(self, r, c):
        rows, rhs = self.rows, self.rhs
        piv = rows[r][c]
        inv = ONE / piv
        rows[r] = [v * inv for v in rows[r]]
        rhs[r] *= inv
        prow = rows[r]
        prhs = rhs[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            row = rows[i]
            rows[i] = [row[j] - f * prow[j] for j in range(self.ncols)]
            rhs[i] -= f * prhs
        self.basis[r] = c

    def minimize(self, cost, cden):
        rows, rhs, basis = self.rows, self.rhs, self.basis
        red = [F(v, cden) for v in cost]
        z = ZERO
        for r, bv in enumerate(basis):
            f = red[bv]
            if f != 0:
                row = rows[r]
                for j in range(self.ncols):
                    red[j] -= f * row[j]
                z -= f * rhs[r]
        while True:
            enter = -1
            for j in range(self.ncols):
                if red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", -z
            leave = -1
            best = None
            for i in range(len(rows)):
                a = rows[i][enter]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", ZERO
            f = red[enter]
            self.pivot(leave, enter)
            prow = rows[leave]
            for j in range(self.ncols):
                red[j] -= f * prow[j]
            z -= f * rhs[leave]


# --- box regions and search on Fraction coordinates --------------------------


def _slow_axis_orders(P):
    """Per axis: (sorted coordinates, point indices in that order)."""
    out = []
    for a in range(P.dim):
        order = sorted(range(P.n), key=lambda i: P.points[i][a])
        coords = tuple(P.points[i][a] for i in order)
        out.append((coords, tuple(order)))
    return tuple(out)


def slow_box_regions_avoiding(P, avoid):
    """``ranges.box_regions_avoiding`` as index lists, each filtered from
    all of P on Fraction coordinates: the points strictly beyond every
    avoided point on its chosen axis and side.  One list per (axis, side)
    assignment, in ``itertools.product`` order over axes ascending with the
    lower side first."""
    sides = [(a, below) for a in range(P.dim) for below in (True, False)]
    for assign in product(sides, repeat=len(avoid)):
        yield [
            i
            for i, p in enumerate(P.points)
            if all(
                p[a] < q[a] if below else p[a] > q[a]
                for q, (a, below) in zip(avoid, assign)
            )
        ]


def slow_largest_box_avoiding(P, avoid, stop_at=None):
    """Most points a box missing ``avoid`` holds; stops once >= stop_at."""
    best = 0
    for inside in slow_box_regions_avoiding(P, avoid):
        best = max(best, len(inside))
        if stop_at is not None and best >= stop_at:
            break
    return best


def slow_max_subset_avoiding_witness(P, avoid, stop_at=None):
    """``ranges.max_subset_avoiding_witness`` with the mask descent inline,
    recursing to a leaf per full intersection from the all-points mask."""
    if not avoid:
        raise ValueError("avoid list must be non-empty")
    seen = []
    for q in avoid:
        q = as_point(q, P.dim)
        if q not in seen:
            seen.append(q)
    lists = [_candidate_masks(P, q) for q in seen]
    if any(not lst for lst in lists):
        return 0, ()
    best = 0
    best_mask = 0

    def descend(level, mask):
        nonlocal best, best_mask
        if level == len(lists):
            size = mask.bit_count()
            if size > best:
                best, best_mask = size, mask
                if stop_at is not None and best >= stop_at:
                    return True
            return False
        for m in lists[level]:
            if m.bit_count() <= best:
                break
            inter = mask & m
            if inter.bit_count() <= best:
                continue
            if descend(level + 1, inter):
                return True
        return False

    descend(0, (1 << P.n) - 1)
    return best, tuple(i for i in range(P.n) if best_mask >> i & 1)


def slow_max_mask_intersection(lists, stop_at=None):
    """``ranges.max_mask_intersection`` as a closure descent with
    ``nonlocal`` state: the same depth-first order, popcount breaks and
    ``stop_at`` rule."""
    if not lists:
        raise ValueError("need one mask list per avoided point")
    if not all(lists):
        return 0, 0
    best = 0
    best_mask = 0
    last = len(lists) - 1

    def descend(level, mask):
        nonlocal best, best_mask
        for m in lists[level]:
            if m.bit_count() <= best:
                break
            inter = mask & m
            size = inter.bit_count()
            if size <= best:
                continue
            if level < last:
                if descend(level + 1, inter):
                    return True
                continue
            best, best_mask = size, inter
            if stop_at is not None and best >= stop_at:
                return True
        return False

    descend(0, -1)
    return best, best_mask


def slow_undominated(lists, n):
    """``ranges.undominated`` by down-closures, for masks of n <= 6 bits:
    list i dominates list j when every non-empty subset of {0..n-1} lying
    in a mask of i lies in a mask of j.  Kept: the smallest index of each
    class of equal down-closures that strictly contains no other
    closure."""
    assert n <= 6
    closures = [
        {s for s in range(1, 1 << n) if any(s & ~m == 0 for m in masks)}
        for masks in lists
    ]
    return [
        i
        for i, mine in enumerate(closures)
        if not any(
            other < mine or (other == mine and j < i)
            for j, other in enumerate(closures)
        )
    ]


def slow_search(P, kind, candidates, size):
    """``cli._search`` over candidate points: each net's query takes the
    points themselves, singles are cached by point, and the avoidance
    answers come from the two functions above."""
    if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        largest = slow_largest_box_avoiding
    else:
        def largest(P, avoid, stop_at=None):
            return slow_max_subset_avoiding_witness(P, avoid, stop_at)[0]
    best = None  # ((counts...), net)
    singles = {}

    def single(q):
        if q not in singles:
            singles[q] = largest(P, (q,))
        return singles[q]

    for net in combinations_with_replacement(candidates, size):
        cap = P.n + 1 if best is None else best[0][0] + (1 if size > 1 else 0)
        first = largest(P, net, cap)
        if first >= cap:
            continue
        key = (first,) if size == 1 else (first, max(map(single, net)))
        if best is None or key < best[0]:
            best = (key, net)
    return best


def _line_through(a, b):
    # A x + B y = C, normalized for dedup
    A = b[1] - a[1]
    B = a[0] - b[0]
    C = A * a[0] + B * a[1]
    for lead in (A, B):
        if lead != 0:
            return (A / lead, B / lead, C / lead)
    raise ValueError("coincident points")


def slow_arrangement_candidates(P):
    """``cli._arrangement_candidates`` for convex ranges in ``Fraction``
    arithmetic: every line through two distinct points, normalized by its
    leading coefficient, and every crossing of two of them."""
    pts = set(P.points)
    lines = set()
    for a, b in combinations(P.points, 2):
        if a != b:
            lines.add(_line_through(a, b))
    for (a1, b1, c1), (a2, b2, c2) in combinations(sorted(lines), 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        pts.add((x, y))
    return sorted(pts)


def slow_threshold_probe_pairs(instance, trials, seed):
    """``gadgets.threshold_probe_pairs`` with each lattice coordinate
    computed as ``lo + (hi - lo) * Fraction(r, grid)``."""
    structured = []
    seen = set()

    def add(q):
        if q not in seen:
            seen.add(q)
            structured.append(q)

    for p in instance.pointset:
        add(p)
    for a, b in combinations(instance.pointset.points, 2):
        add(tuple((x + y) / 2 for x, y in zip(a, b)))
    for body in instance.witnesses.values():
        if isinstance(body, SubsetHull):
            add(centroid(body.points))
    pairs = list(combinations_with_replacement(structured, 2))
    rnd = random.Random(seed)
    bounds = instance.pointset.bounding_box()

    def lattice_point():
        return tuple(
            lo + (hi - lo) * F(rnd.randrange(_PROBE_GRID + 1), _PROBE_GRID)
            for lo, hi in bounds
        )

    while len(pairs) < trials:
        pairs.append((lattice_point(), lattice_point()))
    return pairs


def slow_check_oracle_threshold(instance, claim):
    """``gadgets._check_oracle_threshold`` querying the oracle on every
    pair of the sample, probes outside the hull included."""
    pairs = slow_threshold_probe_pairs(instance, claim.trials, claim.seed)
    for p1, p2 in pairs:
        size = max_subset_avoiding(
            instance.pointset, [p1, p2], stop_at=claim.threshold
        )
        if size < claim.threshold:
            return ClaimResult(
                claim,
                False,
                f"only {size} avoid {_fmt(p1)} and {_fmt(p2)}"
                f" (needed {claim.threshold})",
            )
    return ClaimResult(
        claim, True, f"threshold {claim.threshold} met on {len(pairs)} pairs"
    )


def slow_hull_halfspaces(points):
    """``gadgets._hull_halfspaces`` on the rational points themselves: the
    hull and each edge's normal and offset in Fraction arithmetic."""
    hull = hull2d(sorted(set(points)))
    if len(hull) < 3:
        raise ValueError("hull is not full-dimensional")
    out = []
    for i, a in enumerate(hull):
        b = hull[(i + 1) % len(hull)]
        normal = (b[1] - a[1], a[0] - b[0])
        out.append(Halfspace(normal, normal[0] * a[0] + normal[1] * a[1]))
    return tuple(out)


def _slow_holds(body, q):
    if isinstance(body, SubsetHull):
        return hull_holds(body.base, q)(sum(1 << i for i in body.indices))
    return body.contains(q)


def slow_check_count(instance, claim):
    """``gadgets._check_count`` testing every point with ``_slow_holds``:
    Fraction ``Halfspace.contains`` for polytopes, the oracle masks for
    subset hulls."""
    (name,) = claim.witnesses
    body = instance.witnesses[name]
    count = sum(_slow_holds(body, p) for p in instance.pointset)
    if count == claim.expected:
        return ClaimResult(claim, True, f"{name} holds exactly {count} points")
    return ClaimResult(
        claim, False, f"{name} holds {count} points, expected {claim.expected}"
    )


def slow_check_membership(instance, claim):
    """``gadgets._check_membership`` testing each probe with
    ``_slow_holds``."""
    (name,) = claim.witnesses
    body = instance.witnesses[name]
    for q in claim.probes:
        if _slow_holds(body, q) != claim.contains:
            verb = "missing" if claim.contains else "containing"
            return ClaimResult(claim, False, f"{name} {verb} {_fmt(q)}")
    verb = "contains" if claim.contains else "avoids"
    return ClaimResult(
        claim, True, f"{name} {verb} all {len(claim.probes)} probes"
    )


# --- the per-kind level loops of the verifiers ------------------------------


def slow_verify_boxes(P, net, max_violations=16):
    """The box verifier with its own level loop: the reference the shared
    loop in ``verification`` must match field for field (``elapsed`` is
    0)."""
    d, n, k = P.dim, P.n, net.k
    prof = net.profile
    verdicts = []
    found = []
    seen_witnesses = set()
    total = 0
    examined = 0
    for level in range(1, k + 1):
        thr = prof.min_strict_count(level, n)
        level_ok = True
        for T in combinations(net.points, k - level + 1):
            for inside in slow_box_regions_avoiding(P, T):
                examined += 1
                if len(inside) < thr:
                    continue
                level_ok = False
                total += 1
                box = BoxRange(
                    tuple(
                        (
                            min(P.points[i][a] for i in inside),
                            max(P.points[i][a] for i in inside),
                        )
                        for a in range(d)
                    )
                )
                if box.intervals in seen_witnesses or len(found) >= max_violations:
                    continue
                seen_witnesses.add(box.intervals)
                net_inside = box.count_net_points(net.points)
                pcount = naive_count_in_box(P, *zip(*box.intervals))
                assert net_inside < level and pcount >= thr
                found.append(Violation(level, box, net_inside, pcount))
        verdicts.append(level_ok)
    return VerificationReport(
        RangeSpaceKind.AXIS_PARALLEL_BOXES,
        n,
        prof,
        tuple(verdicts),
        tuple(found),
        total,
        examined,
        0.0,
    )


def slow_verify_convex(P, net, max_violations=16):
    """The convex verifier with its own level loops, one over integer
    polygons in the plane and one over LP hulls otherwise (no budget)."""
    n, k = P.n, net.k
    prof = net.profile
    verdicts = []
    found = []
    seen = set()
    total = 0
    examined = 0
    fast2d = P.dim == 2
    if fast2d:
        ipts, inet = common_integer_coords(P, net.points)
        order = sorted(range(n), key=lambda i: ipts[i])
    for level in range(1, k + 1):
        t = prof.min_strict_count(level, n)
        if t > n:
            verdicts.append(True)
            continue
        level_ok = True
        if fast2d:
            for idx in combinations(order, t):
                examined += 1
                hull = hull2d([ipts[i] for i in idx])
                inside = sum(
                    1 for q in inet if point_in_convex_polygon(q, hull) >= 0
                )
                if inside >= level:
                    continue
                level_ok = False
                total += 1
                key = tuple(sorted(idx))
                if len(found) >= max_violations or key in seen:
                    continue
                seen.add(key)
                witness = SubsetHull(P, key)
                pcount = sum(
                    1
                    for p in ipts
                    if point_in_convex_polygon(p, hull) >= 0
                )
                found.append(Violation(level, witness, inside, pcount))
        else:
            for idx in combinations(range(n), t):
                hull = SubsetHull(P, idx)
                examined += 1
                inside = sum(
                    1 for q in net.points if point_in_hull(q, hull)
                )
                if inside >= level:
                    continue
                level_ok = False
                total += 1
                key = hull.indices
                if len(found) >= max_violations or key in seen:
                    continue
                seen.add(key)
                pcount = sum(1 for p in P.points if point_in_hull(p, hull))
                found.append(Violation(level, hull, inside, pcount))
        verdicts.append(level_ok)
    return VerificationReport(
        RangeSpaceKind.CONVEX_SETS,
        n,
        prof,
        tuple(verdicts),
        tuple(found),
        total,
        examined,
        0.0,
    )


# --- box constructions and figures on Fraction coordinates -------------------


def slow_box_median_point(P):
    """``constructions.box_median_point`` sorting each axis's Fraction
    coordinates."""
    P.require_distinct_coords()
    n = P.n
    k = (n + 1) // 2  # 1-based rank ceil(n/2)
    coords = []
    for a in range(P.dim):
        coords.append(sorted(P.axis_coords(a))[k - 1])
    return WeightedNet((tuple(coords),), EpsilonProfile((F(1, 2),)))


def _slow_axis_cut(coords_sorted, kill_max, surv_max):
    """Best axis cut: maximise the strictly-killed count under both caps.

    Returns (cut value, strictly_below, on_point) or None.  Midpoint
    placement is preferred; when parity makes both caps unreachable with a
    midpoint, the cut passes through a point, which counts on neither
    side.
    """
    n = len(coords_sorted)
    for k in range(min(kill_max, n), -1, -1):
        if n - k <= surv_max:
            if k == 0:
                return coords_sorted[0] - 1, 0, False
            if k == n:
                return coords_sorted[-1] + 1, n, False
            lo, hi = coords_sorted[k - 1], coords_sorted[k]
            return (lo + hi) / 2, k, False
        if k < n and n - k - 1 <= surv_max:
            return coords_sorted[k], k, True
    return None


def slow_box_pair_highd(P, eps):
    """``constructions.construct_box_pair_highd`` on Fraction coordinates:
    each axis is negated in place when mirrored, every cut and order
    statistic is a sorted coordinate, and each slab is a list of points.
    The reference the rank-space construction must match net for net,
    trace for trace and message for message."""
    d, n = P.dim, P.n
    if not check_box_pair_conditions(d, eps):
        e1, e2 = eps.eps
        p = 3 ** (d - 1)
        parts = []
        if e1 < F(p, 2 * p + 1):
            parts.append(f"(i) {e1} < 3^(d-1)/(2*3^(d-1)+1) = {F(p, 2*p+1)}")
        if e1 + e2 < 1:
            parts.append(f"(ii) {e1} + {e2} < 1")
        raise ConditionError("box pair conditions fail: " + "; ".join(parts))
    P.require_distinct_coords()
    e1, e2 = eps.eps
    t1 = eps.min_strict_count(1, n)
    kill_max = int(e1 * n)
    surv_max = int(e2 * n)
    pts = [list(p) for p in P.points]
    flips = [False] * d
    cuts = [None] * d
    kill_counts = [0] * d
    notes = []

    first = d - 1
    cut = _slow_axis_cut(sorted(q[first] for q in pts), kill_max, surv_max)
    if cut is None:
        raise ConstructionFailureError(
            f"no axis-{first} cut keeps <= {kill_max} on one side and"
            f" <= {surv_max} on the other (n={n})"
        )
    cuts[first], kill_counts[first], on_pt = cut
    if on_pt:
        notes.append(f"axis {first}: cut through a point")
    corner = [q for q in pts if q[first] < cuts[first]]

    for a in range(d - 1):
        csorted = sorted(q[a] for q in corner)
        third = (len(csorted) + 2) // 3
        if third:
            lo_edge = csorted[third - 1]
            hi_edge = csorted[-third]
            low_side = sum(1 for q in pts if q[a] <= lo_edge) - third
            high_side = sum(1 for q in pts if q[a] >= hi_edge) - third
        else:
            low_side = high_side = 0
        if low_side > high_side:
            # corner holds references into pts, so it is negated too
            flips[a] = True
            for q in pts:
                q[a] = -q[a]
            notes.append(f"axis {a}: mirrored")
        cut = _slow_axis_cut(sorted(q[a] for q in pts), kill_max, surv_max)
        if cut is None:
            raise ConstructionFailureError(
                f"no axis-{a} cut keeps <= {kill_max} on one side and"
                f" <= {surv_max} on the other (n={n})"
            )
        cuts[a], kill_counts[a], on_pt = cut
        if on_pt:
            notes.append(f"axis {a}: cut through a point")
        corner = [q for q in corner if q[a] < cuts[a]]

    p1_work = tuple(cuts)
    # order-statistic boxes: survivor slab per axis, plus the global level-2 box
    t2 = eps.min_strict_count(2, n)
    slabs = [("all::t2", pts)]
    for a in range(d):
        upper = [q for q in pts if q[a] > cuts[a]]
        lower = [q for q in pts if q[a] < cuts[a]]
        if len(upper) >= t1:
            slabs.append((f"axis{a}-survivor", upper))
        if len(lower) >= t1:  # possible only when caps were loose
            slabs.append((f"axis{a}-kill", lower))
    lo = [None] * d
    hi = [None] * d
    lo_src = [None] * d
    hi_src = [None] * d
    for name, members in slabs:
        t = t2 if name == "all::t2" else t1
        for a in range(d):
            cs = sorted(q[a] for q in members)
            box_lo, box_hi = cs[-t], cs[t - 1]
            if lo[a] is None or box_lo > lo[a]:
                lo[a], lo_src[a] = box_lo, name
            if hi[a] is None or box_hi < hi[a]:
                hi[a], hi_src[a] = box_hi, name
    for a in range(d):
        if lo[a] is not None and hi[a] is not None and lo[a] > hi[a]:
            raise ConstructionFailureError(
                f"slab boxes {lo_src[a]} and {hi_src[a]} are disjoint on axis {a}"
            )
    p2_work = tuple(
        (lo[a] + hi[a]) / 2 if lo[a] is not None else cuts[a] for a in range(d)
    )

    def unflip(q):
        return tuple(-c if flips[a] else c for a, c in enumerate(q))

    p1, p2 = unflip(p1_work), unflip(p2_work)
    net = WeightedNet((p1, p2), eps)
    report = verify_weighted_net_boxes(P, net)
    trace = ConstructionTrace(
        method="box-pair",
        hyperplanes=tuple(
            Hyperplane.axis(d, a, -cuts[a] if flips[a] else cuts[a]) for a in range(d)
        ),
        counts=tuple((f"kill[{a}]", kill_counts[a]) for a in range(d))
        + (("t1", t1), ("t2", t2)),
        class_sizes=tuple((name, len(members)) for name, members in slabs),
        witnesses=(("p1", p1), ("p2", p2)),
        notes=tuple(notes),
    )
    if not report.passed:
        raise ConstructionFailureError(
            f"constructed pair fails verification: {report.violations[:1]}",
            trace=trace,
        )
    return net, trace


def slow_box_triple_2d(P, eps):
    """``constructions.construct_box_triple_2d`` on Fraction coordinates:
    the x-axis is negated when mirrored, the cuts and quadrant counts come
    from sorted Fractions, and numpy spreads over the whole slab scan.  The
    reference the rank-model construction must match net for net, trace
    for trace and message for message."""
    if P.dim != 2:
        raise DegenerateInputError("construct_box_triple_2d needs d = 2")
    if not check_box_triple_conditions(eps):
        e1, e2, e3 = eps.eps
        parts = []
        if e1 < F(3, 8):
            parts.append(f"(i) {e1} < 3/8")
        if e2 < F(1, 2):
            parts.append(f"(ii) {e2} < 1/2")
        if e1 + e3 < 1:
            parts.append(f"(iii) {e1} + {e3} < 1")
        raise ConditionError("box triple conditions fail: " + "; ".join(parts))
    P.require_distinct_coords()
    n = P.n
    t1 = eps.min_strict_count(1, n)
    t2 = eps.min_strict_count(2, n)
    t3 = eps.min_strict_count(3, n)

    def halving_ranks(m):
        # (first rank strictly above the cut, number of ranks strictly below)
        if m % 2 == 0:
            return m // 2, m // 2, False
        return m // 2 + 1, m // 2, True

    xs = [p[0] for p in P.points]
    ys = [p[1] for p in P.points]
    xa, xb, x_on = halving_ranks(n)
    ya, yb, y_on = halving_ranks(n)
    ys_sorted = sorted(ys)

    # quadrant counts against the cut ranks, for the mirror decision
    def strict_counts(flip):
        sx = [-x for x in xs] if flip else xs
        sxs = sorted(sx)
        cut_x = sxs[xb] if x_on else (sxs[xb - 1] + sxs[xb]) / 2
        cut_y = ys_sorted[yb] if y_on else (ys_sorted[yb - 1] + ys_sorted[yb]) / 2
        nw_ = sum(1 for x, y in zip(sx, ys) if x < cut_x and y > cut_y)
        ne_ = sum(1 for x, y in zip(sx, ys) if x > cut_x and y > cut_y)
        return nw_, ne_, cut_x, cut_y

    nw0, ne0, _, _ = strict_counts(False)
    mirror = nw0 < ne0
    work_x = [-x for x in xs] if mirror else xs
    nw_, ne_, cut_x, cut_y = strict_counts(mirror)

    xrank = {v: r for r, v in enumerate(sorted(work_x))}
    yrank = {v: r for r, v in enumerate(ys_sorted)}
    xr = np.array([xrank[v] for v in work_x], dtype=np.int32)
    yr = np.array([yrank[v] for v in ys], dtype=np.int32)
    grid = np.zeros((n + 1, n + 1), dtype=np.int32)
    grid[xr + 1, yr + 1] = 1
    M = grid.cumsum(axis=0).cumsum(axis=1)

    xcoords = sorted(work_x)
    ycoords = ys_sorted

    class _FamilyBounds:
        """Running intersection of member boxes, in rank coordinates.

        ``src`` keeps an actual member box behind each extreme bound so an
        empty intersection can name an offending pair.
        """

        __slots__ = ("lo_x", "hi_x", "lo_y", "hi_y", "src")

        def __init__(self):
            self.lo_x = self.hi_x = self.lo_y = self.hi_y = None
            self.src = {}

        def add(self, xi, xj, mem):
            rows = np.nonzero(mem.any(axis=1))[0]
            cols = np.nonzero(mem.any(axis=0))[0]
            yi_top = int(rows[-1])
            yj_bot = int(cols[0])
            first = (xi, xj, int(rows[0]), int(np.nonzero(mem[rows[0]])[0][0]))
            if self.lo_x is None or xi > self.lo_x:
                self.lo_x = xi
                self.src["lo_x"] = first
            if self.hi_x is None or xj < self.hi_x:
                self.hi_x = xj
                self.src["hi_x"] = first
            if self.lo_y is None or yi_top > self.lo_y:
                self.lo_y = yi_top
                self.src["lo_y"] = (
                    xi, xj, yi_top, int(np.nonzero(mem[yi_top])[0][0]),
                )
            if self.hi_y is None or yj_bot < self.hi_y:
                self.hi_y = yj_bot
                self.src["hi_y"] = (
                    xi, xj, int(np.nonzero(mem[:, yj_bot])[0][0]), yj_bot,
                )

    fam_a = _FamilyBounds()
    fam_b = _FamilyBounds()
    yi_idx = np.arange(n, dtype=np.int32)
    for xi in range(n):
        for xj in range(xi, n):
            col = M[xj + 1, :] - M[xi, :]
            if col[n] < t1:
                continue  # whole x-slab too thin
            col_low = np.minimum(col, col[yb])
            col_high = np.maximum(col - col[ya], 0)
            col_left = M[min(xj + 1, xb), :] - M[min(xi, xb), :]
            col_right = M[xj + 1, :] - M[max(xi, xa), :] if xj + 1 > xa else None
            if col_right is None:
                col_right = np.zeros_like(col)
            else:
                col_right = np.maximum(col_right, 0)
            cnt = col[1:][None, :] - col[:-1][:, None]
            rel = cnt >= t1
            if not rel.any():
                continue
            na = col_high[1:][None, :] - col_high[:-1][:, None]
            nb = col_low[1:][None, :] - col_low[:-1][:, None]
            nl = col_left[1:][None, :] - col_left[:-1][:, None]
            nr = col_right[1:][None, :] - col_right[:-1][:, None]
            is_a = (na >= nb) & (na >= nl) & (na >= nr)
            is_b = ~is_a & (nb >= nl) & (nb >= nr)
            is_l = ~is_a & ~is_b & (nl >= nr)
            if x_on:
                contains_x = xi <= xb <= xj
            else:
                contains_x = xi < xb <= xj
            if y_on:
                contains_y = (yi_idx[:, None] <= yb) & (np.arange(n)[None, :] >= yb)
            else:
                contains_y = (yi_idx[:, None] < yb) & (np.arange(n)[None, :] >= yb)
            avoid = ~(contains_x & contains_y)
            eligible = avoid | (cnt >= t2)
            mem_a = rel & (is_a | is_l) & eligible
            mem_b = rel & ~(is_a | is_l) & eligible
            big3 = cnt >= t3
            mem_a |= big3
            mem_b |= big3
            for fam, mem in ((fam_a, mem_a), (fam_b, mem_b)):
                if mem.any():
                    fam.add(xi, xj, mem)

    def resolve(fam, name):
        if fam.lo_x is None:
            return (cut_x, cut_y)
        if fam.lo_x > fam.hi_x or fam.lo_y > fam.hi_y:
            axis = "x" if fam.lo_x > fam.hi_x else "y"
            a_box = fam.src["lo_" + axis]
            b_box = fam.src["hi_" + axis]
            raise ConstructionFailureError(
                f"family {name}: boxes {a_box} and {b_box} (rank coordinates)"
                f" are disjoint on axis {axis}"
            )
        px = (xcoords[fam.lo_x] + xcoords[fam.hi_x]) / 2
        py = (ycoords[fam.lo_y] + ycoords[fam.hi_y]) / 2
        return (px, py)

    p1_work = (cut_x, cut_y)
    p2_work = resolve(fam_a, "A")
    p3_work = resolve(fam_b, "B")

    def unmirror(q):
        return (-q[0], q[1]) if mirror else q

    p1, p2, p3 = unmirror(p1_work), unmirror(p2_work), unmirror(p3_work)
    net = WeightedNet((p1, p2, p3), eps)
    report = verify_weighted_net_boxes(P, net)
    trace = ConstructionTrace(
        method="box-triple",
        hyperplanes=(
            Hyperplane.axis(2, 0, -cut_x if mirror else cut_x),
            Hyperplane.axis(2, 1, cut_y),
        ),
        counts=(
            ("n", n),
            ("t1", t1),
            ("t2", t2),
            ("t3", t3),
            ("quad_heavy", nw_),
            ("quad_light", ne_),
        ),
        class_sizes=(),
        witnesses=(("p1", p1), ("p2", p2), ("p3", p3)),
        notes=(("mirrored x",) if mirror else ()),
    )
    if not report.passed:
        raise ConstructionFailureError(
            f"constructed triple fails verification: {report.violations[:1]}",
            trace=trace,
        )
    return net, trace


def slow_box_triple_slabs(xrank, yrank, t1, t2, t3):
    """``constructions._box_triple_slabs`` on full n x n matrices: every
    x-slab holding t1 points gets its whole grid of box counts, with no
    crop to the rows and columns that can hold a member.  The reference the
    cropped scan must match yield for yield.

    A box is [xi, xj] x [yi, yj] in ranks.  Ranks below n // 2 lie strictly
    below a halving cut and ranks from (n + 1) // 2 strictly above it.
    Yields ``(xi, xj, [a, b])`` for each x-slab that holds a box over
    the level-1 threshold, xi ascending, then xj.  a and b are the slab's
    members of families A and B: None, or ``(first, top, bottom)``, each a
    member (yi, yj): the first in row-major order, the first in the highest
    member row and the first member of the lowest member column.
    """
    n = len(xrank)
    half, above = n // 2, (n + 1) // 2
    grid = np.zeros((n + 1, n + 1), dtype=np.int32)
    grid[np.array(xrank) + 1, np.array(yrank) + 1] = 1
    M = grid.cumsum(axis=0).cumsum(axis=1)
    ys = np.arange(n)
    clear_y = ~((ys[:, None] < above) & (ys[None, :] >= half))  # misses the y cut

    def box_counts(col):
        # col[j] counts the slab's points with y rank below j
        return col[1:] - col[:-1, None]

    for xi in range(n):
        for xj in range(xi, n):
            col = M[xj + 1] - M[xi]
            if col[n] < t1:
                continue  # whole x-slab too thin
            cnt = box_counts(col)
            rel = cnt >= t1  # never empty: it holds the box [0, n-1]
            na = box_counts(np.maximum(col - col[above], 0))
            nb = box_counts(np.minimum(col, col[half]))
            nl = box_counts(M[min(xj + 1, half)] - M[min(xi, half)])
            nr = box_counts(M[xj + 1] - M[min(max(xi, above), xj + 1)])
            # each box goes to the region holding most of its points, ties
            # resolved above, below, left, right; A takes above and left
            side_a = (na >= np.maximum(np.maximum(nb, nl), nr)) | (
                (nl > nb) & (nl >= nr)
            )
            if xi < above and xj >= half:
                # a box around p1 must meet the level-2 threshold
                rel &= clear_y | (cnt >= t2)
            big3 = cnt >= t3
            found = []
            for mem in (rel & side_a | big3, rel & ~side_a | big3):
                rows = mem.any(axis=1)
                r0 = int(rows.argmax())
                if not rows[r0]:
                    found.append(None)
                    continue
                top = n - 1 - int(rows[::-1].argmax())
                bottom = int(mem.any(axis=0).argmax())
                found.append((
                    (r0, int(mem[r0].argmax())),
                    (top, int(mem[top].argmax())),
                    (int(mem[:, bottom].argmax()), bottom),
                ))
            yield xi, xj, found


def _slow_project(p):
    return (p[0], p[1])


def _slow_extra_vertices(extra):
    if isinstance(extra, SubsetHull):
        pts = [_slow_project(p) for p in extra.points]
    elif isinstance(extra, BoxRange):
        if len(extra.intervals) != 2:
            raise UnsupportedDimensionError("only planar boxes can be drawn")
        (x0, x1), (y0, y1) = extra.intervals
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    else:
        pts = [_slow_project(p) for p in extra]
    distinct = sorted(set(pts))
    if len(distinct) >= 3:
        return list(hull2d(distinct))
    return distinct


def slow_render_svg(P, net=None, extras=()):
    """``svg.render_svg`` with every screen coordinate a Fraction: the
    reference its integer map must match byte for byte."""
    if P.dim not in (2, 3):
        raise UnsupportedDimensionError(f"cannot draw dimension {P.dim}")
    dots = [_slow_project(p) for p in P.points]
    crosses = []
    if net is not None:
        crosses.extend(_slow_project(p) for p in net.points)
    if P.dim == 3:
        # projection collisions mark the lifted pole pairs
        seen = {}
        for q in dots:
            seen[q] = seen.get(q, 0) + 1
        crosses.extend(q for q, count in sorted(seen.items()) if count > 1)
        dots = [q for q in dots if seen[q] == 1]
    regions = [_slow_extra_vertices(e) for e in extras]

    everything = dots + crosses + [v for region in regions for v in region]
    if not everything:
        raise ValueError("nothing to draw")
    xs = [q[0] for q in everything]
    ys = [q[1] for q in everything]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, F(1))
    margin = span / 20
    scale = F(SVG_SIZE) / (span + 2 * margin)
    # centre the shorter axis inside the square viewport, y pointing up
    off_x = (span - (hi_x - lo_x)) / 2
    off_y = (span - (hi_y - lo_y)) / 2

    def sx(x):
        return f"{float((x - lo_x + margin + off_x) * scale):.2f}"

    def sy(y):
        return f"{float(SVG_SIZE - (y - lo_y + margin + off_y) * scale):.2f}"

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff"/>',
    ]
    for i, region in enumerate(regions):
        color = SVG_PALETTE[i % len(SVG_PALETTE)]
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


# --- the point-set reader, before integer coordinates -------------------------


def slow_read_pointset(path):
    """``io_formats.read_pointset`` as it was before point sets stored
    integer coordinates: every coordinate becomes a Fraction."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=F)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    dim = doc.get("dim")
    rows = doc.get("points")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"{path}: 'dim' must be a positive integer")
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: 'points' must be a nonempty array")
    points = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{path}: row {i} does not have {dim} entries")
        try:
            points.append(tuple(json_to_fraction(c) for c in row))
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    return PointSet(dim, tuple(points))
