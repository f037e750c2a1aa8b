"""Shared brute-force oracles and random-instance generators for the tests.

The oracles are deliberately independent of the library's LP machinery:
membership uses Caratheodory subsets solved by Gaussian elimination,
separation enumerates candidate hyperplanes, counting is a naive scan.
At the end sit the plain versions of optimised kernels (the planar
general-position check, the planar convex-pair construction with its
Fraction polygon clipping, the 3D avoidance oracle, the Fraction simplex
tableau, the Fraction box region scan and the search over points), which
differential tests hold the library's kernels to, output for output.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
from math import comb
import random

from epsnet.constructions import _count_small_side
from epsnet.errors import ConstructionFailureError, DegenerateInputError
from epsnet.geometry import (
    PointSet,
    _det,
    as_point,
    common_integer_coords,
    integer_coords,
    orient2d,
    point_in_convex_polygon,
)
from epsnet.linprog import ONE, ZERO
from epsnet.ranges import RangeSpaceKind, _candidate_masks


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
    """Per-level verdicts over every subset bounding box (2^n of them)."""
    from itertools import combinations as _comb

    n = P.n
    k = net.k
    thresholds = [net.profile.min_strict_count(i, n) for i in range(1, k + 1)]
    verdicts = [True] * k
    pts = P.points
    for r in range(1, n + 1):
        for sub in _comb(pts, r):
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
    from epsnet.geometry import hull2d, integer_coords, point_in_convex_polygon

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
    from epsnet.geometry import hull2d, integer_coords, point_in_convex_polygon

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
    """``ranges.box_regions_avoiding`` on Fraction coordinates, bisecting
    each region's bounds: the reference the rank-space scan must match list
    for list, in order."""
    orders = _slow_axis_orders(P)
    d, n, pts = P.dim, P.n, P.points
    sides = [(a, below) for a in range(d) for below in (True, False)]
    for assign in product(sides, repeat=len(avoid)):
        lo = [None] * d
        hi = [None] * d
        for q, (a, below) in zip(avoid, assign):
            v = q[a]
            if below:
                if hi[a] is None or v < hi[a]:
                    hi[a] = v
            elif lo[a] is None or v > lo[a]:
                lo[a] = v
        windows = []
        for a, (coords, _) in enumerate(orders):
            i = 0 if lo[a] is None else bisect_right(coords, lo[a])
            j = n if hi[a] is None else bisect_left(coords, hi[a])
            windows.append((j - i, a, i, j))
        _, axis, i, j = min(windows)
        others = [a for a in range(d) if a != axis]
        inside = []
        for idx in orders[axis][1][i:j]:  # an empty region has j <= i
            p = pts[idx]
            for a in others:
                if (lo[a] is not None and p[a] <= lo[a]) or (
                    hi[a] is not None and p[a] >= hi[a]
                ):
                    break
            else:
                inside.append(idx)
        yield inside


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
