"""Constructions of weighted nets of sizes one, two and three.

Every constructor is deterministic: identical input (including point
order) yields an identical net and trace.  Positions are chosen by exact
rank computations, never by numeric search.

Box constructions place cuts so that per axis the "kill" side holds too
few points to admit a level-1 box and the other side too few for a level-2
box; the second net point is then the midpoint of the exact intersection
of per-slab order-statistic boxes.  Both box constructions run in rank
space: every point is its per-axis ranks (``ranges._axis_orders``), a
mirrored axis reverses them, each cut is a rank boundary and each order
statistic or family bound a rank, and only the net points and the cut
hyperplanes are read back as Fractions from the sorted integer
coordinates.  The three-point construction enumerates every canonical box
on the rank grid one x-slab at a time (``_box_triple_slabs``, the module's
only numpy code) and intersects the two assigned families directly.  Each
slab's int32 count matrices are cropped to its t1 window: a box starting
above the slab's t1-th highest y rank, or ending below its t1-th lowest,
holds fewer than t1 points, and every family member holds at least t1
(level-3 members at least t3 >= t1), so the crop drops no member and
changes no yield.  Constructions whose count structure cannot meet the
requirements raise ConstructionFailureError rather than returning an
unverified net; the box constructors re-verify their output before
returning it.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import comb
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceededError,
    ConditionError,
    ConstructionFailureError,
    DegenerateInputError,
)
from .geometry import (
    Hyperplane,
    Point,
    PointSet,
    SubsetHull,
    clip_polygon_halfplane,
    halving_hyperplane,
    integer_coords,
    polytopes_intersect,
)
from .ranges import EpsilonProfile, WeightedNet, _axis_orders
from .verification import VerificationReport, verify_weighted_net_boxes

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ConstructionTrace:
    """What a constructor did, in replayable detail.

    Re-running the construction on the same input reproduces the same
    trace; tests pin this.
    """

    method: str
    hyperplanes: tuple[Hyperplane, ...] = ()
    counts: tuple[tuple[str, int], ...] = ()
    class_sizes: tuple[tuple[str, int], ...] = ()
    witnesses: tuple[tuple[str, Point], ...] = ()
    notes: tuple[str, ...] = ()
    # the box constructors' self-check of the net; its wall-clock time
    # differs between runs, so it takes no part in comparing traces
    verification: Optional[VerificationReport] = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# profile condition checks


def _convex_pair_failures(d: int, eps: EpsilonProfile) -> list[str]:
    """The convex-pair inequalities eps fails, one message part each."""
    if d < 2:
        raise ValueError("convex pair conditions are defined for d >= 2")
    if eps.k != 2:
        raise ValueError("need a two-level profile")
    e1, e2 = eps.eps
    bound = Fraction(2 * d - 1, 2 * d + 1)
    failed = []
    if d * e1 + e2 < d:
        failed.append(f"(i) {d}*{e1} + {e2} < {d}")
    if e1 < bound:
        failed.append(f"(ii) {e1} < (2d-1)/(2d+1) = {bound}")
    return failed


def check_convex_pair_conditions(d: int, eps: EpsilonProfile) -> bool:
    """Both convex-pair inequalities: d*e1 + e2 >= d and e1 >= (2d-1)/(2d+1)."""
    return not _convex_pair_failures(d, eps)


def _box_pair_failures(d: int, eps: EpsilonProfile) -> list[str]:
    """The box-pair inequalities eps fails, one message part each."""
    if d < 2:
        raise ValueError("box pair conditions are defined for d >= 2")
    if eps.k != 2:
        raise ValueError("need a two-level profile")
    e1, e2 = eps.eps
    p = 3 ** (d - 1)
    bound = Fraction(p, 2 * p + 1)
    failed = []
    if e1 < bound:
        failed.append(f"(i) {e1} < 3^(d-1)/(2*3^(d-1)+1) = {bound}")
    if e1 + e2 < 1:
        failed.append(f"(ii) {e1} + {e2} < 1")
    return failed


def check_box_pair_conditions(d: int, eps: EpsilonProfile) -> bool:
    """Box-pair inequalities: e1 >= 3^(d-1)/(2*3^(d-1)+1) and e1 + e2 >= 1."""
    return not _box_pair_failures(d, eps)


def _box_triple_failures(eps: EpsilonProfile) -> list[str]:
    """The box-triple inequalities eps fails, one message part each."""
    if eps.k != 3:
        raise ValueError("need a three-level profile")
    e1, e2, e3 = eps.eps
    failed = []
    if e1 < Fraction(3, 8):
        failed.append(f"(i) {e1} < 3/8")
    if e2 < HALF:
        failed.append(f"(ii) {e2} < 1/2")
    if e1 + e3 < 1:
        failed.append(f"(iii) {e1} + {e3} < 1")
    return failed


def check_box_triple_conditions(eps: EpsilonProfile) -> bool:
    """Planar box-triple inequalities: e1 >= 3/8, e2 >= 1/2, e1 + e3 >= 1."""
    return not _box_triple_failures(eps)


# ---------------------------------------------------------------------------
# convex pairs


def _count_small_side(n, n_above, t1, c_min, side_a):
    """Number of level-1 subsets whose above-count lands in the given side."""
    total = 0
    for a in range(max(0, t1 - (n - n_above)), min(n_above, t1) + 1):
        if (a >= c_min) == side_a:
            total += comb(n_above, a) * comb(n - n_above, t1 - a)
    return total


def construct_convex_pair(
    P: PointSet, eps: EpsilonProfile
) -> tuple[WeightedNet, ConstructionTrace]:
    """Two points such that every convex range over the level-1 threshold
    contains one and every range over the level-2 threshold contains both.

    Every level-2 subset hull joins both side families; each level-1 subset
    hull joins side B when it has strictly more points below the halving
    hyperplane than above, side A otherwise.  The net points are common
    points of the families (nonempty under the profile conditions by a
    Helly argument over the counting bound).  The planar halfplane path
    enumerates no subset hulls; the joint LP path refuses more than 400
    member hulls before enumerating any.
    """
    failed = _convex_pair_failures(P.dim, eps)
    if failed:
        raise ConditionError("convex pair conditions fail: " + "; ".join(failed))
    P.check_general_position()
    n, d = P.n, P.dim
    t1 = eps.min_strict_count(1, n)
    t2 = eps.min_strict_count(2, n)
    axis = d - 1
    H = halving_hyperplane(P, axis)
    above = [H.side(p) > 0 for p in P.points]
    if d == 2 and t1 >= 3:
        # the halfplane reduction needs full-dimensional member hulls
        p1, p2, sizes = _convex_pair_2d(P, above, t1, t2)
    else:
        p1, p2, sizes = _convex_pair_lp(P, above, t1, t2)
    net = WeightedNet((p1, p2), eps)
    trace = ConstructionTrace(
        method="convex-pair",
        hyperplanes=(H,),
        counts=(("n", n), ("t1", t1), ("t2", t2), ("above", sum(above))),
        class_sizes=tuple(sizes),
        witnesses=(("p1", p1), ("p2", p2)),
    )
    return net, trace


def _left_counts(ipts, above, order, a):
    """Rotating-line side counts around u = order[a] for points in general
    position.

    Returns ``(left, up)``, indexed by point: for each w != u, the number
    of points strictly left of the line u->w and how many of them are
    ``above``.  The other points are sorted once by angle around u; the
    points strictly left of u->w are those after w in that cyclic order up
    to the turn of pi, and the end of that run only moves forward as w
    turns, so two pointers over the doubled order find every run.
    """
    ux, uy = ipts[order[a]]
    dx = [p[0] - ux for p in ipts]
    dy = [p[1] - uy for p in ipts]
    n = len(ipts)
    m = n - 1
    # x-coordinates are distinct: the points after u in ``order`` lie right
    # of it, the others left, and within each half the angle grows with the
    # slope.  Counterclockwise from straight down: right half, then left.
    # v sorts before w when w is counterclockwise of v, seen from u.
    by_angle = cmp_to_key(lambda v, w: dy[v] * dx[w] - dx[v] * dy[w])
    ring = sorted(order[a + 1:], key=by_angle) + sorted(order[:a], key=by_angle)
    ring += ring
    ups = [0]
    for v in ring:
        ups.append(ups[-1] + above[v])
    left = [0] * n
    up = [0] * n
    e = 0
    for i in range(m):
        w = ring[i]
        wx = dx[w]
        wy = dy[w]
        if e <= i:
            e = i + 1
        # advance past the points strictly left of u->w
        while e < i + m and wx * dy[ring[e]] - wy * dx[ring[e]] > 0:
            e += 1
        left[w] = e - i - 1
        up[w] = ups[e] - ups[i + 1]
    return left, up


def _convex_pair_2d(P, above, t1, t2):
    """Intersect each side family through its supporting halfplanes.

    A point lies in every member hull of a family exactly when it lies in
    every closed halfplane, bounded by a line through two input points,
    whose point content admits a member subset: a hull missing the point
    has an edge whose supporting halfplane already excludes it, and that
    halfplane holds the whole member.  This turns the binomial hull sweep
    into at most n(n-1) halfplane clips with an identical intersection.

    The halfplane contents come from one angular sort around each point
    (``_left_counts``), O(n^2 log n) in all, and both families are clipped
    as the lines are met, in lexicographic order of the point pairs, on
    homogeneous integer vertices: memory stays O(n).
    """
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
    xs = [p[0] for p in ipts]
    ys = [p[1] for p in ipts]
    corners = [
        (min(xs) - 1, min(ys) - 1, 1),
        (max(xs) + 1, min(ys) - 1, 1),
        (max(xs) + 1, max(ys) + 1, 1),
        (min(xs) - 1, max(ys) + 1, 1),
    ]
    polys = {"A": corners, "B": corners}
    emptied = {}
    for a, u in enumerate(order):
        left_of, up_left = _left_counts(ipts, above, order, a)
        pu = ipts[u]
        for w in order[a + 1:]:
            pw = ipts[w]
            # general position: only u and w lie on the line
            left = left_of[w]
            above_left = up_left[w]
            right = n - 2 - left
            above_right = n_above - above[u] - above[w] - above_left
            # closed halfplanes: points on the boundary line count for both
            for a_pt, b_pt, cnt, up in (
                (pu, pw, n - right, n_above - above_right),
                (pw, pu, n - left, n_above - above_left),
            ):
                if cnt < t1:
                    continue
                big = cnt >= t2
                for name, member in (
                    ("A", big or up >= c_min),
                    ("B", big or cnt - up >= b_min),
                ):
                    if member and name not in emptied:
                        polys[name] = clip_polygon_halfplane(polys[name], a_pt, b_pt)
                        if not polys[name]:
                            emptied[name] = (u, w)
        if "A" in emptied:
            break
    for name in ("A", "B"):
        if name in emptied:
            u, w = emptied[name]
            raise ConstructionFailureError(
                f"family {name} has empty intersection (emptied at the"
                f" halfplane through input points {u} and {w})"
            )
    points = []
    for name in ("A", "B"):
        v = min((Fraction(x, w), Fraction(y, w)) for x, y, w in polys[name])
        points.append((v[0] / scale, v[1] / scale))
    return points[0], points[1], sizes


def _convex_pair_lp(P, above, t1, t2):
    n = P.n
    # each level-1 hull joins one family, each level-2 hull both
    members = comb(n, t1) + 2 * comb(n, t2)
    if members > 400:
        raise BudgetExceededError(
            f"joint LP over {members} hulls is over the d>2 budget of 400",
            required=members,
        )
    c_min = (t1 + 1) // 2
    side_a = []
    side_b = []
    for idx in itertools.combinations(range(n), t1):
        if sum(1 for i in idx if above[i]) >= c_min:
            side_a.append(SubsetHull(P, idx))
        else:
            side_b.append(SubsetHull(P, idx))
    bigs = [SubsetHull(P, idx) for idx in itertools.combinations(range(n), t2)]
    sizes = [
        ("small_A", len(side_a)),
        ("small_B", len(side_b)),
        ("big", len(bigs)),
    ]
    points = []
    for name, family in (("A", side_a + bigs), ("B", side_b + bigs)):
        w = polytopes_intersect(family)
        if w is None:
            raise ConstructionFailureError(f"family {name} has empty intersection")
        points.append(w)
    return points[0], points[1], sizes


# ---------------------------------------------------------------------------
# box nets


def box_median_point(P: PointSet) -> WeightedNet:
    """The coordinate-wise median input point guards every majority box.

    Per axis this takes the ceil(n/2)-th order statistic (an input
    coordinate, not a midpoint between ranks): a box holding strictly more
    than n/2 points must reach that coordinate on every axis.
    """
    P.require_distinct_coords()
    k = (P.n + 1) // 2  # 1-based rank ceil(n/2)
    point = tuple(
        Fraction(coords[k - 1], P.scale) for coords, _, _ in _axis_orders(P)
    )
    return WeightedNet((point,), EpsilonProfile((HALF,)))


def construct_box_pair_highd(
    P: PointSet, eps: EpsilonProfile
) -> tuple[WeightedNet, ConstructionTrace]:
    """Box net of size two in any dimension d >= 2.

    One cut per axis: the last axis first, then per remaining axis a cut
    whose kill side keeps at most floor(e1*n) points while its survivor
    side keeps at most floor(e2*n); the kill side is chosen (by possibly
    mirroring the axis) so that it retains a third of the running corner
    set, which is what makes the survivor slabs pairwise compatible.  p1
    is the crossing of the cuts, p2 the midpoint of the intersection of
    the per-slab and global order-statistic boxes.  The result is
    re-verified before being returned.

    The construction runs on the per-axis ranks of ``_axis_orders``
    (coordinates are distinct, so a rank is a coordinate's place in its
    axis order).  A mirrored axis reads rank r as n - 1 - r, a cut is a
    rank boundary, and each order-statistic bound is a rank; only the net
    points and the cut hyperplanes are read back from the sorted integer
    coordinates, as ``Fraction(c, P.scale)``.
    """
    d, n = P.dim, P.n
    failed = _box_pair_failures(d, eps)
    if failed:
        raise ConditionError("box pair conditions fail: " + "; ".join(failed))
    P.require_distinct_coords()
    orders = _axis_orders(P)
    e1, e2 = eps.eps
    t1 = eps.min_strict_count(1, n)
    t2 = eps.min_strict_count(2, n)
    # Every axis takes the same cut: the most points strictly below it the
    # kill cap floor(e1*n) allows.  The survivor side keeps the rest, or,
    # when that is over the cap floor(e2*n), the cut passes through the
    # next point, which counts on neither side.  e1 + e2 >= 1 makes
    # floor(e1*n) + floor(e2*n) >= n - 1, so one of the two always fits,
    # and both caps are below n, so the cut lies strictly inside the
    # coordinate range.
    kill = int(e1 * n)
    on_pt = n - kill > int(e2 * n)
    # rank of each point along each axis, reversed on a mirrored axis
    work = [rank for _, _, rank in orders]
    flips = [False] * d
    notes = []

    first = d - 1
    if on_pt:
        notes.append(f"axis {first}: cut through a point")
    corner = orders[first][1][:kill]

    for a in range(d - 1):
        cranks = sorted(work[a][i] for i in corner)
        third = (len(cranks) + 2) // 3
        if third:
            # points at or below the third-lowest corner rank, at or above
            # the third-highest, beyond the corner's own third
            low_side = cranks[third - 1] + 1 - third
            high_side = n - cranks[-third] - third
        else:
            low_side = high_side = 0
        if low_side > high_side:
            flips[a] = True
            work[a] = [n - 1 - r for r in work[a]]
            notes.append(f"axis {a}: mirrored")
        if on_pt:
            notes.append(f"axis {a}: cut through a point")
        corner = [i for i in corner if work[a][i] < kill]

    def coord(a: int, r: int) -> int:
        """The integer input coordinate on axis a at work rank r."""
        return orders[a][0][n - 1 - r if flips[a] else r]

    scale = P.scale
    if on_pt:
        p1 = tuple(Fraction(coord(a, kill), scale) for a in range(d))
    else:
        p1 = tuple(
            Fraction(coord(a, kill - 1) + coord(a, kill), 2 * scale) for a in range(d)
        )
    # order-statistic boxes: survivor slab per axis (the ranks above the
    # cut), plus the global level-2 box; the kill side's floor(e1*n) points
    # are too few for a level-1 box
    slabs = [("all::t2", range(n))]
    for a in range(d):
        ranked = orders[a][1]
        upper = ranked[:n - kill - on_pt] if flips[a] else ranked[kill + on_pt:]
        if len(upper) >= t1:
            slabs.append((f"axis{a}-survivor", upper))
    lo = [-1] * d
    hi = [n] * d
    lo_src = [""] * d
    hi_src = [""] * d
    for name, members in slabs:
        t = t2 if name == "all::t2" else t1
        for a in range(d):
            ranks = sorted(work[a][i] for i in members)
            if ranks[-t] > lo[a]:
                lo[a], lo_src[a] = ranks[-t], name
            if ranks[t - 1] < hi[a]:
                hi[a], hi_src[a] = ranks[t - 1], name
    for a in range(d):
        if lo[a] > hi[a]:
            raise ConstructionFailureError(
                f"slab boxes {lo_src[a]} and {hi_src[a]} are disjoint on axis {a}"
            )
    p2 = tuple(Fraction(coord(a, lo[a]) + coord(a, hi[a]), 2 * scale) for a in range(d))

    net = WeightedNet((p1, p2), eps)
    report = verify_weighted_net_boxes(P, net)
    trace = ConstructionTrace(
        method="box-pair",
        hyperplanes=tuple(Hyperplane.axis(d, a, p1[a]) for a in range(d)),
        counts=tuple((f"kill[{a}]", kill) for a in range(d))
        + (("t1", t1), ("t2", t2)),
        class_sizes=tuple((name, len(members)) for name, members in slabs),
        witnesses=(("p1", p1), ("p2", p2)),
        notes=tuple(notes),
        verification=report,
    )
    if not report.passed:
        raise ConstructionFailureError(
            f"constructed pair fails verification: {report.violations[:1]}",
            trace=trace,
        )
    return net, trace


def _box_triple_slabs(xrank, yrank, t1, t2, t3):
    """The triple's family members, one x-slab of the rank grid at a time.

    A box is [xi, xj] x [yi, yj] in ranks.  Ranks below n // 2 lie strictly
    below a halving cut and ranks from (n + 1) // 2 strictly above it.
    Yields ``(xi, xj, [a, b])`` for each x-slab that holds a box over
    the level-1 threshold, xi ascending, then xj.  a and b are the slab's
    members of families A and B: None, or ``(first, top, bottom)``, each a
    member (yi, yj): the first in row-major order, the first in the highest
    member row and the first member of the lowest member column.

    The ranks are a permutation, so the slab [xi, xj] holds xj - xi + 1
    points, and exactly the slabs with xj >= xi + t1 - 1 are scanned.  Each
    slab's matrices are cropped to its t1 window: with the slab's y ranks
    sorted, r is the t1-th largest and c the t1-th smallest.  A box with
    yi > r or yj < c holds fewer than t1 points, and every member holds at
    least t1 (a relevant box by its count, a level-3 box because
    t3 >= t1), so every member lies in rows 0..r and columns c..n-1.  The
    first, top and bottom members are first or last positions of the
    member mask, and cropping removes no member, so they are unchanged;
    a column index read off a window matrix is offset by c.

    This is the construction's only numpy code: one (n+1) x (n+1) int32
    prefix count grid, and per slab int32 matrices of box counts per
    region on the rows and columns of its window.
    """
    n = len(xrank)
    half, above = n // 2, (n + 1) // 2
    grid = np.zeros((n + 1, n + 1), dtype=np.int32)
    grid[np.array(xrank) + 1, np.array(yrank) + 1] = 1
    M = grid.cumsum(axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32)
    ys = np.arange(n)
    clear_y = ~((ys[:, None] < above) & (ys[None, :] >= half))  # misses the y cut
    y_at = [0] * n  # the y rank of the point with x rank i
    for x, y in zip(xrank, yrank):
        y_at[x] = y

    def box_counts(col):
        # col[j] counts the slab's points with y rank below j; the box
        # [yi, yj] of the window sits at [yi, yj - c]
        return col[c + 1:] - col[:r + 1, None]

    for xi in range(n - t1 + 1):
        slab_ys = sorted(y_at[xi:xi + t1 - 1])
        for xj in range(xi + t1 - 1, n):
            insort(slab_ys, y_at[xj])
            r, c = slab_ys[-t1], slab_ys[t1 - 1]
            col = M[xj + 1] - M[xi]
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
                rel &= clear_y[:r + 1, c:] | (cnt >= t2)
            big3 = cnt >= t3
            found = []
            for mem in (rel & side_a | big3, rel & ~side_a | big3):
                rows = mem.any(axis=1)
                r0 = int(rows.argmax())
                if not rows[r0]:
                    found.append(None)
                    continue
                top = r - int(rows[::-1].argmax())
                bottom = int(mem.any(axis=0).argmax())
                found.append((
                    (r0, c + int(mem[r0].argmax())),
                    (top, c + int(mem[top].argmax())),
                    (int(mem[:, bottom].argmax()), c + bottom),
                ))
            yield xi, xj, found


def construct_box_triple_2d(
    P: PointSet, eps: EpsilonProfile
) -> tuple[WeightedNet, ConstructionTrace]:
    """Planar three-point box net from two halving cuts and two box families.

    p1 is the crossing of the halving cuts.  The plane is mirrored, if
    needed, so the heavy pair of opposite quadrants is upper-left and
    lower-right; this keeps every level-1 box out of the two light
    quadrants and makes the families below intersect.  Every canonical box
    over the level-1 threshold is assigned to the region (above, below,
    left, right) holding most of its points, ties resolved in that order.
    Family A collects above/left-assigned boxes that avoid p1 or meet the
    level-2 threshold; family B the below/right ones; level-3 boxes join
    both.  p2 and p3 are the midpoints of the families' intersections,
    and the net is re-verified before being returned.

    The construction runs on the per-axis ranks of ``_axis_orders``: a
    mirrored x-axis reads rank r as n - 1 - r, every canonical box is a
    rectangle of ranks (``_box_triple_slabs``), and each family's
    intersection is four rank bounds.  Only the net points and the cut
    hyperplanes are read back from the sorted integer coordinates, as
    ``Fraction(c, P.scale)``.
    """
    if P.dim != 2:
        raise DegenerateInputError("construct_box_triple_2d needs d = 2")
    failed = _box_triple_failures(eps)
    if failed:
        raise ConditionError("box triple conditions fail: " + "; ".join(failed))
    P.require_distinct_coords()
    n = P.n
    t1 = eps.min_strict_count(1, n)
    t2 = eps.min_strict_count(2, n)
    t3 = eps.min_strict_count(3, n)
    (xc, _, xrank), (yc, _, yrank) = _axis_orders(P)
    half, above = n // 2, (n + 1) // 2
    scale = P.scale

    def cut(coords: tuple[int, ...]) -> Fraction:
        if n % 2:
            return Fraction(coords[half], scale)
        return Fraction(coords[half - 1] + coords[half], 2 * scale)

    p1 = (cut(xc), cut(yc))
    # quadrants above the y cut, left and right of the x cut
    ups = [x for x, y in zip(xrank, yrank) if y >= above]
    heavy = sum(1 for x in ups if x < half)
    light = sum(1 for x in ups if x >= above)
    mirror = heavy < light
    if mirror:
        xrank = [n - 1 - r for r in xrank]
        heavy, light = light, heavy

    # per family: lo_x, hi_x, lo_y, hi_y as (rank, the member box
    # (xi, xj, yi, yj) that last strictly moved it)
    families = [[(-1, None), (n, None), (-1, None), (n, None)] for _ in "AB"]
    for xi, xj, members in _box_triple_slabs(xrank, yrank, t1, t2, t3):
        for bounds, found in zip(families, members):
            if found is None:
                continue
            first, top, bottom = ((xi, xj) + box for box in found)
            if xi > bounds[0][0]:
                bounds[0] = (xi, first)
            if xj < bounds[1][0]:
                bounds[1] = (xj, first)
            if top[2] > bounds[2][0]:
                bounds[2] = (top[2], top)
            if bottom[3] < bounds[3][0]:
                bounds[3] = (bottom[3], bottom)

    def x_at(r: int) -> int:
        return xc[n - 1 - r if mirror else r]

    points = [p1]
    for name, (lo_x, hi_x, lo_y, hi_y) in zip("AB", families):
        if lo_x[1] is None:
            points.append(p1)  # no member box
            continue
        for axis, lo, hi in (("x", lo_x, hi_x), ("y", lo_y, hi_y)):
            if lo[0] > hi[0]:
                raise ConstructionFailureError(
                    f"family {name}: boxes {lo[1]} and {hi[1]} (rank coordinates)"
                    f" are disjoint on axis {axis}"
                )
        points.append((
            Fraction(x_at(lo_x[0]) + x_at(hi_x[0]), 2 * scale),
            Fraction(yc[lo_y[0]] + yc[hi_y[0]], 2 * scale),
        ))
    p1, p2, p3 = points
    net = WeightedNet((p1, p2, p3), eps)
    report = verify_weighted_net_boxes(P, net)
    trace = ConstructionTrace(
        method="box-triple",
        hyperplanes=(Hyperplane.axis(2, 0, p1[0]), Hyperplane.axis(2, 1, p1[1])),
        counts=(
            ("n", n),
            ("t1", t1),
            ("t2", t2),
            ("t3", t3),
            ("quad_heavy", heavy),
            ("quad_light", light),
        ),
        class_sizes=(),
        witnesses=(("p1", p1), ("p2", p2), ("p3", p3)),
        notes=(("mirrored x",) if mirror else ()),
        verification=report,
    )
    if not report.passed:
        raise ConstructionFailureError(
            f"constructed triple fails verification: {report.violations[:1]}",
            trace=trace,
        )
    return net, trace
