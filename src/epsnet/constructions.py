"""Constructions of weighted nets of sizes one, two and three.

Every constructor is deterministic: identical input (including point
order) yields an identical net and trace.  Positions are chosen by exact
rank computations, never by numeric search.

Box constructions place cuts so that per axis the "kill" side holds too
few points to admit a level-1 box and the other side too few for a level-2
box; the second net point is then the midpoint of the exact intersection
of per-slab order-statistic boxes.  The three-point construction
enumerates every canonical box on an integer rank grid (vectorised with
numpy) and intersects the two assigned families directly.  Constructions
whose count structure cannot meet the requirements raise
ConstructionFailureError rather than returning an unverified net; the box
constructors re-verify their output before returning it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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
    orient2d,
    polytopes_intersect,
)
from .ranges import EpsilonProfile, WeightedNet
from .verification import verify_weighted_net_boxes

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ConvexRangeClass:
    """Size class of a convex range and the side family it joins."""

    size: str  # "small" | "big"
    assignment: str  # "A" | "B" | "both"

    def __post_init__(self):
        if self.size not in ("small", "big"):
            raise ValueError(f"bad size class {self.size!r}")
        if self.assignment not in ("A", "B", "both"):
            raise ValueError(f"bad assignment {self.assignment!r}")
        if self.size == "big" and self.assignment != "both":
            raise ValueError("big ranges join both families")
        if self.size == "small" and self.assignment == "both":
            raise ValueError("small ranges join exactly one family")


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


# ---------------------------------------------------------------------------
# profile condition checks


def check_convex_pair_conditions(d: int, eps: EpsilonProfile) -> bool:
    """Both convex-pair inequalities: d*e1 + e2 >= d and e1 >= (2d-1)/(2d+1)."""
    if d < 2:
        raise ValueError("convex pair conditions are defined for d >= 2")
    if eps.k != 2:
        raise ValueError("need a two-level profile")
    e1, e2 = eps.eps
    return d * e1 + e2 >= d and e1 >= Fraction(2 * d - 1, 2 * d + 1)


def check_box_pair_conditions(d: int, eps: EpsilonProfile) -> bool:
    """Box-pair inequalities: e1 >= 3^(d-1)/(2*3^(d-1)+1) and e1 + e2 >= 1."""
    if d < 2:
        raise ValueError("box pair conditions are defined for d >= 2")
    if eps.k != 2:
        raise ValueError("need a two-level profile")
    e1, e2 = eps.eps
    p = 3 ** (d - 1)
    return e1 >= Fraction(p, 2 * p + 1) and e1 + e2 >= 1


def check_box_triple_conditions(eps: EpsilonProfile) -> bool:
    """Planar box-triple inequalities: e1 >= 3/8, e2 >= 1/2, e1 + e3 >= 1."""
    if eps.k != 3:
        raise ValueError("need a three-level profile")
    e1, e2, e3 = eps.eps
    return e1 >= Fraction(3, 8) and e2 >= HALF and e1 + e3 >= 1


def classify_small_range(above_count: int, below_count: int) -> ConvexRangeClass:
    """Side family of a small convex range from its halving-split counts."""
    side = "B" if below_count > above_count else "A"
    return ConvexRangeClass("small", side)


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
    P: PointSet, eps: EpsilonProfile, member_budget: int = 2_000_000
) -> tuple[WeightedNet, ConstructionTrace]:
    """Two points such that every convex range over the level-1 threshold
    contains one and every range over the level-2 threshold contains both.

    Every level-2 subset hull joins both side families; each level-1 subset
    hull joins side B when it has strictly more points below the halving
    hyperplane than above, side A otherwise.  The net points are common
    points of the families (nonempty under the profile conditions by a
    Helly argument over the counting bound).  ``member_budget`` caps the
    C(n, t1) + C(n, t2) subset hulls of the LP path; the planar halfplane
    path enumerates none and ignores it.
    """
    if not check_convex_pair_conditions(P.dim, eps):
        e1, e2 = eps.eps
        d = P.dim
        parts = []
        if d * e1 + e2 < d:
            parts.append(f"(i) {d}*{e1} + {e2} < {d}")
        if e1 < Fraction(2 * d - 1, 2 * d + 1):
            parts.append(f"(ii) {e1} < (2d-1)/(2d+1) = {Fraction(2*d-1, 2*d+1)}")
        raise ConditionError("convex pair conditions fail: " + "; ".join(parts))
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
        # only the LP path enumerates the subset hulls
        need = comb(n, t1) + comb(n, t2)
        if need > member_budget:
            raise BudgetExceededError(
                f"family of {need} subset hulls exceeds budget {member_budget}",
                required=need,
            )
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


def _convex_pair_2d(P, above, t1, t2):
    """Intersect each side family through its supporting halfplanes.

    A point lies in every member hull of a family exactly when it lies in
    every closed halfplane, bounded by a line through two input points,
    whose point content admits a member subset: a hull missing the point
    has an edge whose supporting halfplane already excludes it, and that
    halfplane holds the whole member.  This turns the binomial hull sweep
    into at most n(n-1) halfplane clips with an identical intersection.
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
    cuts_a = []
    cuts_b = []
    for u, w in itertools.combinations(order, 2):
        pu, pw = ipts[u], ipts[w]
        left = right = above_left = above_right = 0
        for k in range(n):
            s = orient2d(pu, pw, ipts[k])
            if s > 0:
                left += 1
                above_left += above[k]
            elif s < 0:
                right += 1
                above_right += above[k]
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
        poly = [tuple(Fraction(c) for c in v) for v in corners]
        for a_pt, b_pt, pair in cuts:
            poly = clip_polygon_halfplane(poly, a_pt, b_pt)
            if not poly:
                raise ConstructionFailureError(
                    f"family {name} has empty intersection (emptied at the"
                    f" halfplane through input points {pair[0]} and {pair[1]})"
                )
        v = min(poly)
        points.append((v[0] / scale, v[1] / scale))
    return points[0], points[1], sizes


def _convex_pair_lp(P, above, t1, t2):
    n = P.n
    c_min = (t1 + 1) // 2
    side_a = []
    side_b = []
    for idx in itertools.combinations(range(n), t1):
        if sum(1 for i in idx if above[i]) >= c_min:
            side_a.append(SubsetHull(P, idx))
        else:
            side_b.append(SubsetHull(P, idx))
    bigs = [SubsetHull(P, idx) for idx in itertools.combinations(range(n), t2)]
    members = len(side_a) + len(side_b) + 2 * len(bigs)
    if members > 400:
        raise BudgetExceededError(
            f"joint LP over {members} hulls is over the d>2 budget of 400",
            required=members,
        )
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
    n = P.n
    k = (n + 1) // 2  # 1-based rank ceil(n/2)
    coords = []
    for a in range(P.dim):
        coords.append(sorted(P.axis_coords(a))[k - 1])
    return WeightedNet((tuple(coords),), EpsilonProfile((HALF,)))


def _axis_cut(coords_sorted: list[Fraction], kill_max: int, surv_max: int):
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


def construct_box_pair_2d(
    P: PointSet, eps: EpsilonProfile
) -> tuple[WeightedNet, ConstructionTrace]:
    """Planar two-point box net via one horizontal and one vertical cut."""
    if P.dim != 2:
        raise DegenerateInputError("construct_box_pair_2d needs d = 2")
    return construct_box_pair_highd(P, eps)


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
    """
    d, n = P.dim, P.n
    if not check_box_pair_conditions(d, eps):
        e1, e2 = eps.eps
        p = 3 ** (d - 1)
        parts = []
        if e1 < Fraction(p, 2 * p + 1):
            parts.append(f"(i) {e1} < 3^(d-1)/(2*3^(d-1)+1) = {Fraction(p, 2*p+1)}")
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
    cuts: list[Optional[Fraction]] = [None] * d
    kill_counts = [0] * d
    notes = []

    first = d - 1
    cut = _axis_cut(sorted(q[first] for q in pts), kill_max, surv_max)
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
        cut = _axis_cut(sorted(q[a] for q in pts), kill_max, surv_max)
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
    slabs: list[tuple[str, list]] = [("all::t2", pts)]
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
    """
    if P.dim != 2:
        raise DegenerateInputError("construct_box_triple_2d needs d = 2")
    if not check_box_triple_conditions(eps):
        e1, e2, e3 = eps.eps
        parts = []
        if e1 < Fraction(3, 8):
            parts.append(f"(i) {e1} < 3/8")
        if e2 < HALF:
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
