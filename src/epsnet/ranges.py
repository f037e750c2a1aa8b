"""Range spaces and their exact finite reductions.

Two range families matter here: axis-parallel closed boxes and compact
convex sets.  Both are infinite, but every verification question reduces to
a finite family:

* a box shrinks onto the bounding box of the points it contains, so boxes
  whose facets pass through point coordinates ("canonical boxes") witness
  every possible violation, and a box misses given points iff it fits in
  an open region dodging each of them on some axis
  (``box_regions_avoiding``, the box form of the avoidance oracle below);
* a convex set containing more than t-1 points contains a t-subset, and its
  hull is a smaller convex set with the same avoidance behaviour, so
  t-subset hulls are the minimal convex ranges.

The module also houses the adversary's oracle ``max_subset_avoiding``: the
largest subset whose hull misses all given points, computed exactly in
d <= 3 by enumerating canonical separating halfspaces with symbolic
tie-breaking (a rotating separator keeps boundary points exactly when they
sit on the half of the boundary it sweeps last).

Both primitives reduce each avoided point once to an exact integer
signature and then work on integers alone.  For convex sets it is the
point's tuple of separable-subset bitmasks (``_candidate_masks``), and
``max_mask_intersection`` intersects one mask per point.  For boxes it is
the point's place among the sorted coordinates on each axis
(``box_signature``): in this rank space (Dobkin, Gunopulos & Maass, JCSS
1996) every input point is its per-axis positions, every region a window of
positions, and the region scan compares no coordinates.  Search reduces
each candidate net point once and runs its pair loop on the signatures.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DegenerateInputError, UnsupportedDimensionError
from .geometry import (
    Point,
    PointSet,
    SubsetHull,
    as_point,
    common_integer_coords,
    frac,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class BoxRange:
    """A compact axis-parallel box: the product of closed intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ivs = tuple((frac(lo), frac(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for lo, hi in ivs:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, q: Point) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(q, self.intervals))

    def count_net_points(self, pts: Iterable[Point]) -> int:
        return sum(1 for p in pts if self.contains(p))


@dataclass(frozen=True)
class EpsilonProfile:
    """Nondecreasing thresholds 0 < eps_1 <= ... <= eps_k < 1."""

    eps: tuple[Fraction, ...]

    def __post_init__(self):
        eps = tuple(frac(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        if not eps:
            raise ValueError("profile must have at least one level")
        if not all(0 < e < 1 for e in eps):
            raise ValueError("thresholds must lie strictly between 0 and 1")
        if any(a > b for a, b in zip(eps, eps[1:])):
            raise ValueError("thresholds must be nondecreasing")

    @property
    def k(self) -> int:
        return len(self.eps)

    def __iter__(self):
        return iter(self.eps)

    def __getitem__(self, i: int) -> Fraction:
        return self.eps[i]

    def min_strict_count(self, level: int, n: int) -> int:
        """Smallest integer count that exceeds eps_level * n (level is 1-based)."""
        return int(self.eps[level - 1] * n) + 1


@dataclass(frozen=True)
class WeightedNet:
    """k net points guarding levels eps_1 <= ... <= eps_k.

    The contract (checked by the verifiers, not here): any range holding
    more than eps_i * n input points contains at least i of these.
    """

    points: tuple[Point, ...]
    profile: EpsilonProfile

    def __post_init__(self):
        pts = tuple(as_point(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) != self.profile.k:
            raise ValueError("net size must match profile length")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("net points must share one dimension")

    @property
    def k(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


class RangeSpaceKind(Enum):
    CONVEX_SETS = "convex"
    AXIS_PARALLEL_BOXES = "boxes"

    @classmethod
    def parse(cls, text: str) -> "RangeSpaceKind":
        for kind in cls:
            if kind.value == text:
                return kind
        raise ValueError(f"unknown range space {text!r} (use 'convex' or 'boxes')")


# ---------------------------------------------------------------------------
# counting


@lru_cache(maxsize=64)
def _axis_orders(
    P: PointSet,
) -> tuple[tuple[tuple[Fraction, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """Per axis: (sorted coordinates, point indices in that order, each
    point's rank: its position in that order)."""
    out = []
    for a in range(P.dim):
        order = sorted(range(P.n), key=lambda i: P.points[i][a])
        coords = tuple(P.points[i][a] for i in order)
        rank = [0] * P.n
        for pos, i in enumerate(order):
            rank[i] = pos
        out.append((coords, tuple(order), tuple(rank)))
    return tuple(out)


def count_in_box(P: PointSet, box: BoxRange) -> int:
    """Exact |P inside box| (closed containment).

    Per-axis bisection finds the narrowest coordinate slab; only its points
    are scanned against the remaining axes.
    """
    if box.dim != P.dim:
        raise DegenerateInputError("box dimension does not match point set")
    orders = _axis_orders(P)
    best_axis, best_span = -1, None
    spans = []
    for a, (coords, _, _) in enumerate(orders):
        lo, hi = box.intervals[a]
        i = bisect_left(coords, lo)
        j = bisect_right(coords, hi)
        spans.append((i, j))
        if best_span is None or j - i < best_span:
            best_axis, best_span = a, j - i
    if best_span == 0:
        return 0
    i, j = spans[best_axis]
    idxs = orders[best_axis][1][i:j]
    if P.dim == 1:
        return len(idxs)
    cnt = 0
    pts = P.points
    for idx in idxs:
        p = pts[idx]
        ok = True
        for a in range(P.dim):
            if a == best_axis:
                continue
            lo, hi = box.intervals[a]
            if not lo <= p[a] <= hi:
                ok = False
                break
        if ok:
            cnt += 1
    return cnt


def box_signature(P: PointSet, q: Point) -> tuple[tuple[int, int], ...]:
    """Per axis, q's place among the sorted coordinates of P:
    ``(bisect_right, bisect_left)``.  A point of rank r on an axis lies
    strictly above q there iff r >= bisect_right, and strictly below iff
    r < bisect_left, so these two integers stand in for q's coordinate in
    every comparison the region scan makes."""
    return tuple(
        (bisect_right(coords, q[a]), bisect_left(coords, q[a]))
        for a, (coords, _, _) in enumerate(_axis_orders(P))
    )


def box_regions_avoiding(P: PointSet, avoid: Sequence[Point]) -> Iterator[list[int]]:
    """Point indices strictly inside each open region dodging every avoided point.

    A closed box misses all of ``avoid`` iff it fits in one of these
    regions: pick an axis and a side per avoided point and keep the open
    halfspace strictly beyond that point.  The largest yielded list is the
    most points a box missing ``avoid`` can hold, and its points' bounding
    box is such a box.  One list per (axis, side) assignment, in
    ``itertools.product`` order over axes ascending with the lower side
    first; an empty region yields [].

    The scan runs in rank space: each avoided point becomes its
    :func:`box_signature` and each input point its per-axis ranks (its
    position in the axis order, ties kept in index order), so a region is a
    window of ranks per axis and the scan compares no coordinate.  The
    tightest bound on an axis is the extreme avoided coordinate, and
    bisection is monotone, so the window is exactly the slab of sorted
    positions that bisecting the coordinate bounds selects; points equal to
    an avoided coordinate fall outside it on both sides, as before.  The
    assignments, the narrowest axis (ties to the lower axis), the scanned
    slab and its order are therefore unchanged, and so is every list.
    """
    return _box_regions_in_ranks(P, [box_signature(P, q) for q in avoid])


def _box_regions_in_ranks(
    P: PointSet, sigs: Sequence[tuple[tuple[int, int], ...]]
) -> Iterator[list[int]]:
    """:func:`box_regions_avoiding` for avoided points given by their
    :func:`box_signature`.  Each region scans only its narrowest rank
    window."""
    orders = _axis_orders(P)
    d, n = P.dim, P.n
    sides = [(a, below) for a in range(d) for below in (True, False)]
    for assign in itertools.product(sides, repeat=len(sigs)):
        lo = [0] * d  # region holds ranks lo[a] <= r < hi[a] on axis a
        hi = [n] * d
        for sig, (a, below) in zip(sigs, assign):
            if below:
                if sig[a][1] < hi[a]:
                    hi[a] = sig[a][1]
            elif sig[a][0] > lo[a]:
                lo[a] = sig[a][0]
        axis = min(range(d), key=lambda a: hi[a] - lo[a])
        inside = list(orders[axis][1][lo[axis]:hi[axis]])  # [] if empty
        for a in range(d):
            if a != axis and inside:
                rank, l, h = orders[a][2], lo[a], hi[a]
                inside = [idx for idx in inside if l <= rank[idx] < h]
        yield inside


def largest_box_avoiding(
    P: PointSet,
    sigs: Sequence[tuple[tuple[int, int], ...]],
    stop_at: Optional[int] = None,
) -> int:
    """Most points a box missing the points with these signatures holds;
    returns early once that is at least ``stop_at``."""
    best = 0
    for inside in _box_regions_in_ranks(P, sigs):
        if len(inside) > best:
            best = len(inside)
            if stop_at is not None and best >= stop_at:
                break
    return best


def minimal_convex_ranges(P: PointSet, t: int) -> Iterator[SubsetHull]:
    """All t-subset hulls, lexicographically by index tuple."""
    if not 1 <= t <= P.n:
        raise ValueError(f"subset size {t} out of range 1..{P.n}")
    for idx in itertools.combinations(range(P.n), t):
        yield SubsetHull(P, idx)


# ---------------------------------------------------------------------------
# the avoidance oracle


@lru_cache(maxsize=8192)
def _candidate_masks(P: PointSet, q: Point) -> tuple[int, ...]:
    """Bitmasks of maximal point subsets strictly separable from q.

    Each mask is the point content of one canonical open halfspace whose
    boundary passes through q: boundary through q and one point (2D) or two
    points (3D), with points on the boundary resolved by which side an
    infinitesimal rotation sweeps them to.  The returned masks are deduped
    and in :func:`_mask_order`; their maxima over intersections give
    exact avoidance answers (every separable subset is inside some mask,
    and every mask's hull misses q).
    """
    d = P.dim
    pts, (iq,) = common_integer_coords(P, (q,))
    n = len(pts)
    masks: set[int] = set()
    if d == 1:
        below = above = 0
        for i, p in enumerate(pts):
            if p[0] < iq[0]:
                below |= 1 << i
            elif p[0] > iq[0]:
                above |= 1 << i
        masks.update(m for m in (below, above) if m)
    elif d == 2:
        diffs = [(p[0] - iq[0], p[1] - iq[1]) for p in pts]
        for u in diffs:
            if u == (0, 0):
                continue
            pos = neg = 0
            for i, w in enumerate(diffs):
                c = u[0] * w[1] - u[1] * w[0]
                if c > 0:
                    pos |= 1 << i
                elif c < 0:
                    neg |= 1 << i
                elif u[0] * w[0] + u[1] * w[1] > 0:
                    pos |= 1 << i
                    neg |= 1 << i
            masks.update(m for m in (pos, neg) if m)
    elif d == 3:
        q0, q1, q2 = iq
        diffs = [(x - q0, y - q1, z - q2) for x, y, z in pts]
        axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        anchors = [u for u in diffs if u != (0, 0, 0)]
        cands = [
            (u, v)
            for i, u in enumerate(anchors)
            for j, v in enumerate(anchors + axes)
            if i != j
        ]
        cands += [(e, u) for u in anchors for e in axes]
        bits = [(w0, w1, w2, 1 << i) for i, (w0, w1, w2) in enumerate(diffs)]
        for (u0, u1, u2), (v0, v1, v2) in cands:
            # normal n = u x v of the plane through q spanned by u and v
            n0 = u1 * v2 - u2 * v1
            n1 = u2 * v0 - u0 * v2
            n2 = u0 * v1 - u1 * v0
            if not (n0 or n1 or n2):
                continue
            mask = 0
            for w0, w1, w2, bit in bits:
                s = n0 * w0 + n1 * w1 + n2 * w2
                if s > 0:
                    mask |= bit
                elif s == 0:
                    # on the plane: the side a rotation about u sweeps w to,
                    # the sign of (u x w) . n; on u's line: ahead along u
                    t2 = (
                        (u1 * w2 - u2 * w1) * n0
                        + (u2 * w0 - u0 * w2) * n1
                        + (u0 * w1 - u1 * w0) * n2
                    )
                    if t2 > 0 or (t2 == 0 and u0 * w0 + u1 * w1 + u2 * w2 > 0):
                        mask |= bit
            if mask:
                masks.add(mask)
    else:
        raise UnsupportedDimensionError(
            f"exact avoidance oracle supports d <= 3, got d={d}"
        )
    return _mask_order(masks)


def _mask_order(masks: set[int]) -> tuple[int, ...]:
    """Masks by descending popcount, equal popcounts by ascending value: an
    order of the masks alone, whatever order they were found in."""
    return tuple(sorted(masks, key=lambda m: (-m.bit_count(), m)))


def max_subset_avoiding(
    P: PointSet, avoid: Sequence[Point], stop_at: Optional[int] = None
) -> int:
    """Largest |S|, S subset of P, with conv(S) containing no avoided point.

    Exact for d <= 3.  ``stop_at`` returns early once a subset at least that
    large is found (the returned value is then a lower bound >= stop_at).
    """
    size, _ = max_subset_avoiding_witness(P, avoid, stop_at=stop_at)
    return size


def max_subset_avoiding_witness(
    P: PointSet, avoid: Sequence[Point], stop_at: Optional[int] = None
) -> tuple[int, tuple[int, ...]]:
    """Like max_subset_avoiding, also returning the winning index subset."""
    if not avoid:
        raise ValueError("avoid list must be non-empty")
    seen: list[Point] = []
    for q in avoid:
        q = as_point(q, P.dim)
        if q not in seen:
            seen.append(q)
    size, mask = max_mask_intersection(
        [_candidate_masks(P, q) for q in seen], stop_at
    )
    return size, tuple(i for i in range(P.n) if mask >> i & 1)


def max_mask_intersection(
    lists: Sequence[Sequence[int]], stop_at: Optional[int] = None
) -> tuple[int, int]:
    """Largest intersection taking one mask from each list, as
    ``(popcount, mask)``.

    With the lists of :func:`_candidate_masks` this is the largest subset
    whose hull misses every avoided point: a subset misses one point iff it
    lies in one of that point's masks.  Each list must be in
    :func:`_mask_order`; the first largest intersection in the depth-first
    order wins.  An empty list (a point no subset avoids) gives ``(0, 0)``;
    ``stop_at`` returns early once a size at least that large is found.
    """
    if not lists:
        raise ValueError("need one mask list per avoided point")
    if not all(lists):
        return 0, 0
    best = 0
    best_mask = 0
    last = len(lists) - 1

    def descend(level: int, mask: int) -> bool:
        nonlocal best, best_mask
        for m in lists[level]:
            if m.bit_count() <= best:
                break  # masks sorted by popcount: nothing below can beat best
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

    descend(0, -1)  # -1 has every bit set
    return best, best_mask
