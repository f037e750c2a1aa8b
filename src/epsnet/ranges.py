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

Both range kinds reduce each avoided point once to bitmasks of input
points, and ``max_mask_intersection``, one kernel for both, intersects one
mask per point.  For convex sets they are the point's separable-subset
masks (``_candidate_masks``).  For boxes they are its 2d open-halfspace
masks (``box_masks``): a closed box misses q iff its points lie strictly on
one side of q on some axis.  Each is one lookup in per-axis prefix masks,
the OR of the point bits in sorted order, at q's place among the sorted
coordinates (``box_signature``), so no region compares a coordinate
(rank space: Dobkin, Gunopulos & Maass, JCSS 1996); a box region is the AND
of one mask per avoided point and its count a popcount.  Search reduces
each candidate net point once, drops the candidates another one
dominates (``undominated``) and runs its pair loop on the masks.  The
same masks decide subset-hull membership (``hull_holds``): in d <= 3 a
subset's hull misses q iff the subset lies inside one of q's masks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import DegenerateInputError, UnsupportedDimensionError
from .geometry import (
    Point,
    PointSet,
    SubsetHull,
    as_point,
    common_integer_coords,
    frac,
    point_in_hull,
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


# ---------------------------------------------------------------------------
# counting


@lru_cache(maxsize=64)
def _axis_orders(
    P: PointSet,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """Per axis: (sorted integer coordinates ``P.ipts``, point indices in
    that order, each point's rank: its position in that order).

    The positive ``P.scale`` keeps the order of the rationals, so the
    coordinate at a position is ``Fraction(c, P.scale)``; the sort is
    stable, so tied coordinates keep index order."""
    out = []
    for key in zip(*P.ipts):
        order = sorted(range(P.n), key=key.__getitem__)
        rank = [0] * P.n
        for pos, i in enumerate(order):
            rank[i] = pos
        out.append((tuple(map(key.__getitem__, order)), tuple(order), tuple(rank)))
    return tuple(out)


def count_in_box(P: PointSet, box: BoxRange) -> int:
    """Exact |P inside box| (closed containment)."""
    if box.dim != P.dim:
        raise DegenerateInputError("box dimension does not match point set")
    return sum(1 for p in P.points if box.contains(p))


def box_signature(P: PointSet, q: Point) -> tuple[tuple[int, int], ...]:
    """Per axis, q's place among the sorted coordinates of P:
    ``(bisect_right, bisect_left)``.  A point of rank r on an axis lies
    strictly above q there iff r >= bisect_right, and strictly below iff
    r < bisect_left, so these two integers pick q's masks out of the
    prefix masks.

    q is scaled by ``P.scale`` once; an integer coordinate is at most
    ``c * scale`` iff it is at most its floor, and below it iff it is
    below its ceiling."""
    scale = P.scale
    out = []
    for c, (coords, _, _) in zip(as_point(q, P.dim), _axis_orders(P)):
        num, den = c.numerator * scale, c.denominator
        out.append(
            (bisect_right(coords, num // den), bisect_left(coords, -(-num // den)))
        )
    return tuple(out)


@lru_cache(maxsize=64)
def _axis_prefix_masks(P: PointSet) -> tuple[tuple[int, ...], ...]:
    """Per axis, ``pre[j]``: the bitmask of the first j points in the axis
    order of :func:`_axis_orders`, for j = 0..n."""
    out = []
    for _, order, _ in _axis_orders(P):
        pre = [0]
        for i in order:
            pre.append(pre[-1] | 1 << i)
        out.append(tuple(pre))
    return tuple(out)


def _box_side_masks(P: PointSet, q: Point) -> list[int]:
    """The points strictly below and strictly above q on each axis, as
    bitmasks: axes ascending, the lower side first."""
    full = (1 << P.n) - 1
    out = []
    for pre, (right, left) in zip(_axis_prefix_masks(P), box_signature(P, q)):
        out += (pre[left], full ^ pre[right])
    return out


def box_masks(P: PointSet, q: Point) -> tuple[int, ...]:
    """q's non-empty open-halfspace masks in :func:`_mask_order`: a closed
    box misses q iff its points lie in one of them, so
    :func:`max_mask_intersection` over these lists answers box avoidance as
    it answers convex avoidance over :func:`_candidate_masks`."""
    return _mask_order(set(filter(None, _box_side_masks(P, q))))


def box_regions_avoiding(P: PointSet, avoid: Sequence[Point]) -> Iterator[int]:
    """The bitmask of P's points strictly inside each open region dodging
    every avoided point.

    A closed box misses all of ``avoid`` iff it fits in one of these
    regions: pick an axis and a side per avoided point and keep the open
    halfspace strictly beyond that point, so a region is the AND of one
    :func:`_box_side_masks` entry per avoided point.  The largest region is
    the most points a box missing ``avoid`` can hold, and its points'
    bounding box is such a box.  One mask per (axis, side) assignment, in
    ``itertools.product`` order over axes ascending with the lower side
    first; an empty region yields 0.
    """
    full = (1 << P.n) - 1
    for sides in itertools.product(*(_box_side_masks(P, q) for q in avoid)):
        region = full
        for m in sides:
            region &= m
        yield region


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


def hull_holds(P: PointSet, q: Point) -> Callable[[int], bool]:
    """A test ``holds(mask)``: does the hull of P's points in a non-empty
    bitmask hold q?  In d <= 3 it reads q's :func:`_candidate_masks` once: a
    hull misses q iff its subset lies in one of them (every subset whose
    hull misses q is strictly separable from q, and no mask's hull meets
    q).  In d >= 4 each call is the exact LP of ``point_in_hull``."""
    q = as_point(q, P.dim)
    if P.dim > 3:
        return lambda mask: point_in_hull(
            q, SubsetHull(P, tuple(i for i in range(P.n) if mask >> i & 1))
        )
    outside = [~m for m in _candidate_masks(P, q)]
    return lambda mask: all(map(mask.__and__, outside))


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
    whose hull misses every avoided point, and with those of
    :func:`box_masks` the most points a box missing them holds: a range
    misses one point iff its points lie in one of that point's masks.  Each
    list must be in :func:`_mask_order`; the first largest intersection in
    the depth-first order wins.  An empty list (a point nothing avoids)
    gives ``(0, 0)``; ``stop_at`` returns early once a size at least that
    large is found.
    """
    if not lists:
        raise ValueError("need one mask list per avoided point")
    if not all(lists):
        return 0, 0
    best, best_mask, _ = _deepest(
        lists, 0, -1, 0, 0, float("inf") if stop_at is None else stop_at
    )  # -1 has every bit set
    return best, best_mask


def undominated(lists: Sequence[Sequence[int]]) -> list[int]:
    """Ascending indices of a covering set of the mask lists: each list is
    dominated by a kept one.

    List i dominates list j when every mask of i lies inside some mask of
    j (equal lists dominate each other; a list without masks dominates
    every list).  A range missing i's point then fits in one of j's masks,
    so putting i in place of j among the lists of
    :func:`max_mask_intersection` lowers neither its answer nor the
    popcount of the first mask.

    Each distinct mask gets the bitset of the lists holding a superset of
    it, and the AND of those bitsets over a list's masks is the bitset of
    the lists it dominates.  Lists are kept greedily by descending number
    dominated, so a strict dominator comes first: of each class of lists
    that dominate each other and that no other list strictly dominates,
    the one with the smallest index is kept.
    """
    holders: dict[int, int] = {}
    for i, masks in enumerate(lists):
        for m in masks:
            holders[m] = holders.get(m, 0) | 1 << i
    above = {}
    for m in holders:
        up = 0
        for m2, held in holders.items():
            if not m & ~m2:
                up |= held
        above[m] = up
    full = (1 << len(lists)) - 1
    reach = []
    for masks in lists:
        dominated = full
        for m in masks:
            dominated &= above[m]
        reach.append(dominated)
    covered = 0
    kept = []
    for i in sorted(range(len(lists)), key=lambda i: -reach[i].bit_count()):
        if not covered >> i & 1:
            kept.append(i)
            covered |= reach[i]
    return sorted(kept)


def _deepest(lists, level, base, best, best_mask, stop_at):
    """The descent of :func:`max_mask_intersection` below ``base`` from
    ``level`` on: ``(best, best_mask, stopped)``.  Masks are sorted by
    popcount, so none after one no larger than ``best`` can beat it."""
    if level == len(lists) - 1:
        for m in lists[level]:
            if m.bit_count() <= best:
                break
            inter = base & m
            size = inter.bit_count()
            if size > best:
                best, best_mask = size, inter
                if size >= stop_at:
                    return best, best_mask, True
        return best, best_mask, False
    for m in lists[level]:
        if m.bit_count() <= best:
            break
        inter = base & m
        if inter.bit_count() > best:
            best, best_mask, stopped = _deepest(
                lists, level + 1, inter, best, best_mask, stop_at
            )
            if stopped:
                return best, best_mask, True
    return best, best_mask, False
