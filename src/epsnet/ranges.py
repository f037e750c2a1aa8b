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
def _axis_orders(P: PointSet) -> tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]:
    """Per axis: (sorted coordinates, point indices in that order)."""
    out = []
    for a in range(P.dim):
        order = sorted(range(P.n), key=lambda i: P.points[i][a])
        coords = tuple(P.points[i][a] for i in order)
        out.append((coords, tuple(order)))
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
    for a, (coords, _) in enumerate(orders):
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


def box_regions_avoiding(P: PointSet, avoid: Sequence[Point]) -> Iterator[list[int]]:
    """Point indices strictly inside each open region dodging every avoided point.

    A closed box misses all of ``avoid`` iff it fits in one of these
    regions: pick an axis and a side per avoided point and keep the open
    halfspace strictly beyond that point.  The largest yielded list is the
    most points a box missing ``avoid`` can hold, and its points' bounding
    box is such a box.  One list per (axis, side) assignment, in
    ``itertools.product`` order over axes ascending with the lower side
    first; an empty region yields [].  Each region scans only the narrowest
    axis slab, found by bisection.
    """
    orders = _axis_orders(P)
    d, n, pts = P.dim, P.n, P.points
    sides = [(a, below) for a in range(d) for below in (True, False)]
    for assign in itertools.product(sides, repeat=len(avoid)):
        lo: list[Optional[Fraction]] = [None] * d
        hi: list[Optional[Fraction]] = [None] * d
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
    lists = [_candidate_masks(P, q) for q in seen]
    if any(not lst for lst in lists):
        return 0, ()
    best = 0
    best_mask = 0

    def descend(level: int, mask: int) -> bool:
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
                break  # masks sorted by popcount: nothing below can beat best
            inter = mask & m
            if inter.bit_count() <= best:
                continue
            if descend(level + 1, inter):
                return True
        return False

    full = (1 << P.n) - 1
    descend(0, full)
    indices = tuple(i for i in range(P.n) if best_mask >> i & 1)
    return best, indices
