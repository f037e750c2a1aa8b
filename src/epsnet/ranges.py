"""Range spaces and their exact finite reductions.

Two range families matter here: axis-parallel closed boxes and compact
convex sets.  Both are infinite, but every verification question reduces to
a finite family:

* a box shrinks onto the bounding box of the points it contains, so boxes
  whose facets pass through point coordinates ("canonical boxes") witness
  every possible violation;
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


def enumerate_canonical_boxes(P: PointSet, min_count: int) -> Iterator[BoxRange]:
    """All boxes with facets on point coordinates holding >= min_count points.

    Deterministic order: lexicographic in the per-axis (lo index, hi index)
    tuples over ascending sorted coordinates.
    """
    P.require_distinct_coords()
    orders = _axis_orders(P)
    n = P.n
    pairs_per_axis = [
        [(i, j) for i in range(n) for j in range(i, n)] for _ in range(P.dim)
    ]
    for choice in itertools.product(*pairs_per_axis):
        intervals = tuple(
            (orders[a][0][i], orders[a][0][j]) for a, (i, j) in enumerate(choice)
        )
        box = BoxRange(intervals)
        if count_in_box(P, box) >= min_count:
            yield box


def minimal_convex_ranges(P: PointSet, t: int) -> Iterator[SubsetHull]:
    """All t-subset hulls, lexicographically by index tuple."""
    if not 1 <= t <= P.n:
        raise ValueError(f"subset size {t} out of range 1..{P.n}")
    for idx in itertools.combinations(range(P.n), t):
        yield SubsetHull(P, idx)


# ---------------------------------------------------------------------------
# the avoidance oracle


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


@lru_cache(maxsize=8192)
def _candidate_masks(P: PointSet, q: Point) -> tuple[int, ...]:
    """Bitmasks of maximal point subsets strictly separable from q.

    Each mask is the point content of one canonical open halfspace whose
    boundary passes through q: boundary through q and one point (2D) or two
    points (3D), with points on the boundary resolved by which side an
    infinitesimal rotation sweeps them to.  The returned masks are deduped
    and sorted by descending popcount; their maxima over intersections give
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
    else:
        raise UnsupportedDimensionError(
            f"exact avoidance oracle supports d <= 3, got d={d}"
        )
    return tuple(sorted(masks, key=lambda m: -m.bit_count()))


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
