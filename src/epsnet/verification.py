"""Exact verdicts for the weighted-net property, plus piercing utilities.

A net of size k with profile eps_1 <= ... <= eps_k is valid when every
range containing more than eps_i * n points of P contains at least i net
points.  Thresholds are strict; a range with exactly eps_i * n points does
not trigger level i.  Net-point containment is closed: a net point on a
range boundary counts.

Box verdicts are exact: a box misses >= k-i+1 net points iff it fits in
an open axis-aligned region strictly dodging each of them on some axis, so
scanning the regions ``ranges.box_regions_avoiding`` yields for every
(k-i+1)-subset of the net - at most C(k, k-i+1) * (2d)^(k-i+1) of them,
each one AND of the net points' halfspace bitmasks and one popcount -
decides level i.  Only a region with at least t_i points is decoded: the
witness is the bounding box of its points, which dodges the same net
points and holds the same count.  Repeated coordinates and duplicate
points need no special case.

Convex verdicts rest on the hulls of t_i = floor(eps_i * n) + 1 points,
the minimal convex ranges of level i.  In d <= 3 the avoidance oracle
decides each level: it fails iff some k-i+1 net points have
``ranges.max_subset_avoiding`` >= t_i (for one avoided point this is a
halfspace-depth query), a handful of queries in all.  Only a failing level
sweeps its C(n, t_i) subset hulls, asking ``ranges.hull_holds`` which net
points each holds, to list its violations; in d >= 4 every level is swept
with the exact LP.  ``ranges_examined`` counts the subset hulls a verdict
covers, Sum C(n, t_i), whether a level was swept or settled by the oracle.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Hashable, Iterable, Optional, Sequence, Union

from .errors import BudgetExceededError
from .geometry import (
    ConvexBody,
    Point,
    PointSet,
    SubsetHull,
    polytopes_intersect,
)
from .ranges import (
    BoxRange,
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    box_regions_avoiding,
    count_in_box,
    hull_holds,
    max_subset_avoiding,
)

DEFAULT_CONVEX_BUDGET = 5_000_000
DEFAULT_PIERCE_BUDGET = 1 << 16


@dataclass(frozen=True)
class Violation:
    """A range holding more than eps_level * n points but fewer than
    ``level`` net points."""

    level: int
    witness: Union[BoxRange, SubsetHull]
    net_count: int
    point_count: int


@dataclass(frozen=True)
class VerificationReport:
    kind: RangeSpaceKind
    n: int
    profile: EpsilonProfile
    verdicts: tuple[bool, ...]  # per level, True = pass
    violations: tuple[Violation, ...]
    total_violations: int
    ranges_examined: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(self.verdicts)


def counting_bound(n: int, k: int, l: int, eps: EpsilonProfile) -> Fraction:
    """Strict lower bound on |P inside k small sets and l big sets|.

    Small means more than eps_1 * n points, big more than eps_2 * n; each
    complement removes less than (1 - eps) * n points, so the intersection
    keeps strictly more than n - k(1-eps_1)n - l(1-eps_2)n.
    """
    if k < 0 or l < 0:
        raise ValueError("set counts must be nonnegative")
    if eps.k != 2:
        raise ValueError("counting bound takes a two-level profile")
    e1, e2 = eps.eps
    return n - k * (1 - e1) * n - l * (1 - e2) * n


# ---------------------------------------------------------------------------
# the level loop


def _verify_levels(
    kind: RangeSpaceKind,
    P: PointSet,
    net: WeightedNet,
    scan: Callable[[int, int], Union[int, Iterable[Optional[Hashable]]]],
    violation: Callable[[int, int, Hashable], Violation],
    max_violations: int,
    start: float,
) -> VerificationReport:
    """The weighted-net rule, level by level, for any range kind.

    ``scan(level, t)`` returns an iterable with one item per range it
    examines: None, or the key of a range holding at least t points and
    fewer than ``level`` net points.  Every such range counts; the first
    ``max_violations`` distinct keys are listed, each at the lowest level
    it violates, and ``violation(level, t, key)`` builds the listed entry.
    A scan that settled the level as passing without listing its ranges
    returns instead the number of ranges the verdict covers.
    """
    n = P.n
    verdicts = []
    found: list[Violation] = []
    seen = set()
    total = 0
    examined = 0
    for level in range(1, net.k + 1):
        t = net.profile.min_strict_count(level, n)
        ranges = scan(level, t)
        if isinstance(ranges, int):
            examined += ranges
            verdicts.append(True)
            continue
        level_ok = True
        for key in ranges:
            examined += 1
            if key is None:
                continue
            level_ok = False
            total += 1
            if key in seen or len(found) >= max_violations:
                continue
            seen.add(key)
            found.append(violation(level, t, key))
        verdicts.append(level_ok)
    return VerificationReport(
        kind,
        n,
        net.profile,
        tuple(verdicts),
        tuple(found),
        total,
        examined,
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# boxes


def verify_weighted_net_boxes(
    P: PointSet,
    net: WeightedNet,
    max_violations: int = 16,
) -> VerificationReport:
    """Exact box-range verification of a weighted net.

    Level i scans the regions dodging each (k-i+1)-subset of the net; a
    region with at least t_i points is keyed by its points' bounding box.
    """
    start = time.perf_counter()
    d, k = P.dim, net.k

    def scan(level, t):
        for T in itertools.combinations(net.points, k - level + 1):
            for region in box_regions_avoiding(P, T):
                if region.bit_count() < t:
                    yield None
                    continue
                inside = [p for i, p in enumerate(P.points) if region >> i & 1]
                yield tuple(
                    (min(p[a] for p in inside), max(p[a] for p in inside))
                    for a in range(d)
                )

    def violation(level, t, intervals):
        box = BoxRange(intervals)
        net_inside = box.count_net_points(net.points)
        pcount = count_in_box(P, box)
        if net_inside >= level or pcount < t:  # pragma: no cover
            raise RuntimeError("region witness failed its recheck")
        return Violation(level, box, net_inside, pcount)

    return _verify_levels(
        RangeSpaceKind.AXIS_PARALLEL_BOXES, P, net, scan, violation,
        max_violations, start,
    )


# ---------------------------------------------------------------------------
# convex sets


def convex_budget_required(
    n: int, profile: EpsilonProfile, levels: Iterable[int]
) -> int:
    """Sum C(n, t_i) over the given levels (1-based): the subset hulls a
    sweep of those levels visits."""
    return sum(comb(n, profile.min_strict_count(level, n)) for level in levels)


def _budget_message(
    n: int, profile: EpsilonProfile, budget: int, levels: set[int]
) -> str:
    """The refusal for sweeping ``levels`` over ``budget``, with a hint
    that fits the sweep: a smaller n, or a higher threshold at the lowest
    swept level."""
    need = convex_budget_required(n, profile, levels)
    n_fit = n
    while n_fit > 1 and convex_budget_required(n_fit, profile, levels) > budget:
        n_fit -= 1
    low = min(levels)
    t = profile.min_strict_count(low, n)
    while t <= n and comb(n, t) > budget:
        t += 1
    hint = f"reduce n to <= {n_fit}"
    if t <= n:
        hint += (
            f" or raise eps_{low} to >= {Fraction(t - 1, n)}"
            f" (so the level-{low} subsets shrink)"
        )
    return (
        f"convex verification needs {need} subset hulls at n={n}, over the budget"
        f" of {budget}; {hint}"
    )


def verify_weighted_net_convex(
    P: PointSet,
    net: WeightedNet,
    max_violations: int = 16,
    budget: int = DEFAULT_CONVEX_BUDGET,
) -> VerificationReport:
    """Exact convex-range verification via minimal t-subset hulls.

    Level i concerns the hulls of t_i = floor(eps_i * n) + 1 points: a
    convex range with more than eps_i * n points contains such a subset, and
    its hull needs the same net points.  In d <= 3 the level fails iff some
    k-i+1 net points have ``max_subset_avoiding`` >= t_i; a passing level
    adds its C(n, t_i) hulls to ``ranges_examined`` without visiting them.
    A failing level, and every level in d >= 4, sweeps all its hulls and
    asks ``hull_holds`` which net points each holds, on point bitmasks
    taken in lexicographic point order in the plane and in index order
    otherwise; violations and ``total_violations`` come from that sweep.
    Raises BudgetExceededError when the swept levels' hulls, Sum C(n, t_i)
    over those levels only, are more than ``budget``; the message names the
    lowest swept level.  In d <= 3 a passing net is never refused.
    """
    start = time.perf_counter()
    n, k = P.n, net.k
    net_holds = [hull_holds(P, q) for q in net.points]
    if P.dim <= 3:
        swept = set()
        for level in range(1, k + 1):
            t = net.profile.min_strict_count(level, n)
            if any(
                max_subset_avoiding(P, Q, stop_at=t) >= t
                for Q in itertools.combinations(net.points, k - level + 1)
            ):
                swept.add(level)
    else:
        swept = set(range(1, k + 1))
    required = convex_budget_required(n, net.profile, swept)
    if swept and required > budget:
        raise BudgetExceededError(
            _budget_message(n, net.profile, budget, swept),
            required=required,
        )
    order = sorted(range(n), key=lambda i: P.points[i]) if P.dim == 2 else range(n)
    bits = [1 << i for i in order]

    def sweep(level, t):
        for subset in itertools.combinations(bits, t):
            mask = sum(subset)
            yield mask if sum([h(mask) for h in net_holds]) < level else None

    def scan(level, t):
        return sweep(level, t) if level in swept else comb(n, t)

    point_holds = []  # every input point's test, built at the first violation

    def violation(level, t, mask):
        if not point_holds:
            point_holds.extend(hull_holds(P, p) for p in P.points)
        return Violation(
            level,
            SubsetHull(P, tuple(i for i in range(n) if mask >> i & 1)),
            sum(h(mask) for h in net_holds),
            sum(h(mask) for h in point_holds),
        )

    return _verify_levels(
        RangeSpaceKind.CONVEX_SETS, P, net, scan, violation, max_violations, start
    )


def verify_weighted_net(
    P: PointSet,
    net: WeightedNet,
    kind: Union[RangeSpaceKind, str],
    max_violations: int = 16,
    budget: int = DEFAULT_CONVEX_BUDGET,
) -> VerificationReport:
    """Verify ``net`` for the range kind given as a member or its value
    ("boxes", "convex"); ``budget`` caps the subset hulls convex
    verification sweeps (failing levels in d <= 3, every level in d >= 4)
    and does not apply to boxes."""
    if RangeSpaceKind(kind) is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        return verify_weighted_net_boxes(P, net, max_violations)
    return verify_weighted_net_convex(P, net, max_violations, budget)


# ---------------------------------------------------------------------------
# piercing


def pierceable_by_two(
    family: Sequence[ConvexBody],
    budget: int = DEFAULT_PIERCE_BUDGET,
    meets: Optional[Callable[[int, int], bool]] = None,
) -> Optional[tuple[Point, Point]]:
    """A pair of points together meeting every family member, or None.

    Exhaustive over bipartitions: each part must have a common point.  The
    pairwise-intersection graph prunes most splits (a part whose members do
    not pairwise intersect cannot have one).  ``meets(i, j)``, for i < j,
    answers whether members i and j intersect, for a caller that has
    solved those LPs already; by default each pair's LP is solved here.
    Exact; deterministic.
    """
    m = len(family)
    if m == 0:
        raise ValueError("family must be non-empty")
    if (1 << max(m - 1, 0)) > budget:
        raise BudgetExceededError(
            f"{m} members need {1 << (m - 1)} bipartitions, budget {budget}",
            required=1 << (m - 1),
        )
    if meets is None:
        meets = lambda i, j: polytopes_intersect([family[i], family[j]]) is not None
    pair_ok = [[True] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            pair_ok[i][j] = pair_ok[j][i] = meets(i, j)
    # member 0 stays in part A; enumerate assignments of the rest
    for bits in range(1 << (m - 1)):
        part_a = [0] + [i for i in range(1, m) if not bits >> (i - 1) & 1]
        part_b = [i for i in range(1, m) if bits >> (i - 1) & 1]
        if not all(
            pair_ok[i][j] for i, j in itertools.combinations(part_a, 2)
        ):
            continue
        if not all(
            pair_ok[i][j] for i, j in itertools.combinations(part_b, 2)
        ):
            continue
        wa = polytopes_intersect([family[i] for i in part_a])
        if wa is None:
            continue
        if not part_b:
            return (wa, wa)
        wb = polytopes_intersect([family[i] for i in part_b])
        if wb is None:
            continue
        return (wa, wb)
    return None
