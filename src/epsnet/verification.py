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
each in O(n) - decides level i.  The witness is the bounding box of the
region's points, which dodges the same net points and holds the same
count.  Repeated coordinates and duplicate points need no special case.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence, Union

from .errors import BudgetExceededError
from .geometry import (
    ConvexBody,
    Point,
    PointSet,
    SubsetHull,
    common_integer_coords,
    hull2d,
    point_in_convex_polygon,
    point_in_hull,
    polytopes_intersect,
)
from .ranges import (
    BoxRange,
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    box_regions_avoiding,
    count_in_box,
    minimal_convex_ranges,
)

DEFAULT_CONVEX_BUDGET = 2_000_000
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
# boxes


def verify_weighted_net_boxes(
    P: PointSet,
    net: WeightedNet,
    max_violations: int = 16,
) -> VerificationReport:
    """Exact box-range verification of a weighted net.

    Level verdicts are independent; listed violations are deduplicated by
    witness and attributed to the lowest violated level.
    """
    start = time.perf_counter()
    d, n, k = P.dim, P.n, net.k
    prof = net.profile
    verdicts = []
    found: list[Violation] = []
    seen_witnesses = set()
    total = 0
    examined = 0
    for level in range(1, k + 1):
        thr = prof.min_strict_count(level, n)
        level_ok = True
        for T in itertools.combinations(net.points, k - level + 1):
            for inside in box_regions_avoiding(P, T):
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
                pcount = count_in_box(P, box)
                if net_inside >= level or pcount < thr:  # pragma: no cover
                    raise RuntimeError("region witness failed its recheck")
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
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# convex sets


def convex_budget_required(n: int, profile: EpsilonProfile) -> int:
    return sum(comb(n, int(e * n) + 1) for e in profile.eps if int(e * n) + 1 <= n)


def _budget_message(P: PointSet, profile: EpsilonProfile, budget: int) -> str:
    n = P.n
    need = convex_budget_required(n, profile)
    n_fit = n
    while n_fit > 1 and convex_budget_required(n_fit, profile) > budget:
        n_fit -= 1
    e1 = profile.eps[0]
    t = int(e1 * n) + 1
    while t <= n and comb(n, t) > budget:
        t += 1
    hint = f"reduce n to <= {n_fit}"
    if t <= n:
        hint += f" or raise eps_1 to >= {Fraction(t - 1, n)} (so the level-1 subsets shrink)"
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

    Level i checks all hulls of t_i = floor(eps_i * n) + 1 points: a convex
    range with more than eps_i * n points contains such a subset, and its
    hull needs the same net points.  Raises BudgetExceededError (with the
    required figure) when the binomial enumeration would be too large.
    """
    start = time.perf_counter()
    n, k = P.n, net.k
    prof = net.profile
    required = convex_budget_required(n, prof)
    if required > budget:
        raise BudgetExceededError(_budget_message(P, prof, budget), required=required)
    verdicts = []
    found: list[Violation] = []
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
            for idx in itertools.combinations(order, t):
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
            for hull in minimal_convex_ranges(P, t):
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
        time.perf_counter() - start,
    )


def verify_weighted_net(
    P: PointSet, net: WeightedNet, kind: RangeSpaceKind, **kwargs
) -> VerificationReport:
    if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        return verify_weighted_net_boxes(P, net, **kwargs)
    return verify_weighted_net_convex(P, net, **kwargs)


# ---------------------------------------------------------------------------
# piercing


def pierceable_by_two(
    family: Sequence[ConvexBody], budget: int = DEFAULT_PIERCE_BUDGET
) -> Optional[tuple[Point, Point]]:
    """A pair of points together meeting every family member, or None.

    Exhaustive over bipartitions: each part must have a common point.  The
    pairwise-intersection graph prunes most splits (a part whose members do
    not pairwise intersect cannot have one).  Exact; deterministic.
    """
    m = len(family)
    if m == 0:
        raise ValueError("family must be non-empty")
    if (1 << max(m - 1, 0)) > budget:
        raise BudgetExceededError(
            f"{m} members need {1 << (m - 1)} bipartitions, budget {budget}",
            required=1 << (m - 1),
        )
    pair_ok = [[True] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            ok = polytopes_intersect([family[i], family[j]]) is not None
            pair_ok[i][j] = pair_ok[j][i] = ok
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
