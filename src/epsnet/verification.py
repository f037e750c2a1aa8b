"""Exact verdicts for the weighted-net property, plus piercing utilities.

A net of size k with profile eps_1 <= ... <= eps_k is valid when every
range containing more than eps_i * n points of P contains at least i net
points.  Thresholds are strict; a range with exactly eps_i * n points does
not trigger level i.  Net-point containment is closed: a net point on a
range boundary counts.

Box verdicts come in two exact flavours:

* ``regions`` (default): a box misses >= k-i+1 net points iff it fits in an
  open axis-aligned region strictly dodging each of them on some axis, so
  checking every (subset, side-assignment) region - at most C(k, k-i+1) *
  (2d)^(k-i+1) of them, each in O(n) - decides level i.  The witness is
  the bounding box of the region's points, which dodges the same net
  points and holds the same count.
* ``enumerate``: direct sweep over all canonical boxes; used as an
  independent cross-check at small n.
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
    count_in_box,
    enumerate_canonical_boxes,
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


def _open_region_points(P, orders, bounds):
    """Indices of points strictly inside a product of open intervals.

    ``bounds[a] = (lo, hi)`` with None for unbounded; scan the narrowest
    axis slab found by bisection.
    """
    from bisect import bisect_left, bisect_right

    n = P.n
    windows = []
    for a, (lo, hi) in enumerate(bounds):
        coords = orders[a][0]
        i = bisect_right(coords, lo) if lo is not None else 0
        j = bisect_left(coords, hi) if hi is not None else n
        if i >= j:
            return []
        windows.append((j - i, a, i, j))
    _, axis, i, j = min(windows)
    idxs = orders[axis][1][i:j]
    out = []
    pts = P.points
    for idx in idxs:
        p = pts[idx]
        ok = True
        for a, (lo, hi) in enumerate(bounds):
            if a == axis:
                continue
            c = p[a]
            if (lo is not None and c <= lo) or (hi is not None and c >= hi):
                ok = False
                break
        if ok:
            out.append(idx)
    return out


def verify_weighted_net_boxes(
    P: PointSet,
    net: WeightedNet,
    max_violations: int = 16,
    method: str = "regions",
) -> VerificationReport:
    """Exact box-range verification of a weighted net.

    Level verdicts are independent; listed violations are deduplicated by
    witness and attributed to the lowest violated level.  ``regions`` and
    ``enumerate`` always agree on verdicts (the witnesses may differ).
    """
    start = time.perf_counter()
    P.require_distinct_coords()
    d, n, k = P.dim, P.n, net.k
    prof = net.profile
    if method == "enumerate":
        return _verify_boxes_enumerate(P, net, max_violations, start)
    if method != "regions":
        raise ValueError(f"unknown method {method!r}")
    from .ranges import _axis_orders

    orders = _axis_orders(P)
    verdicts = []
    found: list[Violation] = []
    seen_witnesses = set()
    total = 0
    examined = 0
    sides = [(a, s) for a in range(d) for s in ("<", ">")]
    for level in range(1, k + 1):
        thr = prof.min_strict_count(level, n)
        level_ok = True
        for T in itertools.combinations(range(k), k - level + 1):
            for assign in itertools.product(sides, repeat=len(T)):
                examined += 1
                bounds: list[list[Optional[Fraction]]] = [[None, None] for _ in range(d)]
                ok = True
                for t_idx, (a, s) in zip(T, assign):
                    v = net.points[t_idx][a]
                    if s == "<":
                        if bounds[a][1] is None or v < bounds[a][1]:
                            bounds[a][1] = v
                    else:
                        if bounds[a][0] is None or v > bounds[a][0]:
                            bounds[a][0] = v
                for lo, hi in bounds:
                    if lo is not None and hi is not None and lo >= hi:
                        ok = False
                        break
                if not ok:
                    continue
                inside = _open_region_points(P, orders, [tuple(b) for b in bounds])
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


def _verify_boxes_enumerate(P, net, max_violations, start):
    n, k = P.n, net.k
    prof = net.profile
    thresholds = [prof.min_strict_count(i, n) for i in range(1, k + 1)]
    verdicts = [True] * k
    found: list[Violation] = []
    seen = set()
    total = 0
    examined = 0
    for box in enumerate_canonical_boxes(P, min(thresholds)):
        examined += 1
        cnt = count_in_box(P, box)
        net_inside = box.count_net_points(net.points)
        lowest = None
        for i in range(1, k + 1):
            if cnt >= thresholds[i - 1] and net_inside < i:
                verdicts[i - 1] = False
                if lowest is None:
                    lowest = i
        if lowest is not None:
            total += 1
            if len(found) < max_violations and box.intervals not in seen:
                seen.add(box.intervals)
                found.append(Violation(lowest, box, net_inside, cnt))
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


# ---------------------------------------------------------------------------
# randomized falsifier


def adversarial_search(
    P: PointSet,
    net: WeightedNet,
    kind: RangeSpaceKind,
    trials: int,
    seed: int,
) -> Optional[Violation]:
    """Seeded random search for a violating range; sound but incomplete.

    Box trials sample canonical boxes; convex trials grow a subset greedily
    through the points farthest from the net.  Every candidate is re-checked
    exactly before being returned, so a non-None result is always a real
    violation.
    """
    import random

    rng = random.Random(seed)
    n, k = P.n, net.k
    prof = net.profile
    if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        from .ranges import _axis_orders

        orders = _axis_orders(P)
        for _ in range(trials):
            intervals = []
            for a in range(P.dim):
                coords = orders[a][0]
                i = rng.randrange(n)
                j = rng.randrange(n)
                if i > j:
                    i, j = j, i
                intervals.append((coords[i], coords[j]))
            box = BoxRange(tuple(intervals))
            cnt = count_in_box(P, box)
            net_inside = box.count_net_points(net.points)
            for level in range(1, k + 1):
                if cnt >= prof.min_strict_count(level, n) and net_inside < level:
                    return Violation(level, box, net_inside, cnt)
        return None
    # convex: greedy growth away from the net points
    def dist2(p, q):
        return sum((a - b) ** 2 for a, b in zip(p, q))

    fast2d = P.dim == 2
    if fast2d:
        ipts, inet = common_integer_coords(P, net.points)

    def net_count_of(idx: Sequence[int]) -> int:
        if fast2d:
            hull = hull2d(sorted(ipts[i] for i in idx))
            return sum(1 for q in inet if point_in_convex_polygon(q, hull) >= 0)
        hull = SubsetHull(P, tuple(sorted(idx)))
        return sum(1 for q in net.points if point_in_hull(q, hull))

    for _ in range(trials):
        level = rng.randint(1, k)
        t = prof.min_strict_count(level, n)
        if t > n:
            continue
        # order points by distance to the nearest net point, noisy
        scored = sorted(
            range(n),
            key=lambda i: (
                -min(dist2(P.points[i], q) for q in net.points)
                * Fraction(rng.randint(64, 128), 96),
                i,
            ),
        )
        chosen: list[int] = []
        for i in scored:
            if net_count_of(chosen + [i]) < level:
                chosen.append(i)
                if len(chosen) == t:
                    break
        if len(chosen) < t:
            continue
        witness = SubsetHull(P, tuple(sorted(chosen)))
        inside = sum(1 for q in net.points if point_in_hull(q, witness))
        if inside >= level:  # pragma: no cover - greedy keeps the invariant
            continue
        pcount = sum(1 for p in P.points if point_in_hull(p, witness))
        if pcount >= prof.min_strict_count(level, n):
            return Violation(level, witness, inside, pcount)
    return None
