"""Certified gadget configurations with machine-checkable claims.

Each gadget packages a concrete point set, a dictionary of named convex
witnesses, and a list of claims about them.  ``certify`` replays every
claim through one exact decision procedure per claim kind, so a passing
report is a full recomputation rather than a transcript.  Count and
membership claims, the oracle sample and the five-cluster lens hulls run
on integers: the point set's ``integer_coords``, each probe over one
common denominator, each halfspace scaled to integers once.  Only the
intersection, side and piercing claims solve the exact rational LP.

The gadgets mark the profile corners that no two-point weighted net can
beat.  Counting claims pin each witness cardinality exactly at its
threshold, intersection and piercing claims capture the geometric
obstruction, and oracle threshold claims corroborate the continuum
statement on a deterministic sample of candidate point pairs.

An oracle threshold claim asks the avoidance oracle only about pairs that
no known witness hull settles.  A witness hull is the hull of the first t
(the claim's threshold) points of an earlier oracle answer: t points whose
hull misses that pair's probes.  A later pair with both probes strictly
outside such a hull leaves at least t points too, so it passes without a
query.  conv(P) is the first case: a probe strictly outside it is strictly
separable from all of P, so its first oracle mask is the full one and the
query drops it; the answer, early stop included, is that for the other
probe alone, and a pair with both probes outside leaves all of P.  The
tests are exact: integer supporting hyperplanes through d points of the
hull's set, and a strict comparison, so a probe on a hull's boundary is
never settled by that hull.  Only passing pairs are settled, and every
other pair sends the oracle the probes it was sent before, so the sample,
the first failing pair, its count and every verdict are those of querying
the oracle on every pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from random import Random
from typing import Callable, Iterator, Optional, Sequence

from .geometry import (
    ConvexBody,
    Halfspace,
    HPolytope,
    Hyperplane,
    Point,
    PointSet,
    SubsetHull,
    _det,
    as_point,
    centroid,
    frac,
    hull2d,
    integer_coords,
    polytopes_intersect,
)
from .ranges import hull_holds, max_subset_avoiding_witness
from .verification import pierceable_by_two

_ZERO = Fraction(0)
_ONE = Fraction(1)

# random probe coordinates are lattice fractions of the bounding box
_PROBE_GRID = 64


class ClaimKind(Enum):
    """Claim kinds; each maps to exactly one exact decision procedure."""

    EMPTY_INTERSECTION = "empty-intersection"
    PAIRWISE_DISJOINT = "pairwise-disjoint"
    STRICT_SIDE = "strict-side"
    MEMBERSHIP = "membership"
    COUNT = "count"
    NOT_TWO_PIERCEABLE = "not-two-pierceable"
    ORACLE_THRESHOLD = "oracle-threshold"


@dataclass(frozen=True)
class CertifiedClaim:
    """One checkable statement about named witnesses of a gadget.

    Only the fields relevant to the kind are read: ``witnesses`` always;
    ``probes`` and ``contains`` for membership, ``hyperplane`` and ``side``
    for strict sidedness, ``expected`` for counts, ``threshold`` with
    ``trials`` and ``seed`` for the oracle sample.
    """

    kind: ClaimKind
    label: str
    witnesses: tuple[str, ...] = ()
    probes: tuple[Point, ...] = ()
    hyperplane: Optional[Hyperplane] = None
    side: int = 0
    expected: Optional[int] = None
    contains: bool = True
    threshold: int = 0
    trials: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        object.__setattr__(
            self, "probes", tuple(as_point(q) for q in self.probes)
        )


@dataclass(frozen=True)
class ClaimResult:
    claim: CertifiedClaim
    passed: bool
    detail: str


@dataclass(frozen=True)
class CertificationReport:
    gadget: str
    results: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[ClaimResult, ...]:
        return tuple(r for r in self.results if not r.passed)


@dataclass(frozen=True)
class GadgetInstance:
    """A named point set plus witness bodies and the claims tying them."""

    name: str
    pointset: PointSet
    parameters: dict
    witnesses: dict
    claims: tuple[CertifiedClaim, ...]

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters))
        object.__setattr__(self, "witnesses", dict(self.witnesses))
        object.__setattr__(self, "claims", tuple(self.claims))
        for claim in self.claims:
            for name in claim.witnesses:
                if name not in self.witnesses:
                    raise KeyError(f"claim references unknown witness {name!r}")

    def witness(self, name: str) -> ConvexBody:
        return self.witnesses[name]


# ---------------------------------------------------------------------------
# claim checking


def _fmt(q: Point) -> str:
    return "(" + ", ".join(str(c) for c in q) + ")"


def _polytope_test(body: HPolytope) -> Callable[[Sequence[int], int], bool]:
    """A test ``inside(X, s)``: does the body hold the point X / s, for an
    integer vector X and an integer s > 0?

    Each halfspace a.x <= b is scaled once by the lcm L of its denominators
    to the integers A = L a and B = L b; then a.(X / s) <= b iff
    A.X <= B s, with < for an open halfspace.
    """
    rows = []
    for h in body.halfspaces:
        big = lcm(h.offset.denominator, *(c.denominator for c in h.normal))
        rows.append((
            tuple([c.numerator * (big // c.denominator) for c in h.normal]),
            h.offset.numerator * (big // h.offset.denominator),
            h.closed,
        ))

    def inside(X: Sequence[int], s: int) -> bool:
        for A, B, closed in rows:
            v = sum(map(mul, A, X))
            w = B * s
            if v > w or (v == w and not closed):
                return False
        return True

    return inside


def _hull_test(body: SubsetHull) -> Callable[[Point], bool]:
    """Subset-hull membership through the avoidance oracle's masks."""
    mask = sum(1 << i for i in body.indices)
    return lambda q: hull_holds(body.base, q)(mask)


def _bodies(instance: GadgetInstance, claim: CertifiedClaim) -> list[ConvexBody]:
    return [instance.witnesses[name] for name in claim.witnesses]


def _check_empty_intersection(instance, claim) -> ClaimResult:
    w = polytopes_intersect(_bodies(instance, claim))
    if w is None:
        return ClaimResult(claim, True, "no common point")
    return ClaimResult(claim, False, f"common point at {_fmt(w)}")


def _pair_points(instance: GadgetInstance) -> Callable[[str, str], Optional[Point]]:
    """``polytopes_intersect`` of the witnesses named a and b, each ordered
    pair solved once however many claims ask for it."""
    solved: dict[tuple[str, str], Optional[Point]] = {}

    def point(a: str, b: str) -> Optional[Point]:
        if (a, b) not in solved:
            solved[a, b] = polytopes_intersect(
                [instance.witnesses[a], instance.witnesses[b]]
            )
        return solved[a, b]

    return point


def _check_pairwise_disjoint(instance, claim, pair_point) -> ClaimResult:
    overlaps = []
    for a, b in itertools.combinations(claim.witnesses, 2):
        w = pair_point(a, b)
        if w is not None:
            overlaps.append(f"{a} and {b} share {_fmt(w)}")
    if not overlaps:
        return ClaimResult(claim, True, "all pairs disjoint")
    return ClaimResult(
        claim, False, f"{len(overlaps)} overlapping pairs; " + overlaps[0]
    )


def _check_strict_side(instance, claim) -> ClaimResult:
    hp = claim.hyperplane
    if hp is None or claim.side not in (1, -1):
        raise ValueError("strict side claim needs a hyperplane and a side")
    # the violation region is the closed opposite side
    if claim.side > 0:
        bad = Halfspace(hp.normal, hp.offset)
    else:
        bad = Halfspace(tuple(-c for c in hp.normal), -hp.offset)
    region = HPolytope(len(hp.normal), (bad,))
    w = polytopes_intersect(_bodies(instance, claim) + [region])
    if w is None:
        side = "above" if claim.side > 0 else "below"
        return ClaimResult(claim, True, f"intersection strictly {side}")
    return ClaimResult(claim, False, f"touches wrong side at {_fmt(w)}")


def _check_membership(instance, claim) -> ClaimResult:
    (name,) = claim.witnesses
    body = instance.witnesses[name]
    if isinstance(body, SubsetHull):
        holds = _hull_test(body)
    else:
        inside = _polytope_test(body)
        holds = lambda q: inside(*_integer_probe(q))
    for q in claim.probes:
        if holds(q) != claim.contains:
            verb = "missing" if claim.contains else "containing"
            return ClaimResult(claim, False, f"{name} {verb} {_fmt(q)}")
    verb = "contains" if claim.contains else "avoids"
    return ClaimResult(
        claim, True, f"{name} {verb} all {len(claim.probes)} probes"
    )


def _check_count(instance, claim) -> ClaimResult:
    (name,) = claim.witnesses
    body = instance.witnesses[name]
    P = instance.pointset
    if isinstance(body, SubsetHull):
        # a point of the subset lies in its hull; only the others are tested
        members = set(body.indices) if body.base == P else set()
        holds = _hull_test(body)
        count = len(members) + sum(
            holds(p) for i, p in enumerate(P) if i not in members
        )
    else:
        scale, ipts = integer_coords(P)
        inside = _polytope_test(body)
        count = sum(inside(X, scale) for X in ipts)
    if count == claim.expected:
        return ClaimResult(claim, True, f"{name} holds exactly {count} points")
    return ClaimResult(
        claim, False, f"{name} holds {count} points, expected {claim.expected}"
    )


def _check_not_two_pierceable(instance, claim, pair_point) -> ClaimResult:
    names = claim.witnesses
    pair = pierceable_by_two(
        _bodies(instance, claim),
        meets=lambda i, j: pair_point(names[i], names[j]) is not None,
    )
    if pair is None:
        return ClaimResult(claim, True, "no two points cover the family")
    return ClaimResult(
        claim, False, f"pierced by {_fmt(pair[0])} and {_fmt(pair[1])}"
    )


def _hull_facets(
    P: PointSet, idx: Optional[Sequence[int]] = None
) -> list[tuple[tuple[int, ...], int]]:
    """Integer ``(normal, offset)`` with ``normal . x <= offset`` for every
    point of P with an index in ``idx`` (all of P by default), one per
    supporting hyperplane of that subset through d of its points.

    Each d-subset with a nonzero normal (the cofactors of its difference
    vectors) spans a hyperplane.  It is kept, oriented with the subset on
    its closed side, when all of the subset lies on one closed side of it;
    when all of it lies on the hyperplane, both orientations are kept.  A
    full-dimensional subset yields its facets, a flat one the hyperplanes
    through its span, and either way a point strictly beyond one of them
    lies outside the subset's hull.  The subset is read from P's cached
    ``integer_coords``, whose scale is folded into the normals; each pair
    is reduced to primitive integers, so the result depends on the subset's
    points alone.  A hyperplane is dropped as soon as subset points lie on
    both sides of it.  O(C(m, d) * m) for m subset points.
    """
    d = P.dim
    scale, ipts = integer_coords(P)
    if idx is not None:
        ipts = [ipts[i] for i in idx]
    out = set()
    for sub in itertools.combinations(ipts, d):
        base = sub[0]
        rows = [[p[j] - base[j] for j in range(d)] for p in sub[1:]]
        normal = [
            (-1) ** j * (_det([r[:j] + r[j + 1:] for r in rows]) if rows else 1)
            for j in range(d)
        ]
        if not any(normal):
            continue
        offset = sum(map(mul, normal, base))
        above = below = False
        for p in ipts:
            v = sum(map(mul, normal, p)) - offset
            if v > 0:
                above = True
            elif v < 0:
                below = True
            if above and below:
                break
        else:
            normal = [a * scale for a in normal]
            g = gcd(*normal, offset)
            for sign, beyond in ((1, above), (-1, below)):
                if not beyond:
                    g_s = g * sign
                    out.add((tuple(a // g_s for a in normal), offset // g_s))
    return sorted(out)


def _integer_probe(q: Point) -> tuple[tuple[int, ...], int]:
    """q as integer coordinates over one positive common denominator."""
    den = lcm(*[c.denominator for c in q])
    return tuple([c.numerator * (den // c.denominator) for c in q]), den


def _outside(
    facets: Sequence[tuple[tuple[int, ...], int]],
    probe: tuple[tuple[int, ...], int],
) -> bool:
    """Whether the probe, given by :func:`_integer_probe`, lies strictly
    beyond one of the hull facets."""
    iq, den = probe
    for normal, offset in facets:
        if sum(map(mul, normal, iq)) > offset * den:
            return True
    return False


class _Probe:
    """One probe of an oracle threshold claim: its integer form, its point
    (built from the form when first asked for), and what is known of it
    against the witness hulls, as two bitmasks over hull numbers
    (``out``: strictly outside; ``tried``: tested, not outside)."""

    __slots__ = ("form", "q", "beyond", "out", "tried")

    def __init__(self, form, facets, q: Optional[Point] = None) -> None:
        self.form = form
        self.q = q
        # strictly outside conv(P), hence outside every witness hull
        self.beyond = _outside(facets, form)
        self.out = -1 if self.beyond else 0
        self.tried = 0

    @property
    def point(self) -> Point:
        if self.q is None:
            self.q = _rational(self.form)
        return self.q

    def outside(self, h: int, hull) -> bool:
        """Whether the probe lies strictly outside witness hull h, which is
        not in ``tried``; the answer is recorded."""
        bit = 1 << h
        if self.out & bit:
            return True
        if _outside(hull, self.form):
            self.out |= bit
            return True
        self.tried |= bit
        return False


def _shared_hull(a: _Probe, b: _Probe, hulls: list) -> bool:
    """Whether both probes lie strictly outside one witness hull; hulls
    known to fail for either probe are skipped."""
    if a.out & b.out:
        return True
    failed = a.tried | b.tried
    for h, hull in enumerate(hulls):
        if not failed >> h & 1 and a.outside(h, hull) and b.outside(h, hull):
            return True
    return False


def _check_oracle_threshold(instance, claim) -> ClaimResult:
    """Every sampled pair leaves at least ``threshold`` points whose hull
    misses both probes.

    A probe strictly outside conv(P) is dropped from the oracle query: its
    first oracle mask is the full one, so ``max_subset_avoiding`` returns
    the same size with or without it, ``stop_at`` included, and a pair with
    neither probe kept leaves all ``P.n`` points.  A pair with a probe kept
    is settled without the oracle when both probes lie strictly outside one
    witness hull: the hull of the first t = ``threshold`` indices of an
    earlier oracle answer, t points whose hull misses both probes, so the
    pair passes.  A probe outside conv(P) is outside every witness hull.
    All outside tests are strict, so probes on a facet, edge or vertex are
    never settled by them.

    Only passing pairs are settled, and every other pair asks the oracle
    about the same probes as before, so the first failing pair, its size
    and the verdict are those of querying the oracle on every pair, and no
    probe's masks are built that were not built before.  Each probe is
    tested against each hull at most once, on its integer form; a lattice
    probe becomes a rational point only for an oracle query or a failure
    message.
    """
    P, t = instance.pointset, claim.threshold
    facets = _hull_facets(P)
    hulls: list = []  # the facets of witness hull h
    learned = set()  # the index tuples behind them
    pairs = 0
    for a, b in _probe_pairs(instance, claim.trials, claim.seed, facets):
        pairs += 1
        kept = [s for s in (a, b) if not s.beyond]
        if not kept:
            size = P.n
        elif _shared_hull(a, b, hulls):
            continue
        else:
            size, idx = max_subset_avoiding_witness(
                P, [s.point for s in kept], stop_at=t
            )
            if size >= t and idx[:t] not in learned:
                learned.add(idx[:t])
                hulls.append(_hull_facets(P, idx[:t]))
        if size < t:
            return ClaimResult(
                claim,
                False,
                f"only {size} avoid {_fmt(a.point)} and {_fmt(b.point)}"
                f" (needed {t})",
            )
    return ClaimResult(claim, True, f"threshold {t} met on {pairs} pairs")


def _probe_pairs(
    instance: GadgetInstance, trials: int, seed: int, facets
) -> Iterator[tuple[_Probe, _Probe]]:
    """The pairs of :func:`threshold_probe_pairs` as probes, in the same
    order.  Each structured probe is one object, shared by all its pairs;
    each lattice probe is drawn in integer form."""
    structured = [
        _Probe(_integer_probe(q), facets, q) for q in _structured_probes(instance)
    ]
    pairs = list(itertools.combinations_with_replacement(structured, 2))
    yield from pairs
    draw = _lattice(instance.pointset, seed)
    for _ in range(trials - len(pairs)):
        yield _Probe(draw(), facets), _Probe(draw(), facets)


_CHECKERS = {
    ClaimKind.EMPTY_INTERSECTION: _check_empty_intersection,
    ClaimKind.STRICT_SIDE: _check_strict_side,
    ClaimKind.MEMBERSHIP: _check_membership,
    ClaimKind.COUNT: _check_count,
    ClaimKind.ORACLE_THRESHOLD: _check_oracle_threshold,
}
# the claims decided on witness pairs, which share their LPs
_PAIR_CHECKERS = {
    ClaimKind.PAIRWISE_DISJOINT: _check_pairwise_disjoint,
    ClaimKind.NOT_TWO_PIERCEABLE: _check_not_two_pierceable,
}


def check_claim(
    instance: GadgetInstance,
    claim: CertifiedClaim,
    pair_point: Optional[Callable[[str, str], Optional[Point]]] = None,
) -> ClaimResult:
    """Decide one claim; pure, so claims can be checked in any order.

    ``pair_point`` is a ``_pair_points(instance)`` shared by the claims of
    one certification; without it the claim solves its own pair LPs.
    """
    if claim.kind in _PAIR_CHECKERS:
        return _PAIR_CHECKERS[claim.kind](
            instance, claim, pair_point or _pair_points(instance)
        )
    return _CHECKERS[claim.kind](instance, claim)


def certify(instance: GadgetInstance) -> CertificationReport:
    """Check every claim of the instance and collect the verdicts in claim
    order, solving each witness pair's LP at most once."""
    pair_point = _pair_points(instance)
    return CertificationReport(
        instance.name,
        tuple(check_claim(instance, c, pair_point) for c in instance.claims),
    )


def threshold_probe_pairs(
    instance: GadgetInstance, trials: int, seed: int
) -> list[tuple[Point, Point]]:
    """The deterministic pair sample behind oracle threshold claims.

    Structured candidates come first: the gadget points themselves, all
    pairwise midpoints, and the centroid of every hull witness.  Random
    pairs drawn on a lattice over the bounding box then top the list up to
    ``trials``.  A longer sample extends a shorter one with the same seed,
    so a violation found once cannot disappear under a bigger budget.
    """
    pairs = list(
        itertools.combinations_with_replacement(_structured_probes(instance), 2)
    )
    draw = _lattice(instance.pointset, seed)
    while len(pairs) < trials:
        pairs.append((_rational(draw()), _rational(draw())))
    return pairs


def _structured_probes(instance: GadgetInstance) -> list[Point]:
    """The points, their pairwise midpoints and the centroids of the hull
    witnesses, each distinct point once, in that order."""
    structured: list[Point] = []
    seen = set()

    def add(q: Point) -> None:
        if q not in seen:
            seen.add(q)
            structured.append(q)

    for p in instance.pointset:
        add(p)
    for a, b in itertools.combinations(instance.pointset.points, 2):
        add(tuple((x + y) / 2 for x, y in zip(a, b)))
    for body in instance.witnesses.values():
        if isinstance(body, SubsetHull):
            add(centroid(body.points))
    return structured


def _lattice(P: PointSet, seed: int) -> Callable[[], tuple[tuple[int, ...], int]]:
    """A draw of random lattice probes in integer form ``(X, den)``.

    Coordinate a is lo + (hi - lo) * r / G over P's bounding box, with one
    ``randrange(G + 1)`` per axis in axis order and G = ``_PROBE_GRID``.
    On P's integer coordinates (scale s) that is (lo' G + (hi' - lo') r) /
    (s G) for the scaled bounds lo' and hi', one denominator for all axes.
    """
    s, ipts = integer_coords(P)
    axes = [
        (min(col) * _PROBE_GRID, max(col) - min(col)) for col in zip(*ipts)
    ]
    den = s * _PROBE_GRID
    randrange = Random(seed).randrange

    def draw() -> tuple[tuple[int, ...], int]:
        return tuple([
            base + span * randrange(_PROBE_GRID + 1) for base, span in axes
        ]), den

    return draw


def _rational(form: tuple[Sequence[int], int]) -> Point:
    """The point X / den of an integer form ``(X, den)``."""
    X, den = form
    return tuple([Fraction(x, den) for x in X])


# ---------------------------------------------------------------------------
# shared construction helpers


def _hull_halfspaces(hull: SubsetHull) -> tuple[Halfspace, ...]:
    """Facet halfspaces of a full-dimensional planar subset hull, one per
    counterclockwise edge.

    The hull is built on the base set's ``integer_coords``, the points
    times one common denominator s > 0, which keeps their order and every
    orientation.  An edge a -> b there has the integer normal
    N = (b_y - a_y, a_x - b_x) and offset O = N.a, which are s and s^2
    times those of the rational edge, so each halfspace is N / s, O / s^2.
    """
    s, ipts = integer_coords(hull.base)
    ring = hull2d(sorted({ipts[i] for i in hull.indices}))
    if len(ring) < 3:
        raise ValueError("hull is not full-dimensional")
    out = []
    for i, (ax, ay) in enumerate(ring):
        bx, by = ring[(i + 1) % len(ring)]
        nx, ny = by - ay, ax - bx
        out.append(Halfspace(
            (Fraction(nx, s), Fraction(ny, s)), Fraction(nx * ax + ny * ay, s * s)
        ))
    return tuple(out)


def _plane_slab(dim: int, axis: int, value) -> HPolytope:
    """The degenerate polytope {x : x_axis = value} as two halfspaces."""
    e = tuple(_ONE if i == axis else _ZERO for i in range(dim))
    ne = tuple(-c for c in e)
    return HPolytope(dim, (Halfspace(e, frac(value)), Halfspace(ne, -frac(value))))


def _open_side(dim: int, axis: int, side: int) -> HPolytope:
    """The open halfspace strictly above (side=1) or below the axis plane."""
    e = tuple(
        (_ONE if side < 0 else -_ONE) if i == axis else _ZERO for i in range(dim)
    )
    return HPolytope(dim, (Halfspace(e, _ZERO, closed=False),))


# ---------------------------------------------------------------------------
# five clusters


_PENTAGON = ((4, 0), (1, 4), (-4, 2), (-3, -3), (2, -4))


def gadget_five_clusters(k: int, delta=Fraction(1, 2)) -> GadgetInstance:
    """Five clusters of k points each, in convex position around the origin.

    For every rotational position the witnesses are a hull on four full
    clusters plus one point of the fifth (just over 4n/5 points) and a hull
    on three full clusters plus one point of a fourth (just over 3n/5).  A
    two-point net beating the (3/5, 4/5) profile would have to put a point
    into each of the five overlap lenses.

    The counting claims all hold.  The two piercing claims are recorded as
    intended but certification finds them false, and provably so: any
    convex set holding more than 3n/5 of these points meets at least four
    clusters, hence contains the origin, so all five lenses share it.  The
    failure is intrinsic to the count thresholds, not to the coordinates.

    Cluster points sit on the outward ray through their vertex, spaced so
    every cluster stays inside a delta-disc; delta must keep the discs
    pairwise disjoint.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    delta = frac(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    min_gap_sq = min(
        (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
        for a, b in itertools.combinations(_PENTAGON, 2)
    )
    if 4 * delta * delta >= min_gap_sq:
        raise ValueError("delta too large: cluster discs would overlap")
    eta = delta / (5 * k)
    pts = []
    for cx, cy in _PENTAGON:
        for j in range(k):
            scale = 1 + j * eta
            pts.append((cx * scale, cy * scale))
    P = PointSet(2, tuple(pts))
    n = 5 * k

    def cluster(m: int) -> range:
        m %= 5
        return range(m * k, m * k + k)

    witnesses: dict = {}
    claims: list[CertifiedClaim] = []
    lens_names = []
    for a in range(5):
        four_idx = sorted(
            [i for m in range(5) if m != a for i in cluster(m)] + [a * k]
        )
        three_idx = sorted(
            [i for m in (a + 1, a + 2, a + 3) for i in cluster(m)]
            + [((a + 4) % 5) * k]
        )
        four = SubsetHull(P, tuple(four_idx))
        three = SubsetHull(P, tuple(three_idx))
        lens = HPolytope(
            2,
            _hull_halfspaces(four) + _hull_halfspaces(three),
        )
        witnesses[f"four_of_five_{a}"] = four
        witnesses[f"three_of_five_{a}"] = three
        witnesses[f"lens_{a}"] = lens
        lens_names.append(f"lens_{a}")
        claims.append(
            CertifiedClaim(
                ClaimKind.COUNT,
                f"witness four_of_five_{a} holds just over 4n/5 points",
                witnesses=(f"four_of_five_{a}",),
                expected=4 * k + 1,
            )
        )
        claims.append(
            CertifiedClaim(
                ClaimKind.COUNT,
                f"witness three_of_five_{a} holds just over 3n/5 points",
                witnesses=(f"three_of_five_{a}",),
                expected=3 * k + 1,
            )
        )
        claims.append(
            CertifiedClaim(
                ClaimKind.COUNT,
                f"lens_{a} keeps every point of its slim witness",
                witnesses=(f"lens_{a}",),
                expected=3 * k + 1,
            )
        )
    claims.append(
        CertifiedClaim(
            ClaimKind.PAIRWISE_DISJOINT,
            "the five overlap lenses are pairwise disjoint",
            witnesses=tuple(lens_names),
        )
    )
    claims.append(
        CertifiedClaim(
            ClaimKind.NOT_TWO_PIERCEABLE,
            "no two points meet all five overlap lenses",
            witnesses=tuple(lens_names),
        )
    )
    return GadgetInstance(
        name="five-clusters",
        pointset=P,
        parameters={"k": k, "delta": delta, "n": n},
        witnesses=witnesses,
        claims=tuple(claims),
    )


# ---------------------------------------------------------------------------
# hexagon with two poles


# one vertex is pulled off the regular position so that no main diagonal
# passes through the origin; the pole axis then clears every panel chord
_HEXAGON = ((8, 0), (4, 8), (-4, 7), (-8, 1), (-4, -9), (4, -8))


def gadget_hexagon_3d() -> GadgetInstance:
    """Eight points in R^3 whose two-point nets cannot beat the 5/8 ratio.

    Six vertices of a perturbed hexagon lie in the base plane, labelled as
    three adjacent pairs a, b, c; two poles sit on the vertical axis above
    and below the origin.  Any two candidate net points leave some five of
    the eight points outside their reach: one of three overlapping panels
    (runs of four consecutive vertices) plus a pole, or one of the listed
    five-point sets.  Claims certify the panel and set intersections are
    empty where the argument needs them to be, and an oracle sample checks
    the subset threshold directly on candidate pairs.
    """
    hexagon = [(frac(x), frac(y), _ZERO) for x, y in _HEXAGON]
    pts = tuple(hexagon) + ((_ZERO, _ZERO, _ONE), (_ZERO, _ZERO, -_ONE))
    P = PointSet(3, pts)
    a1, a2 = pts[0], pts[1]
    mid_a = tuple((x + y) / 2 for x, y in zip(a1, a2))

    def hull(*idx: int) -> SubsetHull:
        return SubsetHull(P, idx)

    witnesses = {
        "hexagon": hull(0, 1, 2, 3, 4, 5),
        "panel_a": hull(0, 1, 2, 3),
        "panel_b": hull(2, 3, 4, 5),
        "panel_c": hull(4, 5, 0, 1),
        "set_a": hull(2, 3, 4, 5, 6),
        "set_b": hull(1, 2, 3, 6, 7),
        "set_c": hull(1, 4, 5, 6, 7),
        "set_b_swap": hull(0, 2, 3, 6, 7),
        "top": hull(6),
        "bottom": hull(7),
        "base_plane": _plane_slab(3, 2, 0),
    }
    plane = Hyperplane.axis(3, 2, 0)
    claims = [
        CertifiedClaim(
            ClaimKind.COUNT,
            "the hexagon hull holds the six base points only",
            witnesses=("hexagon",),
            expected=6,
        ),
        CertifiedClaim(
            ClaimKind.STRICT_SIDE,
            "the top pole lies strictly above the base plane",
            witnesses=("top",),
            hyperplane=plane,
            side=1,
        ),
        CertifiedClaim(
            ClaimKind.STRICT_SIDE,
            "the bottom pole lies strictly below the base plane",
            witnesses=("bottom",),
            hyperplane=plane,
            side=-1,
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "the poles are not hexagon points",
            witnesses=("hexagon",),
            probes=(pts[6], pts[7]),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.EMPTY_INTERSECTION,
            "the three panels have no common point",
            witnesses=("panel_a", "panel_b", "panel_c"),
        ),
        CertifiedClaim(
            ClaimKind.EMPTY_INTERSECTION,
            "sets a, b, c share no point of the base plane",
            witnesses=("set_a", "set_b", "set_c", "base_plane"),
        ),
        CertifiedClaim(
            ClaimKind.EMPTY_INTERSECTION,
            "the swapped trio shares no point of the base plane",
            witnesses=("set_a", "set_b_swap", "set_c", "base_plane"),
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "set_a avoids the first a vertex",
            witnesses=("set_a",),
            probes=(a1,),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "set_b avoids the first a vertex",
            witnesses=("set_b",),
            probes=(a1,),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "set_c avoids the first a vertex",
            witnesses=("set_c",),
            probes=(a1,),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "the a-edge midpoint lies on panel_a",
            witnesses=("panel_a",),
            probes=(mid_a,),
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "the a-edge midpoint lies on panel_c",
            witnesses=("panel_c",),
            probes=(mid_a,),
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "set_a avoids the a-edge midpoint",
            witnesses=("set_a",),
            probes=(mid_a,),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "set_b_swap avoids the a-edge midpoint",
            witnesses=("set_b_swap",),
            probes=(mid_a,),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "set_c avoids the a-edge midpoint",
            witnesses=("set_c",),
            probes=(mid_a,),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.ORACLE_THRESHOLD,
            "sampled pairs always leave five points untouched",
            threshold=5,
            trials=2048,
            seed=53,
        ),
    ]
    for name in ("panel_a", "panel_b", "panel_c"):
        claims.append(
            CertifiedClaim(
                ClaimKind.COUNT,
                f"{name} holds its four consecutive vertices only",
                witnesses=(name,),
                expected=4,
            )
        )
    for name in ("set_a", "set_b", "set_c", "set_b_swap"):
        claims.append(
            CertifiedClaim(
                ClaimKind.COUNT,
                f"{name} holds exactly five of the eight points",
                witnesses=(name,),
                expected=5,
            )
        )
    return GadgetInstance(
        name="hexagon-3d",
        pointset=P,
        parameters={"pole_height": _ONE},
        witnesses=witnesses,
        claims=tuple(claims),
    )


# ---------------------------------------------------------------------------
# simplex with two poles


def gadget_simplex(d: int) -> GadgetInstance:
    """d+2 points in R^d realising the simplex obstruction in dimension d.

    A full-dimensional simplex spans the base hyperplane (integer vertices
    with centroid at the origin stand in for the regular one; every claim
    is invariant under the linear map between them), and two poles sit on
    the vertical axis.  The claims follow the case analysis for a candidate
    pair: the top cones pin a point below the base, the two cones over the
    first facet meet exactly in the opposite face, and the pole spindles
    exclude the rest of that face.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    base = d - 1
    verts = []
    for i in range(d - 1):
        verts.append(
            tuple(_ONE if j == i else _ZERO for j in range(d))
        )
    verts.append(tuple(-_ONE if j < d - 1 else _ZERO for j in range(d)))
    top = tuple(_ONE if j == base else _ZERO for j in range(d))
    bottom = tuple(-c for c in top)
    pts = tuple(verts) + (top, bottom)
    P = PointSet(d, pts)
    simplex_idx = tuple(range(d))
    top_idx, bottom_idx = d, d + 1

    witnesses: dict = {
        "base_simplex": SubsetHull(P, simplex_idx),
        "opposite_face": SubsetHull(P, tuple(range(1, d))),
        "above_open": _open_side(d, base, 1),
        "below_open": _open_side(d, base, -1),
    }
    cone_names = []
    for i in range(d):
        name = f"top_cone_{i + 1}"
        idx = tuple(j for j in simplex_idx if j != i) + (top_idx,)
        witnesses[name] = SubsetHull(P, idx)
        cone_names.append(name)
    witnesses["bottom_cone_1"] = SubsetHull(P, tuple(range(1, d)) + (bottom_idx,))
    spindle_names = []
    for i in range(1, d):
        name = f"spindle_{i + 1}"
        idx = tuple(j for j in range(1, d) if j != i) + (top_idx, bottom_idx)
        witnesses[name] = SubsetHull(P, idx)
        spindle_names.append(name)
    # the avoider drops the first support vertex of each designated point
    avoider_idx = tuple(j for j in range(d) if j not in (0, 2)) + (
        top_idx,
        bottom_idx,
    )
    witnesses["combo_avoider"] = SubsetHull(P, avoider_idx)
    p1 = tuple((x + y) / 2 for x, y in zip(verts[0], verts[1]))
    if d >= 4:
        p2 = tuple((x + y) / 2 for x, y in zip(verts[2], verts[3]))
    else:
        # three vertices force overlapping supports; distinct drops suffice
        p2 = tuple((x + y) / 2 for x, y in zip(verts[1], verts[2]))
    plane = Hyperplane.axis(d, base, 0)

    claims = [
        CertifiedClaim(
            ClaimKind.COUNT,
            "the base simplex holds its d vertices only",
            witnesses=("base_simplex",),
            expected=d,
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "neither pole lies in the base simplex",
            witnesses=("base_simplex",),
            probes=(top, bottom),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.STRICT_SIDE,
            "the top cones intersect strictly above the base",
            witnesses=tuple(cone_names),
            hyperplane=plane,
            side=1,
        ),
        CertifiedClaim(
            ClaimKind.EMPTY_INTERSECTION,
            "the two facet cones never meet above the base",
            witnesses=("top_cone_1", "bottom_cone_1", "above_open"),
        ),
        CertifiedClaim(
            ClaimKind.EMPTY_INTERSECTION,
            "the two facet cones never meet below the base",
            witnesses=("top_cone_1", "bottom_cone_1", "below_open"),
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "the opposite face sits inside the upper facet cone",
            witnesses=("top_cone_1",),
            probes=tuple(verts[1:]) + (centroid(verts[1:]),),
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "the opposite face sits inside the lower facet cone",
            witnesses=("bottom_cone_1",),
            probes=tuple(verts[1:]) + (centroid(verts[1:]),),
        ),
        CertifiedClaim(
            ClaimKind.EMPTY_INTERSECTION,
            "the pole spindles clear the opposite face",
            witnesses=tuple(spindle_names) + ("opposite_face",),
        ),
        CertifiedClaim(
            ClaimKind.MEMBERSHIP,
            "the avoider misses both designated midpoints",
            witnesses=("combo_avoider",),
            probes=(p1, p2),
            contains=False,
        ),
        CertifiedClaim(
            ClaimKind.COUNT,
            "the avoider holds exactly d of the points",
            witnesses=("combo_avoider",),
            expected=d,
        ),
        CertifiedClaim(
            ClaimKind.COUNT,
            "the lower facet cone holds exactly d of the points",
            witnesses=("bottom_cone_1",),
            expected=d,
        ),
    ]
    for name in cone_names:
        claims.append(
            CertifiedClaim(
                ClaimKind.COUNT,
                f"{name} holds exactly d of the points",
                witnesses=(name,),
                expected=d,
            )
        )
    for name in spindle_names:
        claims.append(
            CertifiedClaim(
                ClaimKind.COUNT,
                f"{name} holds exactly d of the points",
                witnesses=(name,),
                expected=d,
            )
        )
    if d == 3:
        claims.append(
            CertifiedClaim(
                ClaimKind.ORACLE_THRESHOLD,
                "sampled pairs always leave a d-point hull untouched",
                threshold=d,
                trials=2048,
                seed=59,
            )
        )
    return GadgetInstance(
        name="simplex",
        pointset=P,
        parameters={"d": d, "pole_height": _ONE},
        witnesses=witnesses,
        claims=tuple(claims),
    )


GADGETS = {
    "five-clusters": gadget_five_clusters,
    "hexagon-3d": gadget_hexagon_3d,
    "simplex": gadget_simplex,
}
