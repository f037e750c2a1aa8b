"""gadgets: claim procedures, the three configurations, honest failures."""

import random
from collections import Counter
from fractions import Fraction as F
from operator import mul

import pytest

import helpers
from epsnet.gadgets import (
    GADGETS,
    CertifiedClaim,
    ClaimKind,
    GadgetInstance,
    _hull_facets,
    _hull_halfspaces,
    _integer_probe,
    _outside,
    certify,
    check_claim,
    gadget_five_clusters,
    gadget_hexagon_3d,
    gadget_simplex,
    threshold_probe_pairs,
)
from epsnet.geometry import (
    Halfspace,
    HPolytope,
    Hyperplane,
    PointSet,
    SubsetHull,
    orient2d,
    point_in_hull,
    polytopes_intersect,
)
from epsnet.ranges import (
    _candidate_masks,
    max_subset_avoiding,
    max_subset_avoiding_witness,
)

from helpers import (
    brute_in_hull,
    random_pointset,
    slow_check_oracle_threshold,
    slow_threshold_probe_pairs,
)


# --- claim kinds on a hand-built instance -----------------------------------


def mini_instance(*claims):
    P = PointSet(2, ((0, 0), (2, 0), (0, 2), (2, 2), (1, 1)))
    witnesses = {
        "square": SubsetHull(P, (0, 1, 2, 3)),
        "left_edge": SubsetHull(P, (0, 2)),
        "right_edge": SubsetHull(P, (1, 3)),
        "bottom_edge": SubsetHull(P, (0, 1)),
        "centre": SubsetHull(P, (4,)),
    }
    return GadgetInstance("mini", P, {}, witnesses, tuple(claims))


def single(instance):
    report = certify(instance)
    assert len(report.results) == 1
    return report.results[0]


def test_count_claim_passes():
    claim = CertifiedClaim(
        ClaimKind.COUNT, "square holds all", witnesses=("square",), expected=5
    )
    result = single(mini_instance(claim))
    assert result.passed
    assert "5" in result.detail


def test_count_claim_fails_with_actual():
    claim = CertifiedClaim(
        ClaimKind.COUNT, "wrong count", witnesses=("square",), expected=4
    )
    result = single(mini_instance(claim))
    assert not result.passed
    assert "holds 5" in result.detail


def test_membership_polarity():
    inside = CertifiedClaim(
        ClaimKind.MEMBERSHIP, "centre in", witnesses=("square",), probes=((1, 1),)
    )
    outside = CertifiedClaim(
        ClaimKind.MEMBERSHIP,
        "centre out",
        witnesses=("square",),
        probes=((1, 1),),
        contains=False,
    )
    report = certify(mini_instance(inside, outside))
    assert report.results[0].passed
    assert not report.results[1].passed


def test_empty_intersection_claim():
    empty = CertifiedClaim(
        ClaimKind.EMPTY_INTERSECTION,
        "edges apart",
        witnesses=("left_edge", "right_edge"),
    )
    meets = CertifiedClaim(
        ClaimKind.EMPTY_INTERSECTION,
        "edges meet",
        witnesses=("left_edge", "bottom_edge"),
    )
    report = certify(mini_instance(empty, meets))
    assert report.results[0].passed
    assert not report.results[1].passed
    assert "(0, 0)" in report.results[1].detail


def test_pairwise_disjoint_claim():
    good = CertifiedClaim(
        ClaimKind.PAIRWISE_DISJOINT,
        "two edges",
        witnesses=("left_edge", "right_edge"),
    )
    bad = CertifiedClaim(
        ClaimKind.PAIRWISE_DISJOINT,
        "three edges",
        witnesses=("left_edge", "right_edge", "bottom_edge"),
    )
    report = certify(mini_instance(good, bad))
    assert report.results[0].passed
    assert not report.results[1].passed
    assert "overlapping" in report.results[1].detail


def test_strict_side_claim():
    above = CertifiedClaim(
        ClaimKind.STRICT_SIDE,
        "square above",
        witnesses=("square",),
        hyperplane=Hyperplane.axis(2, 1, -1),
        side=1,
    )
    touching = CertifiedClaim(
        ClaimKind.STRICT_SIDE,
        "square not above y=1",
        witnesses=("square",),
        hyperplane=Hyperplane.axis(2, 1, 1),
        side=1,
    )
    report = certify(mini_instance(above, touching))
    assert report.results[0].passed
    assert not report.results[1].passed


def test_strict_side_requires_side():
    claim = CertifiedClaim(
        ClaimKind.STRICT_SIDE,
        "no side given",
        witnesses=("square",),
        hyperplane=Hyperplane.axis(2, 1, 0),
    )
    with pytest.raises(ValueError):
        certify(mini_instance(claim))


def test_not_two_pierceable_claim():
    # three pairwise disjoint sets need three points
    good = CertifiedClaim(
        ClaimKind.NOT_TWO_PIERCEABLE,
        "edges plus centre",
        witnesses=("left_edge", "right_edge", "centre"),
    )
    bad = CertifiedClaim(
        ClaimKind.NOT_TWO_PIERCEABLE,
        "two edges",
        witnesses=("left_edge", "right_edge"),
    )
    report = certify(mini_instance(good, bad))
    assert report.results[0].passed
    assert not report.results[1].passed
    assert "pierced" in report.results[1].detail


def test_oracle_threshold_claim():
    ok = CertifiedClaim(
        ClaimKind.ORACLE_THRESHOLD, "one survivor", threshold=1, trials=0, seed=1
    )
    result = single(mini_instance(ok))
    assert result.passed
    # the structured sample contains (centre, centre); only pairs of corner
    # points avoid the centre, so a threshold of three must fail
    bad = CertifiedClaim(
        ClaimKind.ORACLE_THRESHOLD, "three survivors", threshold=3, trials=0, seed=1
    )
    result = single(mini_instance(bad))
    assert not result.passed
    assert "(1, 1)" in result.detail


def test_unknown_witness_rejected():
    claim = CertifiedClaim(
        ClaimKind.COUNT, "ghost", witnesses=("ghost",), expected=1
    )
    with pytest.raises(KeyError):
        mini_instance(claim)


def test_registry_names():
    assert set(GADGETS) == {"five-clusters", "hexagon-3d", "simplex"}


# --- oracle-threshold claims: probes outside the hull ------------------------


def oracle_claim(threshold, trials, seed=7):
    return CertifiedClaim(
        ClaimKind.ORACLE_THRESHOLD,
        f"threshold {threshold}",
        threshold=threshold,
        trials=trials,
        seed=seed,
    )


def assert_matches_slow_check(instance, claim):
    fast = check_claim(instance, claim)
    slow = slow_check_oracle_threshold(instance, claim)
    assert (fast.passed, fast.detail) == (slow.passed, slow.detail), claim


@pytest.mark.parametrize("name", ["hexagon-3d", "simplex-3"])
def test_gadget_oracle_claims_match_slow_check(name):
    inst = gadget_hexagon_3d() if name == "hexagon-3d" else gadget_simplex(3)
    claims = [c for c in inst.claims if c.kind is ClaimKind.ORACLE_THRESHOLD]
    assert len(claims) == 1
    (claim,) = claims
    assert_matches_slow_check(inst, claim)
    # one above the certified threshold fails, on the same pair
    assert_matches_slow_check(
        inst, oracle_claim(claim.threshold + 1, claim.trials, claim.seed)
    )


@pytest.mark.parametrize("trials", [0, 300])
def test_mini_oracle_claims_match_slow_check(trials):
    for threshold in range(1, 7):
        assert_matches_slow_check(mini_instance(), oracle_claim(threshold, trials))


def degenerate_instance(dim, pts, hulls=()):
    P = PointSet(dim, tuple(pts))
    witnesses = {f"hull_{i}": SubsetHull(P, idx) for i, idx in enumerate(hulls)}
    return GadgetInstance("degenerate", P, {}, witnesses, ())


DEGENERATE = {
    # every point on the plane x + y + z = 6; probes off it are outside
    "coplanar-3d": (
        3,
        [(0, 0, 6), (6, 0, 0), (0, 6, 0), (2, 2, 2), (1, 3, 2), (4, 1, 1)],
        [(3, 4, 5)],
    ),
    "collinear-2d": (2, [(0, 0), (1, 2), (2, 4), (3, 6), (1, 2)], []),
    "duplicates-2d": (
        2,
        [(0, 0), (4, 0), (0, 4), (0, 0), (1, 1), (1, 1), (3, 1)],
        [(0, 1, 2)],
    ),
    "duplicates-3d": (
        3,
        [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (4, 0, 0), (1, 1, 1)],
        [],
    ),
    # witness centroids on two facets; edge midpoints and vertices come
    # with the structured sample, lattice probes land on the facets x = 0,
    # y = 0 and z = 0
    "boundary-probes-3d": (
        3,
        [(0, 0, 0), (6, 0, 0), (0, 6, 0), (0, 0, 6), (1, 1, 1), (2, 1, 0)],
        [(1, 2, 3), (0, 1, 2)],
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_oracle_claims_match_slow_check(name):
    inst = degenerate_instance(*DEGENERATE[name])
    for threshold in range(1, inst.pointset.n + 2):
        assert_matches_slow_check(inst, oracle_claim(threshold, 400))


def test_first_failing_pair_with_an_outside_probe(monkeypatch):
    """A failing pair is reported with both probes, the settled one too."""
    import epsnet.gadgets as gadgets

    outside, centre = (F(3), F(1)), (F(1), F(1))
    pairs = [((F(0), F(0)), (F(2), F(2))), (outside, centre), (centre, outside)]

    def probe_pairs(instance, trials, seed, facets):
        probes = {
            q: gadgets._Probe(_integer_probe(q), facets, q) for pair in pairs for q in pair
        }
        return [(probes[a], probes[b]) for a, b in pairs]

    monkeypatch.setattr(gadgets, "_probe_pairs", probe_pairs)
    monkeypatch.setattr(helpers, "slow_threshold_probe_pairs", lambda *args: pairs)
    inst = mini_instance()
    assert _outside(_hull_facets(inst.pointset), _integer_probe(outside))
    claim = oracle_claim(3, 0)
    result = check_claim(inst, claim)
    assert not result.passed
    assert result.detail == "only 2 avoid (3, 1) and (1, 1) (needed 3)"
    assert_matches_slow_check(inst, claim)


def test_probes_on_the_hull_boundary_are_kept():
    P = PointSet(3, ((0, 0, 0), (6, 0, 0), (0, 6, 0), (0, 0, 6), (1, 1, 1)))
    facets = _hull_facets(P)
    assert len(facets) == 4
    vertex, edge, facet = (6, 0, 0), (3, 3, 0), (2, 2, 2)
    for q in (vertex, edge, facet, (0, 1, 2), (1, 1, 1)):
        assert not _outside(facets, _integer_probe(tuple(map(F, q))))
    tiny = F(1, 10**9)
    for q in ((6 + tiny, 0, 0), (3, 3, -tiny), (2, 2, 2 + tiny), (-tiny, 1, 2)):
        assert _outside(facets, _integer_probe(tuple(map(F, q))))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_outside_test_agrees_with_hull_membership(dim):
    """Full-dimensional sets: outside exactly when not in the hull.  Flat
    sets (few points, repeated rows of the small grid): outside implies
    not in the hull."""
    rng = random.Random(f"outside:{dim}")
    for _ in range(30):
        n = rng.randint(1, min(7, 4**dim))
        P = random_pointset(rng, n, dim, lo=0, hi=3, distinct=False)
        facets = _hull_facets(P)
        full = helpers.affine_rank(P.points) == dim
        for _ in range(15):
            q = tuple(F(rng.randint(-2, 14), 4) for _ in range(dim))
            inside = brute_in_hull(q, P.points)
            outside = _outside(facets, _integer_probe(q))
            if full:
                assert outside == (not inside), (P.points, q)
            elif inside:
                assert not outside, (P.points, q)


@pytest.mark.parametrize("dim", [2, 3])
def test_probe_outside_the_hull_changes_no_oracle_answer(dim):
    """The lemma behind the reduction: a probe strictly outside conv(P)
    leaves every oracle answer as the other probe alone gives it, with or
    without stop_at, and alone it leaves all of P."""
    rng = random.Random(f"lemma:{dim}")
    for _ in range(20):
        P = random_pointset(rng, rng.randint(2, 7), dim, lo=0, hi=4, distinct=False)
        weights = [rng.randint(0, 3) for _ in P.points]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        q_in = tuple(
            sum(w * p[a] for w, p in zip(weights, P.points)) / total
            for a in range(dim)
        )
        while True:
            q_out = tuple(F(rng.randint(-4, 20), 4) for _ in range(dim))
            if not brute_in_hull(q_out, P.points):
                break
        assert max_subset_avoiding_witness(P, [q_out]) == (P.n, tuple(range(P.n)))
        for stop_at in (None, 1, 2, 3, P.n):
            want = max_subset_avoiding_witness(P, [q_in], stop_at)
            assert max_subset_avoiding_witness(P, [q_out, q_in], stop_at) == want
            assert max_subset_avoiding_witness(P, [q_in, q_out], stop_at) == want


def random_claim_points(rng, dim, n):
    """n points in general, collinear or (in 3D) coplanar position, on a
    half-integer grid, with a repeated point now and then."""
    shape = rng.choice(["general", "collinear", "coplanar"][: dim + 1])
    dirs = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(2)]
    base = [rng.randint(0, 6) for _ in range(dim)]
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.15:
            pts.append(rng.choice(pts))
        elif shape == "general":
            pts.append(tuple(F(rng.randint(0, 12), 2) for _ in range(dim)))
        else:
            spans = dirs if shape == "coplanar" else dirs[:1]
            s = [F(rng.randint(-4, 4), 2) for _ in spans]
            pts.append(
                tuple(
                    base[a] + sum(c * v[a] for c, v in zip(s, spans))
                    for a in range(dim)
                )
            )
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_witness_hull_claims_match_slow_check(dim, monkeypatch):
    """Seeded random claims against querying the oracle on every pair,
    thresholds 1..n+1: general, collinear and coplanar sets with repeated
    points, SubsetHull witnesses (their centroids join the sample) and
    lattice pairs.  Some claims must fail after witness hulls settled
    pairs, so the first failing pair is found past settled ones."""
    import epsnet.gadgets as gadgets

    settled = [0]
    shared_hull = gadgets._shared_hull

    def counted(*args):
        found = shared_hull(*args)
        settled[0] += found
        return found

    monkeypatch.setattr(gadgets, "_shared_hull", counted)
    rng = random.Random(f"witness-hulls:{dim}")
    outcomes = Counter()
    for _ in range(40):
        n = rng.randint(2, 7)
        pts = random_claim_points(rng, dim, n)
        hulls = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            for _ in range(rng.randint(0, 2))
        ]
        inst = degenerate_instance(dim, pts, hulls)
        trials = rng.choice([0, 60, 200])
        for threshold in range(1, n + 2):
            claim = oracle_claim(threshold, trials, rng.randrange(100))
            settled[0] = 0
            fast = check_claim(inst, claim)
            slow = slow_check_oracle_threshold(inst, claim)
            assert (fast.passed, fast.detail) == (slow.passed, slow.detail), (
                inst.pointset.points,
                hulls,
                claim,
            )
            outcomes[fast.passed, settled[0] > 0] += 1
    # passing and failing claims, both after pairs settled on witness hulls
    assert outcomes[True, True] and outcomes[False, True], outcomes


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_subset_facets_match_the_subset_pointset(dim):
    """``_hull_facets(P, idx)`` reads P's integer coordinates and gives the
    facets of ``PointSet(dim, subset)``: full-dimensional, flat, collinear
    and duplicated subsets, on half-integer coordinates."""
    rng = random.Random(f"subset-facets:{dim}")
    shapes = Counter()
    for _ in range(60):
        n = rng.randint(1, 8)
        P = PointSet(dim, tuple(random_claim_points(rng, dim, n)))
        idx = rng.sample(range(n), rng.randint(1, n))
        sub = [P.points[i] for i in idx]
        shapes[helpers.affine_rank(sub), len(set(sub)) < len(sub)] += 1
        want = _hull_facets(PointSet(dim, tuple(sub)))
        assert _hull_facets(P, idx) == want, (P.points, idx)
    assert {rank for rank, _ in shapes} == set(range(dim + 1)), shapes
    assert any(dup for _, dup in shapes), shapes


@pytest.mark.parametrize("name, bound", [("hexagon-3d", 20), ("simplex-3", 10)])
def test_witness_hulls_bound_the_oracle_work(name, bound):
    """Certifying a 3D gadget builds few oracle masks: 528 on hexagon3d and
    503 on simplex(3) when every probe inside conv(P) went to the oracle."""
    inst = gadget_hexagon_3d() if name == "hexagon-3d" else gadget_simplex(3)
    _candidate_masks.cache_clear()
    assert certify(inst).passed
    assert _candidate_masks.cache_info().misses <= bound


def rational_3d_instance():
    pts = [
        (F(1, 2), F(-1, 3), F(2, 7)),
        (F(5, 3), F(1, 4), F(-3, 5)),
        (F(-7, 6), F(9, 8), F(1, 9)),
        (F(2, 5), F(-4, 3), F(11, 10)),
        (F(0), F(1, 6), F(-5, 7)),
    ]
    return degenerate_instance(3, pts, [(0, 1, 2)])


@pytest.mark.parametrize("name", ["five-clusters-2", "rational-3d"])
def test_probe_pairs_match_fraction_lattice(name):
    inst = gadget_five_clusters(2) if name == "five-clusters-2" else rational_3d_instance()
    assert any(
        c.denominator > 1 for box in inst.pointset.bounding_box() for c in box
    )
    structured = len(threshold_probe_pairs(inst, 0, 5))
    for seed in (5, 53):
        trials = structured + 300
        got = threshold_probe_pairs(inst, trials, seed)
        assert len(got) == trials
        assert got == slow_threshold_probe_pairs(inst, trials, seed)


# --- integer claim checks against the Fraction references -------------------


def mixed_denominator_points(rng, dim, n):
    """n points on unequal denominators, some repeated, some collinear
    with two earlier ones (on a hull edge or beyond it)."""
    pts = []
    for _ in range(n):
        roll = rng.random()
        if pts and roll < 0.15:
            pts.append(rng.choice(pts))
        elif len(pts) >= 2 and roll < 0.35:
            a, b = rng.sample(pts, 2)
            lam = F(rng.randint(-2, 6), 4)
            pts.append(tuple(x + lam * (y - x) for x, y in zip(a, b)))
        else:
            pts.append(tuple(
                F(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 7, 12)))
                for _ in range(dim)
            ))
    return pts


@pytest.mark.parametrize("seed", range(4))
def test_hull_halfspaces_match_fraction_reference(seed):
    """The integer lens hulls give the Fraction halfspaces, in order, or the
    same refusal: mixed denominators, repeated points, points on a hull
    edge, collinear and single-point subsets."""
    rng = random.Random(f"lens-hulls:{seed}")
    flat = full = 0
    for _ in range(60):
        n = rng.randint(1, 12)
        P = PointSet(2, tuple(mixed_denominator_points(rng, 2, n)))
        idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        hull = SubsetHull(P, idx)
        try:
            want = helpers.slow_hull_halfspaces(hull.points)
        except ValueError as exc:
            flat += 1
            with pytest.raises(ValueError, match=str(exc)):
                _hull_halfspaces(hull)
            continue
        full += 1
        assert _hull_halfspaces(hull) == want, (P.points, idx)
    assert flat and full
    for k in (1, 2, 3):
        inst = gadget_five_clusters(k)
        for a in range(5):
            got = inst.witnesses[f"lens_{a}"].halfspaces
            want = sum(
                (
                    helpers.slow_hull_halfspaces(inst.witnesses[name].points)
                    for name in (f"four_of_five_{a}", f"three_of_five_{a}")
                ),
                (),
            )
            assert got == want


def random_halfspace(rng, P):
    """A halfspace over mixed denominators, open or closed; its boundary
    passes through a point of P half the time."""
    while True:
        normal = tuple(
            F(rng.randint(-5, 5), rng.choice((1, 2, 3, 4))) for _ in range(P.dim)
        )
        if any(normal):
            break
    if rng.random() < 0.5:
        p = rng.choice(P.points)
        offset = sum(a * x for a, x in zip(normal, p))
    else:
        offset = F(rng.randint(-40, 40), rng.choice((1, 3, 5)))
    return Halfspace(normal, offset, closed=rng.random() < 0.6)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_count_and_membership_claims_match_fraction_reference(dim):
    """Count and membership claims on integer coordinates against testing
    each point with ``Halfspace.contains`` or the oracle masks: polytopes of
    open and closed halfspaces over mixed denominators, points and probes
    on their boundaries, repeated points, and subset hulls."""
    rng = random.Random(f"count-membership:{dim}")
    outcomes = Counter()
    boundary = {True: 0, False: 0}
    for _ in range(40):
        n = rng.randint(1, 9)
        P = PointSet(dim, tuple(mixed_denominator_points(rng, dim, n)))
        witnesses = {}
        for i in range(3):
            hs = tuple(random_halfspace(rng, P) for _ in range(rng.randint(1, 4)))
            witnesses[f"poly_{i}"] = HPolytope(dim, hs)
            for h in hs:
                boundary[h.closed] += any(
                    sum(map(mul, h.normal, p)) == h.offset for p in P.points
                )
        for i in range(2):
            idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            witnesses[f"hull_{i}"] = SubsetHull(P, idx)
        inst = GadgetInstance("differential", P, {}, witnesses, ())
        for name in witnesses:
            claims = [
                CertifiedClaim(ClaimKind.COUNT, "count", (name,), expected=e)
                for e in rng.sample(range(n + 1), min(3, n + 1))
            ]
            probes = [rng.choice(P.points) for _ in range(2)] + [
                tuple(F(rng.randint(-30, 30), rng.choice((1, 2, 6))) for _ in range(dim))
                for _ in range(2)
            ]
            rng.shuffle(probes)
            claims += [
                CertifiedClaim(
                    ClaimKind.MEMBERSHIP,
                    "membership",
                    (name,),
                    probes=probes[: rng.randint(1, 4)],
                    contains=contains,
                )
                for contains in (True, False)
            ]
            for claim in claims:
                got = check_claim(inst, claim)
                slow = (
                    helpers.slow_check_count
                    if claim.kind is ClaimKind.COUNT
                    else helpers.slow_check_membership
                )
                want = slow(inst, claim)
                assert (got.passed, got.detail) == (want.passed, want.detail), (
                    P.points,
                    name,
                    claim,
                )
                outcomes[claim.kind, got.passed] += 1
    assert len(outcomes) == 4, outcomes
    assert boundary[True] and boundary[False], boundary


# --- five clusters -----------------------------------------------------------


def test_five_clusters_parameters():
    with pytest.raises(ValueError):
        gadget_five_clusters(0)
    with pytest.raises(ValueError):
        gadget_five_clusters(1, delta=0)
    with pytest.raises(ValueError, match="delta too large"):
        gadget_five_clusters(1, delta=3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_five_clusters_counts(k):
    inst = gadget_five_clusters(k)
    assert inst.pointset.n == 5 * k
    report = certify(inst)
    for result in report.results:
        if result.claim.kind is ClaimKind.COUNT:
            assert result.passed, result.detail


def test_five_clusters_points_stay_in_discs():
    delta = F(1, 3)
    inst = gadget_five_clusters(3, delta=delta)
    pts = inst.pointset.points
    for m in range(5):
        cx, cy = pts[3 * m]  # innermost point sits on the vertex
        for j in range(3):
            px, py = pts[3 * m + j]
            assert (px - cx) ** 2 + (py - cy) ** 2 <= delta * delta


def test_five_clusters_cluster_hulls_disjoint():
    inst = gadget_five_clusters(3)
    P = inst.pointset
    hulls = [SubsetHull(P, tuple(range(3 * m, 3 * m + 3))) for m in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            assert polytopes_intersect([hulls[i], hulls[j]]) is None


def test_five_clusters_lenses_share_the_origin():
    """The honest outcome: the piercing claims are false, and provably so.

    Any convex set holding more than 3n/5 of the points meets at least four
    of the five clusters, so it contains the origin; both witnesses of every
    lens are such sets.  The certificate must report exactly that.
    """
    inst = gadget_five_clusters(2)
    lenses = [inst.witness(f"lens_{a}") for a in range(5)]
    origin = (F(0), F(0))
    for lens in lenses:
        assert lens.contains(origin)
    assert polytopes_intersect(lenses) is not None
    report = certify(inst)
    verdicts = {r.claim.kind: r for r in report.results}
    assert not verdicts[ClaimKind.PAIRWISE_DISJOINT].passed
    assert not verdicts[ClaimKind.NOT_TWO_PIERCEABLE].passed
    assert not report.passed


def test_five_clusters_certify_solves_each_lens_pair_once(monkeypatch):
    """The pairwise-disjoint and not-two-pierceable claims share the 10
    lens-pair LPs: 10 of them plus the one LP over all five lenses that
    pierces the family; each claim checked alone solves its own."""
    import epsnet.gadgets
    import epsnet.geometry
    import epsnet.verification

    inst = gadget_five_clusters(3)
    alone = [check_claim(inst, c) for c in inst.claims]
    calls = []

    def counted(family):
        calls.append(len(family))
        return polytopes_intersect(family)

    for module in (epsnet.geometry, epsnet.gadgets, epsnet.verification):
        monkeypatch.setattr(module, "polytopes_intersect", counted)
    report = certify(inst)
    assert Counter(calls) == {2: 10, 5: 1}
    assert list(report.results) == alone


@pytest.mark.xfail(
    strict=True,
    reason="unattainable: every witness over the 3n/5 threshold contains"
    " the origin, so the five lenses always share a point",
)
def test_five_clusters_lenses_disjoint():
    report = certify(gadget_five_clusters(1))
    result = next(
        r
        for r in report.results
        if r.claim.kind is ClaimKind.PAIRWISE_DISJOINT
    )
    assert result.passed


@pytest.mark.xfail(
    strict=True,
    reason="unattainable: one point at the origin pierces all five lenses",
)
def test_five_clusters_not_two_pierceable():
    report = certify(gadget_five_clusters(1))
    result = next(
        r
        for r in report.results
        if r.claim.kind is ClaimKind.NOT_TWO_PIERCEABLE
    )
    assert result.passed


def test_five_clusters_rotation_preserves_verdicts(monkeypatch):
    import epsnet.gadgets as gadgets

    base = certify(gadget_five_clusters(2))
    rotated_pentagon = gadgets._PENTAGON[1:] + gadgets._PENTAGON[:1]
    monkeypatch.setattr(gadgets, "_PENTAGON", rotated_pentagon)
    rotated = certify(gadget_five_clusters(2))
    assert [r.passed for r in base.results] == [
        r.passed for r in rotated.results
    ]


# --- hexagon with poles -------------------------------------------------------


@pytest.fixture(scope="module")
def hexagon():
    return gadget_hexagon_3d()


def test_hexagon_certifies(hexagon):
    report = certify(hexagon)
    assert report.passed, [r.detail for r in report.failures()]
    assert len(report.results) == 23


def test_hexagon_shape(hexagon):
    pts = hexagon.pointset.points
    assert hexagon.pointset.n == 8
    assert pts[6] == (0, 0, 1)
    assert pts[7] == (0, 0, -1)
    ring = [p[:2] for p in pts[:6]]
    for i in range(6):
        a, b, c = ring[i], ring[(i + 1) % 6], ring[(i + 2) % 6]
        assert orient2d(a, b, c) > 0  # strictly convex, counterclockwise


def test_hexagon_threshold_beats_three_fifths():
    # five survivors out of eight is strictly better than the planar corner
    assert F(5, 8) > F(3, 5)


def test_hexagon_hard_pairs(hexagon):
    P = hexagon.pointset
    origin = (F(0), F(0), F(0))
    assert max_subset_avoiding(P, [origin, origin]) >= 5
    for v in P.points[:6]:
        assert max_subset_avoiding(P, [v, origin], stop_at=5) >= 5


def test_hexagon_probe_pairs_extend(hexagon):
    structured = threshold_probe_pairs(hexagon, 0, 53)
    longer = threshold_probe_pairs(hexagon, len(structured) + 40, 53)
    assert longer[: len(structured)] == structured
    assert len(longer) == len(structured) + 40


def test_hexagon_flattened_pole_fails(hexagon):
    pts = list(hexagon.pointset.points)
    pts[6] = (F(0), F(0), F(0))
    P2 = PointSet(3, tuple(pts))
    witnesses = {
        name: SubsetHull(P2, b.indices) if isinstance(b, SubsetHull) else b
        for name, b in hexagon.witnesses.items()
    }
    tampered = GadgetInstance(
        hexagon.name, P2, hexagon.parameters, witnesses, hexagon.claims
    )
    report = certify(tampered)
    assert not report.passed
    failed_kinds = {r.claim.kind for r in report.failures()}
    assert ClaimKind.STRICT_SIDE in failed_kinds


# --- simplex with poles -------------------------------------------------------


def test_simplex_requires_dimension():
    with pytest.raises(ValueError):
        gadget_simplex(2)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_simplex_certifies(d):
    inst = gadget_simplex(d)
    assert inst.pointset.n == d + 2
    report = certify(inst)
    assert report.passed, [r.detail for r in report.failures()]


def test_simplex_top_cones_meet_at_the_pole():
    inst = gadget_simplex(4)
    cones = [inst.witness(f"top_cone_{i}") for i in range(1, 5)]
    assert polytopes_intersect(cones) is not None
    top = inst.pointset.points[4]
    for cone in cones:
        assert point_in_hull(top, cone)


def test_simplex_pole_heights():
    inst = gadget_simplex(5)
    pts = inst.pointset.points
    assert pts[5][4] == 1 and pts[6][4] == -1
    assert all(p[4] == 0 for p in pts[:5])
    # base vertices average to the origin
    d = 5
    for axis in range(d - 1):
        assert sum(p[axis] for p in pts[:d]) == 0
