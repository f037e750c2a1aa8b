"""Acceptance gate: one test, and one pass/fail line, per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
verdict lines.  Criterion 8 is expected to fail and is marked strict-xfail:
the two piercing claims it demands are geometrically unattainable for any
point set with the required count structure (the analysis lives with the
five-cluster gadget's docstring and the reviewer notes).
"""

import json
import shutil
import time
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

from epsnet.cli import main
from epsnet.constructions import (
    box_median_point,
    construct_box_pair_highd,
    construct_box_triple_2d,
    construct_convex_pair,
)
from epsnet.gadgets import (
    ClaimKind,
    certify,
    gadget_five_clusters,
    gadget_hexagon_3d,
    gadget_simplex,
    threshold_probe_pairs,
)
from epsnet.geometry import hull2d, integer_coords
from epsnet.ranges import EpsilonProfile, WeightedNet, max_subset_avoiding
from epsnet.verification import (
    counting_bound,
    verify_weighted_net_boxes,
    verify_weighted_net_convex,
)
from helpers import (
    brute_max_subset_avoiding_2d,
    brute_verify_boxes,
    point_in_convex_polygon,
    random_pointset,
)

DATA = Path(__file__).parent / "data"


def test_criterion_01_box_pairs_verify_on_100_random_sets():
    eps = EpsilonProfile((F(3, 7), F(4, 7)))
    sizes = [14] * 34 + [35] * 33 + [70] * 33
    started = time.perf_counter()
    for i, n in enumerate(sizes):
        P = random_pointset(Random(1000 + i), n, 2)
        net, _ = construct_box_pair_highd(P, eps)
        report = verify_weighted_net_boxes(P, net)
        assert report.passed, f"set {i} (n={n}): {report.violations[:1]}"
    assert time.perf_counter() - started < 60


def test_criterion_02_box_triples_verify_on_100_random_sets():
    eps = EpsilonProfile((F(3, 8), F(1, 2), F(5, 8)))
    sizes = [16] * 34 + [40] * 33 + [80] * 33
    started = time.perf_counter()
    for i, n in enumerate(sizes):
        P = random_pointset(Random(2000 + i), n, 2)
        net, _ = construct_box_triple_2d(P, eps)
        report = verify_weighted_net_boxes(P, net)
        assert report.passed, f"set {i} (n={n}): {report.violations[:1]}"
    assert time.perf_counter() - started < 120


def test_criterion_03_median_point_is_a_half_net_in_500_runs():
    for i in range(500):
        rng = Random(3000 + i)
        d = 1 + i % 3
        n = rng.randint(d + 2, 60)
        P = random_pointset(rng, n, d, lo=-60, hi=60)
        net = box_median_point(P)
        assert net.profile.eps == (F(1, 2),)
        report = verify_weighted_net_boxes(P, net)
        assert report.passed, f"run {i} (n={n}, d={d}): {report.violations[:1]}"


def test_criterion_04_convex_pairs_verify_on_50_random_sets():
    eps = EpsilonProfile((F(3, 5), F(4, 5)))
    sizes = [10] * 17 + [15] * 17 + [20] * 16
    started = time.perf_counter()
    for i, n in enumerate(sizes):
        P = random_pointset(Random(4000 + i), n, 2, no_collinear=True)
        net, _ = construct_convex_pair(P, eps)
        report = verify_weighted_net_convex(P, net)
        assert report.passed, f"set {i} (n={n}): {report.violations[:1]}"
    assert time.perf_counter() - started < 600


def test_criterion_05_counting_bound_strictly_exceeded_1000_times():
    checked = 0
    for i in range(1000):
        rng = Random(5000 + i)
        n = rng.randint(6, 15)
        P = random_pointset(rng, n, 2, distinct=False)
        scale, ipts = integer_coords(P)
        e1 = F(rng.randint(20, 60), 100)
        e2 = F(rng.randint(int(e1 * 100), 90), 100)
        profile = EpsilonProfile((e1, e2))
        smalls, bigs = [], []
        for _ in range(40):
            size = rng.randint(2, n)
            hull = hull2d(sorted(rng.sample(ipts, size)))
            cnt = sum(1 for p in ipts if point_in_convex_polygon(p, hull) >= 0)
            if cnt > e1 * n and cnt <= e2 * n and len(smalls) < 3:
                smalls.append(hull)
            elif cnt > e2 * n and len(bigs) < 2:
                bigs.append(hull)
        if not smalls and not bigs:
            bigs.append(hull2d(sorted(ipts)))  # the full hull is always big
        family = smalls + bigs
        measured = sum(
            1
            for p in ipts
            if all(point_in_convex_polygon(p, h) >= 0 for h in family)
        )
        bound = counting_bound(n, len(smalls), len(bigs), profile)
        assert measured > bound, f"instance {i}: {measured} <= {bound}"
        checked += 1
    assert checked == 1000


def test_criterion_06_hexagon_certifies_and_10k_pair_sweep_is_clean():
    instance = gadget_hexagon_3d()
    report = certify(instance)
    assert report.passed, [r.detail for r in report.failures()]
    pairs = threshold_probe_pairs(instance, 10_000, seed=53)
    structured = threshold_probe_pairs(instance, 0, seed=53)
    assert pairs[: len(structured)] == structured
    assert len(pairs) >= 10_000
    for p1, p2 in pairs:
        size = max_subset_avoiding(instance.pointset, [p1, p2], stop_at=5)
        assert size >= 5, f"pair {p1}, {p2} admits only {size}"


def test_criterion_07_simplex_certifies_d3_to_d6_and_d3_sweep_is_clean():
    for d in (3, 4, 5, 6):
        report = certify(gadget_simplex(d))
        assert report.passed, (d, [r.detail for r in report.failures()])
    instance = gadget_simplex(3)
    pairs = threshold_probe_pairs(instance, 10_000, seed=59)
    assert len(pairs) >= 10_000
    for p1, p2 in pairs:
        size = max_subset_avoiding(instance.pointset, [p1, p2], stop_at=3)
        assert size >= 3, f"pair {p1}, {p2} admits only {size}"


@pytest.mark.xfail(
    strict=True,
    reason="unattainable: with the required cluster counts, every witness"
    " region contains the pentagon centre, so the five overlap regions are"
    " neither pairwise disjoint nor safe from a single piercing point;"
    " the count claims themselves do hold (see test_gadgets)",
)
def test_criterion_08_five_cluster_regions_disjoint_and_not_two_pierceable():
    for k in (1, 2, 3):
        report = certify(gadget_five_clusters(k))
        for result in report.results:
            if result.claim.kind is ClaimKind.COUNT:
                assert result.passed, result.detail
        assert report.passed, [r.claim.label for r in report.failures()]


def test_criterion_09_exact_verifiers_match_brute_force_on_200_instances():
    for i in range(200):
        rng = Random(9000 + i)
        n = rng.randint(4, 12)
        # pairwise-distinct coordinates per axis; the box verifier also takes
        # repeated ones, which test_box_verifier_matches_bruteforce covers
        P = random_pointset(rng, n, 2)
        lo, hi = -55, 55
        k = rng.randint(1, 2)
        net_pts = tuple(
            (F(rng.randint(lo, hi)), F(rng.randint(lo, hi))) for _ in range(k)
        )
        counts = sorted(rng.sample(range(1, n), k)) if n > k else [1] * k
        profile = EpsilonProfile(tuple(F(c, n) for c in counts))
        net = WeightedNet(net_pts, profile)
        report = verify_weighted_net_boxes(P, net)
        assert list(report.verdicts) == brute_verify_boxes(P, net), f"instance {i}"
        avoid = [rng.choice(net_pts), rng.choice(P.points)][: rng.randint(1, 2)]
        assert max_subset_avoiding(P, avoid) == brute_max_subset_avoiding_2d(
            P, avoid
        ), f"instance {i}"


def test_criterion_10_cli_reports_and_svgs_byte_identical(
    tmp_path, monkeypatch, capsys
):
    for name in ("points14.json", "points8.json", "net_far.json"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    commands = {
        "construct": [
            "construct", "--ranges", "boxes", "--size", "2",
            "--eps", "3/7,4/7", "--input", "points14.json",
            "--verify", "--svg", "construct.svg",
        ],
        "verify": [
            "verify", "--input", "points14.json", "--net", "net_far.json",
            "--eps", "1/2", "--ranges", "boxes",
        ],
        "gadget": [
            "gadget", "--name", "five-clusters", "--k", "1",
            "--out", "five.json", "--certify", "--svg", "five.svg",
        ],
        "search": [
            "search", "--ranges", "boxes", "--size", "1",
            "--input", "points8.json", "--candidates", "grid:4",
        ],
    }
    artifacts = {
        "construct": ["construct.svg"],
        "gadget": ["five.json", "five.json.claims.json", "five.svg"],
    }
    for label, argv in commands.items():
        runs = []
        for _ in range(4):
            code = main(list(argv))
            out = capsys.readouterr().out
            files = tuple(
                (tmp_path / f).read_text() for f in artifacts.get(label, [])
            )
            runs.append((code, out, files))
        first = runs[0]
        assert all(r == first for r in runs[1:]), f"{label} output drifted"
        json.loads(first[1])  # the stdout report is well-formed JSON
