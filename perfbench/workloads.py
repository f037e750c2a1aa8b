"""Seeded inputs and the operations of each workload.

An operation is one ``epsnet`` CLI invocation: its argv, the exit code a
correct program returns, and a check of its report against this
benchmark's own computations (``checks``).  Inputs are generated here from
the workload seed with ``random.Random``, never by calling epsnet, so the
parent process that forks the operations keeps empty program caches.

Each round holds the same recipes in the same order; round ``r`` of seed
``s`` draws fresh point sets from ``Random(f"{workload}:{s}:{r}")``, so a
run averages over inputs as well as over repetitions.
"""

from __future__ import annotations

import json
import os
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks


@dataclass
class Op:
    recipe: str
    argv: list
    expect_rc: int
    check: Callable[[dict], list]  # report -> problems found


# ---------------------------------------------------------------------------
# point sets


def distinct_coords(rng: random.Random, n: int, d: int, span: int) -> list:
    """n integer points with pairwise distinct coordinates on every axis."""
    cols = [rng.sample(range(-span, span + 1), n) for _ in range(d)]
    return [tuple(p) for p in zip(*cols)]


def general_position_2d(rng: random.Random, n: int, span: int) -> list:
    """n integer points, distinct per axis, no three on a line."""
    pts: list = []
    xs: set = set()
    ys: set = set()
    while len(pts) < n:
        p = (rng.randint(-span, span), rng.randint(-span, span))
        if p[0] in xs or p[1] in ys:
            continue
        if any(
            checks.orient(a, b, p) == 0
            for i, a in enumerate(pts)
            for b in pts[i + 1:]
        ):
            continue
        pts.append(p)
        xs.add(p[0])
        ys.add(p[1])
    return pts


def write_points(path: str, pts: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": len(pts[0]), "points": [list(p) for p in pts]}, fh)


def _eps(text: str) -> list:
    return [Fraction(e) for e in text.split(",")]


# ---------------------------------------------------------------------------
# report checks shared by recipes


def _input_problems(report: dict, pts: list) -> list:
    doc = report.get("input", {})
    if doc.get("n") != len(pts) or doc.get("dim") != len(pts[0]):
        return [f"input section {doc} does not describe {len(pts)} points"]
    return []


def _svg_problems(path: str, dots: int) -> list:
    """The figure parses as SVG and draws one dot per input point."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"figure {path}: {exc}"]
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    if len(circles) != dots:
        return [f"figure {path} draws {len(circles)} dots, expected {dots}"]
    return []


def _net_of(report: dict, k: int) -> tuple:
    net = report["construction"]["net"]
    points = [checks.parse_point(p) for p in net["points"]]
    if len(points) != k:
        raise ValueError(f"net has {len(points)} points, expected {k}")
    return points, [checks.parse_q(e) for e in net["epsilon"]]


# ---------------------------------------------------------------------------
# box-nets


def _box_construct(workdir, recipe, r, pts, size, eps_text, svg):
    tag = f"{recipe}-r{r}"
    path = os.path.join(workdir, f"{tag}.json")
    write_points(path, pts)
    argv = ["construct", "--ranges", "boxes", "--size", str(size),
            "--eps", eps_text, "--input", path, "--verify"]
    figure = os.path.join(workdir, f"{tag}.svg") if svg else None
    if figure:
        argv += ["--svg", figure]
    eps = _eps(eps_text)

    def check(report):
        problems = _input_problems(report, pts)
        net, got_eps = _net_of(report, size)
        if got_eps != eps:
            problems.append(f"net profile {got_eps} != requested {eps}")
        verdicts = checks.box_net_levels(pts, net, eps)
        if not all(verdicts):
            problems.append(f"net fails box levels {verdicts}")
        ver = report.get("verification", {})
        if ver.get("verdicts") != verdicts:
            problems.append(f"reported verdicts {ver.get('verdicts')} != {verdicts}")
        if figure:
            problems += _svg_problems(figure, len(pts))
        return problems

    return Op(recipe, argv, 0, check)


def box_nets(rng, workdir, r):
    return [
        _box_construct(workdir, "box-triple", r,
                       distinct_coords(rng, 110, 2, 10_000), 3, "3/8,1/2,5/8", True),
        _box_construct(workdir, "box-pair-2d", r,
                       distinct_coords(rng, 300, 2, 10_000), 2, "3/7,4/7", False),
        _box_construct(workdir, "box-pair-3d", r,
                       distinct_coords(rng, 200, 3, 10_000), 2, "9/19,10/19", True),
    ]


# ---------------------------------------------------------------------------
# convex-nets

CONVEX_EPS = "3/5,4/5"
# the convex-pair constructor enumerates no hulls in the plane, but it
# refuses inputs whose C(n, t) family exceeds its budget; lift the cap
LARGE_BUDGET = str(10 ** 18)


def _convex_construct(workdir, recipe, r, pts, verify):
    tag = f"{recipe}-r{r}"
    path = os.path.join(workdir, f"{tag}.json")
    write_points(path, pts)
    argv = ["construct", "--ranges", "convex", "--size", "2",
            "--eps", CONVEX_EPS, "--input", path]
    argv += ["--verify"] if verify else ["--budget", LARGE_BUDGET]
    eps = _eps(CONVEX_EPS)
    n = len(pts)

    def check(report):
        problems = _input_problems(report, pts)
        net, _ = _net_of(report, 2)
        verdicts = checks.convex_net_levels_by_halfplanes(pts, net, eps)
        if n <= 16:
            by_subsets = checks.convex_net_levels_by_subsets(pts, net, eps)
            if by_subsets != verdicts:
                problems.append(f"checker disagreement {by_subsets} vs {verdicts}")
        if not all(verdicts):
            problems.append(f"net fails convex levels {verdicts}")
        if verify:
            ver = report.get("verification", {})
            if ver.get("verdicts") != verdicts:
                problems.append(f"reported verdicts {ver.get('verdicts')} != {verdicts}")
            examined = checks.convex_verify_examined(n, eps)
            if ver.get("ranges_examined") != examined:
                problems.append(
                    f"ranges_examined {ver.get('ranges_examined')} != {examined}"
                )
        return problems

    return Op(recipe, argv, 0, check)


def convex_nets(rng, workdir, r):
    return [
        _convex_construct(workdir, "convex-verify-a", r,
                          general_position_2d(rng, 14, 1000), True),
        _convex_construct(workdir, "convex-large", r,
                          general_position_2d(rng, 48, 1000), False),
        _convex_construct(workdir, "convex-verify-b", r,
                          general_position_2d(rng, 14, 1000), True),
    ]


# ---------------------------------------------------------------------------
# gadget-certify

# The lens claims of five-clusters are false (every lens contains the
# pentagon's centre, the origin), so certification must fail on exactly
# these two kinds and exit 3.
LENS_CLAIM_KINDS = {"pairwise-disjoint", "not-two-pierceable"}


def _gadget(workdir, name, extra, n_points, dim):
    recipe = name + "".join(extra[1::2])
    out = os.path.join(workdir, f"gadget-{recipe}.json")
    argv = ["gadget", "--name", name, *extra, "--out", out, "--certify"]
    five = name == "five-clusters"

    def check(report):
        problems = []
        with open(out, encoding="utf-8") as fh:
            written = json.load(fh)
        if written.get("dim") != dim or len(written.get("points", [])) != n_points:
            problems.append(f"{out} does not hold {n_points} points in d={dim}")
        with open(out + ".claims.json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        claims = report.get("certification", {}).get("claims", [])
        labels = [c["label"] for c in claims]
        if not claims or labels != [c["label"] for c in sidecar["claims"]]:
            problems.append("report claims do not match the sidecar")
            return problems
        failed = [c for c in claims if not c["passed"]]
        if not five:
            if failed:
                problems.append(f"claims failed: {[c['label'] for c in failed]}")
            return problems
        if sorted(c["kind"] for c in failed) != sorted(LENS_CLAIM_KINDS):
            problems.append(f"expected exactly the two lens claims to fail, got {failed}")
        witnesses = sidecar["witnesses"]
        for spec in sidecar["claims"]:
            if spec["kind"] in LENS_CLAIM_KINDS:
                for w in spec["witnesses"]:
                    if not checks.halfspaces_contain(witnesses[w]["halfspaces"], (0, 0)):
                        problems.append(f"{w} misses the centre")
        return problems

    return Op(recipe, argv, 3 if five else 0, check)


def gadget_certify(rng, workdir, r):
    # The gadgets are fixed configurations: the seed does not change them.
    # five-clusters k=3 runs three times a round so that the median
    # operation falls inside one recipe's cluster of samples.
    five3 = _gadget(workdir, "five-clusters", ["--k", "3"], 15, 2)
    return [
        _gadget(workdir, "five-clusters", ["--k", "1"], 5, 2),
        _gadget(workdir, "simplex", ["--dim", "4"], 6, 4),
        five3,
        _gadget(workdir, "five-clusters", ["--k", "2"], 10, 2),
        _gadget(workdir, "hexagon3d", [], 8, 3),
        five3,
        _gadget(workdir, "simplex", ["--dim", "5"], 7, 5),
        _gadget(workdir, "simplex", ["--dim", "3"], 5, 3),
        five3,
    ]


# ---------------------------------------------------------------------------
# search


def _search(workdir, recipe, r, pts, ranges, candidates):
    tag = f"{recipe}-r{r}"
    path = os.path.join(workdir, f"{tag}.json")
    write_points(path, pts)
    argv = ["search", "--ranges", ranges, "--size", "2", "--input", path,
            "--candidates", candidates]
    n = len(pts)

    def check(report):
        problems = _input_problems(report, pts)
        doc = report["search"]
        net = [checks.parse_point(p) for p in doc["best"]["points"]]
        counts = tuple(checks.parse_q(e) * n for e in doc["best"]["epsilon"])
        if ranges == "boxes":
            want = checks.box_search_counts(pts, net)
            R = int(candidates.split(":")[1])
            family = (R + 1) ** 2
        else:
            want = checks.convex_search_counts(pts, net)
            family = checks.arrangement_vertex_count(pts)
        if counts != want:
            problems.append(f"best net attains {want}, report says {counts}")
        if doc["candidates"] != family:
            problems.append(f"{doc['candidates']} candidates, expected {family}")
        if doc["nets_examined"] != family * (family + 1) // 2:
            problems.append(f"nets_examined {doc['nets_examined']} for {family} candidates")
        return problems

    return Op(recipe, argv, 0, check)


def search(rng, workdir, r):
    return [
        _search(workdir, "search-convex-7", r,
                general_position_2d(rng, 7, 100), "convex", "arrangement"),
        _search(workdir, "search-boxes-12", r,
                distinct_coords(rng, 12, 2, 100), "boxes", "grid:4"),
        _search(workdir, "search-boxes-14", r,
                distinct_coords(rng, 14, 2, 100), "boxes", "grid:4"),
    ]


WORKLOADS = {
    "box-nets": box_nets,
    "convex-nets": convex_nets,
    "gadget-certify": gadget_certify,
    "search": search,
}


def round_ops(workload: str, seed: int, r: int, workdir: str) -> list:
    """The operations of round r, with their input files written."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    return WORKLOADS[workload](rng, workdir, r)
