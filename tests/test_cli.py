"""cli: exit codes, golden reports, determinism across runs."""

import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest

import epsnet
import epsnet.cli as cli
from epsnet.cli import (
    SEARCH_MAX_N,
    _arrangement_candidates,
    _grid_candidates,
    _grid_size,
    _parse_exact,
    _search,
    build_parser,
    exit_code_for,
    main,
)
from epsnet.geometry import PointSet, hull2d, integer_coords
from epsnet.io_formats import (
    json_to_fraction,
    read_pointset,
    validate_report,
    verification_to_json,
    write_pointset,
)
from epsnet.ranges import (
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    _candidate_masks,
    box_masks,
    undominated,
)

from helpers import (
    REPEATED_11,
    brute_max_box_count,
    brute_max_subset_avoiding_2d,
    brute_verify_boxes,
    point_in_convex_polygon,
    slow_arrangement_candidates,
    slow_search,
    subset_box_counts,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    for name in ("points14.json", "points8.json", "net_far.json"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def check_golden(out, name):
    expected = (DATA / name).read_text()
    assert out == expected
    validate_report(json.loads(out))


# --- golden reports, one per command -----------------------------------------


def test_construct_golden(workspace, capsys):
    code, out = run(
        capsys,
        "construct", "--ranges", "boxes", "--size", "2",
        "--eps", "3/7,4/7", "--input", "points14.json", "--verify",
    )
    assert code == 0
    check_golden(out, "golden_construct.json")


def test_verify_golden(workspace, capsys):
    code, out = run(
        capsys,
        "verify", "--input", "points14.json", "--net", "net_far.json",
        "--eps", "1/2", "--ranges", "boxes",
    )
    assert code == 3
    check_golden(out, "golden_verify.json")


def test_gadget_golden(workspace, capsys):
    code, out = run(
        capsys,
        "gadget", "--name", "five-clusters", "--k", "1",
        "--out", "five.json", "--certify", "--svg", "five.svg",
    )
    assert code == 3  # the two piercing claims are honestly false
    check_golden(out, "golden_gadget.json")
    assert (workspace / "five.json").read_text() == (
        DATA / "golden_five_points.json"
    ).read_text()
    assert (workspace / "five.json.claims.json").read_text() == (
        DATA / "golden_five_claims.json"
    ).read_text()
    assert (workspace / "five.svg").read_text() == (
        DATA / "golden_five.svg"
    ).read_text()


def test_search_golden(workspace, capsys):
    code, out = run(
        capsys,
        "search", "--ranges", "boxes", "--size", "1",
        "--input", "points8.json", "--candidates", "grid:4",
    )
    assert code == 0
    check_golden(out, "golden_search.json")


def test_hexagon_svg_golden(workspace, capsys):
    code, _ = run(
        capsys,
        "gadget", "--name", "hexagon3d", "--out", "hex.json",
        "--svg", "hexagon.svg",
    )
    assert code == 0
    assert (workspace / "hexagon.svg").read_text() == (
        DATA / "golden_hexagon.svg"
    ).read_text()


# --- determinism --------------------------------------------------------------


def test_reports_identical_across_runs(workspace, capsys):
    argv = ("gadget", "--name", "hexagon3d", "--out", "hex.json", "--certify")
    outputs = []
    for _ in range(3):
        code, out = run(capsys, *argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_report_file_matches_stdout(workspace, capsys):
    code, out = run(
        capsys,
        "verify", "--input", "points14.json", "--net", "net_far.json",
        "--eps", "1/2", "--ranges", "boxes", "--report", "report.json",
    )
    assert code == 3
    assert (workspace / "report.json").read_text() == out


# --- exit codes ----------------------------------------------------------------


def test_exit_code_is_a_function_of_the_report():
    assert exit_code_for({"schema": "s", "command": []}) == 0
    assert exit_code_for({"error": "boom"}) == 2
    assert exit_code_for({"budget": {"exceeded": True}}) == 4
    assert exit_code_for({"verification": {"passed": False}}) == 3
    assert exit_code_for({"certification": {"passed": False}}) == 3
    assert exit_code_for({"verification": {"passed": True}}) == 0


def test_construct_rejects_failing_conditions(workspace, capsys):
    code, out = run(
        capsys,
        "construct", "--ranges", "convex", "--size", "2",
        "--eps", "1/2,4/5", "--input", "points14.json",
    )
    assert code == 2
    assert "(ii)" in json.loads(out)["error"]


def test_construct_rejects_profile_length_mismatch(workspace, capsys):
    code, out = run(
        capsys,
        "construct", "--ranges", "boxes", "--size", "2",
        "--eps", "1/2", "--input", "points14.json",
    )
    assert code == 2
    assert "epsilon values" in json.loads(out)["error"]


@pytest.mark.parametrize("d", [1, 3])
def test_construct_box_triple_names_options_and_dimension(workspace, capsys, d):
    rng = random.Random(d)
    pts = [[rng.randint(-99, 99) for _ in range(d)] for _ in range(12)]
    (workspace / "pts.json").write_text(json.dumps({"dim": d, "points": pts}))
    code, out = run(
        capsys,
        "construct", "--ranges", "boxes", "--size", "3",
        "--eps", "3/8,1/2,5/8", "--input", "pts.json",
    )
    assert code == 2
    assert json.loads(out)["error"] == (
        f"--ranges boxes --size 3 needs planar input (d = 2), got d = {d}"
    )


@pytest.mark.parametrize("size, eps", [(2, "3/7,4/7"), (3, "3/8,1/2,5/8")])
def test_construct_verify_runs_the_box_verifier_once(
    workspace, capsys, monkeypatch, size, eps
):
    """The constructor's self-check is the report's verification section:
    the box verifier runs once, and the section is that of verifying the
    constructed net afresh."""
    import epsnet.constructions
    import epsnet.verification

    calls = []
    verify = epsnet.verification.verify_weighted_net_boxes

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(epsnet.constructions, "verify_weighted_net_boxes", counted)
    monkeypatch.setattr(epsnet.verification, "verify_weighted_net_boxes", counted)
    code, out = run(
        capsys,
        "construct", "--ranges", "boxes", "--size", str(size),
        "--eps", eps, "--input", "points14.json", "--verify",
    )
    assert code == 0
    assert len(calls) == 1
    doc = json.loads(out)
    P = read_pointset("points14.json")
    points = doc["construction"]["net"]["points"]
    net = WeightedNet(
        tuple(tuple(map(json_to_fraction, q)) for q in points),
        EpsilonProfile(tuple(F(e) for e in eps.split(","))),
    )
    want = verification_to_json(verify(P, net))
    assert doc["verification"] == json.loads(json.dumps(want))


def test_verify_budget_exceeded(workspace, capsys):
    code, out = run(
        capsys,
        "verify", "--input", "points14.json", "--net", "net_far.json",
        "--eps", "1/7", "--ranges", "convex", "--budget", "100",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["budget"]["exceeded"] is True
    assert doc["budget"]["required"] > 100
    validate_report(doc)


def test_construct_planar_convex_pair_over_subset_budget(workspace, capsys):
    # C(30, 19) + C(30, 25) subset hulls exceed the default --budget, but
    # the planar construction enumerates none of them, and the verifier
    # settles both passing levels with the avoidance oracle.  (i, i^2 mod 61)
    # has no three points on a line and distinct coordinates for i < 30.
    pts = [[i, i * i % 61] for i in range(30)]
    (workspace / "parabola30.json").write_text(json.dumps({"dim": 2, "points": pts}))
    code, out = run(
        capsys,
        "construct", "--ranges", "convex", "--size", "2",
        "--eps", "3/5,4/5", "--input", "parabola30.json", "--verify",
    )
    assert code == 0
    doc = json.loads(out)
    assert "budget" not in doc
    assert doc["verification"]["verdicts"] == [True, True]
    assert doc["verification"]["ranges_examined"] == comb(30, 19) + comb(30, 25)
    validate_report(doc)


def test_construct_verify_convex_pair_on_300_points(workspace, capsys):
    # C(300, 181) + C(300, 241), about 1.5e86 subset hulls: a passing level
    # is settled by oracle queries without visiting a single one of them.
    # (i, i^2 mod 601) is in general position for i < 300, as above.
    pts = [[i, i * i % 601] for i in range(300)]
    (workspace / "parabola300.json").write_text(json.dumps({"dim": 2, "points": pts}))
    code, out = run(
        capsys,
        "construct", "--ranges", "convex", "--size", "2",
        "--eps", "3/5,4/5", "--input", "parabola300.json", "--verify",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["verdicts"] == [True, True]
    assert doc["verification"]["total_violations"] == 0
    assert doc["verification"]["ranges_examined"] == comb(300, 181) + comb(300, 241)
    validate_report(doc)


def test_verify_boxes_accepts_repeated_coordinates(workspace, capsys):
    P = PointSet(2, tuple((F(x), F(y)) for x, y in REPEATED_11))
    write_pointset("repeated.json", P)
    nets = [
        ([[3, 2]], "1/2"),
        ([[5, 5]], "1/2"),
        ([[3, 1], [1, 0]], "3/7,4/7"),
        ([[1, 0], [4, 2], [2, 2]], "1/4,1/2,3/4"),
    ]
    codes = set()
    for points, eps in nets:
        write_pointset("net.json", PointSet(2, tuple(tuple(map(F, q)) for q in points)))
        code, out = run(
            capsys,
            "verify", "--input", "repeated.json", "--net", "net.json",
            "--eps", eps, "--ranges", "boxes",
        )
        assert code in (0, 3), out
        doc = json.loads(out)
        validate_report(doc)
        profile = EpsilonProfile(tuple(F(e) for e in eps.split(",")))
        net = WeightedNet(read_pointset("net.json").points, profile)
        assert doc["verification"]["verdicts"] == brute_verify_boxes(P, net)
        codes.add(code)
    assert codes == {0, 3}


def test_missing_input_file(workspace, capsys):
    code, out = run(
        capsys,
        "verify", "--input", "nope.json", "--net", "net_far.json",
        "--eps", "1/2", "--ranges", "boxes",
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_malformed_eps(workspace, capsys):
    code, out = run(
        capsys,
        "construct", "--ranges", "boxes", "--size", "1",
        "--eps", "1/0", "--input", "points14.json",
    )
    assert code == 2


def test_gadget_stray_parameter(workspace, capsys):
    code, out = run(
        capsys, "gadget", "--name", "simplex", "--k", "2", "--out", "x.json"
    )
    assert code == 2
    assert "--k" in json.loads(out)["error"]


def test_bad_subcommand_flag_exits_2(workspace, capsys):
    with pytest.raises(SystemExit) as info:
        main(["gadget", "--name", "unknown-gadget", "--out", "x.json"])
    assert info.value.code == 2


# --- search behaviour -----------------------------------------------------------


def search_best(out):
    doc = json.loads(out)["search"]
    return [F(str(e)) for e in doc["best"]["epsilon"]]


def test_search_boxes_size1_at_most_half(workspace, capsys):
    code, out = run(
        capsys,
        "search", "--ranges", "boxes", "--size", "1", "--input", "points8.json",
    )
    assert code == 0
    assert search_best(out)[0] <= F(1, 2)


def brute_largest_avoiding(P, kind, candidates):
    """largest(avoid) over the ranges spanned by subsets of P: their
    bounding boxes (with every point inside counted) or their hulls."""
    ranges = []  # (points inside, contains)
    if kind == "boxes":
        for (lo, hi), cnt in subset_box_counts(P).items():
            ranges.append((cnt, lambda q, lo=lo, hi=hi: all(
                l <= c <= h for c, l, h in zip(q, lo, hi)
            )))
    else:
        scale, ipts = integer_coords(P)
        for mask in range(1, 1 << P.n):
            hull = hull2d(sorted(ipts[i] for i in range(P.n) if mask >> i & 1))
            ranges.append((mask.bit_count(), lambda q, hull=hull: (
                point_in_convex_polygon(tuple(c * scale for c in q), hull) >= 0
            )))
    ranges.sort(key=lambda r: -r[0])
    hits = {
        q: sum(1 << j for j, (_, contains) in enumerate(ranges) if contains(q))
        for q in candidates
    }
    full = (1 << len(ranges)) - 1

    def largest(avoid):
        free = full
        for q in avoid:
            free &= ~hits[q]
        return ranges[(free & -free).bit_length() - 1][0] if free else 0

    return largest


def brute_candidates(P, family):
    if family.startswith("grid:"):
        r = int(family[5:])
        axes = [[lo + (hi - lo) * i / r for i in range(r + 1)] for lo, hi in P.bounding_box()]
        return sorted(set(product(*axes)))
    # input points and the crossings of lines through two input points
    out = set(P.points)
    for (a, b), (c, d) in combinations(combinations(P.points, 2), 2):
        u = (b[0] - a[0], b[1] - a[1])
        v = (d[0] - c[0], d[1] - c[1])
        det = u[0] * v[1] - u[1] * v[0]
        if det != 0:
            t = ((c[0] - a[0]) * v[1] - (c[1] - a[1]) * v[0]) / det
            out.add((a[0] + t * u[0], a[1] + t * u[1]))
    return sorted(out)


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize(
    "kind,family", [("boxes", "grid:4"), ("convex", "arrangement")]
)
def test_search_matches_bruteforce(workspace, capsys, kind, family, size):
    code, out = run(
        capsys,
        "search", "--ranges", kind, "--size", str(size),
        "--input", "points8.json", "--candidates", family,
    )
    assert code == 0
    validate_report(json.loads(out))
    P = read_pointset("points8.json")
    candidates = brute_candidates(P, family)
    assert json.loads(out)["search"]["candidates"] == len(candidates)
    largest = brute_largest_avoiding(P, kind, candidates)

    def counts(net):
        if len(net) == 1:
            return (largest(net),)
        return (largest(net), max(largest((q,)) for q in net))

    best = min(
        counts(net) for net in combinations_with_replacement(candidates, size)
    )
    assert search_best(out) == [F(c, P.n) for c in best]
    reported = json.loads(out)["search"]["best"]["points"]
    net = [tuple(json_to_fraction(c) for c in q) for q in reported]
    assert counts(net) == best
    # the table agrees with the subset-by-subset oracles on the reported net
    boxes = subset_box_counts(P) if kind == "boxes" else None
    for avoid in [net] + [[q] for q in net]:
        if kind == "boxes":
            assert largest(avoid) == brute_max_box_count(boxes, avoid)
        else:
            assert largest(avoid) == brute_max_subset_avoiding_2d(P, avoid)


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("kind", ["boxes", "convex"])
@pytest.mark.parametrize("family", ["grid:3", "arrangement"])
def test_search_matches_slow_search(kind, family, size):
    """The search on candidate masks picks the same (counts, net) as the
    search that queried every net by its points, on random small sets and
    at the size caps: boxes at n = SEARCH_MAX_N with grid:3, convex sets at
    n = 7 and 8 with arrangement; box inputs repeat coordinates and
    points."""
    rng = random.Random(f"{kind}:{family}:{size}")
    kind = RangeSpaceKind(kind)
    boxes = kind is RangeSpaceKind.AXIS_PARALLEL_BOXES
    sizes = [rng.randint(2, 8) if boxes else rng.randint(3, 6) for _ in range(8)]
    if boxes and family == "grid:3":
        sizes += [SEARCH_MAX_N[kind]] * 2
    if not boxes and family == "arrangement":
        sizes += [7, 8]
    for n in sizes:
        if boxes:
            span = 3 if n <= 8 else 6
        else:
            span = 6 if n <= 6 else 20
        pts = [(F(rng.randint(0, span)), F(rng.randint(0, span))) for _ in range(n)]
        if boxes and n > 3:
            pts[-1] = pts[0]
        P = PointSet(2, tuple(pts))
        if family == "arrangement":
            candidates = _arrangement_candidates(P, kind)
        else:
            candidates = _grid_candidates(P, 3)
        assert _search(P, kind, candidates, size) == slow_search(
            P, kind, candidates, size
        ), (pts, family)


ARRANGEMENT_SETS = {
    "general-position": [(0, 0), (7, 1), (2, 9), (11, 6), (5, 4), (9, 13)],
    "collinear-triples": [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2)],
    "parallel-lines": [(0, 0), (4, 0), (0, 2), (4, 2), (1, 5), (5, 5), (2, -3)],
    "duplicate-points": [(0, 0), (3, 1), (0, 0), (1, 4), (3, 1), (5, 5)],
    "mixed-denominators": [
        (F(1, 2), F(1, 3)), (F(3, 4), F(2, 3)), (0, 0), (1, 1), (2, 2),
        (F(5, 6), F(-1, 5)), (F(7, 3), F(1, 7)), (F(-9, 10), F(4, 9)),
    ],
    "two-points": [(1, 2), (F(7, 2), -1)],
    "one-point-repeated": [(F(1, 3), 2), (F(1, 3), 2)],
}


@pytest.mark.parametrize("name", sorted(ARRANGEMENT_SETS))
def test_arrangement_candidates_match_fraction_reference(name):
    """The integer line crossings give the same candidate list, in the same
    order, as the Fraction construction."""
    P = PointSet(2, tuple(ARRANGEMENT_SETS[name]))
    got = _arrangement_candidates(P, RangeSpaceKind.CONVEX_SETS)
    assert got == slow_arrangement_candidates(P)
    assert all(type(c) is F for q in got for c in q)


def test_arrangement_candidates_match_on_random_sets():
    rng = random.Random(1313)
    for _ in range(40):
        n = rng.randint(2, 9)
        den = rng.choice([1, 2, 6])
        pts = [
            (F(rng.randint(-6, 6), den), F(rng.randint(-6, 6), rng.choice([1, 3])))
            for _ in range(n)
        ]
        P = PointSet(2, tuple(pts))
        assert _arrangement_candidates(
            P, RangeSpaceKind.CONVEX_SETS
        ) == slow_arrangement_candidates(P), pts


@pytest.mark.parametrize("name", sorted(ARRANGEMENT_SETS))
def test_box_arrangement_candidates_are_the_coordinate_grid(name):
    """Box candidates: the input points and every crossing of an input x
    with an input y, sorted, built from the integer coordinates."""
    P = PointSet(2, tuple(ARRANGEMENT_SETS[name]))
    got = _arrangement_candidates(P, RangeSpaceKind.AXIS_PARALLEL_BOXES)
    want = set(P.points)
    want.update(product({p[0] for p in P.points}, {p[1] for p in P.points}))
    assert got == sorted(want)
    assert all(type(c) is F for q in got for c in q)


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("kind", ["boxes", "convex"])
@pytest.mark.parametrize("name", sorted(ARRANGEMENT_SETS))
def test_search_on_degenerate_arrangements_matches_slow_search(name, kind, size):
    """Dominance pruning keeps (counts, net) on collinear, parallel,
    duplicate and single repeated points."""
    P = PointSet(2, tuple(ARRANGEMENT_SETS[name]))
    kind = RangeSpaceKind(kind)
    candidates = _arrangement_candidates(P, kind)
    assert _search(P, kind, candidates, size) == slow_search(
        P, kind, candidates, size
    )


def _search_masks(P, kind, candidates):
    if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        return [box_masks(P, q) for q in candidates]
    return [_candidate_masks(P, q) for q in candidates]


def test_search_answer_with_a_dominated_candidate():
    """The first best net in order may hold a candidate that a later one
    strictly dominates; the scan over all candidates still returns it."""
    P = PointSet(2, tuple(
        (F(x), F(y)) for x, y in [(0, 0), (1, 5), (4, 3), (6, 5), (2, 2), (6, 0)]
    ))
    kind = RangeSpaceKind.CONVEX_SETS
    candidates = _grid_candidates(P, 2)
    masks = _search_masks(P, kind, candidates)

    def dominates(i, j):
        return all(any(not m & ~m2 for m2 in masks[j]) for m in masks[i])

    key, net = _search(P, kind, candidates, 2)
    assert (key, net) == slow_search(P, kind, candidates, 2)
    kept = undominated(masks)
    strict = [
        i for i in map(candidates.index, net)
        if i not in kept
        and any(dominates(k, i) and not dominates(i, k) for k in range(len(masks)))
    ]
    assert strict


def test_search_queries_a_quarter_of_the_nets(monkeypatch):
    """On a 7-point set in general position the pair search runs at most a
    quarter of the c(c+1)/2 net queries of the full pair loop."""
    P = PointSet(2, tuple(
        (F(x), F(y))
        for x, y in [(0, 0), (7, 1), (2, 9), (11, 6), (5, 4), (9, 13), (14, 3)]
    ))
    kind = RangeSpaceKind.CONVEX_SETS
    candidates = _arrangement_candidates(P, kind)
    calls = []
    real = cli.max_mask_intersection

    def counting(lists, stop_at=None):
        calls.append(len(lists))
        return real(lists, stop_at)

    monkeypatch.setattr(cli, "max_mask_intersection", counting)
    got = _search(P, kind, candidates, 2)
    c = len(candidates)
    assert c == 112
    assert 0 < len(calls) <= c * (c + 1) // 2 // 4
    monkeypatch.undo()
    assert got == slow_search(P, kind, candidates, 2)


def test_grid_budget_is_checked_before_the_grid_is_built(workspace, capsys, monkeypatch):
    def unbuilt(P, resolution):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli, "_grid_candidates", unbuilt)
    code, out = run(
        capsys,
        "search", "--ranges", "convex", "--size", "2",
        "--input", "points8.json", "--candidates", "grid:100000",
    )
    assert code == 4
    c = 100001 ** 2
    assert json.loads(out)["budget"] == {
        "exceeded": True,
        "message": f"search needs {c * (c + 1) // 2} net evaluations,"
        " budget 500000; shrink the candidate family",
        "required": c * (c + 1) // 2,
    }


def test_grid_size_counts_the_grid():
    """The grid's size without building it, with flat axes too."""
    rng = random.Random(909)
    sets = [
        [(3, 1), (3, 4), (3, -2)],  # flat x
        [(0, 5), (2, 5)],  # flat y
        [(F(1, 3), 2), (F(1, 3), 2)],  # one point repeated: both flat
        [(F(1, 2), F(1, 3)), (F(3, 4), F(2, 3)), (0, 0)],
    ]
    sets += [
        [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        for _ in range(20)
    ]
    for pts in sets:
        P = PointSet(2, tuple((F(x), F(y)) for x, y in pts))
        for r in (1, 2, 5):
            assert _grid_size(P, r) == len(_grid_candidates(P, r)), (pts, r)


@pytest.mark.parametrize("family", ["grid:abc", "grid:", "grid:2.5", "grid:0"])
def test_search_malformed_grid(workspace, capsys, family):
    code, out = run(
        capsys,
        "search", "--ranges", "boxes", "--size", "1",
        "--input", "points8.json", "--candidates", family,
    )
    assert code == 2
    assert json.loads(out)["error"] == (
        f"grid resolution must be a positive integer, got {family[5:]!r}"
    )


def test_search_grid_refinement_is_monotone(workspace, capsys):
    results = {}
    for grid in ("grid:4", "grid:8"):
        code, out = run(
            capsys,
            "search", "--ranges", "boxes", "--size", "1",
            "--input", "points8.json", "--candidates", grid,
        )
        assert code == 0
        results[grid] = search_best(out)[0]
    assert results["grid:8"] <= results["grid:4"]


def test_search_convex_pair_profile_is_ordered(workspace, capsys):
    code, out = run(
        capsys,
        "search", "--ranges", "convex", "--size", "2",
        "--input", "points8.json", "--candidates", "grid:5",
    )
    assert code == 0
    e1, e2 = search_best(out)
    assert e1 <= e2
    doc = json.loads(out)["search"]
    assert doc["empirical"] is True
    assert doc["construction_epsilon"] == "3/5"
    validate_report(json.loads(out))


def test_search_over_budget(workspace, capsys):
    code, out = run(
        capsys,
        "search", "--ranges", "convex", "--size", "2",
        "--input", "points8.json", "--budget", "10",
    )
    assert code == 4
    assert json.loads(out)["budget"] == {
        "exceeded": True,
        "message": "search needs 15753 net evaluations, budget 10;"
        " shrink the candidate family",
        "required": 15753,
    }


def test_search_enforces_small_n(workspace, capsys):
    code, out = run(
        capsys,
        "search", "--ranges", "convex", "--size", "1",
        "--input", "points14.json",
    )
    assert code == 2
    assert "n <= 12" in json.loads(out)["error"]


def test_module_invocation_round_trip(workspace, capsys):
    argv = (
        "search", "--ranges", "boxes", "--size", "1",
        "--input", "points8.json", "--candidates", "grid:2",
    )
    # The child must import the same epsnet as this process, whatever the
    # cwd: a relative PYTHONPATH entry would not resolve from the workspace.
    package_root = str(Path(epsnet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "epsnet.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    code, out = run(capsys, *argv)
    assert code == 0
    assert result.stdout == out
    validate_report(json.loads(result.stdout))


# --- argument parsing ------------------------------------------------------------

# one argv per perfbench recipe shape, with placeholder file names
RECIPE_SHAPES = [
    ["construct", "--ranges", "boxes", "--size", "3", "--eps", "3/8,1/2,5/8",
     "--input", "t.json", "--verify", "--svg", "t.svg"],
    ["construct", "--ranges", "boxes", "--size", "2", "--eps", "3/7,4/7",
     "--input", "p.json", "--verify"],
    ["construct", "--ranges", "convex", "--size", "2", "--eps", "3/5,4/5",
     "--input", "c.json", "--verify"],
    ["construct", "--ranges", "convex", "--size", "2", "--eps", "3/5,4/5",
     "--input", "c.json", "--budget", str(10 ** 18)],
    ["gadget", "--name", "five-clusters", "--k", "3", "--out", "g.json", "--certify"],
    ["gadget", "--name", "simplex", "--dim", "4", "--out", "g.json", "--certify"],
    ["gadget", "--name", "hexagon3d", "--out", "g.json", "--certify"],
    ["search", "--ranges", "convex", "--size", "2", "--input", "s.json",
     "--candidates", "arrangement"],
    ["search", "--ranges", "boxes", "--size", "2", "--input", "s.json",
     "--candidates", "grid:4"],
    ["verify", "--input", "p.json", "--net", "n.json", "--eps", "1/2",
     "--ranges", "convex", "--budget", "7", "--report", "r.json", "--timing"],
]


def _golden_commands():
    return [
        json.loads((DATA / f"golden_{name}.json").read_text())["command"]
        for name in ("construct", "verify", "gadget", "search")
    ]


def _readme_commands():
    """The ``epsnet ...`` lines of the README's CLI section, continuations
    joined."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [
        shlex.split(line)[1:] for line in block.splitlines()
        if line.startswith("epsnet ")
    ]


def _options(argv):
    """argv[1:] split into option groups: a flag and its value, if any."""
    groups, i = [], 1
    while i < len(argv):
        takes_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
        groups.append(argv[i:i + 2] if takes_value else argv[i:i + 1])
        i += len(groups[-1])
    return groups


def _split(argv):
    """(group, the other groups' tokens) for each option group of argv."""
    groups = _options(argv)
    return [(g, sum(groups[:i] + groups[i + 1:], [])) for i, g in enumerate(groups)]


def _moved(argv):
    """Well-formed reorderings: each option group moved to the front."""
    return [[argv[0], *g, *rest] for g, rest in _split(argv)]


def _dropped(argv):
    """Each option group left out: well formed unless it was required."""
    return [[argv[0], *rest] for _, rest in _split(argv)]


def _malformed(argv):
    """Calls outside the table parser's grammar, which it leaves to argparse."""
    out = [[argv[0], "-h"], [*argv, "--help"], argv[:1] + ["-h"] + argv[1:]]
    for g, rest in _split(argv):
        out.append([*argv, *g])  # repeated
        out.append([argv[0], g[0][:-1], *g[1:], *rest])  # abbreviated
        if len(g) == 2:
            out.append([argv[0], f"{g[0]}={g[1]}", *rest])
            out.append([argv[0], *rest, g[0]])  # value missing
    for flag, bad in (
        ("--ranges", "disks"), ("--name", "cube"), ("--size", "two"),
        ("--size", "4"), ("--size", "-1"), ("--budget", "-5"), ("--budget", "1.5"),
        ("--k", "-2"), ("--dim", "x"),
    ):
        if flag in argv:
            j = argv.index(flag) + 1
            out.append(argv[:j] + [bad] + argv[j + 1:])
    out.append([*argv, "--bogus"])
    out.append([*argv, "extra"])
    return out


def _argparse_vars(argv):
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


def test_table_parser_matches_argparse(capsys):
    """On every call of the corpus the table parser returns argparse's
    namespace, or None: always for a call outside its grammar, and
    exactly when argparse fails for a call with an option dropped."""
    assert len(_readme_commands()) == 4
    well_formed = []
    for argv in _golden_commands() + _readme_commands() + RECIPE_SHAPES:
        well_formed += [argv, *_moved(argv)]
    dropped = [d for argv in well_formed for d in _dropped(argv)]
    for argv in well_formed + dropped:
        fast, want = _parse_exact(argv), _argparse_vars(argv)
        assert (fast is None) == (want is None), argv
        assert fast is None or vars(fast) == want, argv
    malformed = [m for argv in well_formed for m in _malformed(argv)]
    malformed += [[], ["-h"], ["--help"], ["nope"], ["search"]]
    for argv in malformed:
        assert _parse_exact(argv) is None, argv
    # argparse accepts some of them (repeats, abbreviations, --opt=value)
    assert any(_argparse_vars(argv) is not None for argv in malformed)
    capsys.readouterr()  # argparse's help and error text


def test_well_formed_call_imports_no_locale(workspace):
    """argparse's first message lookup imports locale; a well-formed call
    builds no argparse parser and so never imports it."""
    package_root = str(Path(epsnet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    script = (
        "import sys\n"
        "sys.modules.pop('locale', None)\n"  # whatever the interpreter preloads
        "from epsnet.cli import main\n"
        "rc = main(['search', '--ranges', 'boxes', '--size', '1',"
        " '--input', 'points8.json', '--candidates', 'grid:2'])\n"
        "print(rc, 'locale' in sys.modules, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.stderr == "0 False\n"
