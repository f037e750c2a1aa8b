"""cli: exit codes, golden reports, determinism across runs."""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest

import epsnet
from epsnet.cli import _parse_candidates, _search, exit_code_for, main
from epsnet.geometry import PointSet, hull2d, integer_coords, point_in_convex_polygon
from epsnet.io_formats import (
    json_to_fraction,
    read_pointset,
    validate_report,
    write_pointset,
)
from epsnet.ranges import EpsilonProfile, RangeSpaceKind, WeightedNet

from helpers import (
    REPEATED_11,
    brute_max_box_count,
    brute_max_subset_avoiding_2d,
    brute_verify_boxes,
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
    # the planar construction enumerates none of them.  (i, i^2 mod 61) has
    # no three points on a line and distinct coordinates for i < 30.
    pts = [[i, i * i % 61] for i in range(30)]
    (workspace / "parabola30.json").write_text(json.dumps({"dim": 2, "points": pts}))
    code, out = run(
        capsys,
        "construct", "--ranges", "convex", "--size", "2",
        "--eps", "3/5,4/5", "--input", "parabola30.json",
    )
    assert code == 0
    doc = json.loads(out)
    assert "budget" not in doc
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
    """The search on candidate signatures picks the same (counts, net) as
    the search that queried every net by its points, on random small sets;
    box inputs repeat coordinates and points."""
    rng = random.Random(f"{kind}:{family}:{size}")
    kind = RangeSpaceKind.parse(kind)
    for _ in range(8):
        if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
            n, span = rng.randint(2, 8), 3
        else:
            n, span = rng.randint(3, 6), 6
        pts = [(F(rng.randint(0, span)), F(rng.randint(0, span))) for _ in range(n)]
        if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES and n > 3:
            pts[-1] = pts[0]
        P = PointSet(2, tuple(pts))
        candidates = _parse_candidates(P, kind, family)
        assert _search(P, kind, candidates, size) == slow_search(
            P, kind, candidates, size
        ), (pts, family)


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
    assert json.loads(out)["budget"]["required"] > 10


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
