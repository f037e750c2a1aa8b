"""cli: exit codes, golden reports, determinism across worker counts."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import epsnet
from epsnet.cli import exit_code_for, main
from epsnet.io_formats import validate_report

DATA = Path(__file__).parent / "data"


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    for name in ("points14.json", "points8.json", "net_far.json"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EPSNET_THREADS", "1")
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


def test_reports_identical_across_runs_and_workers(workspace, capsys, monkeypatch):
    argv = ("gadget", "--name", "hexagon3d", "--out", "hex.json", "--certify")
    outputs = []
    for threads in ("1", "2", "1"):
        monkeypatch.setenv("EPSNET_THREADS", threads)
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


def test_adversarial_section(workspace, capsys):
    code, out = run(
        capsys,
        "verify", "--input", "points14.json", "--net", "net_far.json",
        "--eps", "1/2", "--ranges", "boxes", "--adversarial", "60,9",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["adversarial"]["trials"] == 60
    assert doc["adversarial"]["violation"] is not None
    validate_report(doc)


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


def test_invalid_thread_setting(workspace, capsys, monkeypatch):
    monkeypatch.setenv("EPSNET_THREADS", "zero")
    code, out = run(
        capsys,
        "gadget", "--name", "hexagon3d", "--out", "hex.json",
    )
    assert code == 2
    assert "EPSNET_THREADS" in json.loads(out)["error"]


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
