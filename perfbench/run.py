"""Cold-start benchmark of the epsnet command line.

    python3 perfbench/run.py --workload box-nets --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  One client runs one operation at a time (a closed loop).  Every
operation is one ``epsnet`` CLI call, ``epsnet.cli.main(argv)``, run in a
child forked from this process after it has imported ``epsnet.cli`` and
run nothing, so each call starts with empty program caches, as a real
``epsnet`` invocation does.  The operation's time is taken inside the
child around ``main``.

Rounds of the workload's recipes repeat until ``--seconds`` have passed;
then every report is checked against the benchmark's own computations.
The last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Result and trace
files go to ``.perfbench/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# an operation still running after this long is killed and counted failed
OP_TIMEOUT_S = 120


def _import_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup() -> list:
    """Wall times of fresh interpreters that import epsnet.cli and exit.

    The first, untimed, call compiles the bytecode cache a checkout lacks.
    """
    cmd = [sys.executable, "-c", "import epsnet.cli"]
    env = _import_env()
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        if i:
            times.append(time.perf_counter() - start)
    return times


def measure_import_layers() -> dict:
    """Cumulative import time of numpy and of epsnet.cli (-X importtime)."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import epsnet.cli"]
    found: dict = {"numpy": [], "epsnet.cli": []}
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            cmd, env=_import_env(), check=True, timeout=120,
            capture_output=True, text=True,
        )
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| +(\S+)$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1e6)
    return {
        "setup.numpy_import_s": statistics.median(found["numpy"]),
        "setup.epsnet_import_s": statistics.median(found["epsnet.cli"]),
    }


# ---------------------------------------------------------------------------
# one operation


def _child(argv: list, report_path: str, traced: bool) -> dict:
    import epsnet.cli

    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    with open(report_path, "w", encoding="utf-8") as fh:
        sys.stdout = fh
        start = time.perf_counter()
        try:
            rc = epsnet.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        elapsed = time.perf_counter() - start
        sys.stdout = sys.__stdout__
    result = {"rc": rc, "s": elapsed}
    if tracer:
        result["layers"] = tracer.totals()
        result["spans"] = [
            [name, parent, round((a - start) * 1e6), round((b - start) * 1e6)]
            for name, parent, a, b in tracer.spans
        ]
    return result


def run_op(op, report_path: str, traced: bool) -> dict:
    """Fork, run the operation in the child, reap it and collect its figures."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = 1
        try:
            signal.alarm(OP_TIMEOUT_S)
            os.close(read_fd)
            payload = json.dumps(_child(op.argv, report_path, traced)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    result = json.loads(payload) if status == 0 and payload else {"rc": None, "s": None}
    result.update(
        recipe=op.recipe, wall=wall, rss_mb=usage.ru_maxrss / 1024,
        traced=traced, report=report_path,
    )
    return result


# ---------------------------------------------------------------------------
# the run


def run_rounds(workload: str, seed: int, seconds: float, workdir: str, trace: bool):
    """Closed loop over whole rounds until ``seconds`` have passed.

    With tracing, rounds alternate untraced and traced, so the traced
    run measures its own overhead.
    """
    # numpy's BLAS would otherwise start a thread pool in the process that
    # forks; the program makes no BLAS calls, so operations do not notice
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import epsnet.cli  # noqa: F401  (imported once, before any fork)

    results, ops = [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds or (trace and r % 2):
        for op in workloads.round_ops(workload, seed, r, workdir):
            path = os.path.join(workdir, f"report-{len(results)}.json")
            results.append(run_op(op, path, traced=trace and r % 2 == 1))
            ops.append(op)
        r += 1
    return ops, results


def check_results(ops, results) -> tuple:
    """(failed operations, problems found in the outputs of the others)."""
    failed, problems = 0, []
    for op, res in zip(ops, results):
        if res["rc"] != op.expect_rc:
            failed += 1
            print(f"FAILED {op.recipe}: exit {res['rc']}, expected {op.expect_rc}",
                  file=sys.stderr)
            continue
        try:
            with open(res["report"], encoding="utf-8") as fh:
                report = json.load(fh)
            found = op.check(report)
        except Exception as exc:  # a malformed report is a wrong output
            found = [f"unreadable report: {exc!r}"]
        problems += [f"{op.recipe} ({res['report']}): {p}" for p in found]
    return failed, problems


def summarize(results) -> None:
    """Human-readable per-recipe lines (stdout, before the JSON line)."""
    by_recipe: dict = {}
    for res in results:
        if res["s"] is not None:
            by_recipe.setdefault(res["recipe"], []).append(res["s"])
    for recipe, times in by_recipe.items():
        print(f"# {recipe:22s} ops {len(times):3d}  p50 {statistics.median(times):.4f} s"
              f"  min {min(times):.4f} s  max {max(times):.4f} s")


def end_to_end(results, setup_times) -> dict:
    done = [r for r in results if r["s"] is not None]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(done) / sum(r["wall"] for r in done), "1/s"),
        "op_p50_s": (statistics.median([r["s"] for r in done]), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
    }


def per_layer(results, import_layers) -> dict:
    traced = [r for r in results if r["traced"] and r["s"] is not None]
    plain = [r for r in results if not r["traced"] and r["s"] is not None]
    n = len(traced)
    metrics = {}
    for name in tracing.NAMES:
        calls = sum(r["layers"][name][0] for r in traced)
        total = sum(r["layers"][name][1] for r in traced)
        own = sum(r["layers"][name][2] for r in traced)
        metrics[f"{name}.calls"] = (calls / n, "count/op")
        metrics[f"{name}.s"] = (total / n, "s/op")
        metrics[f"{name}.self_s"] = (own / n, "s/op")
    for key, section, field in (
        ("report.ranges_examined", "verification", "ranges_examined"),
        ("report.nets_examined", "search", "nets_examined"),
        ("report.claims", "certification", "claims"),
    ):
        total = 0
        for res in traced:
            with open(res["report"], encoding="utf-8") as fh:
                value = json.load(fh).get(section, {}).get(field, 0)
            total += len(value) if isinstance(value, list) else value
        metrics[key] = (total / n, "count/op")
    traced_rate = n / sum(r["wall"] for r in traced)
    plain_rate = len(plain) / sum(r["wall"] for r in plain)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.slowdown"] = (plain_rate / traced_rate, "ratio")
    for key, value in import_layers.items():
        metrics[key] = (value, "s")
    return metrics


def write_trace(path: str, ops, results) -> None:
    """All spans of the traced operations, times in microseconds from op start."""
    doc = {
        "names": list(tracing.NAMES),
        "span_fields": ["name", "parent", "start_us", "end_us"],
        "ops": [
            {"recipe": op.recipe, "argv": op.argv, "seconds": res["s"],
             "spans": res.get("spans", [])}
            for op, res in zip(ops, results)
            if res["traced"]
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "epsnet", "cli.py")):
        print(f"no epsnet sources under {SRC}", file=sys.stderr)
        return 2
    # operations must run with the default single-threaded certification
    os.environ.pop("EPSNET_THREADS", None)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            import_layers = measure_import_layers()
        else:
            setup_times = measure_setup()
        ops, results = run_rounds(
            args.workload, args.seed, args.seconds, workdir, bool(args.trace)
        )
        failed, problems = check_results(ops, results)
        for p in problems[:20]:
            print(f"WRONG {p}", file=sys.stderr)
        summarize(results)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics = per_layer(results, import_layers)
            write_trace(os.path.join(OUT, f"trace-{tag}.json"), ops, results)
        else:
            metrics = end_to_end(results, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(doc)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
