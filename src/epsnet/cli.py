"""Command line front end.

Four subcommands: construct builds a net and optionally verifies it,
verify checks a supplied net exactly, gadget writes and certifies the
lower-bound configurations, search brute-forces the best profile over a
candidate family.  Every run prints one JSON report to stdout; exit codes
are a function of that report alone (0 ok, 2 bad input, 3 a verdict or
claim failed, 4 budget exceeded).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .constructions import (
    box_median_point,
    construct_box_pair_highd,
    construct_box_triple_2d,
    construct_convex_pair,
)
from .errors import BudgetExceededError, EpsnetError
from .gadgets import GADGETS, certify
from .geometry import Point, PointSet
from .io_formats import (
    claims_document,
    certification_to_json,
    dumps_json,
    fraction_to_json,
    make_report,
    net_to_json,
    point_to_json,
    read_pointset,
    verification_to_json,
    write_json_atomic,
    write_pointset,
    write_text_atomic,
)
from .ranges import (
    EpsilonProfile,
    RangeSpaceKind,
    WeightedNet,
    _candidate_masks,
    box_signature,
    largest_box_avoiding,
    max_mask_intersection,
)
from .svg import render_svg
from .verification import verify_weighted_net

DEFAULT_SEARCH_BUDGET = 500_000
SEARCH_MAX_N = {RangeSpaceKind.CONVEX_SETS: 12, RangeSpaceKind.AXIS_PARALLEL_BOXES: 20}

# best epsilon_1 the shipped constructions guarantee, for comparison
CONSTRUCTION_EPS1 = {
    (RangeSpaceKind.AXIS_PARALLEL_BOXES, 1): Fraction(1, 2),
    (RangeSpaceKind.AXIS_PARALLEL_BOXES, 2): Fraction(3, 7),
    (RangeSpaceKind.CONVEX_SETS, 2): Fraction(3, 5),
}

_GADGET_CLI_NAMES = {
    "five-clusters": "five-clusters",
    "hexagon3d": "hexagon-3d",
    "simplex": "simplex",
}


def _parse_eps(text: str) -> EpsilonProfile:
    try:
        values = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse epsilon list {text!r}") from None
    return EpsilonProfile(values)


def exit_code_for(report: dict) -> int:
    """The exit code is read off the report; no hidden state."""
    if "error" in report:
        return 2
    if "budget" in report:
        return 4
    verification = report.get("verification")
    if verification is not None and not verification["passed"]:
        return 3
    certification = report.get("certification")
    if certification is not None and not certification["passed"]:
        return 3
    return 0


def _finish(report: dict, args) -> int:
    text = dumps_json(report)
    sys.stdout.write(text)
    if getattr(args, "report", None):
        write_text_atomic(args.report, text)
    return exit_code_for(report)


# ---------------------------------------------------------------------------
# construct


def _run_construction(P: PointSet, kind: RangeSpaceKind, size: int, args):
    eps = _parse_eps(args.eps)
    if eps.k != size:
        raise ValueError(f"--size {size} needs {size} epsilon values, got {eps.k}")
    if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        if size == 1:
            net = box_median_point(P)
            if eps != net.profile:
                net = WeightedNet(net.points, eps)
            return net, "axis-median"
        if size == 2:
            net, trace = construct_box_pair_highd(P, eps)
            return net, trace.method
        net, trace = construct_box_triple_2d(P, eps)
        return net, trace.method
    if size == 2:
        net, trace = construct_convex_pair(P, eps, member_budget=args.budget)
        return net, trace.method
    raise ValueError(f"no convex construction of size {size}")


def cmd_construct(args, argv) -> int:
    P = read_pointset(args.input)
    kind = RangeSpaceKind.parse(args.ranges)
    started = time.perf_counter()
    sections: dict = {}
    try:
        net, method = _run_construction(P, kind, args.size, args)
        sections["construction"] = {
            "ranges": kind.value,
            "size": args.size,
            "method": method,
            "net": net_to_json(net),
        }
        if args.verify:
            kwargs = {"budget": args.budget} if kind is RangeSpaceKind.CONVEX_SETS else {}
            rep = verify_weighted_net(P, net, kind, **kwargs)
            sections["verification"] = verification_to_json(rep, timing=args.timing)
        if args.svg:
            write_text_atomic(args.svg, render_svg(P, net))
    except BudgetExceededError as exc:
        sections["budget"] = _budget_section(exc)
    if args.timing:
        sections["timing"] = {"total_seconds": round(time.perf_counter() - started, 6)}
    return _finish(make_report(argv, P, **sections), args)


# ---------------------------------------------------------------------------
# verify


def _budget_section(exc: BudgetExceededError) -> dict:
    doc = {"exceeded": True, "message": str(exc)}
    if exc.required is not None:
        doc["required"] = exc.required
    return doc


def cmd_verify(args, argv) -> int:
    P = read_pointset(args.input)
    net_points = read_pointset(args.net)
    if net_points.dim != P.dim:
        raise ValueError(
            f"net dimension {net_points.dim} does not match input {P.dim}"
        )
    eps = _parse_eps(args.eps)
    net = WeightedNet(net_points.points, eps)
    kind = RangeSpaceKind.parse(args.ranges)
    started = time.perf_counter()
    sections: dict = {}
    try:
        kwargs = {"budget": args.budget} if kind is RangeSpaceKind.CONVEX_SETS else {}
        rep = verify_weighted_net(P, net, kind, **kwargs)
        sections["verification"] = verification_to_json(rep, timing=args.timing)
    except BudgetExceededError as exc:
        sections["budget"] = _budget_section(exc)
    if args.timing:
        sections["timing"] = {"total_seconds": round(time.perf_counter() - started, 6)}
    return _finish(make_report(argv, P, **sections), args)


# ---------------------------------------------------------------------------
# gadget


def _build_gadget(args):
    name = _GADGET_CLI_NAMES[args.name]
    if args.k is not None and args.name != "five-clusters":
        raise ValueError("--k applies to five-clusters only")
    if args.dim is not None and args.name != "simplex":
        raise ValueError("--dim applies to simplex only")
    if name == "five-clusters":
        return GADGETS[name](args.k if args.k is not None else 1)
    if name == "simplex":
        return GADGETS[name](args.dim if args.dim is not None else 3)
    return GADGETS[name]()


def cmd_gadget(args, argv) -> int:
    instance = _build_gadget(args)
    parameters = {
        key: fraction_to_json(value) if isinstance(value, Fraction) else value
        for key, value in sorted(instance.parameters.items())
    }
    claims_path = args.out + ".claims.json"
    write_pointset(args.out, instance.pointset, extra={"name": instance.name})
    write_json_atomic(claims_path, claims_document(instance))
    sections: dict = {
        "gadget": {
            "name": instance.name,
            "parameters": parameters,
            "points_written": args.out,
            "claims_written": claims_path,
        }
    }
    started = time.perf_counter()
    if args.certify:
        report = certify(instance)
        sections["certification"] = certification_to_json(report)
    if args.svg:
        write_text_atomic(args.svg, render_svg(instance.pointset))
    if args.timing:
        sections["timing"] = {"total_seconds": round(time.perf_counter() - started, 6)}
    return _finish(make_report(argv, instance.pointset, **sections), args)


# ---------------------------------------------------------------------------
# search


def _line_through(a: Point, b: Point):
    # A x + B y = C, normalized for dedup
    A = b[1] - a[1]
    B = a[0] - b[0]
    C = A * a[0] + B * a[1]
    for lead in (A, B):
        if lead != 0:
            return (A / lead, B / lead, C / lead)
    raise ValueError("coincident points")


def _arrangement_candidates(P: PointSet, kind: RangeSpaceKind) -> list[Point]:
    """Vertices of the arrangement the point set induces.

    Convex ranges use the lines through point pairs; box ranges use the
    axis-parallel grid of input coordinates.
    """
    pts = set(P.points)
    if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        xs = sorted({p[0] for p in P.points})
        ys = sorted({p[1] for p in P.points})
        pts.update((x, y) for x in xs for y in ys)
        return sorted(pts)
    lines = set()
    for a, b in itertools.combinations(P.points, 2):
        if a != b:
            lines.add(_line_through(a, b))
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(sorted(lines), 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        pts.add((x, y))
    return sorted(pts)


def _grid_candidates(P: PointSet, resolution: int) -> list[Point]:
    if resolution < 1:
        raise ValueError("grid resolution must be at least 1")
    axes = []
    for lo, hi in P.bounding_box():
        step = (hi - lo) / resolution
        axes.append([lo + step * i for i in range(resolution + 1)])
    return sorted(set(itertools.product(*axes)))


def _parse_candidates(P: PointSet, kind: RangeSpaceKind, text: str) -> list[Point]:
    if text == "arrangement":
        return _arrangement_candidates(P, kind)
    if text.startswith("grid:"):
        return _grid_candidates(P, int(text.split(":", 1)[1]))
    raise ValueError(f"unknown candidate family {text!r}")


# per range kind: a candidate's exact integer signature, and the largest
# range missing the candidates of a list of signatures (stopping once
# >= stop_at)
_SEARCH_PRIMITIVES = {
    RangeSpaceKind.AXIS_PARALLEL_BOXES: (box_signature, largest_box_avoiding),
    RangeSpaceKind.CONVEX_SETS: (
        _candidate_masks,
        lambda P, lists, stop_at=None: max_mask_intersection(lists, stop_at)[0],
    ),
}


def _search(P, kind, candidates, size):
    """Lexicographically smallest (largest range missing the whole net,
    largest range missing some net point) over candidate nets.

    Each candidate is reduced once to its signature, and nets are scanned
    as index tuples on those signatures alone.  Each net's query stops at
    ``cap``, the smallest first count that can no longer win; for pairs a
    tie still can, on the second count.
    """
    signature, largest = _SEARCH_PRIMITIVES[kind]
    sigs = [signature(P, q) for q in candidates]
    best = None  # ((counts...), candidate indices)
    singles: dict[int, int] = {}

    def single(i: int) -> int:
        if i not in singles:
            singles[i] = largest(P, (sigs[i],))
        return singles[i]

    for net in itertools.combinations_with_replacement(range(len(sigs)), size):
        cap = P.n + 1 if best is None else best[0][0] + (1 if size > 1 else 0)
        first = largest(P, [sigs[i] for i in net], cap)
        if first >= cap:
            continue
        key = (first,) if size == 1 else (first, max(map(single, net)))
        if best is None or key < best[0]:
            best = (key, net)
    key, net = best
    return key, tuple(candidates[i] for i in net)


def cmd_search(args, argv) -> int:
    P = read_pointset(args.input)
    kind = RangeSpaceKind.parse(args.ranges)
    if P.dim != 2:
        raise ValueError("search supports planar inputs only")
    max_n = SEARCH_MAX_N[kind]
    if P.n > max_n:
        raise ValueError(
            f"search is exhaustive; {kind.value} ranges support n <= {max_n}"
        )
    candidates = _parse_candidates(P, kind, args.candidates)
    nets_to_try = (
        len(candidates)
        if args.size == 1
        else len(candidates) * (len(candidates) + 1) // 2
    )
    sections: dict = {}
    started = time.perf_counter()
    if nets_to_try > args.budget:
        sections["budget"] = {
            "exceeded": True,
            "required": nets_to_try,
            "message": f"search needs {nets_to_try} net evaluations,"
            f" budget {args.budget}; shrink the candidate family",
        }
    else:
        counts, net = _search(P, kind, candidates, args.size)
        reference = CONSTRUCTION_EPS1.get((kind, args.size))
        sections["search"] = {
            "ranges": kind.value,
            "size": args.size,
            "candidate_family": args.candidates,
            "candidates": len(candidates),
            "nets_examined": nets_to_try,
            "best": {
                "points": [point_to_json(q) for q in net],
                "epsilon": [
                    fraction_to_json(Fraction(c, P.n)) for c in counts
                ],
            },
            "empirical": True,
            "note": "candidate family is incomplete; the profile is an upper"
            " bound for this family only, not a proven optimum",
            "construction_epsilon": (
                None if reference is None else fraction_to_json(reference)
            ),
        }
    if args.timing:
        sections["timing"] = {"total_seconds": round(time.perf_counter() - started, 6)}
    return _finish(make_report(argv, P, **sections), args)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsnet",
        description="weighted epsilon-net construction, verification,"
        " and lower-bound gadgets over exact rational arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a net and optionally verify it")
    con.add_argument("--ranges", required=True, choices=["convex", "boxes"])
    con.add_argument("--size", required=True, type=int, choices=[1, 2, 3])
    con.add_argument("--eps", required=True, help="comma list of rationals")
    con.add_argument("--input", required=True)
    con.add_argument("--svg", help="write a figure of the input and the net")
    con.add_argument("--verify", action="store_true")
    con.add_argument(
        "--budget",
        type=int,
        default=2_000_000,
        help="cap on the subset hulls a convex net may enumerate: the"
        " construction in d > 2 (the planar one enumerates none) and --verify",
    )
    con.set_defaults(func=cmd_construct)

    ver = sub.add_parser("verify", help="exactly verify a supplied net")
    ver.add_argument("--input", required=True)
    ver.add_argument("--net", required=True, help="point-set file of net points")
    ver.add_argument("--eps", required=True)
    ver.add_argument("--ranges", required=True, choices=["convex", "boxes"])
    ver.add_argument("--budget", type=int, default=5_000_000)
    ver.set_defaults(func=cmd_verify)

    gad = sub.add_parser("gadget", help="write and certify a gadget point set")
    gad.add_argument(
        "--name", required=True, choices=sorted(_GADGET_CLI_NAMES)
    )
    gad.add_argument("--k", type=int, help="cluster size (five-clusters)")
    gad.add_argument("--dim", type=int, help="dimension (simplex)")
    gad.add_argument("--out", required=True, help="point-set file to write")
    gad.add_argument("--certify", action="store_true")
    gad.add_argument("--svg", help="write the xy-projection figure")
    gad.set_defaults(func=cmd_gadget)

    sea = sub.add_parser(
        "search", help="brute-force the best profile over candidate net points"
    )
    sea.add_argument("--ranges", required=True, choices=["convex", "boxes"])
    sea.add_argument("--size", required=True, type=int, choices=[1, 2])
    sea.add_argument("--input", required=True)
    sea.add_argument(
        "--candidates",
        default="arrangement",
        help="'arrangement' or 'grid:R' (R steps per axis)",
    )
    sea.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    sea.set_defaults(func=cmd_search)

    for p in (con, ver, gad, sea):
        p.add_argument("--report", help="also write the report to this file")
        p.add_argument(
            "--timing", action="store_true", help="include wall-clock timings"
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (EpsnetError, ValueError, OSError) as exc:
        report = make_report(argv, error=str(exc))
        sys.stdout.write(dumps_json(report))
        if getattr(args, "report", None):
            write_text_atomic(args.report, dumps_json(report))
        return 2


if __name__ == "__main__":
    sys.exit(main())
