"""Command line front end.

Four subcommands: construct builds a net and optionally verifies it,
verify checks a supplied net exactly, gadget writes and certifies the
lower-bound configurations, search brute-forces the best profile over a
candidate family.  Every run prints one JSON report to stdout; exit codes
are a function of that report alone (0 ok, 2 bad input, 3 a verdict or
claim failed, 4 budget exceeded).

The grammar is one table, ``COMMANDS``.  A well-formed call (a subcommand,
then its options, each once, as exact long flags with valid values, every
required one present) is read off the table directly, without building an
argparse parser or importing ``locale``.  Every other call, ``-h``,
abbreviations, ``--opt=value``, repeated options and bad or missing values,
goes to the argparse parser ``build_parser()`` makes from the same table,
so help text, error messages and exit code 2 are argparse's own.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .constructions import (
    box_median_point,
    construct_box_pair_highd,
    construct_box_triple_2d,
    construct_convex_pair,
)
from .errors import BudgetExceededError, EpsnetError
from .gadgets import GADGETS, certify
from .geometry import Point, PointSet, integer_coords
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
    box_masks,
    max_mask_intersection,
    undominated,
)
from .svg import render_svg
from .verification import DEFAULT_CONVEX_BUDGET, verify_weighted_net

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
    """(net, method, the constructor's verification report or None)."""
    eps = _parse_eps(args.eps)
    if eps.k != size:
        raise ValueError(f"--size {size} needs {size} epsilon values, got {eps.k}")
    if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        if size == 1:
            net = box_median_point(P)
            if eps != net.profile:
                net = WeightedNet(net.points, eps)
            return net, "axis-median", None
        if size == 2:
            net, trace = construct_box_pair_highd(P, eps)
        elif P.dim != 2:
            raise ValueError(
                f"--ranges boxes --size 3 needs planar input (d = 2), got d = {P.dim}"
            )
        else:
            net, trace = construct_box_triple_2d(P, eps)
        return net, trace.method, trace.verification
    if size == 2:
        net, trace = construct_convex_pair(P, eps)
        return net, trace.method, trace.verification
    raise ValueError(f"no convex construction of size {size}")


def cmd_construct(args, argv) -> int:
    P = read_pointset(args.input)
    kind = RangeSpaceKind(args.ranges)
    started = time.perf_counter()
    sections: dict = {}
    try:
        net, method, checked = _run_construction(P, kind, args.size, args)
        sections["construction"] = {
            "ranges": kind.value,
            "size": args.size,
            "method": method,
            "net": net_to_json(net),
        }
        if args.verify:
            # the box constructors have verified their net already
            rep = checked or verify_weighted_net(P, net, kind, budget=args.budget)
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
    kind = RangeSpaceKind(args.ranges)
    started = time.perf_counter()
    sections: dict = {}
    try:
        rep = verify_weighted_net(P, net, kind, budget=args.budget)
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


def _arrangement_candidates(P: PointSet, kind: RangeSpaceKind) -> list[Point]:
    """Vertices of the arrangement the point set induces.

    Convex ranges use the lines through point pairs; box ranges use the
    axis-parallel grid of input coordinates.  Lines and crossings are
    computed on P's integer coordinates: each line as its reduced integer
    ``A x + B y = C`` (first nonzero of A, B positive), each crossing as
    its reduced homogeneous triple ``(x, y, w)`` with w > 0, so equal
    points have equal triples and ``Fraction``s are built only for the
    distinct crossings that are not input points.  The box grid holds every
    input point, and its rows come out sorted.
    """
    if kind is RangeSpaceKind.AXIS_PARALLEL_BOXES:
        xs, ys = (
            [Fraction(c, P.scale) for c in sorted(set(col))] for col in zip(*P.ipts)
        )
        return list(itertools.product(xs, ys))
    pts = set(P.points)
    scale, ipts = integer_coords(P)
    lines = set()
    for (ax, ay), (bx, by) in itertools.combinations(ipts, 2):
        A, B = by - ay, ax - bx
        if A or B:
            C = A * ax + B * ay
            g = gcd(A, B, C)
            if A < 0 or (A == 0 and B < 0):
                g = -g
            lines.add((A // g, B // g, C // g))
    crossings = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        w = a1 * b2 - a2 * b1
        if w:
            x = c1 * b2 - c2 * b1
            y = a1 * c2 - a2 * c1
            g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
            crossings.add((x // g, y // g, w // g))
    crossings.difference_update((x, y, 1) for x, y in ipts)
    pts.update(
        (Fraction(x, w * scale), Fraction(y, w * scale)) for x, y, w in crossings
    )
    return sorted(pts)


def _grid_candidates(P: PointSet, resolution: int) -> list[Point]:
    """The (resolution + 1)^d grid over P's bounding box, stepped on P's
    integer coordinates: grid line i on an axis is
    ``(lo * resolution + (hi - lo) * i) / (scale * resolution)``."""
    if resolution < 1:
        raise ValueError("grid resolution must be at least 1")
    den = P.scale * resolution
    axes = []
    for col in zip(*P.ipts):
        lo, hi = min(col), max(col)
        axes.append([
            Fraction(lo * resolution + (hi - lo) * i, den)
            for i in range(resolution + 1)
        ])
    return sorted(set(itertools.product(*axes)))


def _grid_size(P: PointSet, resolution: int) -> int:
    """``len(_grid_candidates(P, resolution))`` without building it: an
    axis on which P is flat has one grid line, every other axis
    resolution + 1 distinct ones."""
    size = 1
    for col in zip(*P.ipts):
        if min(col) < max(col):
            size *= resolution + 1
    return size


def _grid_resolution(text: str) -> Optional[int]:
    """R for the family ``grid:R``, None for ``arrangement``."""
    if text == "arrangement":
        return None
    if not text.startswith("grid:"):
        raise ValueError(f"unknown candidate family {text!r}")
    part = text[len("grid:"):]
    try:
        resolution = int(part)
    except ValueError:
        resolution = 0
    if resolution < 1:
        raise ValueError(f"grid resolution must be a positive integer, got {part!r}")
    return resolution


def _search(P, kind, candidates, size):
    """Lexicographically smallest (largest range missing the whole net,
    largest range missing some net point) over candidate nets, and the
    first net in ``combinations_with_replacement`` order that attains it.

    Each candidate is reduced once to its masks; a net's first count is
    ``max_mask_intersection`` on its members' masks, and a candidate's
    single count is the popcount of its first mask.  A single count is a
    size-1 net's key, so size 1 needs no more.

    Pairs take three steps.  (1) Dominance: if every mask of candidate i
    lies inside some mask of candidate j, every subset separable from i is
    separable from j, so putting i in place of j lowers neither count of
    any net.  Every candidate is dominated by an ``undominated`` one, so
    the smallest key over their nets is the smallest key over all nets.
    (2) That key is found over the kept candidates' nets; each net's query
    stops at ``cap``, the smallest first count that can no longer win (a
    tie on the first count still can, on the second).  (3) A dominated
    candidate with a smaller index may tie, so all candidates' nets are
    scanned in order for the first one with that key.  Only rows and
    columns whose single count can give the key's second entry are
    visited, and only nets whose larger single count is that entry are
    queried, each stopping once its first count passes the key's.
    """
    # a candidate's masks: the open halfspaces through it whose points a
    # range missing it must lie in
    boxes = kind is RangeSpaceKind.AXIS_PARALLEL_BOXES
    masks = [box_masks(P, q) if boxes else _candidate_masks(P, q) for q in candidates]
    singles = [m[0].bit_count() if m else 0 for m in masks]
    if size == 1:
        low = min(singles)
        return (low,), (candidates[singles.index(low)],)
    best = None
    for net in itertools.combinations_with_replacement(undominated(masks), 2):
        cap = P.n + 1 if best is None else best[0] + 1
        first = max_mask_intersection([masks[i] for i in net], cap)[0]
        if first >= cap:
            continue
        key = (first, max(singles[i] for i in net))
        if best is None or key < best:
            best = key
    first, top = best
    level = [j for j, s in enumerate(singles) if s == top]
    below = [j for j, s in enumerate(singles) if s <= top]
    for i in below:
        row = below if singles[i] == top else level
        for j in row[bisect_left(row, i):]:
            if max_mask_intersection((masks[i], masks[j]), first + 1)[0] == first:
                return best, (candidates[i], candidates[j])
    raise AssertionError("no net attains the best key")


def cmd_search(args, argv) -> int:
    P = read_pointset(args.input)
    kind = RangeSpaceKind(args.ranges)
    if P.dim != 2:
        raise ValueError("search supports planar inputs only")
    max_n = SEARCH_MAX_N[kind]
    if P.n > max_n:
        raise ValueError(
            f"search is exhaustive; {kind.value} ranges support n <= {max_n}"
        )
    started = time.perf_counter()
    # a grid's size is known before it is built; the budget is checked first
    resolution = _grid_resolution(args.candidates)
    if resolution is None:
        candidates = _arrangement_candidates(P, kind)
        count = len(candidates)
    else:
        count = _grid_size(P, resolution)
    nets_to_try = count if args.size == 1 else count * (count + 1) // 2
    sections: dict = {}
    try:
        if nets_to_try > args.budget:
            raise BudgetExceededError(
                f"search needs {nets_to_try} net evaluations,"
                f" budget {args.budget}; shrink the candidate family",
                required=nets_to_try,
            )
        if resolution is not None:
            candidates = _grid_candidates(P, resolution)
        counts, net = _search(P, kind, candidates, args.size)
        reference = CONSTRUCTION_EPS1.get((kind, args.size))
        sections["search"] = {
            "ranges": kind.value,
            "size": args.size,
            "candidate_family": args.candidates,
            "candidates": count,
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
    except BudgetExceededError as exc:
        sections["budget"] = _budget_section(exc)
    if args.timing:
        sections["timing"] = {"total_seconds": round(time.perf_counter() - started, 6)}
    return _finish(make_report(argv, P, **sections), args)


# ---------------------------------------------------------------------------
# argument parsing

# The CLI grammar, read by both parsers below: each subcommand's handler,
# its help, and each option's flag with its ``add_argument`` keywords.
# ``--report`` and ``--timing`` follow every subcommand's own options.
_COMMON_OPTIONS = (
    ("--report", {"help": "also write the report to this file"}),
    ("--timing", {"action": "store_true", "help": "include wall-clock timings"}),
)

COMMANDS = {
    "construct": (
        cmd_construct,
        "build a net and optionally verify it",
        (
            ("--ranges", {"required": True, "choices": ["convex", "boxes"]}),
            ("--size", {"required": True, "type": int, "choices": [1, 2, 3]}),
            ("--eps", {"required": True, "help": "comma list of rationals"}),
            ("--input", {"required": True}),
            ("--svg", {"help": "write a figure of the input and the net"}),
            ("--verify", {"action": "store_true"}),
            (
                "--budget",
                {
                    "type": int,
                    "default": DEFAULT_CONVEX_BUDGET,
                    "help": "cap on the subset hulls --verify may sweep for convex"
                    " ranges: only for a failing level in d <= 3, for every level"
                    " in d >= 4; boxes sweep none",
                },
            ),
        ),
    ),
    "verify": (
        cmd_verify,
        "exactly verify a supplied net",
        (
            ("--input", {"required": True}),
            ("--net", {"required": True, "help": "point-set file of net points"}),
            ("--eps", {"required": True}),
            ("--ranges", {"required": True, "choices": ["convex", "boxes"]}),
            (
                "--budget",
                {
                    "type": int,
                    "default": DEFAULT_CONVEX_BUDGET,
                    "help": "cap on the subset hulls convex verification may"
                    " sweep: only for a failing level in d <= 3, for every level"
                    " in d >= 4",
                },
            ),
        ),
    ),
    "gadget": (
        cmd_gadget,
        "write and certify a gadget point set",
        (
            ("--name", {"required": True, "choices": sorted(_GADGET_CLI_NAMES)}),
            ("--k", {"type": int, "help": "cluster size (five-clusters)"}),
            ("--dim", {"type": int, "help": "dimension (simplex)"}),
            ("--out", {"required": True, "help": "point-set file to write"}),
            ("--certify", {"action": "store_true"}),
            ("--svg", {"help": "write the xy-projection figure"}),
        ),
    ),
    "search": (
        cmd_search,
        "brute-force the best profile over candidate net points",
        (
            ("--ranges", {"required": True, "choices": ["convex", "boxes"]}),
            ("--size", {"required": True, "type": int, "choices": [1, 2]}),
            ("--input", {"required": True}),
            (
                "--candidates",
                {
                    "default": "arrangement",
                    "help": "'arrangement' or 'grid:R' (R steps per axis)",
                },
            ),
            (
                "--budget",
                {
                    "type": int,
                    "default": DEFAULT_SEARCH_BUDGET,
                    "help": "cap on the nets of the candidate family: c for"
                    " --size 1 and c(c+1)/2 for --size 2 over c candidates,"
                    " however few of them search queries",
                },
            ),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsnet",
        description="weighted epsilon-net construction, verification,"
        " and lower-bound gadgets over exact rational arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options + _COMMON_OPTIONS:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse_exact(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    ``COMMANDS`` directly when argv is a well-formed call, else None.

    Well formed: a subcommand, then each of its options at most once, as
    its exact long flag, followed by one value not starting with "-"
    unless it is a switch; every value converts with the option's type
    and lies in its choices; every required option is there.  Anything
    else (help, abbreviations, ``--opt=value``, repeats, bad or missing
    values) is left to argparse, which alone prints help and errors.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    spec = dict(options + _COMMON_OPTIONS)
    given: dict = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = spec.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    namespace = argparse.Namespace(command=argv[0], func=func)
    for flag, keywords in spec.items():
        if flag not in given and keywords.get("required"):
            return None
        switch = keywords.get("action") == "store_true"
        default = keywords.get("default", False if switch else None)
        setattr(namespace, flag[2:].replace("-", "_"), given.get(flag, default))
    return namespace


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse_exact(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args, argv)
    except (EpsnetError, ValueError, OSError) as exc:
        return _finish(make_report(argv, error=str(exc)), args)


if __name__ == "__main__":
    sys.exit(main())
