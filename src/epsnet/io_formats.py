"""Exact JSON files: point sets, schema-versioned reports, input digests.

All rationals cross the file boundary as integers or "p/q" strings, never
as binary floats, so a write followed by a read returns the same exact
coordinates.  Every writer is deterministic (sorted keys, fixed indent,
trailing newline) and atomic (temp file plus rename).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import gcd
from typing import Any, Mapping, Optional, Sequence, Union

# CPython's own SHA-256, as the random module takes its _sha512: hashlib's
# OpenSSL digest gives the same bytes, but importing it initialises OpenSSL
# (about 0.5 MB) and its first digest faults in about 1 MB of libcrypto in
# every CLI process
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11 and earlier
    except ImportError:
        from hashlib import sha256

from .gadgets import CertificationReport, CertifiedClaim, GadgetInstance
from .geometry import _INT, HPolytope, Point, PointSet, SubsetHull
from .ranges import BoxRange, EpsilonProfile, WeightedNet
from .verification import VerificationReport, Violation

REPORT_SCHEMA = "epsnet-report/1"
CLAIMS_SCHEMA = "epsnet-claims/1"

_SCHEMA_FILE = os.path.join(os.path.dirname(__file__), "schemas", "report.schema.json")


# ---------------------------------------------------------------------------
# rationals


def fraction_to_json(x: Fraction) -> Union[int, str]:
    """Integers stay JSON numbers; everything else becomes "p/q"."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def json_to_fraction(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise ValueError("booleans are not coordinates")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:
            raise ValueError(f"not a rational literal: {value!r}") from None
    if isinstance(value, float):
        # reachable only when a caller bypasses read_pointset's exact parse
        raise ValueError("binary floats are not accepted; use 'p/q' strings")
    raise ValueError(f"not a rational literal: {value!r}")


def point_to_json(p: Point) -> list:
    return [fraction_to_json(c) for c in p]


# ---------------------------------------------------------------------------
# point-set files


def read_pointset(path: str) -> PointSet:
    """Load a {"dim": d, "points": [[...], ...]} document exactly.

    JSON integers pass to the point set as they are; decimal number
    literals parse straight to Fraction, so "0.1" in the file means one
    tenth, not the nearest double, and "p/q" strings become Fractions.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=Fraction)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    dim = doc.get("dim")
    rows = doc.get("points")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"{path}: 'dim' must be a positive integer")
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: 'points' must be a nonempty array")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{path}: row {i} does not have {dim} entries")
        if not _INT.issuperset(map(type, row)):
            try:
                rows[i] = [c if type(c) is int else json_to_fraction(c) for c in row]
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
    return PointSet(dim, rows)


def pointset_document(P: PointSet, extra: Optional[Mapping[str, Any]] = None) -> dict:
    doc = dict(extra) if extra else {}
    doc["dim"] = P.dim
    doc["points"] = [point_to_json(p) for p in P.points]
    return doc


def write_pointset(
    path: str, P: PointSet, extra: Optional[Mapping[str, Any]] = None
) -> None:
    write_json_atomic(path, pointset_document(P, extra))


def _canonical_text(P: PointSet) -> str:
    """``dumps_json`` of P's point-set document, written out directly from
    its integer coordinates: integers as numbers, other rationals as
    reduced "p/q" strings."""
    scale = P.scale
    cols = zip(*P.ipts)
    if scale != 1:

        def coord(c: int) -> str:
            g = gcd(c, scale)
            return str(c // g) if g == scale else f'"{c // g}/{scale // g}"'

        cols = [map(coord, col) for col in cols]
    row = "    [\n" + ",\n".join(["      {}"] * P.dim) + "\n    ]"
    rows = ",\n".join(map(row.format, *cols))
    return f'{{\n  "dim": {P.dim},\n  "points": [\n{rows}\n  ]\n}}\n'


def pointset_digest(P: PointSet) -> str:
    """Content digest of the exact coordinates, independent of the file."""
    return "sha256:" + sha256(_canonical_text(P).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# deterministic JSON output


def dumps_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write_json_atomic(path: str, obj: Any) -> None:
    write_text_atomic(path, dumps_json(obj))


def write_text_atomic(path: str, text: str) -> None:
    """Write through a fresh temp file in the target's directory, renamed
    over the target.  The temp name takes 64 random bits from the OS
    rather than ``tempfile``'s generator, which reseeds itself in every
    forked process; the file is created exclusively with mode 0o600, as
    ``tempfile.mkstemp`` creates it."""
    directory = os.path.dirname(os.path.abspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    while True:
        tmp = os.path.join(directory, f".epsnet-{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, flags, 0o600)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# report fragments


def profile_to_json(profile: EpsilonProfile) -> list:
    return [fraction_to_json(e) for e in profile.eps]


def net_to_json(net: WeightedNet) -> dict:
    return {
        "points": [point_to_json(p) for p in net.points],
        "epsilon": profile_to_json(net.profile),
    }


def violation_to_json(v: Violation) -> dict:
    return {
        "level": v.level,
        "net_count": v.net_count,
        "point_count": v.point_count,
        "witness": _body_to_json(v.witness),
    }


def verification_to_json(rep: VerificationReport, timing: bool = False) -> dict:
    doc = {
        "ranges": rep.kind.value,
        "n": rep.n,
        "epsilon": profile_to_json(rep.profile),
        "verdicts": list(rep.verdicts),
        "passed": rep.passed,
        "violations": [violation_to_json(v) for v in rep.violations],
        "total_violations": rep.total_violations,
        "ranges_examined": rep.ranges_examined,
    }
    if timing:
        doc["elapsed_seconds"] = round(rep.elapsed, 6)
    return doc


def certification_to_json(report: CertificationReport) -> dict:
    return {
        "gadget": report.gadget,
        "passed": report.passed,
        "claims": [
            {
                "kind": r.claim.kind.value,
                "label": r.claim.label,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in report.results
        ],
    }


def _body_to_json(body) -> dict:
    """A violation witness or a gadget witness body."""
    if isinstance(body, BoxRange):
        return {
            "kind": "box",
            "intervals": [
                [fraction_to_json(lo), fraction_to_json(hi)]
                for lo, hi in body.intervals
            ],
        }
    if isinstance(body, SubsetHull):
        return {"kind": "subset-hull", "indices": list(body.indices)}
    if isinstance(body, HPolytope):
        return {
            "kind": "halfspace-intersection",
            "halfspaces": [
                {
                    "normal": point_to_json(h.normal),
                    "offset": fraction_to_json(h.offset),
                    "closed": h.closed,
                }
                for h in body.halfspaces
            ],
        }
    raise ValueError(f"unknown witness body {body!r}")


def _claim_to_json(claim: CertifiedClaim) -> dict:
    doc: dict[str, Any] = {
        "kind": claim.kind.value,
        "label": claim.label,
        "witnesses": list(claim.witnesses),
    }
    if claim.probes:
        doc["probes"] = [point_to_json(q) for q in claim.probes]
    if claim.hyperplane is not None:
        doc["hyperplane"] = {
            "normal": point_to_json(claim.hyperplane.normal),
            "offset": fraction_to_json(claim.hyperplane.offset),
        }
        doc["side"] = claim.side
    if claim.expected is not None:
        doc["expected"] = claim.expected
    if claim.kind.value == "membership":
        doc["contains"] = claim.contains
    if claim.kind.value == "oracle-threshold":
        doc["threshold"] = claim.threshold
        doc["trials"] = claim.trials
        doc["seed"] = claim.seed
    return doc


def claims_document(instance: GadgetInstance) -> dict:
    """Sidecar describing a gadget's witnesses and claims, for replay."""
    return {
        "schema": CLAIMS_SCHEMA,
        "gadget": instance.name,
        "parameters": {
            k: fraction_to_json(v) if isinstance(v, Fraction) else v
            for k, v in sorted(instance.parameters.items())
        },
        "witnesses": {
            name: _body_to_json(body)
            for name, body in sorted(instance.witnesses.items())
        },
        "claims": [_claim_to_json(c) for c in instance.claims],
    }


# ---------------------------------------------------------------------------
# report documents


def make_report(command: Sequence[str], P: Optional[PointSet] = None, **sections) -> dict:
    doc: dict[str, Any] = {"schema": REPORT_SCHEMA, "command": list(command)}
    if P is not None:
        doc["input"] = {"digest": pointset_digest(P), "n": P.n, "dim": P.dim}
    for key, value in sections.items():
        if value is not None:
            doc[key] = value
    return doc


def load_report_schema() -> dict:
    with open(_SCHEMA_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate_report(doc: Mapping[str, Any]) -> None:
    """Raise jsonschema.ValidationError when the document is malformed."""
    import jsonschema

    jsonschema.validate(doc, load_report_schema())
