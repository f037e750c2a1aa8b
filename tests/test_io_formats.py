"""io_formats: exact file round trips, digests, report documents."""

import hashlib
import json
import os
import random
import stat
from fractions import Fraction as F

import pytest

from helpers import _slow_axis_orders, random_pointset, slow_read_pointset

from epsnet import ranges
from epsnet.constructions import construct_box_pair_highd
from epsnet.gadgets import gadget_hexagon_3d
from epsnet.geometry import PointSet
from epsnet.io_formats import (
    _canonical_text,
    claims_document,
    dumps_json,
    fraction_to_json,
    json_to_fraction,
    make_report,
    point_to_json,
    pointset_digest,
    read_pointset,
    validate_report,
    verification_to_json,
    write_json_atomic,
    write_pointset,
    write_text_atomic,
)
from epsnet.ranges import EpsilonProfile, WeightedNet
from epsnet.verification import verify_weighted_net_boxes


def P2(*pts):
    return PointSet(2, tuple(pts))


def test_fraction_serialization():
    assert fraction_to_json(F(3)) == 3
    assert fraction_to_json(F(-2, 1)) == -2
    assert fraction_to_json(F(3, 7)) == "3/7"
    assert fraction_to_json(F(-9, 4)) == "-9/4"


def test_fraction_parsing():
    assert json_to_fraction(5) == F(5)
    assert json_to_fraction("3/7") == F(3, 7)
    assert json_to_fraction("-7/2") == F(-7, 2)
    assert json_to_fraction("0.25") == F(1, 4)
    with pytest.raises(ValueError, match="zero denominator"):
        json_to_fraction("3/0")
    with pytest.raises(ValueError):
        json_to_fraction("abc")
    with pytest.raises(ValueError):
        json_to_fraction(True)
    with pytest.raises(ValueError, match="binary floats"):
        json_to_fraction(0.25)


def test_round_trip_preserves_exact_coordinates(tmp_path):
    P = P2((F(1, 3), F(-7, 2)), (F(0), F(41)))
    path = str(tmp_path / "p.json")
    write_pointset(path, P)
    back = read_pointset(path)
    assert back.dim == 2
    assert back.points == P.points


def test_decimal_literals_parse_exactly(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"dim": 2, "points": [["1/3", 0.1], [2, "-7/2"]]}')
    P = read_pointset(str(path))
    assert P.points == ((F(1, 3), F(1, 10)), (F(2), F(-7, 2)))


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1, 2]", "JSON object"),
        ('{"points": [[0, 0]]}', "'dim'"),
        ('{"dim": 0, "points": [[0]]}', "'dim'"),
        ('{"dim": 2, "points": []}', "nonempty"),
        ('{"dim": 2, "points": [[1, 2, 3]]}', "row 0"),
        ('{"dim": 2, "points": [[1, "3/0"]]}', "row 0"),
        ('{"dim": 2, "points": [[1, 2]], ', "not valid JSON"),
    ],
)
def test_read_pointset_rejects(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_pointset(str(path))


def test_digest_tracks_content():
    a = pointset_digest(P2((0, 0), (1, 1)))
    b = pointset_digest(P2((0, 0), (1, 1)))
    c = pointset_digest(P2((0, 0), (1, 2)))
    assert a == b != c
    assert a.startswith("sha256:") and len(a) == len("sha256:") + 64


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_digest_text_is_dumps_json_of_the_document(d):
    """The digest hashes the text ``dumps_json`` gives the point-set
    document, written without the json encoder."""
    rng = random.Random(d)
    values = [F(0), F(7), F(-12), F(1, 2), F(-5, 3), F(10 ** 20 + 1, 7), F(-(10 ** 15))]
    for n in (1, 2, 9):
        P = PointSet(d, tuple(
            tuple(rng.choice(values) for _ in range(d)) for _ in range(n)
        ))
        want = dumps_json({"dim": d, "points": [point_to_json(p) for p in P.points]})
        assert _canonical_text(P) == want
        assert pointset_digest(P) == (
            "sha256:" + hashlib.sha256(want.encode("utf-8")).hexdigest()
        )


def test_dumps_json_is_deterministic():
    text = dumps_json({"b": 1, "a": [F(1, 2).__str__()]})
    assert text == '{\n  "a": [\n    "1/2"\n  ],\n  "b": 1\n}\n'


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.json"
    write_json_atomic(str(path), {"x": 1})
    write_json_atomic(str(path), {"x": 2})
    assert json.loads(path.read_text()) == {"x": 2}
    assert os.listdir(tmp_path) == ["out.json"]
    # created exclusively with mode 0o600, as tempfile.mkstemp creates it
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600 & ~_umask()
    # a write that fails part way leaves the target as it was, and no temp
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(str(path), "{}\n" + "\ud800")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(str(tmp_path / "new.json"), "\ud800")
    assert json.loads(path.read_text()) == {"x": 2}
    assert os.listdir(tmp_path) == ["out.json"]


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _coord_literal(rng: random.Random, v: F, ints_only: bool) -> str:
    """v as a JSON integer, or, unless ``ints_only``, as a "p/q" string
    (possibly unreduced) or a decimal literal where v has one."""
    forms = []
    if v.denominator == 1:
        forms.append(str(v.numerator))
    if not ints_only:
        k = rng.choice((1, 1, 2, 3))
        forms.append(f'"{v.numerator * k}/{v.denominator * k}"')
        if v.denominator == 1:
            forms.append(f'"{v.numerator}"')
        for m in range(4):
            if 10 ** m % v.denominator == 0:
                digits = abs(v.numerator) * (10 ** m // v.denominator)
                whole, frac = divmod(digits, 10 ** m)
                sign = "-" if v < 0 else ""
                forms.append(f"{sign}{whole}.{frac:0{m}d}" if m else f"{sign}{whole}.0")
                forms.append(f"{sign}{digits}e-{m}")
                break
    return rng.choice(forms)


def _axis_read_backs(P: PointSet) -> list:
    ranges._axis_orders.cache_clear()
    return [
        (tuple(F(c, P.scale) for c in coords), order, rank)
        for coords, order, rank in ranges._axis_orders(P)
    ]


def test_read_pointset_matches_fraction_reader(tmp_path):
    """The integer reader and the Fraction reader build equal point sets
    from documents mixing JSON integers (negative, beyond 2**64), "p/q"
    strings and decimal literals, with repeated coordinates and duplicate
    points: equal sets, hashes, Fraction views, digests and axis orders."""
    rng = random.Random(2501)
    big = 2 ** 64
    pool = [
        F(0), F(3), F(-7), F(big + 5), F(-big - 11), F(10 ** 25 + 3),
        F(1, 2), F(-3, 4), F(5, 8), F(7, 3), F(-1, 6), F(big + 1, 5), F(3, 1000),
    ]
    path = str(tmp_path / "p.json")
    all_int = 0
    for trial in range(120):
        d = rng.randint(1, 4)
        ints_only = trial % 3 == 0
        values = [v for v in pool if v.denominator == 1] if ints_only else pool
        pts = [
            tuple(rng.choice(values) for _ in range(d))
            for _ in range(rng.randint(1, 9))
        ]
        pts += rng.sample(pts, rng.randint(0, len(pts)))  # duplicate points
        rng.shuffle(pts)
        rows = ", ".join(
            "[" + ", ".join(_coord_literal(rng, v, ints_only) for v in p) + "]"
            for p in pts
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"dim": {d}, "points": [{rows}]}}')
        fast = read_pointset(path)
        slow = slow_read_pointset(path)
        want = tuple(pts)
        assert fast == slow and hash(fast) == hash(slow), rows
        assert fast.points == slow.points == want, rows
        assert all(type(c) is int for p in fast.ipts for c in p)
        all_int += ints_only
        if ints_only:
            assert fast.scale == 1 and fast.ipts == tuple(
                tuple(int(c) for c in p) for p in want
            )
        text = dumps_json({"dim": d, "points": [point_to_json(p) for p in want]})
        digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert pointset_digest(fast) == pointset_digest(slow) == digest
        got = _axis_read_backs(fast)
        assert got == _axis_read_backs(slow)
        assert [(c, o) for c, o, _ in got] == list(_slow_axis_orders(slow))
    assert all_int == 40


@pytest.mark.parametrize(
    "rows",
    [
        "[[1, true]]",
        "[[1, null]]",
        '[[1, "abc"]]',
        '[[1, "3/0"]]',
        "[[1, [2]]]",
        '[[1, {"a": 1}]]',
        "[[1, 2], 3]",
        "[[1, 2], [1, 2, 3]]",
        '[[1, 2], ["1/2", false], [1]]',
        '[[1, 2], [1], ["1/2", false]]',
        '[[1, "1/2"], [0.5, "x"]]',
    ],
)
def test_read_pointset_rejects_as_the_fraction_reader(tmp_path, rows):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"dim": 2, "points": {rows}}}')
    with pytest.raises(ValueError) as want:
        slow_read_pointset(path)
    with pytest.raises(ValueError) as got:
        read_pointset(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("d", [2, 3])
def test_integer_input_builds_no_fraction_view(tmp_path, d):
    """An all-integer document goes through the box pair and the digest
    without the point set's Fraction view ever being built."""
    P0 = random_pointset(random.Random(d), 40, d)
    path = str(tmp_path / "p.json")
    write_pointset(path, P0)
    P = read_pointset(path)
    assert P == P0 and P.scale == 1
    construct_box_pair_highd(P, EpsilonProfile((F(1, 2), F(1, 2))))
    assert pointset_digest(P) == pointset_digest(P0)
    assert "points" not in vars(P)


def test_make_report_skips_empty_sections():
    doc = make_report(["verify"], P2((0, 0), (3, 4)), verification=None)
    assert set(doc) == {"schema", "command", "input"}
    assert doc["input"]["n"] == 2
    validate_report(doc)


def test_validate_report_rejects_bad_documents():
    import jsonschema

    with pytest.raises(jsonschema.ValidationError):
        validate_report({"schema": "bogus", "command": []})
    with pytest.raises(jsonschema.ValidationError):
        validate_report({"schema": "epsnet-report/1"})


def test_verification_json_shape():
    P = P2((0, 0), (2, 1), (4, 2), (6, 3))
    net = WeightedNet(((100, 100),), EpsilonProfile((F(1, 2),)))
    rep = verify_weighted_net_boxes(P, net)
    doc = verification_to_json(rep)
    assert doc["passed"] is False
    assert doc["verdicts"] == [False]
    witness = doc["violations"][0]["witness"]
    assert witness["kind"] == "box" and len(witness["intervals"]) == 2
    assert "elapsed_seconds" not in doc
    assert "elapsed_seconds" in verification_to_json(rep, timing=True)
    validate_report(make_report(["verify"], P, verification=doc))


def test_claims_document_round_trips_the_gadget():
    inst = gadget_hexagon_3d()
    doc = claims_document(inst)
    assert doc["schema"] == "epsnet-claims/1"
    assert doc["gadget"] == "hexagon-3d"
    assert doc["witnesses"]["hexagon"]["kind"] == "subset-hull"
    assert doc["witnesses"]["base_plane"]["kind"] == "halfspace-intersection"
    kinds = {c["kind"] for c in doc["claims"]}
    assert "oracle-threshold" in kinds and "strict-side" in kinds
    oracle = next(c for c in doc["claims"] if c["kind"] == "oracle-threshold")
    assert oracle["threshold"] == 5 and oracle["trials"] == 2048
    json.loads(dumps_json(doc))  # serializable as is
