"""Exact simplex unit tests, including randomized cross-checks."""

import random
from fractions import Fraction as F

import pytest

from epsnet import linprog
from epsnet.gadgets import certify, gadget_hexagon_3d, gadget_simplex
from epsnet.linprog import LPResult, feasible_point, solve

from helpers import DenseTableau, FractionTableau, solve_unique


def test_simple_bounded_max():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0  -> (8/5, 6/5)
    res = solve(
        2,
        [([F(1), F(2)], "<=", F(4)), ([F(3), F(1)], "<=", F(6))],
        objective=[F(1), F(1)],
        nonneg=[True, True],
        maximize=True,
    )
    assert res.ok
    assert res.value == F(14, 5)
    assert res.x == (F(8, 5), F(6, 5))


def test_degenerate_cycling_guard():
    # Beale's classical cycling example; Bland's rule must terminate.
    res = solve(
        4,
        [
            ([F(1, 4), F(-8), F(-1), F(9)], "<=", F(0)),
            ([F(1, 2), F(-12), F(-1, 2), F(3)], "<=", F(0)),
            ([F(0), F(0), F(1), F(0)], "<=", F(1)),
        ],
        objective=[F(-3, 4), F(20), F(-1, 2), F(6)],
        nonneg=[True] * 4,
    )
    assert res.ok
    assert res.value == F(-5, 4)


def test_infeasible():
    res = solve(1, [([F(1)], "<=", F(0)), ([F(1)], ">=", F(1))], nonneg=[True])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve(1, [([F(1)], ">=", F(1))], objective=[F(1)], maximize=True, nonneg=[True])
    assert res.status == "unbounded"


def test_free_variables():
    # x free: min x s.t. x >= -5 has optimum -5
    res = solve(1, [([F(1)], ">=", F(-5))], objective=[F(1)])
    assert res.ok and res.x == (F(-5),) and res.value == F(-5)


def test_equality_rows():
    res = solve(
        3,
        [
            ([F(1), F(1), F(1)], "==", F(1)),
            ([F(1), F(-1), F(0)], "==", F(0)),
            ([F(0), F(0), F(1)], "==", F(1, 3)),
        ],
        nonneg=[True, True, True],
    )
    assert res.ok
    assert res.x == (F(1, 3), F(1, 3), F(1, 3))


def test_redundant_equalities():
    # second row is the double of the first; phase 1 must drop it cleanly
    res = solve(
        2,
        [
            ([F(1), F(1)], "==", F(2)),
            ([F(2), F(2)], "==", F(4)),
        ],
        objective=[F(1), F(0)],
        nonneg=[True, True],
    )
    assert res.ok and res.value == F(0)


def test_feasible_point_weak_only():
    x = feasible_point(2, [([F(1), F(0)], "<=", F(3)), ([F(0), F(1)], ">=", F(2))])
    assert x is not None
    assert x[0] <= 3 and x[1] >= 2


def test_feasible_point_strict():
    x = feasible_point(1, [([F(1)], "<", F(1)), ([F(-1)], "<", F(0))])
    assert x is not None
    assert 0 < x[0] < 1


def test_feasible_point_strict_infeasible():
    # x < 0 and x > 0 cannot both hold
    assert feasible_point(1, [([F(1)], "<", F(0)), ([F(-1)], "<", F(0))]) is None


def test_feasible_point_boundary_not_strict():
    # weakly feasible only at x == 0, so the strict system is empty
    cons = [([F(1)], "<", F(0)), ([F(-1)], "<=", F(0))]
    assert feasible_point(1, cons) is None


def test_mixed_strict_weak():
    # 0 <= x, x + y == 1, y > 1/2  -> x in [0, 1/2)
    x = feasible_point(
        2,
        [
            ([F(1), F(0)], ">=", F(0)),
            ([F(1), F(1)], "==", F(1)),
            ([F(0), F(-1)], "<", F(-1, 2)),
        ],
    )
    assert x is not None
    assert x[0] + x[1] == 1 and x[1] > F(1, 2) and x[0] >= 0


def test_result_shape():
    res = solve(1, [([F(1)], "<=", F(1))], nonneg=[True])
    assert isinstance(res, LPResult)
    assert res.ok and res.value == 0


def _random_lp(seed):
    """Constraints and objective of a bounded 2-var LP with small integer
    data, feasible at the origin."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    cons = []
    for _ in range(m):
        a = F(rng.randint(-3, 3))
        b = F(rng.randint(-3, 3))
        c = F(rng.randint(0, 6))  # keeps the origin feasible
        if a == 0 and b == 0:
            a = F(1)
        cons.append(([a, b], "<=", c))
    # box to guarantee boundedness
    cons.append(([F(1), F(0)], "<=", F(10)))
    cons.append(([F(0), F(1)], "<=", F(10)))
    obj = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
    return cons, obj


@pytest.mark.parametrize("seed", range(30))
def test_randomized_against_vertex_enumeration(seed):
    """2-var LPs with small integer data, checked against brute force.

    Every optimum of a bounded feasible 2d LP sits on an intersection of
    two constraint lines (or of a line and an axis), so enumerating all
    pairwise intersections gives an independent optimum.
    """
    import itertools

    cons, obj = _random_lp(seed)
    res = solve(2, cons, objective=obj, nonneg=[True, True], maximize=True)
    assert res.ok

    lines = [(a[0], a[1], c) for a, _, c in cons]
    lines.append((F(1), F(0), F(0)))  # x >= 0 as boundary x == 0
    lines.append((F(0), F(1), F(0)))
    best = None
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if x < 0 or y < 0:
            continue
        if all(a * x + b * y <= c for (a, b, c) in lines[:-2]):
            v = obj[0] * x + obj[1] * y
            if best is None or v > best:
                best = v
    assert best is not None
    assert res.value == best


# --- the integer tableau against the Fraction ones ---------------------------


def _pivots_under(monkeypatch, base, run):
    """run() with linprog._Tableau replaced by a subclass of ``base`` that
    records every pivot, with the sign of its pivot entry, and every dropped
    row; returns (run's result, the record)."""
    pivots = []

    class Recording(base):
        def pivot(self, r, c):
            pivots.append((len(self.rows), r, c, self.rows[r][c] > 0))
            super().pivot(r, c)

        def drop(self, r):
            pivots.append(("drop", r))
            super().drop(r)

    with monkeypatch.context() as m:
        m.setattr(linprog, "_Tableau", Recording)
        return run(), pivots


def _same_under_all_tableaux(monkeypatch, run):
    """run()'s result and pivot list under the integer tableau, checked
    equal to those under the Fraction and the dense Fraction tableaux."""
    fast = _pivots_under(monkeypatch, linprog._Tableau, run)
    assert fast == _pivots_under(monkeypatch, FractionTableau, run)
    assert fast == _pivots_under(monkeypatch, DenseTableau, run)
    return fast


# bounded LPs, maximised over x >= 0, whose optima have large denominators
_RATIONAL_LPS = {
    "coprime-denominators": (
        [
            ([F(1, 999983), F(2, 999979), F(3, 999961)], "<=", F(5, 15625)),
            ([F(7, 999979), F(-1, 64), F(1, 999983)], "<=", F(1, 999961)),
            ([F(-1, 15625), F(1, 999961), F(4, 999983)], ">=", F(-3, 999979)),
            ([F(1), F(1), F(1)], "<=", F(1000)),
        ],
        [F(3, 999961), F(1, 64), F(-2, 999983)],
    ),
    "huge-coefficients": (
        [
            ([F(10**12 + 39), F(-(10**12) + 7), F(3)], "<=", F(10**12 + 61)),
            ([F(2), F(10**12 - 11), F(-(10**12) - 3, 7)], "<=", F(5 * 10**12)),
            ([F(10**12, 999983), F(1), F(10**12 + 9)], "<=", F(10**12 - 1)),
            ([F(1), F(1), F(1)], ">=", F(1, 10**12)),
        ],
        [F(10**12 - 1), F(10**12 + 1), F(-(10**12))],
    ),
    "fractional-optimum": (
        [([F(3), F(7)], "<=", F(5)), ([F(11), F(2)], "<=", F(13, 3))],
        [F(2), F(5)],
    ),
}


def _maximize(lp):
    cons, obj = lp
    return solve(len(obj), cons, objective=obj, nonneg=[True] * len(obj), maximize=True)


_SYSTEMS = {
    "infeasible": lambda: solve(
        1, [([F(1)], "<=", F(0)), ([F(1)], ">=", F(1))], nonneg=[True]
    ),
    "unbounded": lambda: solve(
        2,
        [([F(1), F(-1)], ">=", F(1)), ([F(0), F(1)], ">=", F(-2))],
        objective=[F(1), F(1)],
        maximize=True,
    ),
    "redundant-equalities": lambda: solve(
        3,
        [
            ([F(1), F(1), F(0)], "==", F(2)),
            ([F(2), F(2), F(0)], "==", F(4)),
            ([F(0), F(1), F(-1)], "==", F(1, 3)),
            ([F(1), F(2), F(-1)], "==", F(7, 3)),
        ],
        objective=[F(1), F(0), F(2)],
        nonneg=[True, True, True],
    ),
    "strict-feasible": lambda: feasible_point(
        2,
        [
            ([F(1), F(0)], ">=", F(0)),
            ([F(1), F(1)], "==", F(1)),
            ([F(0), F(-1)], "<", F(-1, 2)),
            ([F(3), F(-2)], "<", F(5, 7)),
        ],
    ),
    "strict-infeasible": lambda: feasible_point(
        2,
        [
            ([F(1), F(1)], "<", F(1)),
            ([F(-1), F(-1)], "<=", F(-1)),
            ([F(2), F(-3)], "<", F(4)),
        ],
    ),
    "strict-boundary": lambda: feasible_point(
        1, [([F(1)], "<", F(0)), ([F(-1)], "<=", F(0))]
    ),
    # phase 1 ends with an artificial basic at zero whose row is negative
    # in the first column it can pivot on
    "negative-drive-out": lambda: solve(
        2,
        [([F(2), F(-2)], ">=", F(-1)), ([F(-2), F(-1)], ">=", F(1))],
        objective=[F(2), F(1)],
        nonneg=[False, True],
    ),
    # an all-zero equality row stays artificial and is dropped
    "redundant-row": lambda: solve(
        2,
        [
            ([F(0), F(0)], "==", F(0)),
            ([F(0), F(-2)], ">=", F(-1)),
            ([F(2), F(-2)], "==", F(0)),
        ],
        objective=[F(-2), F(-1)],
        nonneg=[True, True],
    ),
    # entering x, both rows have ratio 1: row 1 leaves, because its basic
    # slack (column 2) precedes row 0's artificial (column 3)
    "basis-index-tie": lambda: solve(
        2,
        [([F(1), F(1)], "==", F(1)), ([F(1), F(0)], "<=", F(1))],
        objective=[F(1), F(2)],
        nonneg=[True, True],
        maximize=True,
    ),
    **{name: (lambda lp=lp: _maximize(lp)) for name, lp in _RATIONAL_LPS.items()},
}


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_sparse_pivot_matches_dense_on_special_systems(monkeypatch, name):
    _, pivots = _same_under_all_tableaux(monkeypatch, _SYSTEMS[name])
    assert pivots


def test_special_systems_reach_their_case(monkeypatch):
    def record(name):
        return _pivots_under(monkeypatch, linprog._Tableau, _SYSTEMS[name])

    _, pivots = record("negative-drive-out")
    assert any(p[-1] is False for p in pivots)
    _, pivots = record("redundant-row")
    assert ("drop", 0) in pivots
    _, pivots = record("basis-index-tie")
    assert pivots[0] == (2, 1, 0, True)
    for name in _RATIONAL_LPS:
        res, _ = record(name)
        assert res.ok and res.value.denominator > 1, name


@pytest.mark.parametrize("name", sorted(_RATIONAL_LPS))
def test_rational_optimum_matches_vertex_enumeration(name):
    """The optimum is feasible and equals the best feasible intersection
    of n of the rows and bounds x >= 0, solved by Gaussian elimination."""
    import itertools

    cons, obj = _RATIONAL_LPS[name]
    n = len(obj)
    res = _maximize(_RATIONAL_LPS[name])

    def feasible(x):
        return all(v >= 0 for v in x) and all(
            (lhs <= b if rel == "<=" else lhs >= b)
            for coeffs, rel, b in cons
            for lhs in [sum(c * v for c, v in zip(coeffs, x))]
        )

    assert feasible(res.x)
    assert res.value == sum(c * v for c, v in zip(obj, res.x))
    planes = [(coeffs, b) for coeffs, _, b in cons]
    planes += [([F(int(i == j)) for j in range(n)], F(0)) for i in range(n)]
    best = None
    for chosen in itertools.combinations(planes, n):
        x = solve_unique([c for c, _ in chosen], [b for _, b in chosen])
        if x is not None and feasible(x):
            v = sum(c * xi for c, xi in zip(obj, x))
            best = v if best is None else max(best, v)
    assert res.value == best


def test_sparse_pivot_matches_dense_on_random_lps(monkeypatch):
    for seed in range(30):
        cons, obj = _random_lp(seed)

        def run():
            return (
                solve(2, cons, objective=obj, nonneg=[True, True], maximize=True),
                solve(2, cons, objective=obj, maximize=False),
                feasible_point(2, cons, nonneg=[True, True]),
                feasible_point(2, [(a, "<", c) for a, _, c in cons]),
            )

        _same_under_all_tableaux(monkeypatch, run)


@pytest.mark.parametrize(
    "make", [gadget_hexagon_3d, lambda: gadget_simplex(4)],
    ids=["hexagon-3d", "simplex-d4"],
)
def test_certify_reports_equal_under_both_tableaux(monkeypatch, make):
    instance = make()
    _, pivots = _same_under_all_tableaux(monkeypatch, lambda: certify(instance))
    assert pivots
