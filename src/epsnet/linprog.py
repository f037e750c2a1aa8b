"""Exact linear programming over the rationals.

A small dense two-phase simplex.  Pivoting uses Bland's rule, so the solver
terminates on every input and is deterministic: the same constraint list
always yields the same basic solution.  This is what makes LP-derived
witness points reproducible.

The tableau computes on Python integers only, fraction-free in the manner
of Edmonds (1967) and Bareiss (1968) but with one denominator per row: row
``i`` is the integer vector ``rows[i]`` with right-hand side ``rhs[i]``,
standing for the rational row ``rows[i] / den[i]`` with ``den[i] > 0`` and
no common factor.  ``solve`` builds these rows once from the numerators
and denominators of the constraints; ``Fraction``s appear again only in
the returned ``x`` and ``value``.  A pivot scales the pivot row to a
positive pivot entry, and every other row with a nonzero entry in the
pivot column becomes ``pivot entry * row - entry * pivot row``, divided by
its gcd; rows with a zero there are left alone.  The reduced costs and the
objective are one more such row.  Every sign test and ratio comparison is
between the same rationals a ``Fraction`` tableau compares (a ratio
``rhs[i] / rows[i][c]`` does not depend on the row's denominator, and is
compared by cross-multiplying), so the pivot sequence, and with it every
result, is the one the ``Fraction`` tableau takes.

The module also provides :func:`feasible_point`, which accepts strict
inequalities.  Strictness is handled by the usual slack trick: every strict
row ``a.x < b`` becomes ``a.x + t <= b`` for a shared slack variable
``t <= 1`` and we maximise ``t``; the system is strictly feasible iff the
optimum is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

# relation tokens for constraints
LE = "<="
GE = ">="
EQ = "=="
LT = "<"

Coeffs = Sequence[Fraction]
Constraint = tuple[Coeffs, str, Fraction]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[tuple[Fraction, ...]]
    value: Optional[Fraction]

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ``nums`` and the least ``den > 0`` with ``values == nums / den``."""
    qs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _eliminate(
    row: list[int], b: int, den: int, prow: list[int], pb: int, pden: int, f: int
) -> tuple[list[int], int, int]:
    """The row ``(row, b) / den`` minus ``f / den`` times the pivot row
    ``(prow, pb) / pden``, whose pivot entry is ``pden`` (the rational 1),
    so the row's pivot-column entry ``f / den`` becomes 0: the integer row
    ``(pden * row - f * prow) / (pden * den)``, divided by its gcd."""
    new = [pden * v - f * p for v, p in zip(row, prow)]
    b = pden * b - f * pb
    den *= pden
    g = gcd(den, b, *new)
    if g != 1:
        new = [v // g for v in new]
        b //= g
        den //= g
    return new, b, den


class _Tableau:
    """Simplex tableau for min c.x s.t. A x = b, x >= 0, b >= 0.

    Row ``i`` is the rational row ``rows[i] / den[i]`` with right-hand side
    ``rhs[i] / den[i]``: integer entries, ``den[i] > 0``, no common factor.
    The basic column of a row holds ``den[i]``, i.e. the rational 1.
    """

    def __init__(
        self, rows: list[list[int]], rhs: list[int], den: list[int], basis: list[int], ncols: int
    ):
        self.rows = rows
        self.rhs = rhs
        self.den = den
        self.basis = basis
        self.ncols = ncols

    def value(self, r: int) -> Fraction:
        """The value of row ``r``'s basic variable."""
        return Fraction(self.rhs[r], self.den[r])

    def drop(self, r: int) -> None:
        del self.rows[r], self.rhs[r], self.den[r], self.basis[r]

    def pivot(self, r: int, c: int) -> None:
        rows, rhs, den = self.rows, self.rhs, self.den
        prow, pb = rows[r], rhs[r]
        if prow[c] < 0:
            prow = [-v for v in prow]
            pb = -pb
        g = gcd(pb, *prow)
        if g != 1:
            prow = [v // g for v in prow]
            pb //= g
        pden = prow[c]
        rows[r], rhs[r], den[r] = prow, pb, pden
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i], rhs[i], den[i] = _eliminate(row, rhs[i], den[i], prow, pb, pden, f)
        self.basis[r] = c

    def minimize(self, cost: list[int], cden: int) -> tuple[str, Fraction]:
        """Run simplex with Bland's rule on the cost vector ``cost / cden``.

        Returns (status, objective value).  The cost vector is reduced
        against the current basis first.  The reduced costs and minus the
        objective value are kept as one more integer row, ``(red, z) / zden``.
        """
        rows, rhs, den, basis = self.rows, self.rhs, self.den, self.basis
        red, z, zden = list(cost), 0, cden
        for r, bv in enumerate(basis):
            f = red[bv]
            if f:
                red, z, zden = _eliminate(red, z, zden, rows[r], rhs[r], den[r], f)
        while True:
            enter = -1
            for j in range(self.ncols):
                if red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", Fraction(-z, zden)
            # leaving row: least ratio rhs[i] / rows[i][enter] (the row
            # denominators cancel), ties to the smallest basic column
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave >= 0:
                        # sign of rhs[i] / a - lb / la, with a, la > 0
                        d = rhs[i] * la - lb * a
                        if d > 0 or (d == 0 and basis[i] > basis[leave]):
                            continue
                    leave, la, lb = i, a, rhs[i]
            if leave < 0:
                return "unbounded", ZERO
            f = red[enter]
            self.pivot(leave, enter)
            red, z, zden = _eliminate(red, z, zden, rows[leave], rhs[leave], den[leave], f)


def solve(
    n_vars: int,
    constraints: Sequence[Constraint],
    objective: Optional[Coeffs] = None,
    nonneg: Optional[Sequence[bool]] = None,
    maximize: bool = False,
) -> LPResult:
    """Solve an LP with free or sign-restricted variables exactly.

    ``constraints`` are (coeffs, rel, rhs) with rel one of ``<=``, ``>=``,
    ``==``.  Variables with ``nonneg[i]`` True are restricted to x_i >= 0,
    others are free (internally split into a difference of nonnegatives).
    With no objective this is a pure feasibility solve.
    """
    if nonneg is None:
        nonneg = [False] * n_vars
    # column layout: per variable one (nonneg) or two (free, +/-) columns
    col_of: list[tuple[int, int]] = []  # (plus column, minus column or -1)
    ncols = 0
    for i in range(n_vars):
        if nonneg[i]:
            col_of.append((ncols, -1))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    # each row as integers over one denominator: (row over vars, rhs, den, needs_slack)
    prepared: list[tuple[list[int], int, int, bool]] = []
    for coeffs, rel, b in constraints:
        if len(coeffs) != n_vars:
            raise ValueError("constraint arity mismatch")
        if rel not in (LE, GE, EQ):
            raise ValueError(f"unsupported relation {rel!r} (strict rows belong in feasible_point)")
        row, den = _scaled([*coeffs, b])
        b = row.pop()
        if rel == GE:
            row = [-c for c in row]
            b = -b
        prepared.append((row, b, den, rel != EQ))
    total = ncols + sum(needs_slack for *_, needs_slack in prepared)
    mat: list[list[int]] = []
    rvec: list[int] = []
    dens: list[int] = []
    slack_at = ncols
    slack_col_of_row: list[int] = []
    for row, b, den, needs_slack in prepared:
        full = [0] * total
        for i, c in enumerate(row):
            if c == 0:
                continue
            p, m = col_of[i]
            full[p] += c
            if m >= 0:
                full[m] -= c
        if needs_slack:
            full[slack_at] = den
            slack_col_of_row.append(slack_at)
            slack_at += 1
        else:
            slack_col_of_row.append(-1)
        mat.append(full)
        rvec.append(b)
        dens.append(den)
    # normalise rhs signs, add artificials where no basic slack is available
    art_rows: list[int] = []
    for i in range(len(mat)):
        if rvec[i] < 0:
            mat[i] = [-v for v in mat[i]]
            rvec[i] = -rvec[i]
            if slack_col_of_row[i] >= 0:
                slack_col_of_row[i] = -1  # slack became -1, unusable as basis
    basis: list[int] = []
    for i in range(len(mat)):
        sc = slack_col_of_row[i]
        if sc >= 0:
            basis.append(sc)
        else:
            art_rows.append(i)
            basis.append(-1)  # placeholder
    n_art = len(art_rows)
    width = total + n_art
    for k, i in enumerate(art_rows):
        basis[i] = total + k
    for i in range(len(mat)):
        mat[i] = mat[i] + [0] * n_art
    for k, i in enumerate(art_rows):
        mat[i][total + k] = dens[i]
    tab = _Tableau(mat, rvec, dens, basis, width)
    if n_art:
        cost1 = [0] * total + [1] * n_art
        status, val = tab.minimize(cost1, 1)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("phase 1 cannot be unbounded")
        if val != 0:
            return LPResult("infeasible", None, None)
        # drive remaining artificials out of the basis
        drop: list[int] = []
        for r in range(len(tab.rows)):
            if tab.basis[r] >= total:
                done = False
                for j in range(total):
                    if tab.rows[r][j] != 0:
                        tab.pivot(r, j)
                        done = True
                        break
                if not done:
                    drop.append(r)  # redundant row
        for r in sorted(drop, reverse=True):
            tab.drop(r)
    # phase 2
    if objective is None:
        status = "optimal"
        value = ZERO
    else:
        obj, oden = _scaled(objective)
        if maximize:
            obj = [-c for c in obj]
        cost2 = [0] * total + [oden] * n_art  # keep artificials parked at zero
        for i, c in enumerate(obj):
            if c == 0:
                continue
            p, m = col_of[i]
            cost2[p] += c
            if m >= 0:
                cost2[m] -= c
        status, value = tab.minimize(cost2, oden)
        if status == "optimal" and maximize:
            value = -value
    if status != "optimal":
        return LPResult(status, None, None)
    vals = [ZERO] * width
    for r, bv in enumerate(tab.basis):
        vals[bv] = tab.value(r)
    x = []
    for i in range(n_vars):
        p, m = col_of[i]
        v = vals[p]
        if m >= 0:
            v -= vals[m]
        x.append(v)
    return LPResult("optimal", tuple(x), value if objective is not None else ZERO)


def feasible_point(
    n_vars: int,
    constraints: Sequence[Constraint],
    nonneg: Optional[Sequence[bool]] = None,
) -> Optional[tuple[Fraction, ...]]:
    """Exact feasibility for a mixed weak/strict rational system.

    Returns a satisfying assignment or None.  Strict rows (relation ``<``)
    must hold with slack; weak rows exactly.
    """
    strict = [c for c in constraints if c[1] == LT]
    weak = [c for c in constraints if c[1] != LT]
    if not strict:
        res = solve(n_vars, weak, nonneg=nonneg)
        return res.x if res.ok else None
    if nonneg is None:
        nonneg = [False] * n_vars
    ext_nonneg = list(nonneg) + [True]
    ext: list[Constraint] = []
    for coeffs, rel, b in weak:
        ext.append((list(coeffs) + [ZERO], rel, b))
    for coeffs, _, b in strict:
        ext.append((list(coeffs) + [ONE], LE, b))
    ext.append(([ZERO] * n_vars + [ONE], LE, ONE))
    obj = [ZERO] * n_vars + [ONE]
    res = solve(n_vars + 1, ext, objective=obj, nonneg=ext_nonneg, maximize=True)
    if not res.ok or res.value is None or res.value <= 0:
        return None
    return res.x[:n_vars]
