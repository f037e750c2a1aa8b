"""Exact linear programming over the rationals.

A small dense two-phase simplex working entirely in ``fractions.Fraction``.
Pivoting uses Bland's rule, so the solver terminates on every input and is
deterministic: the same constraint list always yields the same basic
solution.  This is what makes LP-derived witness points reproducible.
Pivots and reduced-cost updates skip the zero entries of the pivot row,
most of a row in these tableaux; the arithmetic is exact, so skipping them
changes no pivot choice and no result.

The module also provides :func:`feasible_point`, which accepts strict
inequalities.  Strictness is handled by the usual slack trick: every strict
row ``a.x < b`` becomes ``a.x + t <= b`` for a shared slack variable
``t <= 1`` and we maximise ``t``; the system is strictly feasible iff the
optimum is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class _Tableau:
    """Simplex tableau for min c.x s.t. A x = b, x >= 0, b >= 0."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], basis: list[int], ncols: int):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols

    def pivot(self, r: int, c: int) -> None:
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        piv = prow[c]
        if piv != 1:
            inv = ONE / piv
            prow = rows[r] = [v * inv if v else v for v in prow]
            rhs[r] *= inv
        prhs = rhs[r]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f == 0:
                continue
            rows[i] = [v - f * p if p else v for v, p in zip(row, prow)]
            rhs[i] -= f * prhs
        self.basis[r] = c

    def minimize(self, cost: list[Fraction]) -> tuple[str, Fraction]:
        """Run simplex with Bland's rule on the given cost vector.

        Returns (status, objective value).  The cost vector is reduced
        against the current basis first.
        """
        rows, rhs, basis = self.rows, self.rhs, self.basis
        red = list(cost)
        z = ZERO
        for r, bv in enumerate(basis):
            f = red[bv]
            if f != 0:
                for j, p in enumerate(rows[r]):
                    if p:
                        red[j] -= f * p
                z -= f * rhs[r]
        while True:
            enter = -1
            for j in range(self.ncols):
                if red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", -z
            leave = -1
            best: Optional[Fraction] = None
            for i in range(len(rows)):
                a = rows[i][enter]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", ZERO
            f = red[enter]
            self.pivot(leave, enter)
            for j, p in enumerate(rows[leave]):
                if p:
                    red[j] -= f * p
            z -= f * rhs[leave]


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
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_cols = 0
    prepared: list[tuple[list[Fraction], Fraction, bool]] = []  # (row over vars, rhs, needs_slack)
    for coeffs, rel, b in constraints:
        if len(coeffs) != n_vars:
            raise ValueError("constraint arity mismatch")
        row = [Fraction(c) for c in coeffs]
        b = Fraction(b)
        if rel == GE:
            row = [-c for c in row]
            b = -b
            rel = LE
        if rel == LE:
            prepared.append((row, b, True))
            slack_cols += 1
        elif rel == EQ:
            prepared.append((row, b, False))
        else:
            raise ValueError(f"unsupported relation {rel!r} (strict rows belong in feasible_point)")
    total = ncols + slack_cols
    mat: list[list[Fraction]] = []
    rvec: list[Fraction] = []
    slack_at = ncols
    slack_col_of_row: list[int] = []
    for row, b, needs_slack in prepared:
        full = [ZERO] * total
        for i, c in enumerate(row):
            if c == 0:
                continue
            p, m = col_of[i]
            full[p] += c
            if m >= 0:
                full[m] -= c
        if needs_slack:
            full[slack_at] = ONE
            slack_col_of_row.append(slack_at)
            slack_at += 1
        else:
            slack_col_of_row.append(-1)
        mat.append(full)
        rvec.append(b)
    # normalise rhs signs, add artificials where no basic slack is available
    art_rows: list[int] = []
    for i in range(len(mat)):
        if rvec[i] < 0:
            mat[i] = [-v for v in mat[i]]
            rvec[i] = -rvec[i]
            if slack_col_of_row[i] >= 0:
                slack_col_of_row[i] = -1  # slack became -1, unusable as basis
    basis: list[int] = []
    extra: list[list[Fraction]] = []
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
        mat[i] = mat[i] + [ZERO] * n_art
    for k, i in enumerate(art_rows):
        mat[i][total + k] = ONE
    tab = _Tableau(mat, rvec, basis, width)
    if n_art:
        cost1 = [ZERO] * width
        for k in range(n_art):
            cost1[total + k] = ONE
        status, val = tab.minimize(cost1)
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
            del tab.rows[r]
            del tab.rhs[r]
            del tab.basis[r]
    # phase 2
    if objective is None:
        status = "optimal"
        value = ZERO
    else:
        obj = [Fraction(c) for c in objective]
        if maximize:
            obj = [-c for c in obj]
        cost2 = [ZERO] * width
        for i, c in enumerate(obj):
            if c == 0:
                continue
            p, m = col_of[i]
            cost2[p] += c
            if m >= 0:
                cost2[m] -= c
        for k in range(n_art):
            cost2[total + k] = Fraction(1)  # keep artificials parked at zero
        status, value = tab.minimize(cost2)
        if status == "optimal" and maximize:
            value = -value
    if status != "optimal":
        return LPResult(status, None, None)
    vals = [ZERO] * width
    for r, bv in enumerate(tab.basis):
        vals[bv] = tab.rhs[r]
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
