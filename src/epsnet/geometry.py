"""Exact rational geometric primitives.

Points, hyperplanes, halfspace polytopes and subset hulls, with exact
predicates throughout: hull membership and polytope intersection reduce to
rational LP feasibility, and the 2D fast paths (convex hulls, polygon
clipping) run on scaled integer coordinates.

Every scalar is a ``fractions.Fraction``.  Floats are rejected at the
boundary: binary floats silently misrepresent decimal inputs, and all
downstream decisions are strict comparisons on counts, so one ULP of noise
could flip a verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InfeasibleCountError,
)
from .linprog import feasible_point

Scalar = Fraction
Point = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce to an exact rational; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} is inexact; pass a Fraction, int, or a string like '3/7'"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")


def as_point(coords: Iterable, dim: Optional[int] = None) -> Point:
    p = tuple(frac(c) for c in coords)
    if dim is not None and len(p) != dim:
        raise DimensionMismatchError(f"expected {dim} coordinates, got {len(p)}")
    return p


@dataclass(frozen=True)
class PointSet:
    """An ordered set of n points in R^d.

    ``general_position=True`` asserts (and checks, at construction) that no
    d+1 points lie on a common hyperplane and that coordinates are pairwise
    distinct along every axis.  The check takes one integer determinant per
    (d+1)-subset, O(n^(d+1)) in all; operations that need just the per-axis
    distinctness test it themselves.

    The hash is computed once, on first use: point sets key the module
    caches of integer coordinates, axis orders and oracle masks, and
    rehashing every coordinate on each lookup would cost as much as the
    cached work at large n.
    """

    dim: int
    points: tuple[Point, ...]
    general_position: bool = False

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.points, self.general_position))

    def __hash__(self) -> int:
        return self._hash

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        pts = tuple(as_point(p, self.dim) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("point set must be non-empty")
        if self.general_position:
            self.check_general_position()

    @property
    def n(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def axis_coords(self, axis: int) -> list[Fraction]:
        if not 0 <= axis < self.dim:
            raise DimensionMismatchError(f"axis {axis} out of range for d={self.dim}")
        return [p[axis] for p in self.points]

    def has_distinct_coords(self, axis: Optional[int] = None) -> bool:
        axes = range(self.dim) if axis is None else [axis]
        return all(len(set(self.axis_coords(a))) == self.n for a in axes)

    def require_distinct_coords(self, axis: Optional[int] = None) -> None:
        if not self.has_distinct_coords(axis):
            where = "some axis" if axis is None else f"axis {axis}"
            raise DegenerateInputError(f"duplicate coordinates along {where}")

    def check_general_position(self) -> None:
        self.require_distinct_coords()
        d = self.dim
        if self.n < d + 1:
            return
        _, ipts = integer_coords(self)
        for idx in itertools.combinations(range(self.n), d + 1):
            base = ipts[idx[0]]
            rows = [[ipts[i][j] - base[j] for j in range(d)] for i in idx[1:]]
            if _det(rows) == 0:
                sub = tuple(self.points[i] for i in idx)
                raise DegenerateInputError(
                    f"{d + 1} points on a common hyperplane: {sub}"
                )

    def bounding_box(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(
            (min(p[a] for p in self.points), max(p[a] for p in self.points))
            for a in range(self.dim)
        )


def _det(mat: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination.

    Each division is exact, so every intermediate entry stays an integer
    (a minor of the input) and no rational arithmetic is needed.
    """
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            piv = next((r for r in range(c + 1, n) if m[r][c] != 0), None)
            if piv is None:
                return 0
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pc = m[c][c]
        for r in range(c + 1, n):
            rc = m[r][c]
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * pc - rc * m[c][j]) // prev
        prev = pc
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : <normal, x> = offset}."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(frac(c) for c in self.normal))
        object.__setattr__(self, "offset", frac(self.offset))
        if all(c == 0 for c in self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    @classmethod
    def axis(cls, dim: int, axis: int, value) -> "Hyperplane":
        normal = tuple(_ONE if i == axis else _ZERO for i in range(dim))
        return cls(normal, frac(value))

    def eval(self, q: Point) -> Fraction:
        return sum(a * x for a, x in zip(self.normal, q)) - self.offset

    def side(self, q: Point) -> int:
        """+1 above (normal side), -1 below, 0 on the plane."""
        v = self.eval(q)
        return (v > 0) - (v < 0)


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> <= offset}, or strict < when ``closed`` is False."""

    normal: tuple[Fraction, ...]
    offset: Fraction
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(frac(c) for c in self.normal))
        object.__setattr__(self, "offset", frac(self.offset))
        if all(c == 0 for c in self.normal):
            raise ValueError("halfspace normal must be nonzero")

    def contains(self, q: Point) -> bool:
        v = sum(a * x for a, x in zip(self.normal, q))
        return v <= self.offset if self.closed else v < self.offset


@dataclass(frozen=True)
class HPolytope:
    """A convex set given as a finite list of halfspaces.

    ``witness`` caches a point known to satisfy all halfspaces once one has
    been computed; emptiness itself is always decided by LP.
    """

    dim: int
    halfspaces: tuple[Halfspace, ...]
    witness: Optional[Point] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        for h in self.halfspaces:
            if len(h.normal) != self.dim:
                raise DimensionMismatchError("halfspace dimension mismatch")
        if self.witness is not None:
            object.__setattr__(self, "witness", as_point(self.witness, self.dim))

    def contains(self, q: Point) -> bool:
        return all(h.contains(q) for h in self.halfspaces)

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple]) -> "HPolytope":
        """Axis-aligned box {lo_a <= x_a <= hi_a} as a polytope."""
        dim = len(bounds)
        hs = []
        for a, (lo, hi) in enumerate(bounds):
            e = tuple(_ONE if i == a else _ZERO for i in range(dim))
            ne = tuple(-c for c in e)
            hs.append(Halfspace(e, frac(hi)))
            hs.append(Halfspace(ne, -frac(lo)))
        return cls(dim, tuple(hs))


@dataclass(frozen=True)
class SubsetHull:
    """conv of an index subset of a base point set."""

    base: PointSet
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("subset hull needs at least one index")
        if len(set(idx)) != len(idx):
            raise ValueError("subset hull indices must be distinct")
        if not all(0 <= i < self.base.n for i in idx):
            raise IndexError("subset hull index out of range")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self.base.points[i] for i in self.indices)


ConvexBody = Union[HPolytope, SubsetHull]


# ---------------------------------------------------------------------------
# hull membership and polytope intersection (exact LP)


def point_in_hull(q: Point, hull: SubsetHull, strict: bool = False) -> bool:
    """Is q in conv(hull points)?  With ``strict``, in its interior?

    Non-strict membership is feasibility of the convex-combination system.
    Interior membership maximises a radius r such that all 2d perturbations
    q +- r e_a stay in the hull: their convex hull is a cross-polytope with
    center q, so r > 0 iff q is interior.
    """
    pts = hull.points
    d = hull.dim
    q = as_point(q, d)
    m = len(pts)
    if not strict:
        cons = []
        for a in range(d):
            cons.append(([p[a] for p in pts], "==", q[a]))
        cons.append(([_ONE] * m, "==", _ONE))
        return feasible_point(m, cons, nonneg=[True] * m) is not None
    # variables: lambda[j][i] for each of the 2d perturbed points, plus r
    nv = 2 * d * m + 1
    cons = []
    for j in range(2 * d):
        axis, sgn = divmod(j, 2)
        delta = _ONE if sgn == 0 else -_ONE
        base = j * m
        for a in range(d):
            row = [_ZERO] * nv
            for i in range(m):
                row[base + i] = pts[i][a]
            if a == axis:
                row[-1] = -delta
            cons.append((row, "==", q[a]))
        row = [_ZERO] * nv
        for i in range(m):
            row[base + i] = _ONE
        cons.append((row, "==", _ONE))
    row = [_ZERO] * nv
    row[-1] = _ONE
    cons.append((row, "<=", _ONE))  # cap r so the LP stays bounded
    row = [_ZERO] * nv
    row[-1] = -_ONE
    cons.append((row, "<", _ZERO))  # r > 0
    return feasible_point(nv, cons, nonneg=[True] * nv) is not None


def polytopes_intersect(family: Sequence[ConvexBody]) -> Optional[Point]:
    """A witness point in the common intersection, or None if empty.

    One joint LP: d coordinates of the witness, plus convex-combination
    weights per subset hull; halfspace members contribute rows directly
    (strict rows for open halfspaces).  Exact, order-independent in verdict.
    """
    if not family:
        raise ValueError("family must be non-empty")
    d = family[0].dim
    for body in family:
        if body.dim != d:
            raise DimensionMismatchError("mixed dimensions in family")
    nv = d
    blocks: list[tuple[int, tuple[Point, ...]]] = []
    for body in family:
        if isinstance(body, SubsetHull):
            blocks.append((nv, body.points))
            nv += len(body.points)
    cons = []
    for body in family:
        if isinstance(body, SubsetHull):
            continue
        for h in body.halfspaces:
            row = [_ZERO] * nv
            for a in range(d):
                row[a] = h.normal[a]
            cons.append((row, "<=" if h.closed else "<", h.offset))
    for base, pts in blocks:
        m = len(pts)
        for a in range(d):
            row = [_ZERO] * nv
            row[a] = -_ONE
            for i in range(m):
                row[base + i] = pts[i][a]
            cons.append((row, "==", _ZERO))
        row = [_ZERO] * nv
        for i in range(m):
            row[base + i] = _ONE
        cons.append((row, "==", _ONE))
    nonneg = [False] * d + [True] * (nv - d)
    x = feasible_point(nv, cons, nonneg=nonneg)
    if x is None:
        return None
    return tuple(x[:d])


# ---------------------------------------------------------------------------
# axis-orthogonal splitting


def split_at_count(
    P: PointSet,
    axis: int,
    below_count: int,
    restrict_to: Optional[HPolytope] = None,
) -> Hyperplane:
    """Axis-orthogonal hyperplane with exactly ``below_count`` points strictly below.

    Counts are over the points inside ``restrict_to`` when given.  The plane
    sits at the midpoint between the straddling coordinates; with the count
    at either extreme it sits one unit outside the range.
    """
    pts = P.points
    if restrict_to is not None:
        pts = tuple(p for p in pts if restrict_to.contains(p))
    coords = sorted(p[axis] for p in pts)
    m = len(coords)
    if not 0 <= below_count <= m:
        raise InfeasibleCountError(
            f"below_count {below_count} out of range for {m} points"
        )
    if below_count == 0:
        value = (coords[0] - 1) if m else _ZERO
    elif below_count == m:
        value = coords[-1] + 1
    else:
        lo, hi = coords[below_count - 1], coords[below_count]
        if lo == hi:
            raise DegenerateInputError(
                f"duplicate coordinate {lo} along axis {axis} blocks the split"
            )
        value = (lo + hi) / 2
    return Hyperplane.axis(P.dim, axis, value)


def halving_hyperplane(P: PointSet, axis: int) -> Hyperplane:
    """Split P along an axis: floor(n/2) strictly below, ceil(n/2) above."""
    P.require_distinct_coords(axis)
    return split_at_count(P, axis, P.n // 2)


# ---------------------------------------------------------------------------
# integer-coordinate 2D fast paths

# Shared by hull construction, polygon clipping, and the range oracles.
# All take points as coordinate tuples; orientation results are exact for
# int and Fraction inputs alike.


def orient2d(a, b, c):
    """Twice the signed area of triangle abc; >0 iff counterclockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def hull2d(pts: Sequence[tuple]) -> list[tuple]:
    """Convex hull (counterclockwise, no repeated endpoint) via monotone chain.

    Requires the input sorted lexicographically; collinear interior points
    are dropped.
    """
    n = len(pts)
    if n <= 2:
        return list(dict.fromkeys(pts))
    lower: list[tuple] = []
    for p in pts:
        while len(lower) >= 2 and orient2d(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orient2d(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def point_in_convex_polygon(q, poly: Sequence[tuple]) -> int:
    """+1 strictly inside, 0 on the boundary, -1 outside a CCW convex polygon."""
    m = len(poly)
    if m == 1:
        return 0 if tuple(q) == tuple(poly[0]) else -1
    if m == 2:
        a, b = poly
        if orient2d(a, b, q) != 0:
            return -1
        t0 = min(a, b)
        t1 = max(a, b)
        return 0 if t0 <= tuple(q) <= t1 else -1
    on_edge = False
    for i in range(m):
        s = orient2d(poly[i], poly[(i + 1) % m], q)
        if s < 0:
            return -1
        if s == 0:
            on_edge = True
    return 0 if on_edge else 1


def clip_polygon_halfplane(poly: list[tuple], a, b) -> list[tuple]:
    """Sutherland-Hodgman clip of a convex polygon to the left of line a->b."""
    if not poly:
        return []
    out: list[tuple] = []
    m = len(poly)
    sides = [orient2d(a, b, p) for p in poly]
    for i in range(m):
        p, sp = poly[i], sides[i]
        q, sq = poly[(i + 1) % m], sides[(i + 1) % m]
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = Fraction(sp, sp - sq)
            out.append(
                (
                    p[0] + t * (q[0] - p[0]),
                    p[1] + t * (q[1] - p[1]),
                )
            )
    # collapse duplicates introduced by vertices exactly on the line
    dedup: list[tuple] = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def clip_polygon_to_hull(poly: list[tuple], hull: Sequence[tuple]) -> list[tuple]:
    """Intersect a convex polygon with a convex hull (CCW vertex list)."""
    m = len(hull)
    if m == 1:
        q = hull[0]
        return [q] if poly and point_in_convex_polygon(q, poly) >= 0 else []
    if m == 2:
        a, b = hull
        poly = clip_polygon_halfplane(poly, a, b)
        poly = clip_polygon_halfplane(poly, b, a)
        return poly
    for i in range(m):
        poly = clip_polygon_halfplane(poly, hull[i], hull[(i + 1) % m])
        if not poly:
            break
    return poly


@lru_cache(maxsize=32)
def _integer_scaling(ps: PointSet) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Scale factor and scaled coordinates making all coordinates integers."""
    denom = 1
    for p in ps.points:
        for c in p:
            denom = lcm(denom, c.denominator)
    scaled = tuple(
        tuple(int(c * denom) for c in p) for p in ps.points
    )
    return denom, scaled


def integer_coords(ps: PointSet) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Public wrapper: (scale, points*scale) with exact integer entries."""
    return _integer_scaling(ps)


def common_integer_coords(
    ps: PointSet, extra: Sequence[Point]
) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, ...]]]:
    """ps's points and the extra points, scaled by one factor to integers.

    The factor is positive, so orientations, lexicographic order and
    containment are those of the rational originals.
    """
    scale, ipts = integer_coords(ps)
    den = lcm(scale, *(c.denominator for q in extra for c in q))
    f = den // scale
    ipts = tuple(tuple(c * f for c in p) for p in ipts)
    iextra = [tuple(c.numerator * (den // c.denominator) for c in q) for q in extra]
    return ipts, iextra


def centroid(pts: Sequence[Point]) -> Point:
    n = len(pts)
    d = len(pts[0])
    return tuple(sum(p[a] for p in pts) / n for a in range(d))
