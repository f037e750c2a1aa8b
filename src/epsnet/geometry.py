"""Exact rational geometric primitives.

Points, hyperplanes, halfspace polytopes and subset hulls, with exact
predicates throughout: hull membership and polytope intersection reduce to
rational LP feasibility, and the 2D fast paths (convex hulls, polygon
clipping) run on integers: input points scaled by one common factor, and
clipped polygon vertices as canonical homogeneous integer triples.

A ``PointSet`` stores that integer form itself, built once when the set is
made: ``scale``, the least common denominator of the coordinates, and
``ipts``, the points times ``scale``.  Its ``points``, the coordinates as
``Fraction`` tuples, are a view built on first access.

Every scalar the API takes or returns is a ``fractions.Fraction``.  Floats
are rejected at the boundary: binary floats silently misrepresent decimal
inputs, and all downstream decisions are strict comparisons on counts, so
one ULP of noise could flip a verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
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
_INT = frozenset((int,))


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


class PointSet:
    """An ordered set of n points in R^d, stored in exact integer form.

    The constructor takes any rationals (ints, Fractions, "p/q" strings)
    and stores ``scale``, the least positive common denominator of all
    coordinates, and ``ipts``, each point times ``scale`` as a tuple of
    Python ints.  That form is unique, so equality compares it, and the
    hash, computed once on first use, is taken over it: point sets key
    the module caches of axis orders and oracle masks, and rehashing
    every coordinate on each lookup would cost as much as the cached work
    at large n.  ``points`` is a read-only view of the same coordinates as
    ``Fraction`` tuples, built on first access; the kernels that sort,
    count and digest the input never build it.

    ``check_general_position`` raises unless no d+1 points lie on a common
    hyperplane and coordinates are pairwise distinct along every axis.  In
    the plane it compares reduced integer directions, O(n^2) in all; for
    d >= 3 it takes one integer determinant per (d+1)-subset, O(n^(d+1)).
    Operations that need just the per-axis distinctness test it themselves.
    """

    dim: int
    scale: int
    ipts: tuple[tuple[int, ...], ...]

    def __init__(self, dim: int, points: Iterable[Iterable]):
        if dim < 1:
            raise ValueError("dimension must be positive")
        rows = tuple(map(tuple, points))
        if not rows:
            raise ValueError("point set must be non-empty")
        scale = 1
        if not _INT.issuperset(map(type, itertools.chain.from_iterable(rows))):
            rows = tuple(as_point(p, dim) for p in rows)
            scale = lcm(*{c.denominator for p in rows for c in p})
            rows = tuple(
                tuple(c.numerator * (scale // c.denominator) for c in p) for p in rows
            )
        elif set(map(len, rows)) != {dim}:
            bad = next(len(p) for p in rows if len(p) != dim)
            raise DimensionMismatchError(f"expected {dim} coordinates, got {bad}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ipts", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to PointSet.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete PointSet.{name}")

    @cached_property
    def points(self) -> tuple[Point, ...]:
        scale = self.scale
        if scale == 1:
            return tuple(tuple(map(Fraction, p)) for p in self.ipts)
        return tuple(tuple(Fraction(c, scale) for c in p) for p in self.ipts)

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.scale, self.ipts))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.scale, self.ipts) == (other.dim, other.scale, other.ipts)

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim!r}, points={self.points!r})"

    @property
    def n(self) -> int:
        return len(self.ipts)

    def __len__(self) -> int:
        return len(self.ipts)

    def __iter__(self):
        return iter(self.points)

    def axis_coords(self, axis: int) -> list[Fraction]:
        if not 0 <= axis < self.dim:
            raise DimensionMismatchError(f"axis {axis} out of range for d={self.dim}")
        return [p[axis] for p in self.points]

    def has_distinct_coords(self, axis: Optional[int] = None) -> bool:
        if axis is not None and not 0 <= axis < self.dim:
            raise DimensionMismatchError(f"axis {axis} out of range for d={self.dim}")
        axes = range(self.dim) if axis is None else [axis]
        return all(len({p[a] for p in self.ipts}) == self.n for a in axes)

    def require_distinct_coords(self, axis: Optional[int] = None) -> None:
        if not self.has_distinct_coords(axis):
            where = "some axis" if axis is None else f"axis {axis}"
            raise DegenerateInputError(f"duplicate coordinates along {where}")

    def check_general_position(self) -> None:
        self.require_distinct_coords()
        d = self.dim
        if self.n < d + 1:
            return
        ipts = self.ipts
        if d == 2:
            self._check_no_collinear_triple(ipts)
            return
        for idx in itertools.combinations(range(self.n), d + 1):
            base = ipts[idx[0]]
            rows = [[ipts[i][j] - base[j] for j in range(d)] for i in idx[1:]]
            if _det(rows) == 0:
                sub = tuple(self.points[i] for i in idx)
                raise DegenerateInputError(
                    f"{d + 1} points on a common hyperplane: {sub}"
                )

    def _check_no_collinear_triple(self, ipts) -> None:
        """The planar check in O(n^2): i, j, k are collinear exactly when
        the directions i->j and i->k reduce to the same primitive vector up
        to sign.  Coordinates are distinct per axis, so no direction is zero
        and its x-component fixes the sign.

        The first i with a repeated direction among the j > i, the smallest
        j that shares its direction with a later point, and the next point
        k in that direction form the first collinear triple in
        combinations order.
        """
        n = self.n
        for i in range(n - 2):
            xi, yi = ipts[i]
            first: dict[tuple[int, int], int] = {}
            repeats = []
            for j in range(i + 1, n):
                dx = ipts[j][0] - xi
                dy = ipts[j][1] - yi
                g = gcd(dx, dy)
                if dx < 0:
                    g = -g
                f = first.setdefault((dx // g, dy // g), j)
                if f != j:
                    repeats.append((f, j))
            if repeats:
                j, k = min(repeats)
                sub = (self.points[i], self.points[j], self.points[k])
                raise DegenerateInputError(
                    f"3 points on a common hyperplane: {sub}"
                )

    def bounding_box(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(
            (Fraction(min(col), self.scale), Fraction(max(col), self.scale))
            for col in zip(*self.ipts)
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
    """A convex set given as a finite list of halfspaces."""

    dim: int
    halfspaces: tuple[Halfspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        for h in self.halfspaces:
            if len(h.normal) != self.dim:
                raise DimensionMismatchError("halfspace dimension mismatch")

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


def point_in_hull(q: Point, hull: SubsetHull) -> bool:
    """Is q in conv(hull points)?  Feasibility of the convex-combination system."""
    pts = hull.points
    d = hull.dim
    q = as_point(q, d)
    m = len(pts)
    cons = []
    for a in range(d):
        cons.append(([p[a] for p in pts], "==", q[a]))
    cons.append(([_ONE] * m, "==", _ONE))
    return feasible_point(m, cons, nonneg=[True] * m) is not None


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


def split_at_count(P: PointSet, axis: int, below_count: int) -> Hyperplane:
    """Axis-orthogonal hyperplane with exactly ``below_count`` points strictly below.

    The plane sits at the midpoint between the straddling coordinates; with
    the count at either extreme it sits one unit outside the range.
    """
    coords = sorted(p[axis] for p in P.points)
    m = len(coords)
    if not 0 <= below_count <= m:
        raise InfeasibleCountError(
            f"below_count {below_count} out of range for {m} points"
        )
    if below_count == 0:
        value = coords[0] - 1  # a point set is never empty
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


def clip_polygon_halfplane(poly: list[tuple], a, b) -> list[tuple]:
    """Sutherland-Hodgman clip of a convex polygon to the closed halfplane
    left of the line a->b.

    Vertices are homogeneous integer triples (X, Y, W) for the point
    (X/W, Y/W), kept canonical (W > 0, gcd 1) so that tuple equality is
    rational equality; a and b are integer points.  A polygon with no vertex
    strictly outside comes back unchanged, consecutive repeated vertices
    collapse, and a clip that leaves a single point or a segment returns it.
    """
    ax, ay = a
    ux = b[0] - ax
    uy = b[1] - ay
    sides = [ux * (y - ay * w) - uy * (x - ax * w) for x, y, w in poly]
    if not poly or min(sides) >= 0:
        return poly
    out: list[tuple] = []
    m = len(poly)
    for i in range(m):
        p, sp = poly[i], sides[i]
        q, sq = poly[(i + 1) % m], sides[(i + 1) % m]
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            # sp*q - sq*p is the crossing point, for sides scaled by W
            x = sp * q[0] - sq * p[0]
            y = sp * q[1] - sq * p[1]
            w = sp * q[2] - sq * p[2]
            g = gcd(x, y, w)
            if w < 0:
                g = -g
            out.append((x // g, y // g, w // g))
    # collapse duplicates introduced by vertices exactly on the line
    dedup: list[tuple] = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def integer_coords(ps: PointSet) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(scale, points*scale): the least scale making all coordinates integers,
    as the point set stores them."""
    return ps.scale, ps.ipts


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
