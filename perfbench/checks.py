"""Independent answers for the benchmark's correctness checks.

Nothing here imports epsnet: every verdict the benchmark accepts from the
program is recomputed from the generated points with this module's own
exact integer and rational arithmetic.  Points are tuples of ints or
Fractions; net points come from the program's report as ints or "p/q"
strings and are parsed with :func:`parse_q`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm


def parse_q(value) -> Fraction:
    """A report coordinate (int or "p/q" string) as an exact Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact coordinate: {value!r}")
    return Fraction(value)


def parse_point(row) -> tuple[Fraction, ...]:
    return tuple(parse_q(c) for c in row)


def min_strict_count(eps: Fraction, n: int) -> int:
    """Smallest point count that exceeds eps * n."""
    return eps.numerator * n // eps.denominator + 1


def _as_integers(points, net):
    """Both point lists scaled by one common denominator to integers."""
    scale = 1
    for p in list(points) + list(net):
        for c in p:
            scale = lcm(scale, Fraction(c).denominator)

    def scaled(pts):
        return [tuple(int(Fraction(c) * scale) for c in p) for p in pts]

    return scaled(points), scaled(net)


# ---------------------------------------------------------------------------
# axis-parallel boxes


def box_dodging_count(points, avoid) -> int:
    """Largest number of points in a closed box that contains no avoided point.

    A closed box misses a point q iff on some axis it lies strictly below
    or strictly above q.  So every such box sits inside one open region
    that picks, for each avoided point, one (axis, side) half-space, and the
    bounding box of the points in such a region is itself a box that misses
    all of them.  The maximum over the (2d)^|avoid| regions is exact.
    """
    if not avoid:
        return len(points)
    d = len(points[0])
    sides = [(a, s) for a in range(d) for s in (-1, 1)]
    best = 0
    for assign in itertools.product(sides, repeat=len(avoid)):
        lo = [None] * d
        hi = [None] * d
        for q, (a, s) in zip(avoid, assign):
            if s < 0:
                hi[a] = q[a] if hi[a] is None else min(hi[a], q[a])
            else:
                lo[a] = q[a] if lo[a] is None else max(lo[a], q[a])
        count = 0
        for p in points:
            for a in range(d):
                if (lo[a] is not None and p[a] <= lo[a]) or (
                    hi[a] is not None and p[a] >= hi[a]
                ):
                    break
            else:
                count += 1
        best = max(best, count)
    return best


def box_net_levels(points, net, eps) -> list[bool]:
    """Per level i: every box with more than eps_i * n points holds >= i net points.

    Level i fails iff some box misses k - i + 1 of the k net points and
    still holds at least floor(eps_i * n) + 1 input points.
    """
    n, k = len(points), len(net)
    points, net = _as_integers(points, net)
    verdicts = []
    for level, e in enumerate(eps, start=1):
        need = min_strict_count(e, n)
        worst = max(
            box_dodging_count(points, [net[j] for j in T])
            for T in itertools.combinations(range(k), k - level + 1)
        )
        verdicts.append(worst < need)
    return verdicts


def canonical_box_counts(points, net):
    """(count, net points inside) for every box spanned by input coordinates.

    The bounding box of any subset of the points is such a box, and a box
    holds exactly the points of the bounding box of its content, which
    contains no more net points; so maxima over these boxes are maxima
    over all subsets.  Counts come from a 2D prefix-sum table over ranks.
    """
    n = len(points)
    xs = sorted(p[0] for p in points)
    ys = sorted(p[1] for p in points)
    xr = {v: i for i, v in enumerate(xs)}
    yr = {v: i for i, v in enumerate(ys)}
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for p in points:
        grid[xr[p[0]] + 1][yr[p[1]] + 1] += 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            grid[i][j] += grid[i - 1][j] + grid[i][j - 1] - grid[i - 1][j - 1]
    for x0 in range(n):
        for x1 in range(x0, n):
            in_x = [q for q in net if xs[x0] <= q[0] <= xs[x1]]
            for y0 in range(n):
                for y1 in range(y0, n):
                    count = (
                        grid[x1 + 1][y1 + 1]
                        - grid[x0][y1 + 1]
                        - grid[x1 + 1][y0]
                        + grid[x0][y0]
                    )
                    inside = sum(1 for q in in_x if ys[y0] <= q[1] <= ys[y1])
                    yield count, inside


def box_search_counts(points, net) -> tuple[int, ...]:
    """Per level i: the largest box count over boxes holding < i net points."""
    points, net = _as_integers(points, net)
    best = [0] * len(net)
    for count, inside in canonical_box_counts(points, net):
        for i in range(inside, len(net)):
            if count > best[i]:
                best[i] = count
    return tuple(best)


# ---------------------------------------------------------------------------
# planar convex sets


def orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _hull(pts):
    """Counterclockwise hull of lexicographically sorted points (Andrew)."""
    if len(pts) <= 2:
        return list(dict.fromkeys(pts))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _in_hull(q, hull) -> bool:
    """Closed membership of q in a counterclockwise hull."""
    if len(hull) == 1:
        return q == hull[0]
    if len(hull) == 2:
        a, b = hull
        return orient(a, b, q) == 0 and min(a, b) <= q <= max(a, b)
    m = len(hull)
    return all(orient(hull[i], hull[(i + 1) % m], q) >= 0 for i in range(m))


def convex_net_levels_by_subsets(points, net, eps) -> list[bool]:
    """Per level i, over every subset of floor(eps_i * n) + 1 points.

    A convex range with more points contains such a subset, whose hull
    lies inside the range and so holds no more net points.  Exponential
    in n; used for n <= 16.
    """
    n = len(points)
    points, net = _as_integers(points, net)
    order = sorted(points)
    verdicts = []
    for level, e in enumerate(eps, start=1):
        t = min_strict_count(e, n)
        ok = True
        if t <= n:
            for sub in itertools.combinations(order, t):
                hull = _hull(sub)
                if sum(1 for q in net if _in_hull(q, hull)) < level:
                    ok = False
                    break
        verdicts.append(ok)
    return verdicts


def _open_halfplane_contents(points, q) -> set[int]:
    """Bitmasks of the maximal point sets in an open halfplane bounded at q.

    A finite set's hull misses q iff the set lies in an open halfplane
    whose boundary passes through q.  Rotating that boundary about q until
    it meets a point shows every such content is inside one of these: for
    each point p != q, the points strictly on one side of line(q, p) plus
    the points of that line on one of its two rays from q.
    """
    masks = set()
    for p in points:
        u = (p[0] - q[0], p[1] - q[1])
        if u == (0, 0):
            continue
        left = right = fwd = back = 0
        for i, w in enumerate(points):
            v = (w[0] - q[0], w[1] - q[1])
            c = u[0] * v[1] - u[1] * v[0]
            if c > 0:
                left |= 1 << i
            elif c < 0:
                right |= 1 << i
            else:
                dot = u[0] * v[0] + u[1] * v[1]
                if dot > 0:
                    fwd |= 1 << i
                elif dot < 0:
                    back |= 1 << i
        for side in (left, right):
            for ray in (fwd, back):
                masks.add(side | ray)
    return masks


def convex_max_avoiding(points, avoid) -> int:
    """Largest subset of the points whose hull contains no avoided point.

    The subset's hull misses every q in ``avoid`` iff it lies in one open
    halfplane through each q, i.e. in their intersection; maximise over
    all combinations of the maximal halfplane contents.
    """
    lists = []
    for q in dict.fromkeys(avoid):
        masks = _open_halfplane_contents(points, q)
        if not masks:
            return 0
        lists.append(sorted(masks, key=int.bit_count, reverse=True))
    best = 0
    for combo in itertools.product(*lists):
        mask = (1 << len(points)) - 1
        for m in combo:
            mask &= m
        best = max(best, mask.bit_count())
    return best


def convex_net_levels_by_halfplanes(points, net, eps) -> list[bool]:
    """Per level i: no subset of > eps_i * n points has a hull missing k - i + 1 net points."""
    n, k = len(points), len(net)
    points, net = _as_integers(points, net)
    verdicts = []
    for level, e in enumerate(eps, start=1):
        need = min_strict_count(e, n)
        worst = max(
            convex_max_avoiding(points, [net[j] for j in T])
            for T in itertools.combinations(range(k), k - level + 1)
        )
        verdicts.append(worst < need)
    return verdicts


def convex_search_counts(points, net) -> tuple[int, ...]:
    """Per level i: the largest subset whose hull holds < i net points.

    Checked over all 2^n subsets, so only for small n.
    """
    n = len(points)
    points, net = _as_integers(points, net)
    best = [0] * len(net)
    for size in range(1, n + 1):
        for sub in itertools.combinations(sorted(points), size):
            hull = _hull(sub)
            inside = sum(1 for q in net if _in_hull(q, hull))
            for i in range(inside, len(net)):
                best[i] = max(best[i], size)
    return tuple(best)


def convex_verify_examined(n: int, eps) -> int:
    """Subset hulls the program's convex verifier must sweep."""
    return sum(comb(n, min_strict_count(e, n)) for e in eps if min_strict_count(e, n) <= n)


def arrangement_vertex_count(points) -> int:
    """Distinct input points and crossings of lines through point pairs."""
    lines = set()
    for a, b in itertools.combinations(points, 2):
        A, B = b[1] - a[1], a[0] - b[0]
        C = A * a[0] + B * a[1]
        lead = A if A != 0 else B
        lines.add((Fraction(A, lead), Fraction(B, lead), Fraction(C, lead)))
    vertices = {tuple(Fraction(c) for c in p) for p in points}
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            vertices.add(((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det))
    return len(vertices)


# ---------------------------------------------------------------------------
# gadgets


def halfspaces_contain(halfspaces, point) -> bool:
    """Membership in an intersection of halfspaces from a claims sidecar."""
    for h in halfspaces:
        lhs = sum(parse_q(a) * x for a, x in zip(h["normal"], point))
        off = parse_q(h["offset"])
        if lhs > off or (lhs == off and not h["closed"]):
            return False
    return True
