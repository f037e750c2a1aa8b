"""The benchmark's checkers against brute force over all subsets.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import os
import random
import sys
from fractions import Fraction as F

import pytest

import checks
import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))


def subsets(points):
    for size in range(1, len(points) + 1):
        yield from itertools.combinations(points, size)


def brute_box_levels(points, net, eps):
    n = len(points)
    verdicts = [True] * len(net)
    for sub in subsets(points):
        lo = [min(p[a] for p in sub) for a in range(len(points[0]))]
        hi = [max(p[a] for p in sub) for a in range(len(points[0]))]

        def inside(q):
            return all(l <= c <= h for c, l, h in zip(q, lo, hi))

        count = sum(1 for p in points if inside(p))
        held = sum(1 for q in net if inside(q))
        for i, e in enumerate(eps, start=1):
            if count > e * n and held < i:
                verdicts[i - 1] = False
    return verdicts


def brute_convex_levels(points, net, eps):
    n = len(points)
    verdicts = [True] * len(net)
    for sub in subsets(points):
        hull = checks._hull(sorted(sub))
        held = sum(1 for q in net if checks._in_hull(q, hull))
        for i, e in enumerate(eps, start=1):
            if len(sub) > e * n and held < i:
                verdicts[i - 1] = False
    return verdicts


def random_net(rng, points, k, d):
    """Net points on input coordinates, between them, or on input points."""
    net = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.3:
            net.append(tuple(F(c) for c in rng.choice(points)))
        else:
            net.append(tuple(
                F(rng.choice(points)[a] + rng.choice(points)[a], 2) for a in range(d)
            ))
    return net


@pytest.mark.parametrize("d", [2, 3])
def test_box_levels_match_brute_force(d):
    rng = random.Random(d)
    failing = 0
    for _ in range(60):
        n = rng.randint(3, 8)
        pts = workloads.distinct_coords(rng, n, d, 20)
        k = rng.randint(1, 3)
        net = random_net(rng, pts, k, d)
        eps = sorted(F(rng.randint(1, 9), 10) for _ in range(k))
        want = brute_box_levels(pts, net, eps)
        assert checks.box_net_levels(pts, net, eps) == want
        failing += not all(want)
    assert failing  # the sample exercises failing levels too


def test_box_search_counts_match_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        pts = workloads.distinct_coords(rng, rng.randint(2, 7), 2, 15)
        net = random_net(rng, pts, 2, 2)
        best = [0, 0]
        for sub in subsets(pts):
            box = [(min(p[a] for p in sub), max(p[a] for p in sub)) for a in (0, 1)]
            count = sum(1 for p in pts if all(lo <= p[a] <= hi for a, (lo, hi) in enumerate(box)))
            held = sum(1 for q in net if all(lo <= q[a] <= hi for a, (lo, hi) in enumerate(box)))
            for i in range(held, 2):
                best[i] = max(best[i], count)
        assert checks.box_search_counts(pts, net) == tuple(best)


def test_convex_levels_match_brute_force():
    rng = random.Random(11)
    failing = 0
    for _ in range(60):
        n = rng.randint(3, 9)
        pts = workloads.general_position_2d(rng, n, 30)
        net = random_net(rng, pts, 2, 2)
        eps = sorted(F(rng.randint(1, 9), 10) for _ in range(2))
        want = brute_convex_levels(pts, net, eps)
        assert checks.convex_net_levels_by_subsets(pts, net, eps) == want
        assert checks.convex_net_levels_by_halfplanes(pts, net, eps) == want
        failing += not all(want)
    assert failing


def test_convex_max_avoiding_degenerate_inputs():
    # collinear points, repeated coordinates, avoided points on input points
    rng = random.Random(2)
    for _ in range(80):
        pts = list({(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 8))})
        avoid = [(F(rng.randint(0, 8), 2), F(rng.randint(0, 8), 2)) for _ in range(rng.randint(1, 2))]
        want = 0
        for sub in subsets(pts):
            hull = checks._hull(sorted(sub))
            if not any(checks._in_hull(q, hull) for q in avoid):
                want = max(want, len(sub))
        assert checks.convex_max_avoiding(pts, avoid) == want


def test_convex_search_counts_match_halfplanes():
    rng = random.Random(4)
    for _ in range(20):
        pts = workloads.general_position_2d(rng, 7, 30)
        q1, q2 = random_net(rng, pts, 2, 2)
        single = max(checks.convex_max_avoiding(pts, [q1]), checks.convex_max_avoiding(pts, [q2]))
        assert checks.convex_search_counts(pts, [q1, q2]) == (
            checks.convex_max_avoiding(pts, [q1, q2]), single,
        )


def test_checkers_accept_program_nets_and_reject_moved_ones():
    from epsnet import EpsilonProfile, PointSet
    from epsnet.constructions import construct_box_triple_2d, construct_convex_pair

    rng = random.Random(8)
    far = (F(10 ** 6), F(10 ** 6))

    pts = workloads.distinct_coords(rng, 40, 2, 1000)
    eps = [F(3, 8), F(1, 2), F(5, 8)]
    net, _ = construct_box_triple_2d(PointSet(2, pts), EpsilonProfile(tuple(eps)))
    assert checks.box_net_levels(pts, list(net.points), eps) == [True] * 3
    moved = [far] + list(net.points[1:])
    assert not all(checks.box_net_levels(pts, moved, eps))

    pts = workloads.general_position_2d(rng, 12, 1000)
    eps = [F(3, 5), F(4, 5)]
    net, _ = construct_convex_pair(PointSet(2, pts), EpsilonProfile(tuple(eps)))
    for verdict in (checks.convex_net_levels_by_subsets, checks.convex_net_levels_by_halfplanes):
        assert verdict(pts, list(net.points), eps) == [True, True]
        assert not all(verdict(pts, [far, net.points[1]], eps))


def test_arrangement_vertices_of_a_square():
    # four corners plus the crossing of the diagonals
    assert checks.arrangement_vertex_count([(0, 0), (2, 0), (0, 2), (2, 2)]) == 5


def test_halfspaces_contain():
    square = [
        {"normal": [1, 0], "offset": 1, "closed": True},
        {"normal": [0, 1], "offset": "1/2", "closed": False},
    ]
    assert checks.halfspaces_contain(square, (1, 0))
    assert not checks.halfspaces_contain(square, (0, F(1, 2)))


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = [op.argv for op in workloads.round_ops("box-nets", 3, 1, str(tmp_path))]
    first = [(tmp_path / f).read_text() for f in sorted(os.listdir(tmp_path))]
    workloads.round_ops("box-nets", 3, 1, str(tmp_path))
    again = [(tmp_path / f).read_text() for f in sorted(os.listdir(tmp_path))]
    assert first == again and a
    pts = workloads.general_position_2d(random.Random(1), 30, 100)
    assert all(checks.orient(a, b, c) != 0 for a, b, c in itertools.combinations(pts, 3))
    assert len({p[0] for p in pts}) == len({p[1] for p in pts}) == 30
