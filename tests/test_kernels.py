import random

import pytest

from attackcf import _kernels
from attackcf.model import AttackPath

import oracles


def _succ(n, edges):
    return [sorted(v for u, v in edges if u == w) for w in range(n)]


def _pred(n, edges):
    return _succ(n, {(v, u) for u, v in edges})


def _random_edges(rng, n, p):
    return {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}


def _dfs(succ, sources, to_target, max_edges):
    # node i is named i, so paths come back as AttackPaths of node indices
    return _kernels.simple_paths(succ, range(len(succ)), sources, to_target, max_edges)


@pytest.mark.parametrize("seed", range(20))
def test_kernels_match_oracles(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = _random_edges(rng, n, rng.uniform(0.1, 0.5))
    sources = sorted(rng.sample(range(n), rng.randint(1, n)))
    targets = rng.sample(range(n), rng.randint(1, n))
    max_edges = rng.randint(1, n)
    succ, pred = _succ(n, edges), _pred(n, edges)
    adj = {u: {v for uu, v in edges if uu == u} for u in range(n)}
    radj = {v: {u for u, vv in edges if vv == v} for v in range(n)}

    for rows, graph in ((succ, adj), (pred, radj)):
        want = oracles.bfs_distances(graph, targets, max_edges)
        got = _kernels.bfs_lengths(rows, targets, max_edges)
        assert got == [want.get(v, -1) for v in range(n)]

    expected = [
        p for s in sources
        for p in sorted(
            p for t in targets
            for p in oracles.simple_paths_recursive(adj, s, t, max_edges)
        )
    ]
    # the DFS reads no distance of max_edges, so a BFS one level short gives
    # the same paths; either way it hands back the distances it marked
    for depth in (max_edges, max_edges - 1):
        to_target = _kernels.bfs_lengths(pred, targets, depth)
        before = list(to_target)
        got = _dfs(succ, sources, to_target, max_edges)
        assert got == expected
        assert to_target == before
    # the kernel emits the records discovery returns, not plain tuples
    assert all(type(p) is AttackPath for p in got)


def test_dfs_emits_sorted_paths():
    rng = random.Random(7)
    n = 14
    edges = _random_edges(rng, n, 0.3)
    targets = rng.sample(range(n), 5)
    to_target = _kernels.bfs_lengths(_pred(n, edges), targets, 5)
    paths = _dfs(_succ(n, edges), [0], to_target, 5)
    assert len(paths) > 100
    assert paths == sorted(paths)


@pytest.mark.parametrize("shortcut", [True, False])
def test_dfs_keeps_going_past_a_target(shortcut):
    # E(0) -> T1(1) -> T2(2): the path to T1 is also the prefix of the one to
    # T2, whether or not T2 can also be reached directly
    edges = {(0, 1), (1, 2)} | ({(0, 2)} if shortcut else set())
    to_target = _kernels.bfs_lengths(_pred(3, edges), [1, 2], 2)
    expected = [(0, 1), (0, 1, 2)] + ([(0, 2)] if shortcut else [])
    assert _dfs(_succ(3, edges), [0], to_target, 2) == expected


def test_entry_that_is_a_target_never_ends_a_path():
    # 0 <-> 1 <-> 2, every node a target: no path may return to the entry
    edges = {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert _dfs(_succ(3, edges), [0], [0, 0, 0], 4) == [(0, 1), (0, 1, 2)]


def test_dfs_restores_the_distances_it_marks():
    # cycle 0 -> 1 -> 2 -> 0 with targets 0 and 2, and 4 -> 3 out of reach:
    # source 0 is a target, source 4 has no target within the bound
    edges = {(0, 1), (1, 2), (2, 0), (4, 3)}
    to_target = _kernels.bfs_lengths(_pred(5, edges), [0, 2], 2)
    assert to_target == [0, 1, 0, -1, -1]
    assert _dfs(_succ(5, edges), [0, 1, 4], to_target, 3) == [(0, 1, 2), (1, 2), (1, 2, 0)]
    assert to_target == [0, 1, 0, -1, -1]


def test_dfs_never_extends_a_node_with_negative_bound():
    # 0 -> 1 -> 2 with 2 a target and 1 marked as a dead end: 1 is not a
    # target either, so the search stops there and never reaches 2
    succ = _succ(3, {(0, 1), (1, 2)})
    assert _dfs(succ, [0], [0, -1, 0], 5) == []


def test_bounded_multi_source_bfs():
    # chain 0 -> 1 -> 2 -> 3 -> 4, sources 0 and 3
    succ = _succ(5, {(0, 1), (1, 2), (2, 3), (3, 4)})
    assert _kernels.bfs_lengths(succ, [0], 4) == [0, 1, 2, 3, 4]
    assert _kernels.bfs_lengths(succ, [0], 2) == [0, 1, 2, -1, -1]
    assert _kernels.bfs_lengths(succ, [3, 0], 1) == [0, 1, -1, 0, 1]
    assert _kernels.bfs_lengths(succ, [2], 0) == [-1, -1, 0, -1, -1]


def test_bfs_on_edgeless_graph():
    assert _kernels.bfs_lengths([[], [], []], [1], 2) == [-1, 0, -1]
