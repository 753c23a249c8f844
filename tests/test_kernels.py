import random

import pytest

from attackcf import _kernels

import oracles


def _csr(n, edges):
    adj = {u: sorted(v for (uu, v) in edges if uu == u) for u in range(n)}
    indptr = [0]
    indices = []
    for u in range(n):
        indices.extend(adj.get(u, ()))
        indptr.append(len(indices))
    return indptr, indices


def _random_edges(rng, n, p):
    return {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}


def _paths(flat, lens):
    out, pos = [], 0
    for ln in lens:
        out.append(tuple(flat[pos:pos + ln]))
        pos += ln
    return out


def _mask(n, targets):
    return [i in targets for i in range(n)]


@pytest.mark.parametrize("seed", range(20))
def test_kernels_match_oracles(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = _random_edges(rng, n, rng.uniform(0.1, 0.5))
    src = rng.randrange(n)
    targets = rng.sample(range(n), rng.randint(1, n))
    max_edges = rng.randint(1, n)
    indptr, indices = _csr(n, edges)
    rindptr, rindices = _csr(n, {(v, u) for u, v in edges})
    adj = {u: {v for uu, v in edges if uu == u} for u in range(n)}
    radj = {v: {u for u, vv in edges if vv == v} for v in range(n)}

    for ptr, idx, graph in ((indptr, indices, adj), (rindptr, rindices, radj)):
        want = oracles.bfs_distances(graph, targets, max_edges)
        got = _kernels.bfs_lengths(ptr, idx, targets, max_edges)
        assert got == [want.get(v, -1) for v in range(n)]

    expected = sorted(
        p for t in targets
        for p in oracles.simple_paths_recursive(adj, src, t, max_edges)
    )
    to_target = _kernels.bfs_lengths(rindptr, rindices, targets, max_edges)
    for bound in (to_target, [0] * n):
        flat, lens = _kernels.simple_paths(indptr, indices, src, _mask(n, targets),
                                           bound, max_edges)
        assert _paths(flat, lens) == expected


def test_dfs_emits_sorted_paths():
    rng = random.Random(7)
    n = 14
    indptr, indices = _csr(n, _random_edges(rng, n, 0.3))
    targets = set(rng.sample(range(n), 5))
    flat, lens = _kernels.simple_paths(indptr, indices, 0, _mask(n, targets),
                                       [0] * n, 5)
    paths = _paths(flat, lens)
    assert len(paths) > 100
    assert paths == sorted(paths)


@pytest.mark.parametrize("prune", [True, False])
def test_dfs_keeps_going_past_a_target(prune):
    # E(0) -> T1(1) -> T2(2): the path to T1 is also the prefix of the one to T2
    indptr, indices = _csr(3, {(0, 1), (1, 2)})
    rindptr, rindices = _csr(3, {(1, 0), (2, 1)})
    is_target = _mask(3, {1, 2})
    to_target = (_kernels.bfs_lengths(rindptr, rindices, [1, 2], 2)
                 if prune else [0, 0, 0])
    flat, lens = _kernels.simple_paths(indptr, indices, 0, is_target, to_target, 2)
    assert _paths(flat, lens) == [(0, 1), (0, 1, 2)]


def test_entry_that_is_a_target_never_ends_a_path():
    # 0 <-> 1 <-> 2, every node a target: no path may return to the entry
    edges = {(0, 1), (1, 0), (1, 2), (2, 1)}
    indptr, indices = _csr(3, edges)
    flat, lens = _kernels.simple_paths(indptr, indices, 0, _mask(3, {0, 1, 2}),
                                       [0, 0, 0], 4)
    assert _paths(flat, lens) == [(0, 1), (0, 1, 2)]


def test_dfs_never_extends_a_node_with_negative_bound():
    # 0 -> 1 -> 2 with both 1 and 2 targets, but 1 marked as a dead end
    indptr, indices = _csr(3, {(0, 1), (1, 2)})
    flat, lens = _kernels.simple_paths(indptr, indices, 0, _mask(3, {1, 2}),
                                       [0, -1, 0], 5)
    assert _paths(flat, lens) == [(0, 1)]


def test_bounded_multi_source_bfs():
    # chain 0 -> 1 -> 2 -> 3 -> 4, sources 0 and 3
    indptr, indices = _csr(5, {(0, 1), (1, 2), (2, 3), (3, 4)})
    assert _kernels.bfs_lengths(indptr, indices, [0]) == [0, 1, 2, 3, 4]
    assert _kernels.bfs_lengths(indptr, indices, [0], 2) == [0, 1, 2, -1, -1]
    assert _kernels.bfs_lengths(indptr, indices, [3, 0], 1) == [0, 1, -1, 0, 1]
    assert _kernels.bfs_lengths(indptr, indices, [2], 0) == [-1, -1, 0, -1, -1]


def test_bfs_on_edgeless_graph():
    assert _kernels.bfs_lengths([0, 0, 0, 0], [], [1]) == [-1, 0, -1]
