import random

import numpy as np
import pytest

from attackcf import _kernels


def _csr(n, edges):
    adj = {u: sorted(v for (uu, v) in edges if uu == u) for u in range(n)}
    indptr = [0]
    indices = []
    for u in range(n):
        indices.extend(adj.get(u, ()))
        indptr.append(len(indices))
    return np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64)


def _random_edges(rng, n, p):
    return {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}


needs_numba = pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba unavailable")


@needs_numba
@pytest.mark.parametrize("seed", range(20))
def test_backends_agree(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    indptr, indices = _csr(n, _random_edges(rng, n, rng.uniform(0.1, 0.5)))
    src = rng.randrange(n)
    targets = np.array(rng.sample(range(n), rng.randint(1, n)), dtype=np.int64)
    max_edges = rng.randint(1, n)

    d_py = _kernels.bfs_lengths(indptr, indices, targets, max_edges, backend="python")
    d_nb = _kernels.bfs_lengths(indptr, indices, targets, max_edges, backend="numba")
    np.testing.assert_array_equal(d_py, d_nb)

    is_target = np.zeros(n, dtype=np.bool_)
    is_target[targets] = True
    f_py, l_py = _kernels.simple_paths(indptr, indices, src, is_target, d_py,
                                       max_edges, backend="python")
    f_nb, l_nb = _kernels.simple_paths(indptr, indices, src, is_target, d_py,
                                       max_edges, backend="numba")
    np.testing.assert_array_equal(f_py, f_nb)
    np.testing.assert_array_equal(l_py, l_nb)


def _paths(flat, lens):
    out, pos = [], 0
    for ln in lens:
        out.append(tuple(int(i) for i in flat[pos:pos + ln]))
        pos += ln
    return out


def _mask(n, targets):
    mask = np.zeros(n, dtype=np.bool_)
    mask[list(targets)] = True
    return mask


@pytest.mark.parametrize("prune", [True, False])
def test_dfs_keeps_going_past_a_target(prune):
    # E(0) -> T1(1) -> T2(2): the path to T1 is also the prefix of the one to T2
    indptr, indices = _csr(3, {(0, 1), (1, 2)})
    rindptr, rindices = _csr(3, {(1, 0), (2, 1)})
    is_target = _mask(3, {1, 2})
    to_target = (_kernels.bfs_lengths(rindptr, rindices, [1, 2], 2, backend="python")
                 if prune else np.zeros(3, dtype=np.int64))
    flat, lens = _kernels.simple_paths(indptr, indices, 0, is_target, to_target, 2,
                                       backend="python")
    assert _paths(flat, lens) == [(0, 1), (0, 1, 2)]


def test_entry_that_is_a_target_never_ends_a_path():
    # 0 <-> 1 <-> 2, every node a target: no path may return to the entry
    edges = {(0, 1), (1, 0), (1, 2), (2, 1)}
    indptr, indices = _csr(3, edges)
    flat, lens = _kernels.simple_paths(indptr, indices, 0, _mask(3, {0, 1, 2}),
                                       np.zeros(3, dtype=np.int64), 4, backend="python")
    assert _paths(flat, lens) == [(0, 1), (0, 1, 2)]


def test_dfs_never_extends_a_node_with_negative_bound():
    # 0 -> 1 -> 2 with both 1 and 2 targets, but 1 marked as a dead end
    indptr, indices = _csr(3, {(0, 1), (1, 2)})
    to_target = np.array([0, -1, 0], dtype=np.int64)
    flat, lens = _kernels.simple_paths(indptr, indices, 0, _mask(3, {1, 2}),
                                       to_target, 5, backend="python")
    assert _paths(flat, lens) == [(0, 1)]


def test_bounded_multi_source_bfs():
    # chain 0 -> 1 -> 2 -> 3 -> 4, sources 0 and 3
    indptr, indices = _csr(5, {(0, 1), (1, 2), (2, 3), (3, 4)})
    unbounded = _kernels.bfs_lengths(indptr, indices, [0], backend="python")
    assert list(unbounded) == [0, 1, 2, 3, 4]
    bounded = _kernels.bfs_lengths(indptr, indices, [0], 2, backend="python")
    assert list(bounded) == [0, 1, 2, -1, -1]
    multi = _kernels.bfs_lengths(indptr, indices, np.array([3, 0]), 1,
                                 backend="python")
    assert list(multi) == [0, 1, -1, 0, 1]
    assert list(_kernels.bfs_lengths(indptr, indices, [2], 0, backend="python")) == [
        -1, -1, 0, -1, -1]


def test_bfs_on_edgeless_graph():
    indptr = np.zeros(4, dtype=np.int64)
    indices = np.zeros(0, dtype=np.int64)
    dist = _kernels.bfs_lengths(indptr, indices, 1, backend="python")
    assert list(dist) == [-1, 0, -1]


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("ATTACKCF_BACKEND", "python")
    assert _kernels.default_backend() == "python"
    monkeypatch.setenv("ATTACKCF_BACKEND", "nonsense")
    with pytest.raises(ValueError, match="nonsense"):
        _kernels.default_backend()
    monkeypatch.delenv("ATTACKCF_BACKEND")
    assert _kernels.default_backend() in _kernels.available_backends()


def test_unknown_backend_argument():
    indptr = np.zeros(2, dtype=np.int64)
    indices = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="turbo"):
        _kernels.bfs_lengths(indptr, indices, 0, backend="turbo")


def test_warm_up_runs_everywhere():
    for backend in _kernels.available_backends():
        _kernels.warm_up(backend)
