"""Hot graph kernels with interchangeable numba and pure-Python backends.

Both backends run the same two function bodies over CSR adjacency arrays
(indptr: int64[n+1], indices: int64[nnz], neighbor indices sorted within
each row): a multi-source BFS and a simple-path DFS towards a target mask.
ATTACKCF_BACKEND (python or numba) picks the backend; unset, it is numba
whenever numba imports cleanly, else python.  Outputs are bit-identical
across backends.
"""

from __future__ import annotations

import os

import numpy as np

_ENV_VAR = "ATTACKCF_BACKEND"


def _bfs_lengths(indptr, indices, sources, max_depth):
    # multi-source BFS over directed CSR edges: dist[v] is the edge count
    # from the nearest source; -1 marks unreachable or, when max_depth >= 0,
    # farther than max_depth
    n = indptr.shape[0] - 1
    dist = np.full(n, -1, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    head = 0
    tail = 0
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            queue[tail] = s
            tail += 1
    while head < tail:
        v = queue[head]
        head += 1
        if max_depth >= 0 and dist[v] >= max_depth:
            continue
        for e in range(indptr[v], indptr[v + 1]):
            w = indices[e]
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue[tail] = w
                tail += 1
    return dist


def _simple_paths(indptr, indices, src, is_target, to_target, max_edges):
    # Iterative DFS from src that records a path each time it steps onto a
    # target and keeps going past it (see simple_paths for the bound).
    # Because neighbor indices are sorted per row, paths come out in
    # lexicographic node-sequence order.  Paths are packed into a flat
    # buffer (grown by doubling); lens[i] is the node count of path i.
    n = indptr.shape[0] - 1
    on_path = np.zeros(n, dtype=np.bool_)
    nodes = np.empty(max_edges + 1, dtype=np.int64)
    eptr = np.empty(max_edges + 1, dtype=np.int64)
    flat = np.empty(256, dtype=np.int64)
    lens = np.empty(64, dtype=np.int64)
    n_paths = 0
    used = 0
    depth = 0
    nodes[0] = src
    eptr[0] = indptr[src]
    on_path[src] = True
    while depth >= 0:
        v = nodes[depth]
        if eptr[depth] < indptr[v + 1]:
            w = indices[eptr[depth]]
            eptr[depth] += 1
            if on_path[w]:
                continue
            d = depth + 1
            if is_target[w]:
                need = d + 1
                while used + need > flat.shape[0]:
                    grown = np.empty(flat.shape[0] * 2, dtype=np.int64)
                    grown[:used] = flat[:used]
                    flat = grown
                if n_paths == lens.shape[0]:
                    grown2 = np.empty(lens.shape[0] * 2, dtype=np.int64)
                    grown2[:n_paths] = lens[:n_paths]
                    lens = grown2
                for i in range(d):
                    flat[used + i] = nodes[i]
                flat[used + d] = w
                used += need
                lens[n_paths] = need
                n_paths += 1
            if d < max_edges and to_target[w] >= 0 and d + to_target[w] <= max_edges:
                depth = d
                nodes[depth] = w
                eptr[depth] = indptr[w]
                on_path[w] = True
        else:
            on_path[v] = False
            depth -= 1
    return flat[:used], lens[:n_paths]


_IMPLS: dict[str, tuple] = {"python": (_bfs_lengths, _simple_paths)}

try:
    from numba import njit

    _IMPLS["numba"] = (
        njit(cache=True)(_bfs_lengths),
        njit(cache=True)(_simple_paths),
    )
except ImportError:
    pass


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_IMPLS))


def default_backend() -> str:
    """Backend chosen by ATTACKCF_BACKEND, else numba when available."""
    choice = os.environ.get(_ENV_VAR, "").strip().lower()
    if choice:
        if choice not in _IMPLS:
            raise ValueError(
                f"{_ENV_VAR}={choice!r} is not available; "
                f"choose one of {', '.join(available_backends())}"
            )
        return choice
    return "numba" if "numba" in _IMPLS else "python"


def bfs_lengths(indptr, indices, sources, max_depth: int | None = None):
    """Edge counts from the nearest of sources (one index or an array of them)
    to every node; -1 for unreachable nodes and, unless max_depth is None,
    for nodes farther than max_depth.  Pass the reverse CSR to get distances
    to the sources instead."""
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    depth = -1 if max_depth is None else max_depth
    return _IMPLS[default_backend()][0](indptr, indices, sources, np.int64(depth))


def simple_paths(indptr, indices, src: int, is_target, to_target, max_edges: int):
    """All simple paths from src to any node flagged in is_target, up to
    max_edges edges, in lexicographic order.

    is_target is a bool[n] mask.  to_target (int64[n]) bounds the search: a
    path of d edges ending at w is extended only if d < max_edges,
    to_target[w] >= 0 and d + to_target[w] <= max_edges.  Distances to the
    nearest target (bfs_lengths over the reverse CSR, bounded at max_edges)
    prune without changing the result; all zeros prunes nothing.

    Returns (flat, lens): flat holds the concatenated node sequences and
    lens the per-path node counts.
    """
    return _IMPLS[default_backend()][1](
        indptr, indices, np.int64(src), is_target, to_target, np.int64(max_edges)
    )


def warm_up() -> None:
    """Compile the selected backend's kernels so timed runs exclude JIT cost."""
    indptr = np.array([0, 1, 1], dtype=np.int64)
    indices = np.array([1], dtype=np.int64)
    bfs_lengths(indptr, indices, 0, 1)
    simple_paths(indptr, indices, 0, np.array([False, True]),
                 np.zeros(2, dtype=np.int64), 1)
