"""Hot graph kernels over CSR adjacency held in plain Python lists.

indptr has n + 1 offsets and indices the neighbour indices, ascending
within each row (see attackcf.model.Adjacency).  The two kernels are a
multi-source BFS and a simple-path DFS towards a set of targets.
"""

from __future__ import annotations


def bfs_lengths(indptr, indices, sources, max_depth: int | None = None) -> list[int]:
    """Edge counts from the nearest of sources (node indices) to every node;
    -1 for unreachable nodes and, unless max_depth is None, for nodes
    farther than max_depth.  Pass the reverse CSR to get distances to the
    sources instead."""
    dist = [-1] * (len(indptr) - 1)
    frontier = []
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            frontier.append(s)
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        reached = []
        for v in frontier:
            for w in indices[indptr[v]:indptr[v + 1]]:
                if dist[w] < 0:
                    dist[w] = depth
                    reached.append(w)
        frontier = reached
    return dist


def simple_paths(indptr, indices, src: int, is_target, to_target, max_edges: int):
    """All simple paths from src to any node flagged in is_target, up to
    max_edges edges, in lexicographic order.

    The DFS records a path each time it steps onto a target and keeps going
    past it.  to_target bounds the search: a path of d edges ending at w is
    extended only if d < max_edges, to_target[w] >= 0 and
    d + to_target[w] <= max_edges.  Distances to the nearest target
    (bfs_lengths over the reverse CSR, bounded at max_edges) prune without
    changing the result; all zeros prunes nothing.  Because rows ascend,
    paths come out in lexicographic node-sequence order.

    Returns (flat, lens): flat holds the concatenated node sequences and
    lens the per-path node counts.
    """
    flat: list[int] = []
    lens: list[int] = []
    on_path = [False] * (len(indptr) - 1)
    on_path[src] = True
    path = [src]
    # stack[k] iterates the successors of path[k] not yet tried
    stack = [iter(indices[indptr[src]:indptr[src + 1]])]
    while stack:
        d = len(path)  # edge count of the path once it steps onto w
        room = max_edges - d
        for w in stack[-1]:
            if on_path[w]:
                continue
            if is_target[w]:
                flat.extend(path)
                flat.append(w)
                lens.append(d + 1)
            if room > 0 and 0 <= to_target[w] <= room:
                on_path[w] = True
                path.append(w)
                stack.append(iter(indices[indptr[w]:indptr[w + 1]]))
                break
        else:
            stack.pop()
            on_path[path.pop()] = False
    return flat, lens
