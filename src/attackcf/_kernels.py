"""Hot graph kernels over successor lists held in plain Python lists.

succ[i] lists the node indices that node i has an edge to, ascending
(see attackcf.model.Adjacency; pass its pred to walk the edges backwards).
The two kernels are a depth-bounded multi-source BFS and a simple-path DFS
from a sequence of sources towards the nodes at distance 0; the DFS emits
AttackPath records without running their check, which its paths always meet.
"""

from __future__ import annotations

from attackcf.model import AttackPath


def bfs_lengths(succ, sources, max_depth: int) -> list[int]:
    """Edge counts from the nearest of sources (node indices) to every node;
    -1 for nodes that are unreachable or farther than max_depth.  Pass the
    predecessor lists to get distances to the sources instead."""
    dist = [-1] * len(succ)
    frontier = []
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            frontier.append(s)
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        reached = []
        for v in frontier:
            for w in succ[v]:
                if dist[w] < 0:
                    dist[w] = depth
                    reached.append(w)
        frontier = reached
    return dist


def simple_paths(succ, ids, sources, to_target, max_edges: int) -> list[AttackPath]:
    """All simple paths of up to max_edges edges from each of sources in turn
    to any target, as AttackPaths of ids (ids[i] names node i).

    to_target[w] is the edge count from w to the nearest target, -1 when
    none is within max_edges (bfs_lengths over the predecessor lists from
    the targets), so the targets are exactly the nodes at 0.  The DFS
    records a path each time it steps onto a target and keeps going past
    it.  A path of d edges ending at w is extended only if d < max_edges,
    to_target[w] >= 0 and d + to_target[w] <= max_edges: any other branch
    cannot reach a target in time.  Because succ rows ascend, each source's
    paths come out in lexicographic node-sequence order.
    """
    found: list[AttackPath] = []
    on_path = [False] * len(succ)  # every source's walk leaves it all False
    for src in sources:
        on_path[src] = True
        path = [src]
        names = [ids[src]]
        # stack[k] iterates the successors of path[k] not yet tried
        stack = [iter(succ[src])]
        while stack:
            d = len(path)  # edge count of the path once it steps onto w
            room = max_edges - d
            for w in stack[-1]:
                if on_path[w]:
                    continue
                dw = to_target[w]
                if dw == 0:
                    found.append(tuple.__new__(AttackPath, (*names, ids[w])))
                if room > 0 and 0 <= dw <= room:
                    on_path[w] = True
                    path.append(w)
                    names.append(ids[w])
                    stack.append(iter(succ[w]))
                    break
            else:
                stack.pop()
                names.pop()
                on_path[path.pop()] = False
    return found
