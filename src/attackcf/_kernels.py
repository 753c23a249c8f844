"""Hot graph kernels over successor lists held in plain Python lists.

succ[i] lists the node indices that node i has an edge to, ascending
(see attackcf.model.Adjacency; pass its pred to walk the edges backwards).
The two kernels are a depth-bounded multi-source BFS and a simple-path DFS
from a sequence of sources towards the nodes at distance 0; the DFS emits
AttackPath records without running their check, which its paths always meet.
For paths of at most L edges the DFS reads distances up to L - 1 only, so
the BFS that feeds it stops one level short of L.  The DFS marks the nodes
on its current path inside that distance list and restores them, so it
allocates nothing of graph size.
"""

from __future__ import annotations

from attackcf.model import AttackPath


def bfs_lengths(succ, sources, max_depth: int) -> list[int]:
    """Edge counts from the nearest of sources (node indices) to every node;
    -1 for nodes that are unreachable or farther than max_depth.  Pass the
    predecessor lists to get distances to the sources instead.

    To feed simple_paths for paths of at most L edges, max_depth L - 1 is
    enough (see there).  A distance wanted for itself, such as whether a
    target lies within L edges of one entry, needs the full depth L.
    """
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
    none is within the BFS depth (bfs_lengths over the predecessor lists
    from the targets), so the targets are exactly the nodes at 0.  The DFS
    records a path each time it steps onto a target and keeps going past
    it.  A path of d edges ending at w is extended only if d < max_edges,
    to_target[w] >= 0 and d + to_target[w] <= max_edges: any other branch
    cannot reach a target in time.  Distances are read only for such a w,
    where d >= 1, so only those up to max_edges - 1 count: a BFS depth of
    max_edges - 1 suffices, and a larger one changes nothing.  Because
    succ rows ascend, each source's paths come out in lexicographic
    node-sequence order.

    to_target is borrowed for the call: each node on the current path holds
    -2 - to_target[w], which is negative, so the walk never steps onto it
    again, and storing -2 - x once more on leaving restores x.  The list is
    returned to its caller unchanged.
    """
    found: list[AttackPath] = []
    for src in sources:
        to_target[src] = -2 - to_target[src]
        path = [src]
        names = [ids[src]]
        # stack[k] iterates the successors of path[k] not yet tried
        stack = [iter(succ[src])]
        while stack:
            d = len(path)  # edge count of the path once it steps onto w
            room = max_edges - d
            for w in stack[-1]:
                dw = to_target[w]  # negative: on the path, or no target in reach
                if dw == 0:
                    names.append(ids[w])
                    found.append(tuple.__new__(AttackPath, names))
                    names.pop()
                if room > 0 and 0 <= dw <= room:
                    to_target[w] = -2 - dw
                    path.append(w)
                    names.append(ids[w])
                    stack.append(iter(succ[w]))
                    break
            else:
                stack.pop()
                names.pop()
                w = path.pop()
                to_target[w] = -2 - to_target[w]
    return found
