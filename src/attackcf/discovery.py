"""Attack path discovery over a vulnerability-annotated asset graph.

An entry point is eligible when the configured attacker meets the location
and capability requirements of at least one of its vulnerabilities of an
allowed type.  One breadth-first search over the predecessor lists from the
whole target set, stopped one level short of the propagation length (the
search below reads a distance only at least one edge into a path), gives
every asset near enough its distance to the nearest target; the targets
are exactly the assets at distance 0.  Then one depth-first pass over the
eligible entries, in ascending order, enumerates the simple paths to every
target at once: it records a path whenever it steps onto a target, keeps
going past it, and never extends a partial path that could not reach a
target within the propagation length (distance-bounded hop-constrained
enumeration, as in BC-DFS, Peng et al., PVLDB 2019).  It marks its current
path inside the distance list, so a query allocates one list of graph size.
The kernel emits AttackPath records without running their check, which a
simple path of one edge or more always meets.  The paths between one
entry and one target are discover's result for that pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from attackcf import _kernels
from attackcf.model import (
    AssetGraph,
    AttackPath,
    AttackerProfile,
    DiscoveryConfig,
    VulnType,
)


@dataclass(frozen=True)
class DiscoveryResult:
    """Discovered paths, and the assets they touch derived from them.

    no_eligible_entries is set when every configured entry point failed the
    attacker/vulnerability-type guard; an empty result is data, not an error.
    """

    paths: tuple[AttackPath, ...]
    no_eligible_entries: bool = False

    @cached_property
    def affected_assets(self) -> frozenset[str]:
        """Every asset on at least one of the paths."""
        return frozenset().union(*self.paths)


def entry_eligible(
    entry: str,
    graph: AssetGraph,
    attacker: AttackerProfile,
    allowed_types: frozenset[VulnType],
) -> bool:
    """True when the attacker can exploit at least one allowed-type vulnerability
    on entry.  As discover, it assumes a valid graph (see validate_model): an
    edge to a missing asset, like an entry that is not an asset, raises KeyError."""
    adj = graph.adjacency
    if entry not in adj.index:
        raise KeyError(f"unknown asset id {entry!r}")
    for v in adj.vulns[adj.index[entry]]:
        if (
            attacker.location >= v.required_location
            and attacker.capability >= v.required_capability
            and v.vuln_type in allowed_types
        ):
            return True
    return False


def discover(graph: AssetGraph, config: DiscoveryConfig) -> DiscoveryResult:
    """Enumerate every bounded attack path from eligible entries to targets.

    The graph is assumed structurally valid (see validate_model).  Raises
    ValueError naming every configured entry, then every configured target,
    that is not an asset of the graph.
    """
    adj = graph.adjacency
    index = adj.index
    for label, points in (("entry_points", config.entry_points),
                          ("target_points", config.target_points)):
        missing = sorted(points.difference(index))
        if missing:
            raise ValueError(f"{label} reference unknown assets: {', '.join(missing)}")

    eligible = [
        e
        for e in sorted(config.entry_points)
        if entry_eligible(e, graph, config.attacker, config.allowed_types)
    ]
    if not eligible:
        return DiscoveryResult(paths=(), no_eligible_entries=True)

    max_len = config.propagation_length
    # the DFS reads a distance only after stepping onto an asset, at least
    # one edge into the path, so a distance of max_len is never used
    to_target = _kernels.bfs_lengths(adj.pred, [index[t] for t in config.target_points],
                                    max_len - 1)
    # eligible ascends and indices sort like ids, so the paths come out sorted
    found = _kernels.simple_paths(adj.succ, adj.ids, [index[e] for e in eligible],
                                  to_target, max_len)
    return DiscoveryResult(paths=tuple(found))
