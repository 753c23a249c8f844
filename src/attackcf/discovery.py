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
simple path of one edge or more always meets.
enumerate_simple_paths runs the same search from one entry to one target.
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
    _check_positive_int,
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


def _require_asset(graph: AssetGraph, asset_id: str) -> None:
    if asset_id not in graph.asset_by_id:
        raise KeyError(f"unknown asset id {asset_id!r}")


def entry_eligible(
    entry: str,
    graph: AssetGraph,
    attacker: AttackerProfile,
    allowed_types: frozenset[VulnType],
) -> bool:
    """True when the attacker can exploit at least one allowed-type vulnerability on entry."""
    _require_asset(graph, entry)
    for v in graph.vulns_by_asset.get(entry, ()):
        if (
            attacker.location >= v.required_location
            and attacker.capability >= v.required_capability
            and v.vuln_type in allowed_types
        ):
            return True
    return False


def _search(graph: AssetGraph, sources, targets, max_len: int) -> list[AttackPath]:
    """Every simple path of at most max_len edges from sources (ascending
    asset ids) to targets, sorted by node-id sequence.

    The DFS reads an asset's distance to the targets only after stepping
    onto it, at least one edge into the path, so a distance of max_len is
    never used and the BFS stops at max_len - 1.  simple_paths marks its
    path inside to_target while it runs and restores it.
    """
    adj = graph.adjacency
    to_target = _kernels.bfs_lengths(adj.pred, [adj.index[t] for t in targets], max_len - 1)
    # sources ascend and indices sort like ids, so the paths come out sorted
    return _kernels.simple_paths(adj.succ, adj.ids, [adj.index[s] for s in sources],
                                 to_target, max_len)


def enumerate_simple_paths(
    graph: AssetGraph,
    entry: str,
    target: str,
    max_len: int,
) -> list[AttackPath]:
    """All simple directed paths entry->target with at most max_len edges.

    Output is ordered lexicographically by node-id sequence.
    """
    _require_asset(graph, entry)
    _require_asset(graph, target)
    if entry == target:
        raise ValueError(f"entry and target must differ, got {entry!r} for both")
    _check_positive_int("max_len", max_len)
    return _search(graph, [entry], [target], max_len)


def discover(graph: AssetGraph, config: DiscoveryConfig) -> DiscoveryResult:
    """Enumerate every bounded attack path from eligible entries to targets.

    The graph is assumed structurally valid (see validate_model).
    """
    index = graph.adjacency.index
    entries = sorted(config.entry_points & index.keys())
    targets = sorted(config.target_points & index.keys())
    if not entries:
        raise ValueError("no configured entry point exists in the graph")
    if not targets:
        raise ValueError("no configured target point exists in the graph")

    eligible = [
        e
        for e in entries
        if entry_eligible(e, graph, config.attacker, config.allowed_types)
    ]
    if not eligible:
        return DiscoveryResult(paths=(), no_eligible_entries=True)

    found = _search(graph, eligible, targets, config.propagation_length)
    return DiscoveryResult(paths=tuple(found))
