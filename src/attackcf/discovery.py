"""Attack path discovery over a vulnerability-annotated asset graph.

An entry point is eligible when the configured attacker meets the location
and capability requirements of at least one of its vulnerabilities of an
allowed type.  One reverse breadth-first search from the whole target set,
stopped at the propagation length, gives every asset its distance to the
nearest target.  Then one depth-first search per eligible entry enumerates
the simple paths to every target at once: it records a path whenever it
steps onto a target, keeps going past it, and never extends a partial path
that could not reach a target within the propagation length (distance-
bounded hop-constrained enumeration, as in BC-DFS, Peng et al., PVLDB 2019).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Discovered paths, the assets they touch, and the graph they came from.

    no_eligible_entries is set when every configured entry point failed the
    attacker/vulnerability-type guard; an empty result is data, not an error.
    """

    paths: tuple[AttackPath, ...]
    affected_assets: frozenset[str]
    graph: AssetGraph
    no_eligible_entries: bool = False


def _require_asset(graph: AssetGraph, asset_id: str) -> None:
    if not graph.has_asset(asset_id):
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


def shortest_path_lengths(graph: AssetGraph, source: str) -> dict[str, int]:
    """BFS distances in edge count from source; unreachable assets are absent."""
    _require_asset(graph, source)
    csr = graph.adjacency
    dist = _kernels.bfs_lengths(csr.indptr, csr.indices, csr.index[source])
    return {csr.ids[i]: int(d) for i, d in enumerate(dist) if d >= 0}


def _to_paths(ids: tuple[str, ...], flat, lens) -> list[AttackPath]:
    names = [ids[i] for i in flat.tolist()]
    out: list[AttackPath] = []
    pos = 0
    for ln in lens.tolist():
        out.append(AttackPath(names[pos:pos + ln]))
        pos += ln
    return out


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
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    csr = graph.adjacency
    dst = csr.index[target]
    is_target = np.zeros(len(csr.ids), dtype=np.bool_)
    is_target[dst] = True
    to_target = np.zeros(len(csr.ids), dtype=np.int64)
    to_target[dst] = -1  # a simple path cannot return to its only target
    flat, lens = _kernels.simple_paths(csr.indptr, csr.indices, csr.index[entry],
                                       is_target, to_target, max_len)
    return _to_paths(csr.ids, flat, lens)


def discover(
    graph: AssetGraph,
    config: DiscoveryConfig,
    prune: bool = True,
) -> DiscoveryResult:
    """Enumerate every bounded attack path from eligible entries to targets.

    The graph is assumed structurally valid (see validate_model).  prune
    bounds the search by each asset's distance to the nearest target; it
    never changes the result, only skips hopeless branches.
    """
    csr = graph.adjacency
    entries = sorted(config.entry_points & csr.index.keys())
    targets = sorted(config.target_points & csr.index.keys())
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
        return DiscoveryResult(
            paths=(),
            affected_assets=frozenset(),
            graph=graph,
            no_eligible_entries=True,
        )

    max_len = config.propagation_length
    target_ids = np.array([csr.index[t] for t in targets], dtype=np.int64)
    is_target = np.zeros(len(csr.ids), dtype=np.bool_)
    is_target[target_ids] = True
    if prune:
        to_target = _kernels.bfs_lengths(csr.rindptr, csr.rindices, target_ids,
                                         max_len)
    else:
        to_target = np.zeros(len(csr.ids), dtype=np.int64)
    found: list[AttackPath] = []
    for e in eligible:
        flat, lens = _kernels.simple_paths(csr.indptr, csr.indices, csr.index[e],
                                           is_target, to_target, max_len)
        found.extend(_to_paths(csr.ids, flat, lens))

    found.sort(key=lambda p: p.nodes)
    affected = frozenset(n for p in found for n in p.nodes)
    return DiscoveryResult(paths=tuple(found), affected_assets=affected, graph=graph)
