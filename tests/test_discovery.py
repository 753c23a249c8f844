import random

import pytest

from attackcf import _kernels
from attackcf.discovery import (
    discover,
    entry_eligible,
    enumerate_simple_paths,
    shortest_path_lengths,
)
from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackerProfile,
    DEFAULT_ALLOWED_TYPES,
    DiscoveryConfig,
    VulnType,
    VulnerabilityInstance,
)

import oracles
from conftest import graph_with_uniform_vulns, office_config, random_digraph


def _single_vuln_graph(vtype, loc, cap, edges=()):
    assets = [Asset("E", "entry", AssetKind.HARDWARE)]
    vuln = VulnerabilityInstance(
        cve_id="CVE-X", asset="E", score=5.0, cwe_id="CWE-1",
        vuln_type=vtype, required_location=loc, required_capability=cap,
    )
    return AssetGraph(assets, [vuln], edges)


class TestEntryEligible:
    def test_attacker_below_requirements(self):
        g = _single_vuln_graph(VulnType.CODE_EXECUTION, 3, 3)
        assert not entry_eligible("E", g, AttackerProfile(1, 1), DEFAULT_ALLOWED_TYPES)

    def test_attacker_dominates(self):
        g = _single_vuln_graph(VulnType.CODE_EXECUTION, 1, 1)
        assert entry_eligible("E", g, AttackerProfile(3, 3), DEFAULT_ALLOWED_TYPES)

    def test_other_type_never_matches_default_filter(self):
        g = _single_vuln_graph(VulnType.OTHER, 1, 1)
        assert not entry_eligible("E", g, AttackerProfile(2, 2), DEFAULT_ALLOWED_TYPES)

    def test_both_attributes_must_meet(self):
        g = _single_vuln_graph(VulnType.XSS, 1, 3)
        assert not entry_eligible("E", g, AttackerProfile(3, 2), DEFAULT_ALLOWED_TYPES)
        g = _single_vuln_graph(VulnType.XSS, 3, 1)
        assert not entry_eligible("E", g, AttackerProfile(2, 3), DEFAULT_ALLOWED_TYPES)

    def test_unknown_entry_is_lookup_error(self):
        g = _single_vuln_graph(VulnType.XSS, 1, 1)
        with pytest.raises(KeyError, match="nope"):
            entry_eligible("nope", g, AttackerProfile(3, 3), DEFAULT_ALLOWED_TYPES)

    def test_attacker_monotonicity(self):
        rng = random.Random(13)
        types = list(VulnType)
        for _ in range(50):
            g = _single_vuln_graph(
                rng.choice(types), rng.randint(1, 3), rng.randint(1, 3)
            )
            eligibility = {
                (loc, cap): entry_eligible(
                    "E", g, AttackerProfile(loc, cap), DEFAULT_ALLOWED_TYPES
                )
                for loc in (1, 2, 3)
                for cap in (1, 2, 3)
            }
            for (loc, cap), ok in eligibility.items():
                if ok:
                    assert eligibility[(3, cap)]
                    assert eligibility[(loc, 3)]


class TestShortestPathLengths:
    def test_office_topology_from_a1(self, office, backend):
        assert shortest_path_lengths(office, "A1") == {"A1": 0, "A2": 1, "A3": 2}

    def test_sink_maps_to_itself_only(self, office, backend):
        assert shortest_path_lengths(office, "A3") == {"A3": 0}

    def test_isolated_source(self, backend):
        g = AssetGraph([Asset("X", "x", AssetKind.HARDWARE),
                        Asset("Y", "y", AssetKind.HARDWARE)])
        assert shortest_path_lengths(g, "X") == {"X": 0}

    def test_unknown_source(self, office):
        with pytest.raises(KeyError):
            shortest_path_lengths(office, "Q9")


class TestEnumerateSimplePaths:
    def test_two_hop_path(self, office, backend):
        paths = enumerate_simple_paths(office, "A1", "A3", 3)
        assert [p.nodes for p in paths] == [("A1", "A2", "A3")]

    def test_direct_edge(self, office, backend):
        paths = enumerate_simple_paths(office, "A1", "A2", 1)
        assert [p.nodes for p in paths] == [("A1", "A2")]

    def test_bound_excludes_distant_target(self, office, backend):
        assert enumerate_simple_paths(office, "A1", "A3", 1) == []

    def test_rejects_equal_endpoints(self, office):
        with pytest.raises(ValueError):
            enumerate_simple_paths(office, "A1", "A1", 2)

    def test_rejects_zero_bound(self, office):
        with pytest.raises(ValueError):
            enumerate_simple_paths(office, "A1", "A2", 0)

    def test_complete_digraph_count(self, backend):
        nodes = [f"N{i}" for i in range(5)]
        edges = {(u, v) for u in nodes for v in nodes if u != v}
        g = graph_with_uniform_vulns(nodes, edges)
        paths = enumerate_simple_paths(g, "N0", "N4", 4)
        oracle = oracles.simple_paths_by_permutation(nodes, edges, "N0", "N4", 4)
        assert len(paths) == len(oracle) == 16
        assert {p.nodes for p in paths} == set(oracle)

    def test_lexicographic_order(self, backend):
        nodes = ["A", "B", "C", "D"]
        edges = {("A", "D"), ("A", "B"), ("B", "D"), ("A", "C"), ("C", "D"),
                 ("B", "C")}
        g = graph_with_uniform_vulns(nodes, edges)
        paths = [p.nodes for p in enumerate_simple_paths(g, "A", "D", 3)]
        assert paths == sorted(paths)


class TestDiscover:
    def test_office_case(self, office, backend):
        result = discover(office, office_config())
        assert {p.nodes for p in result.paths} == {
            ("A1", "A2"), ("A2", "A1"), ("A2", "A3")
        }
        assert result.affected_assets == {"A1", "A2", "A3"}
        assert not result.no_eligible_entries
        assert result.graph is office

    def test_longer_bound_adds_two_hop_path(self, office):
        result = discover(office, office_config(propagation_length=3))
        assert ("A1", "A2", "A3") in {p.nodes for p in result.paths}

    def test_weak_attacker_yields_flagged_empty_result(self):
        nodes = ["E", "T"]
        g = graph_with_uniform_vulns(nodes, {("E", "T")}, loc=3, cap=3)
        config = DiscoveryConfig({"E"}, {"T"}, AttackerProfile(1, 1), 2)
        result = discover(g, config)
        assert result.paths == ()
        assert result.affected_assets == frozenset()
        assert result.no_eligible_entries

    def test_unbound_entry_points_raise(self, office):
        config = DiscoveryConfig({"Z1"}, {"A1"}, AttackerProfile(3, 3), 1)
        with pytest.raises(ValueError, match="entry"):
            discover(office, config)

    def test_all_traversals_share_one_adjacency(self, office, monkeypatch):
        seen = []

        def recording(name, kernel):
            def wrapper(indptr, indices, *args, **kwargs):
                seen.append((name, indptr, indices))
                return kernel(indptr, indices, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(_kernels, "bfs_lengths",
                            recording("bfs", _kernels.bfs_lengths))
        monkeypatch.setattr(_kernels, "simple_paths",
                            recording("dfs", _kernels.simple_paths))
        discover(office, office_config(propagation_length=3))
        shortest_path_lengths(office, "A1")
        enumerate_simple_paths(office, "A1", "A3", 2)
        adj = office.adjacency
        forward, reverse = (adj.indptr, adj.indices), (adj.rindptr, adj.rindices)
        # discover: one reverse BFS from the targets, one DFS per eligible
        # entry (A1, A2); then one BFS and one DFS for the two direct calls
        expected = [("bfs", reverse), ("dfs", forward), ("dfs", forward),
                    ("bfs", forward), ("dfs", forward)]
        assert len(seen) == len(expected)
        for (name, indptr, indices), (want_name, (want_ptr, want_idx)) in zip(
                seen, expected):
            assert name == want_name
            assert indptr is want_ptr and indices is want_idx

    def test_path_through_a_target_reaches_the_next(self):
        g = graph_with_uniform_vulns(["E", "T1", "T2"], {("E", "T1"), ("T1", "T2")})
        config = DiscoveryConfig({"E"}, {"T1", "T2"}, AttackerProfile(3, 3), 2)
        for prune in (True, False):
            got = [p.nodes for p in discover(g, config, prune=prune).paths]
            assert got == [("E", "T1"), ("E", "T1", "T2")]

    def test_entry_that_is_a_target_is_never_a_path_end(self):
        nodes = ["A", "B", "C"]
        edges = {("A", "B"), ("B", "A"), ("B", "C"), ("C", "A")}
        g = graph_with_uniform_vulns(nodes, edges)
        config = DiscoveryConfig({"A"}, set(nodes), AttackerProfile(3, 3), 4)
        got = [p.nodes for p in discover(g, config).paths]
        assert got == [("A", "B"), ("A", "B", "C")]

    def test_complete_digraph_matches_oracle(self, backend):
        nodes = [f"N{i}" for i in range(5)]
        edges = {(u, v) for u in nodes for v in nodes if u != v}
        g = graph_with_uniform_vulns(nodes, edges)
        config = DiscoveryConfig({"N0"}, {"N4"}, AttackerProfile(3, 3), 4)
        result = discover(g, config)
        assert len(result.paths) == 16

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_recursive_oracle(self, seed):
        rng = random.Random(seed)
        nodes, edges = random_digraph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.4))
        g = graph_with_uniform_vulns(nodes, edges)
        k = min(3, len(nodes))
        entries = set(rng.sample(nodes, rng.randint(1, k)))
        targets = set(rng.sample(nodes, rng.randint(1, k)))
        max_len = rng.randint(1, 9)
        config = DiscoveryConfig(entries, targets, AttackerProfile(3, 3), max_len)
        got = {p.nodes for p in discover(g, config).paths}

        adj = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
        vulns_of = {n: [(VulnType.CODE_EXECUTION, 1, 1)] for n in nodes}
        expected = oracles.discover_reference(
            adj, vulns_of, entries, targets, (3, 3), DEFAULT_ALLOWED_TYPES, max_len
        )
        assert got == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_permutation_oracle_on_small_graphs(self, seed):
        rng = random.Random(1000 + seed)
        nodes, edges = random_digraph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.6))
        g = graph_with_uniform_vulns(nodes, edges)
        entry, target = rng.sample(nodes, 2)
        max_len = rng.randint(1, 5)
        config = DiscoveryConfig({entry}, {target}, AttackerProfile(3, 3), max_len)
        got = {p.nodes for p in discover(g, config).paths}
        expected = set(
            oracles.simple_paths_by_permutation(nodes, edges, entry, target, max_len)
        )
        assert got == expected


class TestDiscoverProperties:
    @staticmethod
    def _random_case(rng):
        nodes, edges = random_digraph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.5))
        g = graph_with_uniform_vulns(nodes, edges)
        k = min(3, len(nodes))
        entries = set(rng.sample(nodes, rng.randint(1, k)))
        targets = set(rng.sample(nodes, rng.randint(1, k)))
        config = DiscoveryConfig(entries, targets, AttackerProfile(3, 3),
                                 rng.randint(1, 6))
        return g, config

    @pytest.mark.parametrize("seed", range(40))
    def test_soundness(self, seed):
        rng = random.Random(2000 + seed)
        g, config = self._random_case(rng)
        edge_set = set(g.edges)
        result = discover(g, config)
        for p in result.paths:
            assert len(p.nodes) >= 2
            assert len(set(p.nodes)) == len(p.nodes)
            assert p.entry in config.entry_points
            assert p.target in config.target_points
            assert p.n_edges <= config.propagation_length
            assert all(e in edge_set for e in zip(p.nodes, p.nodes[1:]))
        assert result.affected_assets == {n for p in result.paths for n in p.nodes}

    @pytest.mark.parametrize("seed", range(40))
    def test_pruning_safety(self, seed):
        rng = random.Random(3000 + seed)
        g, config = self._random_case(rng)
        pruned = discover(g, config, prune=True)
        unpruned = discover(g, config, prune=False)
        assert pruned.paths == unpruned.paths
        assert pruned.affected_assets == unpruned.affected_assets

    @pytest.mark.parametrize("seed", range(40))
    def test_propagation_length_monotonicity(self, seed):
        rng = random.Random(4000 + seed)
        g, config = self._random_case(rng)
        shorter = {p.nodes for p in discover(g, config).paths}
        longer_config = DiscoveryConfig(
            config.entry_points, config.target_points, config.attacker,
            config.propagation_length + rng.randint(1, 3),
        )
        longer = {p.nodes for p in discover(g, longer_config).paths}
        assert shorter <= longer

    @pytest.mark.parametrize("seed", range(200))
    def test_ordered_output_matches_per_pair_oracle(self, seed):
        # one DFS per entry towards every target must give exactly the union
        # of the per-(entry, target) enumerations, already in sorted order
        rng = random.Random(5000 + seed)
        nodes, edges = random_digraph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.5))
        caps = {n: rng.randint(1, 3) for n in nodes}
        g = AssetGraph(
            [Asset(n, n, AssetKind.HARDWARE) for n in nodes],
            [VulnerabilityInstance("CVE-1", n, 5.0, None, VulnType.CODE_EXECUTION, 1, c)
             for n, c in caps.items()],
            edges,
        )
        k = min(4, len(nodes))
        entries = set(rng.sample(nodes, rng.randint(1, k)))
        targets = set(rng.sample(nodes, rng.randint(1, k)))
        attacker = AttackerProfile(3, rng.randint(1, 3))
        max_len = rng.randint(1, 7)
        config = DiscoveryConfig(entries, targets, attacker, max_len)

        adj = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
        vulns_of = {n: [(VulnType.CODE_EXECUTION, 1, c)] for n, c in caps.items()}
        expected = sorted(oracles.discover_reference(
            adj, vulns_of, entries, targets, (attacker.location, attacker.capability),
            DEFAULT_ALLOWED_TYPES, max_len,
        ))
        for prune in (True, False):
            got = [p.nodes for p in discover(g, config, prune=prune).paths]
            assert got == expected

    def test_duplicate_paths_never_emitted(self):
        rng = random.Random(77)
        for _ in range(20):
            g, config = self._random_case(rng)
            result = discover(g, config)
            assert len(result.paths) == len(set(result.paths))
            assert list(result.paths) == sorted(result.paths, key=lambda p: p.nodes)
