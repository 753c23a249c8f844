"""Output checks that decide whether a benchmark query failed.

The checks are written from the model's definitions, not from attackcf's
own code, so they hold for any correct implementation:

* discovery: every path is simple, follows graph edges, starts at a
  configured entry the attacker can exploit, ends at a configured target
  and has at most propagation_length edges; the path list is strictly
  sorted (so unique), no directly linked (entry, target) pair is missing,
  and the affected assets are exactly the path nodes;
* prediction: the predictions are exactly both directions of every asset
  pair sharing a CVE, with that pair's shared-CVE count, sorted by (level
  descending, src, dst), and a pair is very high exactly when a
  discovered path joins it.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from attackcf import Classification


class Checker:
    """Reference facts about one graph, computed once outside the timed region."""

    def __init__(self, graph):
        # plain tuples and strings only, so the checker keeps no attackcf objects alive
        self.edges = set(graph.edges)
        self.ids = {a.id for a in graph.assets}
        self.requirements = defaultdict(list)
        self.assets_by_cve = defaultdict(set)
        for v in graph.vulnerabilities:
            self.requirements[v.asset].append(
                (v.required_location, v.required_capability, v.vuln_type))
            if v.asset in self.ids:
                self.assets_by_cve[v.cve_id].add(v.asset)
        self._shared = None

    def eligible(self, entry, attacker, allowed_types) -> bool:
        return any(
            attacker.location >= location
            and attacker.capability >= capability
            and vuln_type in allowed_types
            for location, capability, vuln_type in self.requirements[entry]
        )

    def eligible_entries(self, config) -> set[str]:
        return {
            e for e in config.entry_points & self.ids
            if self.eligible(e, config.attacker, config.allowed_types)
        }

    def shared_counts(self) -> dict[tuple[str, str], int]:
        """{(a, b): shared CVE count} for every pair a < b sharing a CVE."""
        if self._shared is None:
            shared = defaultdict(int)
            for assets in self.assets_by_cve.values():
                for pair in combinations(sorted(assets), 2):
                    shared[pair] += 1
            self._shared = dict(shared)
        return self._shared

    def discovery_errors(self, result, config) -> list[str]:
        eligible = self.eligible_entries(config)
        targets = config.target_points & self.ids
        max_len = config.propagation_length
        errors = []
        if result.no_eligible_entries != (not eligible):
            errors.append(f"no_eligible_entries={result.no_eligible_entries} "
                          f"but {len(eligible)} entries are eligible")
        prev = None
        for p in result.paths:
            nodes = p.nodes
            if len(set(nodes)) != len(nodes):
                errors.append(f"path {nodes} is not simple")
            if nodes[0] not in eligible:
                errors.append(f"path {nodes} starts at an ineligible or unconfigured entry")
            if nodes[-1] not in targets:
                errors.append(f"path {nodes} ends outside the targets")
            if not 1 <= len(nodes) - 1 <= max_len:
                errors.append(f"path {nodes} has more than {max_len} edges")
            if any(edge not in self.edges for edge in zip(nodes, nodes[1:])):
                errors.append(f"path {nodes} leaves the graph's edges")
            if prev is not None and not prev < nodes:
                errors.append(f"paths out of order or repeated at {nodes}")
            prev = nodes
            if len(errors) > 5:
                return errors
        found = {p.nodes for p in result.paths}
        for e in eligible:
            for t in targets:
                if (e, t) in self.edges and (e, t) not in found:
                    errors.append(f"direct path {e}->{t} is missing")
        if set(result.affected_assets) != {n for p in result.paths for n in p.nodes}:
            errors.append("affected assets differ from the path nodes")
        return errors

    def prediction_errors(self, report, result) -> list[str]:
        shared = self.shared_counts()
        expected = {}
        for (a, b), n in shared.items():
            expected[(a, b)] = n
            expected[(b, a)] = n
        got = {(p.src, p.dst): p.co_rated for p in report.predictions}
        errors = []
        if len(got) != len(report.predictions):
            errors.append("a directed pair is predicted twice")
        if got != expected:
            errors.append(f"{len(got.keys() ^ expected.keys())} pairs differ from the "
                          f"CVE-sharing pairs, or co_rated counts disagree")
        keys = [(-p.level, p.src, p.dst) for p in report.predictions]
        if keys != sorted(keys):
            errors.append("predictions are not sorted by (level desc, src, dst)")
        joined = {(p.nodes[0], p.nodes[-1]) for p in result.paths}
        wrong = sum(
            ((p.src, p.dst) in joined) != (p.level is Classification.VERY_HIGH)
            for p in report.predictions
        )
        if wrong:
            errors.append(f"{wrong} predictions break the path rearrangement rule")
        return errors
