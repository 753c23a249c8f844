import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackerProfile,
    DiscoveryConfig,
    VulnType,
    VulnerabilityInstance,
)

DEMO_DIR = Path(__file__).resolve().parents[1] / "demo"

# ingest strips every field, so only stripped text survives a round trip
STRIPPED_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
).filter(lambda s: s == s.strip())


def is_allowed_id(s: str) -> bool:
    """Whether ingest and validate_model accept s as an asset id: it is one
    non-empty line free of the reports' separators and of DOT's escapes."""
    return not any(p in s for p in (",", "->", '"', "\\")) and s.splitlines() == [s]


ALLOWED_IDS = STRIPPED_TEXT.filter(is_allowed_id)

# the desktop + two laptops case study model, built in code
_SHARED_CVES = [
    ("CVE-2015-1769", 10.0, "CWE-264", VulnType.OBTAIN_PRIVILEGE, 1, 1),
    ("CVE-2015-2423", 2.9, "CWE-200", VulnType.BYPASS_SOMETHING, 3, 2),
    ("CVE-2015-2433", 2.9, "CWE-200", VulnType.BYPASS_SOMETHING, 1, 1),
    ("CVE-2015-2485", 10.0, "CWE-119", VulnType.MEMORY_CORRUPTION, 3, 3),
]


def office_graph() -> AssetGraph:
    assets = [
        Asset("A1", "Desktop PC", AssetKind.HARDWARE),
        Asset("A2", "Laptop 1", AssetKind.HARDWARE),
        Asset("A3", "Laptop 2", AssetKind.HARDWARE),
    ]
    vulns = []
    for aid in ("A1", "A2", "A3"):
        rows = _SHARED_CVES if aid != "A3" else _SHARED_CVES[:3]
        for cve, score, cwe, vtype, loc, cap in rows:
            vulns.append(
                VulnerabilityInstance(
                    cve_id=cve, asset=aid, score=score, cwe_id=cwe,
                    vuln_type=vtype, required_location=loc, required_capability=cap,
                )
            )
    edges = {("A1", "A2"), ("A2", "A3"), ("A2", "A1")}
    return AssetGraph(assets, vulns, edges)


def office_config(propagation_length: int = 1) -> DiscoveryConfig:
    return DiscoveryConfig(
        entry_points={"A1", "A2"},
        target_points={"A1", "A2", "A3"},
        attacker=AttackerProfile(location=3, capability=3),
        propagation_length=propagation_length,
    )


@pytest.fixture
def office():
    return office_graph()


def random_digraph(rng: random.Random, n: int, p: float):
    """Node names plus a random directed edge set (no self-loops)."""
    nodes = [f"N{i:02d}" for i in range(n)]
    edges = {
        (u, v)
        for u in nodes
        for v in nodes
        if u != v and rng.random() < p
    }
    return nodes, edges


def graph_with_uniform_vulns(nodes, edges, vtype=VulnType.CODE_EXECUTION,
                             loc=1, cap=1):
    """AssetGraph where every node carries one identical vulnerability."""
    assets = [Asset(n, n, AssetKind.HARDWARE) for n in nodes]
    vulns = [
        VulnerabilityInstance(
            cve_id="CVE-TEST-0001", asset=n, score=5.0, cwe_id="CWE-1",
            vuln_type=vtype, required_location=loc, required_capability=cap,
        )
        for n in nodes
    ]
    return AssetGraph(assets, vulns, edges)


def random_prediction_setup(rng: random.Random):
    """Random shared-CVE model, direct attack paths, and its prediction report."""
    from attackcf.discovery import DiscoveryResult
    from attackcf.model import AttackPath, PredictionConfig
    from attackcf.prediction import predict

    assets = [f"A{i}" for i in range(rng.randint(2, 6))]
    cves = [f"C{i}" for i in range(8)]
    vulns = [
        VulnerabilityInstance(
            cve_id=c, asset=a, score=round(rng.uniform(0, 10), 1), cwe_id="CWE-1",
            vuln_type=VulnType.XSS, required_location=1, required_capability=1,
        )
        for a in assets
        for c in rng.sample(cves, rng.randint(0, 8))
    ]
    graph = AssetGraph([Asset(a, a, AssetKind.HARDWARE) for a in assets], vulns)
    pairs = sorted({
        (a, b) for a in assets for b in assets if a != b and rng.random() < 0.25
    })
    paths = tuple(AttackPath(p) for p in pairs)
    result = DiscoveryResult(paths=paths)
    return graph, result, predict(graph, result, PredictionConfig())


def pair_similarities(graph):
    """(a, b, value, co_rated, degenerate) for each asset pair sharing a CVE,
    sorted, with a < b: the fields of predict's a -> b prediction for it."""
    from attackcf.discovery import DiscoveryResult
    from attackcf.model import PredictionConfig
    from attackcf.prediction import predict

    report = predict(graph, DiscoveryResult(()), PredictionConfig())
    return sorted((p.src, p.dst, p.similarity, p.co_rated, p.degenerate)
                  for p in report.predictions if p.src < p.dst)


def per_pair_reference(graph, result, config):
    """pair_similarities(graph) and predict(graph, result, config).predictions,
    rebuilt pair by pair: oracles.common_vulnerabilities, pcc,
    oracles.same_type and classify_pair on every asset pair, the
    rearrangement rule written out, then one keyed sort into report order.
    The oracles rebuild each pair's CVEs from graph.vulnerabilities, so they
    share no code with the package's AssetGraph.shared_cves index."""
    import oracles
    from attackcf.model import Classification, Prediction
    from attackcf.prediction import classify_pair
    from attackcf.similarity import pcc

    ends = {(p.entry, p.target) for p in result.paths}
    ids = sorted(a.id for a in graph.assets)
    sims, preds = [], []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            shared = oracles.common_vulnerabilities(a, b, graph)
            if not shared:
                continue
            if len(shared) == 1:
                value, degenerate = 0.0, False
            else:
                value, degenerate = pcc([(sa, sb) for _, sa, sb in shared])
            sims.append((a, b, value, len(shared), degenerate))
            base = classify_pair(len(shared), oracles.same_type(a, b, graph), config)
            for src, dst in ((a, b), (b, a)):
                if (src, dst) in ends:
                    level = Classification.VERY_HIGH
                elif base is Classification.VERY_HIGH:
                    level = Classification.HIGH
                else:
                    level = base
                preds.append(Prediction(src, dst, level, value, len(shared), degenerate))
    preds.sort(key=lambda p: (-p.level, p.src, p.dst))
    return sims, preds
