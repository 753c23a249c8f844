"""Workload definitions and input generation for the attackcf benchmark.

A workload is a synthetic infrastructure (written as the CSV and config
files analysts feed to attackcf) plus a fixed batch of queries against it,
written as queries.json.  Everything is derived from the run seed, so the
same seed always gives the same files.

Why each workload exists:

* deep-180 is the paper's topology (35 hardware + 145 software assets,
  density 0.05) queried with long propagation lengths, so path explosion
  and the DFS kernel dominate.  The topology is fixed at generator seed 42
  (the default of `attackcf bench`): path counts differ six-fold between
  generator seeds, which would swamp any code change.  The run seed draws
  the 25 targets of every query and the query order.  The (entry,
  capability, length) schedule is fixed and balanced, so every run does
  comparable work.
* predict-1800 is a what-if sweep (discover, predict, both reports) on
  1,800 assets, where the all-pairs similarity loop dominates and DFS is
  negligible.
* wide-5000 is many shallow queries on 5,000 assets, where per-query
  graph set-up and forward BFS dominate, and ingest is largest.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INPUT_FILES = ("assets.csv", "vulns.csv", "edges.csv", "config.txt")
QUERIES_FILE = "queries.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "discover": one discover() per query; "predict": one what-if analysis per query
    n_hardware: int
    n_software: int
    density: float
    graph_seed: int | None  # None: the run seed draws the topology
    n_queries: int
    n_entries: int
    n_targets: int
    lengths: tuple[int, ...]
    capabilities: tuple[int, ...]


#: (attacker location, attacker capability, thresholds x1..x4) of each
#: analysis in the predict-1800 what-if sweep
PREDICT_SWEEP = (
    (3, 3, (4, 2, 1, 0)),
    (3, 2, (3, 2, 1, 0)),
    (2, 3, (5, 3, 2, 1)),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep-180", "discover", 35, 145, 0.05, 42,
                 n_queries=100, n_entries=1, n_targets=25,
                 lengths=(6, 7, 8, 9, 10), capabilities=(2, 3)),
        Workload("predict-1800", "predict", 350, 1450, 0.01, None,
                 n_queries=len(PREDICT_SWEEP), n_entries=5, n_targets=25,
                 lengths=(4,), capabilities=(3,)),
        Workload("wide-5000", "discover", 1000, 4000, 0.01, None,
                 n_queries=100, n_entries=3, n_targets=10,
                 lengths=(3,), capabilities=(2, 3)),
    )
}

#: the same workloads at a scale small enough for the smoke check
TINY = {
    "deep-180": dict(n_hardware=6, n_software=14, density=0.3, n_queries=12,
                     n_targets=5, lengths=(3, 4, 5)),
    "predict-1800": dict(n_hardware=10, n_software=30, density=0.1, n_targets=8),
    "wide-5000": dict(n_hardware=20, n_software=60, density=0.05, n_queries=10),
}


def get(name: str, tiny: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, **TINY[name]) if tiny else wl


def _discover_queries(wl: Workload, hw: list[str], ids: list[str], rng) -> list[dict]:
    # Entries and lengths follow a fixed round-robin schedule over the
    # sorted hardware ids; only the targets and the order come from the
    # seed.  k // n_hw shifts the length cycle on every pass over the
    # entries, so an entry is not always queried at the same length.
    # Hardware assets are the backbone every path runs through, so a DFS
    # towards one is far cheaper than towards a software leaf: every query
    # draws hardware and software targets in the graph's proportion, and
    # never its own entries, or the batch cost would follow the seed.
    sw = sorted(set(ids) - set(hw))
    n_hw_targets = round(wl.n_targets * len(hw) / len(ids))
    queries = []
    for k in range(wl.n_queries):
        entries = [hw[(k * wl.n_entries + j) % len(hw)] for j in range(wl.n_entries)]
        hw_pool = [h for h in hw if h not in entries]
        targets = (rng.choice(hw_pool, size=n_hw_targets, replace=False).tolist()
                   + rng.choice(sw, size=wl.n_targets - n_hw_targets, replace=False).tolist())
        queries.append({
            "entries": entries,
            "targets": sorted(targets),
            "location": 3,
            "capability": wl.capabilities[k % len(wl.capabilities)],
            "length": wl.lengths[(k + k // len(hw)) % len(wl.lengths)],
        })
    rng.shuffle(queries)
    return queries


def _write_config(path: Path, q: dict, thresholds=(4, 2, 1, 0)) -> None:
    x1, x2, x3, x4 = thresholds
    path.write_text(
        f"entry_points={','.join(q['entries'])}\n"
        f"target_points={','.join(q['targets'])}\n"
        f"attacker_location={q['location']}\n"
        f"attacker_capability={q['capability']}\n"
        f"propagation_length={q['length']}\n"
        f"x1={x1}\nx2={x2}\nx3={x3}\nx4={x4}\n",
        encoding="utf-8",
    )


def generate_inputs(wl: Workload, seed: int, out: Path) -> None:
    """Write the workload's model files, config and query batch into out."""
    from attackcf import AssetKind, save_assets, save_edges, save_vulnerabilities
    from attackcf.bench import SynthSpec, generate

    graph_seed = seed if wl.graph_seed is None else wl.graph_seed
    graph = generate(SynthSpec(wl.n_hardware, wl.n_software, wl.density, 3, graph_seed))
    save_assets(out / "assets.csv", graph.assets)
    save_vulnerabilities(out / "vulns.csv", graph.vulnerabilities)
    save_edges(out / "edges.csv", graph.edges)

    ids = sorted(a.id for a in graph.assets)
    hw = sorted(a.id for a in graph.assets if a.kind is AssetKind.HARDWARE)
    rng = np.random.default_rng([seed, 1])
    if wl.kind == "predict":
        # every analysis discovers from the config's entries and targets
        (base,) = _discover_queries(dataclasses.replace(wl, n_queries=1), hw, ids, rng)
        _write_config(out / "config.txt", base, PREDICT_SWEEP[0][2])
        queries = [
            {"location": loc, "capability": cap, "thresholds": list(xs)}
            for loc, cap, xs in PREDICT_SWEEP
        ]
    else:
        queries = _discover_queries(wl, hw, ids, rng)
        _write_config(out / "config.txt", queries[0])
    (out / QUERIES_FILE).write_text(json.dumps({
        "workload": wl.name, "kind": wl.kind, "seed": seed,
        "graph_seed": graph_seed, "queries": queries,
    }), encoding="utf-8")
