"""Synthetic asset topologies and a discovery runtime benchmark harness.

The generator mimics a real infrastructure layout: a sparse directed
backbone between hardware assets, software assets reachable from the
hardware hosting them, and occasional lateral links elsewhere.  Backbone
pairs appear with probability edge_density; all other ordered pairs with
probability edge_density squared, so density 1.0 still forces a complete
digraph while realistic densities keep path enumeration dominated by the
backbone.

The harness times discover() over a matrix of (capability, propagation
length, entry count, target count) cells, three repetitions with the
median reported.  It times the kernel backend that ATTACKCF_BACKEND
selects (see attackcf._kernels) and records its name with every cell; run
it once per backend to compare them.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass

import numpy as np

from attackcf import _kernels
from attackcf.discovery import discover
from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackerProfile,
    DiscoveryConfig,
    VulnType,
    VulnerabilityInstance,
)

#: capability label -> attacker profile; location fixed at network (3)
CAPABILITY_PROFILES = {
    "Low": AttackerProfile(location=3, capability=1),
    "Medium": AttackerProfile(location=3, capability=2),
    "High": AttackerProfile(location=3, capability=3),
}

#: (capability, propagation_length, n_entry, n_target) evaluation matrix
DEFAULT_MATRIX: tuple[tuple[str, int, int, int], ...] = (
    ("Low", 3, 5, 5),
    ("Low", 4, 5, 5),
    ("Low", 5, 5, 5),
    ("Medium", 3, 5, 5),
    ("Medium", 4, 5, 5),
    ("Medium", 5, 5, 5),
    ("High", 3, 5, 5),
    ("High", 4, 5, 5),
    ("High", 5, 5, 5),
    ("High", 3, 25, 25),
    ("High", 5, 25, 25),
    ("High", 10, 25, 25),
)

BENCH_CSV_HEADER = [
    "test", "capability", "propagation_length", "n_entry", "n_target",
    "wall_time_s", "n_paths", "seed", "backend",
]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic topology."""

    n_hardware: int
    n_software: int
    edge_density: float
    vuln_per_asset: int
    seed: int

    def __post_init__(self):
        if self.n_hardware < 1 or self.n_software < 1:
            raise ValueError("n_hardware and n_software must be positive")
        if not 0.0 < self.edge_density <= 1.0:
            raise ValueError(f"edge_density must be in (0, 1], got {self.edge_density}")
        if self.vuln_per_asset < 1:
            raise ValueError("vuln_per_asset must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class BenchRecord:
    """One timed matrix cell."""

    spec: SynthSpec
    capability: str
    propagation_length: int
    n_entry: int
    n_target: int
    wall_time: float
    n_paths: int
    backend: str


def generate(spec: SynthSpec) -> AssetGraph:
    """Deterministic synthetic AssetGraph for the given spec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_hardware + spec.n_software

    assets: list[Asset] = []
    for i in range(spec.n_hardware):
        assets.append(
            Asset(id=f"H{i + 1:03d}", name=f"hw-{i + 1:03d}", kind=AssetKind.HARDWARE)
        )
    hosts = rng.integers(0, spec.n_hardware, size=spec.n_software)
    for j in range(spec.n_software):
        assets.append(
            Asset(
                id=f"S{j + 1:03d}",
                name=f"sw-{j + 1:03d}",
                kind=AssetKind.SOFTWARE,
                host=assets[hosts[j]].id,
            )
        )

    ids = [a.id for a in assets]
    hw = np.zeros(n, dtype=bool)
    hw[: spec.n_hardware] = True
    prob = np.full((n, n), spec.edge_density**2)
    prob[np.ix_(hw, hw)] = spec.edge_density
    draw = rng.random((n, n)) < prob
    np.fill_diagonal(draw, False)

    edges = {(ids[u], ids[v]) for u, v in zip(*np.nonzero(draw))}
    for j in range(spec.n_software):
        edges.add((assets[hosts[j]].id, f"S{j + 1:03d}"))

    n_cves = max(spec.vuln_per_asset, round(n * spec.vuln_per_asset / 3))
    types = list(VulnType)
    pool = []
    for k in range(n_cves):
        pool.append(
            {
                "cve_id": f"CVE-SYN-{k + 1:05d}",
                "score": round(float(rng.uniform(0.0, 10.0)), 1),
                "cwe_id": f"CWE-{int(rng.integers(1, 1000))}",
                "vuln_type": types[int(rng.integers(0, len(types)))],
                "required_location": int(rng.integers(1, 4)),
                "required_capability": int(rng.integers(1, 4)),
            }
        )

    vulns: list[VulnerabilityInstance] = []
    for aid in ids:
        chosen = rng.choice(n_cves, size=min(spec.vuln_per_asset, n_cves), replace=False)
        for k in sorted(int(c) for c in chosen):
            vulns.append(VulnerabilityInstance(asset=aid, **pool[k]))

    return AssetGraph(assets, vulns, edges)


def run_bench(
    graph: AssetGraph,
    spec: SynthSpec,
    matrix=DEFAULT_MATRIX,
    repetitions: int = 3,
) -> list[BenchRecord]:
    """Time discover() for each matrix cell; wall_time is the median of repetitions.

    Entry and target sets are drawn deterministically from the spec seed
    and the set sizes, so a repeated run reproduces the same path counts
    and cells differing only in propagation length search from identical
    sets.  Cells run sequentially to keep timings honest.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    backend = _kernels.default_backend()
    _kernels.warm_up()

    ids = sorted(a.id for a in graph.assets)
    # entries are drawn from the hardware backbone: attacks initiate from
    # the reachable infrastructure nodes, targets can be anything
    hw_ids = sorted(a.id for a in graph.assets if a.kind is AssetKind.HARDWARE) or ids
    records: list[BenchRecord] = []
    for capability, prop_len, n_entry, n_target in matrix:
        try:
            attacker = CAPABILITY_PROFILES[capability]
        except KeyError:
            raise ValueError(
                f"unknown capability label {capability!r}; "
                f"accepted: {', '.join(CAPABILITY_PROFILES)}"
            ) from None
        cell_rng = np.random.default_rng([spec.seed, n_entry, n_target])
        entries = cell_rng.choice(hw_ids, size=min(n_entry, len(hw_ids)), replace=False)
        targets = cell_rng.choice(ids, size=min(n_target, len(ids)), replace=False)
        wall_time = 0.0
        n_paths = 0
        if len(entries) and len(targets):
            config = DiscoveryConfig(
                entry_points=entries,
                target_points=targets,
                attacker=attacker,
                propagation_length=prop_len,
            )
            times = []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                result = discover(graph, config)
                times.append(time.perf_counter() - t0)
                n_paths = len(result.paths)
            wall_time = statistics.median(times)
        records.append(
            BenchRecord(
                spec=spec,
                capability=capability,
                propagation_length=prop_len,
                n_entry=n_entry,
                n_target=n_target,
                wall_time=wall_time,
                n_paths=n_paths,
                backend=backend,
            )
        )
    return records


def write_bench_csv(path, records: list[BenchRecord]) -> None:
    """Write records as CSV: the matrix columns plus n_paths, seed and backend."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BENCH_CSV_HEADER)
        for i, r in enumerate(records, start=1):
            writer.writerow(
                [i, r.capability, r.propagation_length, r.n_entry, r.n_target,
                 f"{r.wall_time:.6f}", r.n_paths, r.spec.seed, r.backend]
            )
