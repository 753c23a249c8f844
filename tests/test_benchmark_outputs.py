"""attackcf reproduces the benchmark's recorded outputs at benchmark scale.

perfbench/expected.json holds the sha256 of each workload's query batch at
the default seed, and a benchmark run whose outputs differ fails.  The
test suite otherwise checks discovery and prediction only on small graphs,
so these tests generate each workload's inputs at that seed, run every
query on the loaded files as perfbench/worker.py does (a discover, or a
what-if analysis of discover, predict and both reports) and compare the
digest, as the worker computes it, with the recorded one.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from attackcf import (
    AttackerProfile,
    DiscoveryConfig,
    PredictionConfig,
    discover,
    load_bundle,
    predict,
)
from attackcf.report import format_discovery_report, format_prediction_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclass() looks its class's module up by name while it runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def expected():
    return json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def _inputs(workloads, name, seed, out):
    """The loaded bundle and the query list of the workload at seed."""
    workloads.generate_inputs(workloads.get(name), seed, out)
    bundle = load_bundle(*(out / f for f in workloads.INPUT_FILES))
    queries = json.loads((out / workloads.QUERIES_FILE).read_text(encoding="utf-8"))
    return bundle, queries["queries"]


@pytest.mark.parametrize("name", ["deep-180", "wide-5000"])
def test_discover_matches_the_recorded_digest(workloads, expected, name, tmp_path):
    bundle, queries = _inputs(workloads, name, expected["seed"], tmp_path)
    graph = bundle.graph

    digest = hashlib.sha256()
    for q in queries:
        config = DiscoveryConfig(q["entries"], q["targets"],
                                 AttackerProfile(q["location"], q["capability"]), q["length"])
        paths = discover(graph, config).paths
        # one line per path, node ids joined by "->", and a blank line per query
        digest.update("".join("->".join(p.nodes) + "\n" for p in paths).encode() + b"\n")
    assert digest.hexdigest() == expected["digests"][name]


def test_predict_matches_the_recorded_digest(workloads, expected, tmp_path):
    bundle, queries = _inputs(workloads, "predict-1800", expected["seed"], tmp_path)
    base = bundle.discovery

    digest = hashlib.sha256()
    for q in queries:
        # each analysis discovers from the config's entries and targets with
        # its own attacker, then predicts with its own thresholds
        config = DiscoveryConfig(base.entry_points, base.target_points,
                                 AttackerProfile(q["location"], q["capability"]),
                                 base.propagation_length, base.allowed_types)
        result = discover(bundle.graph, config)
        report = predict(bundle.graph, result, PredictionConfig(*q["thresholds"]))
        text = format_discovery_report(result) + format_prediction_report(report)
        digest.update(text.encode())
    assert digest.hexdigest() == expected["digests"]["predict-1800"]
