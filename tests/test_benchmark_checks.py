"""The benchmark's output checks pass on attackcf's own results.

perfbench counts a query whose output fails perfbench/checks.py as failed.
Running those checks here, on a small generated graph, makes a change to
the result records that the benchmark would report as incorrect fail the
test suite first; perfbench/smoke.py covers the rest of the benchmark.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from attackcf.bench import SynthSpec, generate
from attackcf.discovery import discover
from attackcf.model import AssetKind, AttackerProfile, DiscoveryConfig, PredictionConfig
from attackcf.prediction import predict
from attackcf.report import format_discovery_report

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the (location, capability, thresholds) of the benchmark's predict-1800 sweep
@pytest.mark.parametrize("location, capability, thresholds", [
    (3, 3, (4, 2, 1, 0)),
    (3, 2, (3, 2, 1, 0)),
    (2, 3, (5, 3, 2, 1)),
])
def test_discover_and_predict_pass_the_benchmark_checks(checks, location, capability,
                                                        thresholds):
    graph = generate(SynthSpec(12, 48, 0.2, 6, 5))
    rng = random.Random(5)
    hardware = [a.id for a in graph.assets if a.kind is AssetKind.HARDWARE]
    ids = sorted(a.id for a in graph.assets)
    config = DiscoveryConfig(rng.sample(hardware, 5), rng.sample(ids, 10),
                             AttackerProfile(location, capability), 4)
    result = discover(graph, config)
    report = predict(graph, result, PredictionConfig(*thresholds))
    assert len(result.paths) > 20 and len(report.predictions) > 100

    checker = checks.Checker(graph)
    assert checker.discovery_errors(result, config) == []
    assert checker.prediction_errors(report, result) == []

    # the benchmark digests each path as "->".join(p.nodes): the node ids in
    # order, as the discovery report's nodes column writes them
    rows = format_discovery_report(result).splitlines()[6:]
    for p, row in zip(result.paths, rows, strict=True):
        line = "->".join(p.nodes)
        assert line.split("->") == [p.entry, *p[1:-1], p.target]
        assert row.split(",")[3] == line
