"""attackcf reproduces the benchmark's recorded outputs at benchmark scale.

perfbench/expected.json holds the sha256 of each workload's query batch at
the default seed, and a benchmark run whose outputs differ fails.  The
test suite otherwise checks discovery only on small graphs, so this test
generates the deep-180 and wide-5000 inputs at that seed, runs every query's
discover on the loaded files and compares the digest, as perfbench/worker.py
computes it, with the recorded one.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from attackcf import AttackerProfile, DiscoveryConfig, discover, load_bundle

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


@pytest.mark.parametrize("name", ["deep-180", "wide-5000"])
def test_discover_matches_the_recorded_digest(workloads, name, tmp_path):
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    workloads.generate_inputs(workloads.get(name), expected["seed"], tmp_path)
    graph = load_bundle(*(tmp_path / f for f in workloads.INPUT_FILES)).graph
    queries = json.loads((tmp_path / workloads.QUERIES_FILE).read_text(encoding="utf-8"))

    digest = hashlib.sha256()
    for q in queries["queries"]:
        config = DiscoveryConfig(q["entries"], q["targets"],
                                 AttackerProfile(q["location"], q["capability"]), q["length"])
        paths = discover(graph, config).paths
        # one line per path, node ids joined by "->", and a blank line per query
        digest.update("".join("->".join(p.nodes) + "\n" for p in paths).encode() + b"\n")
    assert digest.hexdigest() == expected["digests"][name]
