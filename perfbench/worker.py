"""Benchmark worker: `generate` writes a workload's input files; `measure`
loads them with attackcf, times the query batch and prints one JSON line.

run.py starts each role in its own process, so the generator's memory and
time never reach the measured process.  The measured process starts no
thread or process of its own.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import attackcf  # noqa: E402
import attackcf.report  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
#: seconds of repeated set-up before each batch; set-up is thereby sampled
#: across the whole run, not in one window of a machine whose speed drifts
SETUP_SLICE_S = 0.5


def setup(files: list[Path]):
    """The set-up every analysis pays: load and validate the model, warm the kernels."""
    bundle = attackcf.load_bundle(*files)
    violations = attackcf.validate_model(bundle.graph)
    warm_up = getattr(getattr(attackcf, "_kernels", None), "warm_up", None)
    if warm_up is not None:
        warm_up()
    return bundle, violations


class Query:
    """One user-visible request: a discover() call, or a what-if analysis."""

    def __init__(self, spec: dict, kind: str, bundle):
        base = bundle.discovery
        attacker = attackcf.AttackerProfile(spec["location"], spec["capability"])
        if kind == "predict":
            self.discovery = attackcf.DiscoveryConfig(
                base.entry_points, base.target_points, attacker,
                base.propagation_length, base.allowed_types,
            )
            self.prediction = attackcf.PredictionConfig(*spec["thresholds"])
        else:
            self.discovery = attackcf.DiscoveryConfig(
                spec["entries"], spec["targets"], attacker, spec["length"],
            )
            self.prediction = None

    def run(self, graph):
        result = attackcf.discover(graph, self.discovery)
        if self.prediction is None:
            return result, None, None
        report = attackcf.predict(graph, result, self.prediction)
        text = (attackcf.report.format_discovery_report(result)
                + attackcf.report.format_prediction_report(report))
        return result, report, text

    def errors(self, checker: checks.Checker, out) -> list[str]:
        result, report, _ = out
        errors = checker.discovery_errors(result, self.discovery)
        if report is not None:
            errors += checker.prediction_errors(report, result)
        return errors

    @staticmethod
    def digest_bytes(out) -> bytes:
        # paths: the ordered path list; predictions: the formatted report bytes
        result, _, text = out
        if text is not None:
            return text.encode()
        return "".join("->".join(p.nodes) + "\n" for p in result.paths).encode() + b"\n"

    def pair_count(self, checker: checks.Checker) -> int:
        """(entry, target) pairs discovery could search: eligible x targets minus self-pairs."""
        eligible = checker.eligible_entries(self.discovery)
        targets = self.discovery.target_points & checker.ids
        return len(eligible) * len(targets) - len(eligible & targets)


def run_batch(queries, files, checker=None, tracer=None) -> dict:
    """Run the batch once on a freshly set-up model, as a new analyst process would.

    Set-up is repeated for SETUP_SLICE_S and timed apart from the queries;
    the last model serves the batch, so lazy work the model does on its
    first queries (cached indexes, memoized results) is timed in every
    batch.  With checker None the outputs are only digested; measure()
    compares every batch's digest with those of checked batches.
    """
    setup_times, graph = [], None
    end = perf_counter() + SETUP_SLICE_S
    while not setup_times or perf_counter() < end:
        graph = None  # only one model is alive at a time
        t0 = perf_counter()
        graph = setup(files)[0].graph
        setup_times.append(perf_counter() - t0)
    gc.collect()
    latencies, failed = [], 0
    digest = hashlib.sha256()
    for qid, q in enumerate(queries):
        t0 = perf_counter()
        try:
            try:
                if tracer is None:
                    out = q.run(graph)
                else:
                    tracer.query = qid
                    rec = tracer.open("query")
                    try:
                        out = q.run(graph)
                    finally:
                        tracer.close(rec)
                        tracer.query = None
            finally:
                latencies.append(perf_counter() - t0)
            errors = [] if checker is None else q.errors(checker, out)
            digest.update(q.digest_bytes(out))
        except Exception:  # a query that raises is a failed query; the run goes on
            traceback.print_exc()
            failed += 1
            continue
        if errors:
            print(f"query {qid}: " + "; ".join(errors[:5]), file=sys.stderr)
            failed += 1
    return {"latencies": latencies, "failed": failed, "digest": digest.hexdigest(),
            "setup_times": setup_times}


def run_for(seconds: float, queries, files, checker, tracer=None) -> list[dict]:
    """Repeat the batch while another one fits in `seconds` (at least once)."""
    start = perf_counter()
    batches, walls = [], []
    while True:
        t0 = perf_counter()
        batches.append(run_batch(queries, files, checker, tracer))
        walls.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return batches


def batch_s(batch: dict) -> float:
    return sum(batch["latencies"])


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(tracer: Tracer, traced: list[dict], pairs: int, untraced_run_s: float,
                  setup_files: list[Path]) -> dict:
    """Per-layer metrics of the traced batches, per batch (set-up ones per set-up)."""
    q = tracer.totals(in_queries=True)
    s = tracer.totals(in_queries=False)
    c = tracer.counts
    nb = len(traced)

    def calls(name):
        return q[name][0] / nb

    def total(name):
        return q[name][1] / nb

    def own(name):
        return q[name][2] / nb

    def ratio(a, b):
        return a / b if b else 0.0

    def per_setup(name):
        return ratio(s[name][1], s[name][0])

    rows = 0
    for f in setup_files[:3]:  # the CSV files, less their header lines
        with open(f, encoding="utf-8") as fh:
            rows += sum(1 for _ in fh) - 1
    dfs_calls = q["_kernels.dfs"][0]
    probes = c["similarity.probes"]
    traced_run_s = statistics.median(batch_s(b) for b in traced)
    return {
        "ingest.load_s": per_setup("ingest.load"),
        "ingest.rows": rows,
        "ingest.bytes": sum(f.stat().st_size for f in setup_files),
        "model.validate_s": per_setup("model.validate"),
        "discovery.discover_s": total("discovery.discover"),
        "discovery.calls": calls("discovery.discover"),
        "discovery.self_s": own("discovery.discover"),
        "discovery.eligibility_s": own("discovery.eligibility"),
        "discovery.entries_eligible": c["discovery.entries_eligible"] / nb,
        "discovery.entries_rejected": c["discovery.entries_rejected"] / nb,
        "discovery.pairs_pruned": (pairs * nb - dfs_calls) / nb,
        "discovery.paths": c["discovery.paths"] / nb,
        "_kernels.bfs_s": own("_kernels.bfs"),
        "_kernels.bfs_calls": calls("_kernels.bfs"),
        "_kernels.dfs_s": own("_kernels.dfs"),
        "_kernels.dfs_calls": dfs_calls / nb,
        "_kernels.dfs_paths": c["_kernels.dfs_paths"] / nb,
        "_kernels.dfs_hit_ratio": ratio(c["_kernels.dfs_hits"], dfs_calls),
        "similarity.matrix_s": total("similarity.matrix"),
        "similarity.self_s": own("similarity.matrix"),
        "similarity.probes": probes / nb,
        "similarity.pairs": c["similarity.pairs"] / nb,
        "similarity.hit_ratio": ratio(c["similarity.pairs"], probes),
        "similarity.pcc_s": own("similarity.pcc"),
        "similarity.pcc_calls": calls("similarity.pcc"),
        "prediction.predict_s": total("prediction.predict"),
        "prediction.self_s": own("prediction.predict"),
        "prediction.same_type_s": own("prediction.same_type"),
        "prediction.same_type_calls": calls("prediction.same_type"),
        "prediction.classify_s": own("prediction.classify"),
        "prediction.predictions": c["prediction.predictions"] / nb,
        "report.format_s": own("report.format"),
        "report.bytes": c["report.bytes"] / nb,
        "runtime.gc_s": total("runtime.gc"),
        "runtime.gc_collections": calls("runtime.gc"),
        "bench.traced_run_s": total("query"),
        "bench.unattributed_s": own("query"),
        "bench.trace_overhead_pct": 100.0 * (traced_run_s - untraced_run_s) / untraced_run_s,
    }


#: per-layer self times that partition a traced query's duration
SELF_TIME_METRICS = (
    "discovery.self_s", "discovery.eligibility_s", "_kernels.bfs_s", "_kernels.dfs_s",
    "similarity.self_s", "similarity.pcc_s", "prediction.self_s", "prediction.same_type_s",
    "prediction.classify_s", "report.format_s", "runtime.gc_s", "bench.unattributed_s",
)


def measure(args) -> dict:
    data = Path(args.data)
    inputs = json.loads((data / workloads.QUERIES_FILE).read_text(encoding="utf-8"))
    files = [data / f for f in workloads.INPUT_FILES]

    bundle, violations = setup(files)
    queries = [Query(spec, inputs["kind"], bundle) for spec in inputs["queries"]]
    bundle = None

    # The first batch runs unchecked, so that peak_rss_mb is read before
    # the checker's reference data exists; its digest must still equal
    # that of the checked batches.
    start = perf_counter()
    batches = [run_batch(queries, files)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker = checks.Checker(attackcf.load_bundle(*files).graph)
    if inputs["kind"] == "predict":
        checker.shared_counts()
    pairs = sum(q.pair_count(checker) for q in queries)

    tracer = None
    traced = []
    measure_s = args.seconds / 2 if args.trace else args.seconds
    batches += run_for(measure_s - (perf_counter() - start), queries, files, checker)
    if args.trace:
        with Tracer() as tracer:
            traced = run_for(args.seconds / 2, queries, files, checker, tracer)

    # Each batch starts from a fresh model, so every figure includes the
    # lazy set-up a new analyst process pays.  run_s is the median batch;
    # the latency percentiles are over each query's median repeat.
    per_query = [statistics.median(lats) for lats in zip(*(b["latencies"] for b in batches))]
    setup_times = [t for b in batches for t in b["setup_times"]]
    digests = {b["digest"] for b in batches + traced}
    attempted = len(queries) * (len(batches) + len(traced))
    failed = sum(b["failed"] for b in batches + traced)
    problems = [f"model violation: {v}" for v in violations[:5]]
    if len(digests) != 1:
        problems.append("repeated batches gave different outputs")
    expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    if not args.tiny and inputs["seed"] == expected["seed"]:
        want = expected["digests"].get(inputs["workload"])
        if want != batches[0]["digest"]:
            problems.append(f"output digest {batches[0]['digest']} differs from the "
                            f"recorded {want}")

    out = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digest": batches[0]["digest"],
        "n_queries": len(queries),
        "n_batches": len(batches),
        "n_setups": len(setup_times),
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(batch_s(b) for b in batches),
            "query_p50_ms": 1e3 * statistics.median(per_query),
            "query_p90_ms": 1e3 * percentile(per_query, 90),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, traced, pairs, out["metrics"]["run_s"], files)
        out["spans"] = tracer.dump()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("generate", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True, help="directory of the input files")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.role == "generate":
        workloads.generate_inputs(workloads.get(args.workload, args.tiny), args.seed,
                                  Path(args.data))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
