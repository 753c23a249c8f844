import hashlib
import re

import pytest

from attackcf import bench
from attackcf.bench import (
    DEFAULT_MATRIX,
    SynthSpec,
    BenchRecord,
    generate,
    run_bench,
    write_bench_csv,
)
from attackcf.model import AssetKind, validate_model

SMALL = SynthSpec(n_hardware=6, n_software=14, edge_density=0.15,
                  vuln_per_asset=3, seed=11)


class TestSynthSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SynthSpec(0, 1, 0.5, 1, 1)
        with pytest.raises(ValueError):
            SynthSpec(1, 0, 0.5, 1, 1)
        with pytest.raises(ValueError):
            SynthSpec(1, 1, 0.0, 1, 1)
        with pytest.raises(ValueError):
            SynthSpec(1, 1, 1.5, 1, 1)
        with pytest.raises(ValueError):
            SynthSpec(1, 1, 0.5, 0, 1)
        # counts and seeds that are not ints: numpy failed on 2.5, and True
        # built one hardware asset
        for args in [(2.5, 3, 0.5, 1, 0), (True, 3, 0.5, 1, 0), (1, 3.0, 0.5, 1, 0),
                     (1, 1, 0.5, 2.0, 0), (1, 1, 0.5, True, 0), (1, 1, True, 1, 0),
                     (1, 1, 0.5, 1, True), (1, 1, 0.5, 1, 1.0), (1, 1, 0.5, 1, "1")]:
            with pytest.raises(ValueError):
                SynthSpec(*args)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError) as exc:
            SynthSpec(1, 1, 0.5, 1, seed)
        assert str(exc.value) == "seed must fit in 64 unsigned bits"


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(35, 145, 0.05, 3, seed=42)
        assert generate(spec) == generate(spec)

    def test_published_scale_split(self):
        graph = generate(SynthSpec(35, 145, 0.05, 3, seed=42))
        assert len(graph.assets) == 180
        kinds = [a.kind for a in graph.assets]
        assert kinds.count(AssetKind.HARDWARE) == 35
        assert kinds.count(AssetKind.SOFTWARE) == 145

    def test_full_density_forces_complete_digraph(self):
        graph = generate(SynthSpec(2, 1, 1.0, 1, seed=7))
        assert len(graph.assets) == 3
        ids = [a.id for a in graph.assets]
        assert set(graph.edges) == {
            (u, v) for u in ids for v in ids if u != v
        }

    def test_software_hosted_on_hardware(self):
        graph = generate(SMALL)
        by_id = {a.id: a for a in graph.assets}
        for a in graph.assets:
            if a.kind is AssetKind.SOFTWARE:
                assert a.host is not None
                assert by_id[a.host].kind is AssetKind.HARDWARE

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generated_models_validate_clean(self, seed):
        graph = generate(SynthSpec(5, 12, 0.3, 4, seed))
        assert validate_model(graph) == []

    @pytest.mark.parametrize("spec, n_edges, digest", [
        (SynthSpec(35, 145, 0.05, 3, 42), 293,
         "b739197b6e99f2b468ef9604cb077efec3d7178d98fcc70c25682099af420ee8"),
        (SynthSpec(350, 1450, 0.01, 3, 1), 2986,
         "da6a0a895f54ed9712b6784d8657fe80cf44354079c0ee6f029fd2e54fa35974"),
    ], ids=["180-assets", "1800-assets"])
    def test_edge_draw_is_pinned(self, spec, n_edges, digest):
        graph = generate(spec)
        text = "".join(f"{s},{d}\n" for s, d in graph.edges)
        assert len(graph.edges) == n_edges
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_vulnerability_fields_in_range(self):
        graph = generate(SMALL)
        for v in graph.vulnerabilities:
            assert 0.0 <= v.score <= 10.0
            assert v.required_location in (1, 2, 3)
            assert v.required_capability in (1, 2, 3)


class TestRunBench:
    def test_twelve_records_for_default_matrix(self):
        records = run_bench(generate(SMALL), SMALL, repetitions=1)
        assert len(records) == len(DEFAULT_MATRIX) == 12
        for record, cell in zip(records, DEFAULT_MATRIX):
            assert (record.capability, record.propagation_length,
                    record.n_entry, record.n_target) == cell
            assert record.wall_time >= 0
            assert record.n_paths >= 0

    def test_reproducible_path_counts(self):
        graph = generate(SMALL)
        first = [r.n_paths for r in run_bench(graph, SMALL, repetitions=1)]
        second = [r.n_paths for r in run_bench(graph, SMALL, repetitions=1)]
        assert first == second

    def test_path_counts_monotone_in_propagation_length(self):
        graph = generate(SMALL)
        matrix = tuple(("High", length, 4, 4) for length in (1, 2, 3, 5, 8))
        counts = [r.n_paths for r in run_bench(graph, SMALL, matrix, repetitions=1)]
        assert counts == sorted(counts)

    def test_empty_entry_set_is_vacuous(self):
        records = run_bench(
            generate(SMALL), SMALL, (("High", 3, 0, 4),), repetitions=1
        )
        assert records[0].n_paths == 0
        assert records[0].wall_time == 0.0

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            run_bench(generate(SMALL), SMALL, repetitions=0)

    @pytest.mark.parametrize("cell, message", [
        (("High", 3, -1, 5), "n_entry and n_target must not be negative, got -1 and 5"),
        (("High", 3, 2.5, 2), "n_entry and n_target must be integers, got 2.5 and 2"),
        (("High", 3, 2, True), "n_entry and n_target must be integers, got 2 and True"),
        (("High", 0, 5, 5), "propagation_length must be a positive integer, got 0"),
        (("Bogus", 3, 5, 5),
         "unknown capability label 'Bogus'; accepted: Low, Medium, High"),
    ], ids=["negative-count", "float-count", "bool-count", "zero-length",
            "unknown-capability"])
    def test_rejects_invalid_cell_before_timing(self, monkeypatch, cell, message):
        calls = []
        monkeypatch.setattr(bench, "discover", lambda *a: calls.append(a))
        matrix = (("High", 3, 2, 2), cell)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_bench(generate(SMALL), SMALL, matrix, repetitions=1)
        assert calls == []

    def test_matrix_may_be_an_iterator(self):
        # the cells are checked before any is timed, so they are read twice
        records = run_bench(generate(SMALL), SMALL, iter(DEFAULT_MATRIX[:3]), repetitions=1)
        assert len(records) == 3

    def test_paper_scale_path_counts(self):
        # the default `attackcf bench` spec: 35 hardware + 145 software assets
        spec = SynthSpec(35, 145, 0.05, 3, seed=42)
        records = run_bench(generate(spec), spec, repetitions=1)
        assert [r.n_paths for r in records] == [
            2, 4, 8, 2, 4, 10, 2, 4, 10, 174, 692, 13052]

    def test_records_name_python_and_repeat_counts(self, tmp_path):
        records = run_bench(generate(SMALL), SMALL, DEFAULT_MATRIX[:3], repetitions=1)
        write_bench_csv(tmp_path / "bench.csv", records)
        rows = (tmp_path / "bench.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["python"] * 3
        reference = run_bench(generate(SMALL), SMALL, DEFAULT_MATRIX[:3], repetitions=1)
        assert [r.n_paths for r in records] == [r.n_paths for r in reference]


def test_csv_layout(tmp_path):
    records = [
        BenchRecord(spec=SMALL, capability="High", propagation_length=3,
                    n_entry=5, n_target=5, wall_time=0.25, n_paths=7)
    ]
    out = tmp_path / "bench.csv"
    write_bench_csv(out, records)
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "test,capability,propagation_length,n_entry,n_target,"
        "wall_time_s,n_paths,seed,backend"
    )
    assert lines[1] == "1,High,3,5,5,0.250000,7,11,python"
