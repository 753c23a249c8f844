import hashlib
import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from attackcf import __version__
from attackcf.cli import _check_model, main
from attackcf.ingest import IngestError
from attackcf.model import Asset, AssetGraph, Classification

from conftest import DEMO_DIR
from oracles import parse_prediction_report

ALL_33_REQS = """\
cve_id,asset_id,score,cwe_id,vuln_type,required_location,required_capability
CVE-2015-1769,A1,10,CWE-264,ObtainPrivilege,3,3
CVE-2015-1769,A2,10,CWE-264,ObtainPrivilege,3,3
CVE-2015-1769,A3,10,CWE-264,ObtainPrivilege,3,3
"""

WEAK_ATTACKER_CONFIG = """\
entry_points=A1,A2
target_points=A1,A2,A3
attacker_location=1
attacker_capability=1
propagation_length=1
"""


def _demo_flags(out, config=None):
    return [
        "--assets", str(DEMO_DIR / "assets.csv"),
        "--vulns", str(DEMO_DIR / "vulns.csv"),
        "--edges", str(DEMO_DIR / "edges.csv"),
        "--config", str(config or DEMO_DIR / "config.txt"),
        "--out", str(out),
    ]


class TestDiscoverCommand:
    def test_demo_model_reports_three_paths(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["discover", *_demo_flags(out)]) == 0
        text = out.read_text()
        assert text.startswith("# attackcf discover v1\n")
        assert "# n_paths=3\n" in text
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert rows == ["A1,A2,1,A1->A2", "A2,A1,1,A2->A1", "A2,A3,1,A2->A3"]

    def test_unreadable_config_is_usage_error(self, tmp_path):
        rc = main(["discover", *_demo_flags(tmp_path / "o.txt",
                                            tmp_path / "missing.txt")])
        assert rc == 2

    def test_empty_result_is_success(self, tmp_path):
        vulns = tmp_path / "vulns.csv"
        vulns.write_text(ALL_33_REQS)
        config = tmp_path / "config.txt"
        config.write_text(WEAK_ATTACKER_CONFIG)
        out = tmp_path / "report.txt"
        rc = main([
            "discover",
            "--assets", str(DEMO_DIR / "assets.csv"),
            "--vulns", str(vulns),
            "--edges", str(DEMO_DIR / "edges.csv"),
            "--config", str(config),
            "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert "# n_paths=0\n" in text
        assert "# no_eligible_entries=true\n" in text

    def test_dot_export_highlights_paths(self, tmp_path):
        out = tmp_path / "report.txt"
        dot = tmp_path / "graph.dot"
        assert main(["discover", *_demo_flags(out), "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert '"A1" -> "A2" [color="red" penwidth=2.0];' in text

    def test_validation_failure_is_data_error(self, tmp_path, capsys):
        # a second record of one (cve, asset) with another score loads, and
        # only validate_model rejects it
        vulns = tmp_path / "vulns.csv"
        vulns.write_text((DEMO_DIR / "vulns.csv").read_text()
                         + "CVE-2015-1769,A1,9.3,CWE-264,ObtainPrivilege,1,1\n")
        rc = main([
            "discover",
            "--assets", str(DEMO_DIR / "assets.csv"),
            "--vulns", str(vulns),
            "--edges", str(DEMO_DIR / "edges.csv"),
            "--config", str(DEMO_DIR / "config.txt"),
            "--out", str(tmp_path / "o.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: model validation failed:\n"
            "  duplicate vulnerability instance CVE-2015-1769 on A1\n")

    def test_bad_host_names_file_and_line(self, tmp_path, capsys):
        assets = tmp_path / "assets.csv"
        assets.write_text(
            "id,name,kind,host\nA1,pc,hardware,\nA2,l1,hardware,\n"
            "A3,l2,hardware,\nS9,app,software,GHOST\n"
        )
        rc = main([
            "discover",
            "--assets", str(assets),
            "--vulns", str(DEMO_DIR / "vulns.csv"),
            "--edges", str(DEMO_DIR / "edges.csv"),
            "--config", str(DEMO_DIR / "config.txt"),
            "--out", str(tmp_path / "o.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {assets}:5: asset S9 hosted on missing asset GHOST\n")

    def test_headerless_edges_file_is_data_error(self, tmp_path, capsys):
        # read as data, the missing header would drop the edge A1 -> A2
        edges = tmp_path / "edges.csv"
        edges.write_text("A1,A2\nA2,A3\n")
        rc = main([
            "discover",
            "--assets", str(DEMO_DIR / "assets.csv"),
            "--vulns", str(DEMO_DIR / "vulns.csv"),
            "--edges", str(edges),
            "--config", str(DEMO_DIR / "config.txt"),
            "--out", str(tmp_path / "o.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {edges}:1: expected header 'src,dst', got 'A1,A2'\n")

    def test_unreadable_csv_record_is_data_error(self, tmp_path, capsys):
        # a field longer than csv.field_size_limit() makes csv.reader raise
        assets = tmp_path / "assets.csv"
        assets.write_text(
            "id,name,kind,host\nA1,pc,hardware,\n"
            f"A2,{'x' * 131_073},hardware,\nA3,l2,hardware,\n"
        )
        rc = main([
            "discover",
            "--assets", str(assets),
            "--vulns", str(DEMO_DIR / "vulns.csv"),
            "--edges", str(DEMO_DIR / "edges.csv"),
            "--config", str(DEMO_DIR / "config.txt"),
            "--out", str(tmp_path / "o.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {assets}:3: field larger than field limit (131072)\n")


@pytest.mark.parametrize("command", ["discover", "predict"])
@pytest.mark.parametrize("old, new, message", [
    ("entry_points=A1,A2", "entry_points=A1,ZZ,A0", "entry_points reference unknown assets: A0, ZZ"),
    ("target_points=A1,A2,A3", "target_points=A3,Z9", "target_points reference unknown assets: Z9"),
], ids=["entry", "target"])
def test_unknown_configured_id_is_data_error(tmp_path, capsys, command, old, new, message):
    config = tmp_path / "config.txt"
    config.write_text((DEMO_DIR / "config.txt").read_text().replace(old, new))
    out = tmp_path / "o.txt"
    assert main([command, *_demo_flags(out, config)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestPredictCommand:
    def test_demo_model_final_predictions(self, tmp_path):
        out = tmp_path / "predictions.txt"
        assert main(["predict", *_demo_flags(out)]) == 0
        rows = [
            l for l in out.read_text().splitlines()
            if l and not l.startswith(("#", "src,"))
        ]
        assert rows == [
            "A1,A2,VeryHigh,4,1.0,true",
            "A2,A1,VeryHigh,4,1.0,true",
            "A2,A3,VeryHigh,3,1.0,true",
            "A1,A3,High,3,1.0,true",
            "A3,A1,High,3,1.0,true",
            "A3,A2,High,3,1.0,true",
        ]

    def test_report_round_trips(self, tmp_path):
        out = tmp_path / "predictions.txt"
        main(["predict", *_demo_flags(out)])
        parsed = parse_prediction_report(out)
        assert len(parsed) == 6
        assert parsed[0].src == "A1"
        assert parsed[0].level is Classification.VERY_HIGH
        assert parsed[0].similarity == 1.0
        assert parsed[0].degenerate

        main(["predict", *_demo_flags(tmp_path / "again.txt")])
        assert parse_prediction_report(tmp_path / "again.txt") == parsed

    def test_bad_thresholds_are_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text(
            (DEMO_DIR / "config.txt").read_text() + "x1=2\nx2=3\n"
        )
        rc = main(["predict", *_demo_flags(tmp_path / "o.txt", config)])
        assert rc == 1
        assert "descending" in capsys.readouterr().err

    def test_no_shared_cves_gives_empty_report(self, tmp_path):
        vulns = tmp_path / "vulns.csv"
        vulns.write_text(
            "cve_id,asset_id,score,cwe_id,vuln_type,required_location,required_capability\n"
            "CVE-1,A1,5,CWE-1,XSS,1,1\n"
            "CVE-2,A2,5,CWE-1,XSS,1,1\n"
            "CVE-3,A3,5,CWE-1,XSS,1,1\n"
        )
        out = tmp_path / "o.txt"
        rc = main([
            "predict",
            "--assets", str(DEMO_DIR / "assets.csv"),
            "--vulns", str(vulns),
            "--edges", str(DEMO_DIR / "edges.csv"),
            "--config", str(DEMO_DIR / "config.txt"),
            "--out", str(out),
        ])
        assert rc == 0
        assert "# n_predictions=0" in out.read_text()


class TestBenchCommand:
    BENCH_FLAGS = ["--hardware", "6", "--software", "10", "--density", "0.2",
                   "--vulns-per-asset", "3", "--seed", "5", "--reps", "1"]

    def test_default_matrix_writes_twelve_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", *self.BENCH_FLAGS, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("test,capability,propagation_length")

    def test_repeat_run_reproduces_path_counts(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bench", *self.BENCH_FLAGS, "--out", str(a)])
        main(["bench", *self.BENCH_FLAGS, "--out", str(b)])
        counts = lambda p: [l.split(",")[6] for l in p.read_text().splitlines()[1:]]
        assert counts(a) == counts(b)

    def test_zero_reps_is_usage_error(self, tmp_path):
        rc = main(["bench", "--reps", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_invalid_spec_is_usage_error(self, tmp_path):
        rc = main(["bench", "--density", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        rc = main(["bench", "--seed", "-1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must fit in 64 unsigned bits\n"

    def test_custom_matrix_file(self, tmp_path):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(
            "capability,propagation_length,n_entry,n_target\nHigh,2,3,3\nHigh,4,3,3\n"
        )
        out = tmp_path / "bench.csv"
        rc = main(["bench", *self.BENCH_FLAGS, "--matrix", str(matrix),
                   "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("body, message", [
        ("High,2,3\n", ":2: matrix row needs 4 fields, got 3"),
        ("High,2,3,3\nHigh,two,3,3\n", ":3: malformed matrix row"),
        ("", ": empty benchmark matrix"),
        ("High,2,-1,3\n", ":2: n_entry and n_target must not be negative, got -1 and 3"),
        ("High,2,3,3\nHigh,2,3,-2\n",
         ":3: n_entry and n_target must not be negative, got 3 and -2"),
        ("High,0,3,3\n", ":2: propagation_length must be a positive integer, got 0"),
        ("High,2,3,3\nHigh,-2,3,3\n",
         ":3: propagation_length must be a positive integer, got -2"),
        ("Bogus,3,3,3\n",
         ":2: unknown capability label 'Bogus'; accepted: Low, Medium, High"),
    ])
    def test_bad_matrix_file_is_data_error(self, tmp_path, capsys, body, message):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("capability,propagation_length,n_entry,n_target\n" + body)
        rc = main(["bench", *self.BENCH_FLAGS, "--matrix", str(matrix),
                   "--out", str(tmp_path / "bench.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {matrix}{message}\n"

    def test_headerless_matrix_file_is_data_error(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("High,2,3,3\nHigh,4,3,3\n")
        rc = main(["bench", *self.BENCH_FLAGS, "--matrix", str(matrix),
                   "--out", str(tmp_path / "bench.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {matrix}:1: expected header "
            "'capability,propagation_length,n_entry,n_target', got 'High,2,3,3'\n")

    def test_backend_column_reads_python(self, tmp_path):
        out = tmp_path / "bench.csv"
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("capability,propagation_length,n_entry,n_target\nHigh,3,3,3\n")
        rc = main(["bench", *self.BENCH_FLAGS, "--matrix", str(matrix), "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert [r[-1] for r in rows] == ["python"]

    def test_backend_flag_is_gone(self, tmp_path):
        # there is one kernel backend, so nothing selects one
        with pytest.raises(SystemExit) as exc:
            main(["bench", *self.BENCH_FLAGS, "--backend", "python",
                  "--out", str(tmp_path / "bench.csv")])
        assert exc.value.code == 2


class TestExportDotCommand:
    FLAGS = [
        "--assets", str(DEMO_DIR / "assets.csv"),
        "--vulns", str(DEMO_DIR / "vulns.csv"),
        "--edges", str(DEMO_DIR / "edges.csv"),
    ]

    def test_nodes_and_edges_rendered(self, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export-dot", *self.FLAGS, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("shape=box") == 3
        assert text.count(" -> ") == 3
        assert '"A1" [label="Desktop PC" shape=box];' in text

    def test_empty_edges_file(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst\n")
        out = tmp_path / "g.dot"
        rc = main([
            "export-dot",
            "--assets", str(DEMO_DIR / "assets.csv"),
            "--vulns", str(DEMO_DIR / "vulns.csv"),
            "--edges", str(edges),
            "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert text.count("shape=") == 3
        assert " -> " not in text

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        main(["export-dot", *self.FLAGS, "--out", str(a)])
        main(["export-dot", *self.FLAGS, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


#: sha256 of each demo output: the report and DOT bytes are part of the contract
DEMO_DIGESTS = {
    "discover.txt": "f3eb5c753fe4bbb877dcb4b7c02bf2d6db066873bf94752b40c66cb820a413f6",
    "discover.dot": "b7f9d0d473bcd8c14eb840aac2e4dbcc6b1ffcc77c041b1c6dc7c7431e8c97ba",
    "predict.txt": "0a3784c062a0ec22bdc2e699593f5bb62e87fe53b9192faa2d0814a6ded592a1",
    "graph.dot": "21e6c28cd8659a2d43ff7d1a87875b5d3f635c891f1d7dae9c6c08e620920d1e",
}


def test_demo_outputs_are_pinned(tmp_path):
    assert main(["discover", *_demo_flags(tmp_path / "discover.txt"),
                 "--dot", str(tmp_path / "discover.dot")]) == 0
    assert main(["predict", *_demo_flags(tmp_path / "predict.txt")]) == 0
    assert main(["export-dot", *TestExportDotCommand.FLAGS,
                 "--out", str(tmp_path / "graph.dot")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DEMO_DIGESTS}
    assert digests == DEMO_DIGESTS


def test_analysis_commands_run_without_numpy(tmp_path):
    # only the synthetic generator and `attackcf bench` import numpy
    script = ("import sys; sys.modules['numpy'] = None\n"
              "from attackcf.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (
        ["discover", *_demo_flags(tmp_path / "discover.txt"),
         "--dot", str(tmp_path / "discover.dot")],
        ["predict", *_demo_flags(tmp_path / "predict.txt")],
        ["export-dot", *TestExportDotCommand.FLAGS, "--out", str(tmp_path / "graph.dot")],
    ):
        run = subprocess.run([sys.executable, "-c", script, *argv],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DEMO_DIGESTS}
    assert digests == DEMO_DIGESTS


def _analysis_outputs(model_dir, out_dir):
    """The bytes each analysis command writes for the model files in model_dir."""
    out_dir.mkdir()
    model = ["--assets", str(model_dir / "assets.csv"), "--vulns", str(model_dir / "vulns.csv"),
             "--edges", str(model_dir / "edges.csv")]
    config = ["--config", str(DEMO_DIR / "config.txt")]
    assert main(["discover", *model, *config, "--out", str(out_dir / "discover.txt"),
                 "--dot", str(out_dir / "discover.dot")]) == 0
    assert main(["predict", *model, *config, "--out", str(out_dir / "predict.txt")]) == 0
    assert main(["export-dot", *model, "--out", str(out_dir / "graph.dot")]) == 0
    return {name: (out_dir / name).read_bytes() for name in DEMO_DIGESTS}


def test_padded_demo_files_give_the_demo_outputs(tmp_path):
    # saved files carry no padding, so only files like these take ingest's strip
    padded = tmp_path / "padded"
    padded.mkdir()
    for name in ("assets.csv", "vulns.csv", "edges.csv"):
        lines = (DEMO_DIR / name).read_text(encoding="utf-8").splitlines()
        text = "".join(",".join(f" {f} " for f in line.split(",")) + "\r\n" for line in lines)
        # a quoted name: the quotes and the spaces inside them go, the letter stays
        text = text.replace(" Laptop 1 ", '" Laptöp 1 "')
        (padded / name).write_text("\ufeff" + text, encoding="utf-8", newline="")
    assert '" Laptöp 1 "' in (padded / "assets.csv").read_text(encoding="utf-8")
    demo = _analysis_outputs(DEMO_DIR, tmp_path / "demo-out")
    # the name appears only as a DOT label
    renamed = {name: out.replace('label="Laptop 1"'.encode(), 'label="Laptöp 1"'.encode())
               for name, out in demo.items()}
    assert renamed["graph.dot"] != demo["graph.dot"]
    assert _analysis_outputs(padded, tmp_path / "padded-out") == renamed


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_seed_flag_accepted_everywhere(tmp_path):
    # deterministic commands take --seed for flag uniformity
    out = tmp_path / "report.txt"
    assert main(["discover", *_demo_flags(out), "--seed", "9"]) == 0
    first = out.read_text()
    assert main(["discover", *_demo_flags(out), "--seed", "10"]) == 0
    assert out.read_text() == first


def _installed_distribution():
    try:
        return importlib.metadata.distribution("attackcf")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(
    _installed_distribution() is None,
    reason="importlib.metadata finds no attackcf distribution (package not installed)",
)
def test_installed_entry_point_available():
    scripts = {
        ep.name: ep.value
        for ep in _installed_distribution().entry_points
        if ep.group == "console_scripts"
    }
    assert scripts.get("attackcf") == "attackcf.cli:entry"
    assert shutil.which("attackcf") is not None


def test_declared_entry_point_runs(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["attackcf"]
    assert target == "attackcf.cli:entry"
    entry = importlib.metadata.EntryPoint(
        name="attackcf", value=target, group="console_scripts"
    ).load()
    monkeypatch.setattr(sys, "argv", ["attackcf", "--version"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"attackcf {__version__}\n"


def test_test_extra_declares_every_test_dependency():
    # the suite imports hypothesis as well as pytest
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    extra = tomllib.loads(pyproject.read_text())["project"]["optional-dependencies"]["test"]
    assert {re.match(r"[A-Za-z0-9._-]+", req).group().lower() for req in extra} == {
        "pytest", "hypothesis"}


def test_model_check_rejects_enum_text_in_a_graph_built_in_code():
    # loaded files cannot hold it: ingest maps kind through its token table
    with pytest.raises(IngestError) as exc:
        _check_model(AssetGraph([Asset("A1", "pc", "hardware")]))
    assert str(exc.value) == (
        "model validation failed:\n  asset A1 has kind 'hardware', not an AssetKind member")
