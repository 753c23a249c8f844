import importlib.metadata
import shutil
import sys
from pathlib import Path

import pytest

from attackcf import __version__
from attackcf.cli import main
from attackcf.model import Classification
from attackcf.report import parse_prediction_report

from conftest import DEMO_DIR

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
        assert "GHOST" in capsys.readouterr().err


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
    ])
    def test_bad_matrix_file_is_data_error(self, tmp_path, capsys, body, message):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("capability,propagation_length,n_entry,n_target\n" + body)
        rc = main(["bench", *self.BENCH_FLAGS, "--matrix", str(matrix),
                   "--out", str(tmp_path / "bench.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {matrix}{message}\n"

    def test_backend_column_names_the_selected_backend(self, tmp_path, backend):
        out = tmp_path / "bench.csv"
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("capability,propagation_length,n_entry,n_target\nHigh,3,3,3\n")
        rc = main(["bench", *self.BENCH_FLAGS, "--matrix", str(matrix), "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert [r[-1] for r in rows] == [backend]

    def test_backend_flag_is_gone(self, tmp_path):
        # ATTACKCF_BACKEND is the one backend setting
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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["discover", "bench"])
def test_unknown_backend_setting_is_usage_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("ATTACKCF_BACKEND", "nonsense")
    out = tmp_path / "out.txt"
    flags = (_demo_flags(out) if command == "discover"
             else [*TestBenchCommand.BENCH_FLAGS, "--out", str(out)])
    assert main([command, *flags]) == 2
    assert "ATTACKCF_BACKEND='nonsense' is not available" in capsys.readouterr().err
    assert not out.exists()


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
