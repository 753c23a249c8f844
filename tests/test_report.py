import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from attackcf.discovery import DiscoveryResult, discover
from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackPath,
    Classification,
    Prediction,
    PredictionConfig,
)
from attackcf.prediction import PredictionReport, predict
from attackcf.report import (
    format_discovery_report,
    format_prediction_report,
    parse_prediction_report,
    render_dot,
)

from conftest import ALLOWED_IDS, office_config, office_graph, random_prediction_setup


def test_discovery_report_lists_paths_and_counts():
    office = office_graph()
    result = discover(office, office_config(propagation_length=3))
    text = format_discovery_report(result)
    lines = text.splitlines()
    assert lines[0] == "# attackcf discover v1"
    assert "# n_paths=4" in lines
    assert "# affected=A1,A2,A3" in lines
    assert "A1,A3,2,A1->A2->A3" in lines


def test_prediction_report_round_trips_in_memory(tmp_path):
    rng = random.Random(321)
    for _ in range(20):
        _, _, report = random_prediction_setup(rng)
        out = tmp_path / "report.txt"
        out.write_text(format_prediction_report(report), encoding="utf-8")
        assert parse_prediction_report(out) == list(report.predictions)


def test_round_trip_preserves_awkward_similarity_values(tmp_path):
    predictions = (
        Prediction("X", "Y", Classification.MEDIUM, -0.2773500981126146, 3),
        Prediction("Y", "X", Classification.MEDIUM, -0.2773500981126146, 3),
        Prediction("X", "Z", Classification.LOW, 1e-17, 1, degenerate=False),
        Prediction("Z", "X", Classification.LOW, 1e-17, 1, degenerate=False),
    )
    report = PredictionReport(predictions=predictions, config_echo=PredictionConfig())
    out = tmp_path / "report.txt"
    out.write_text(format_prediction_report(report), encoding="utf-8")
    assert parse_prediction_report(out) == list(predictions)


# ids ingest accepts, with extra weight on those that look like report
# comments or like the column header
_REPORT_IDS = st.one_of(
    st.sampled_from(["src", "#", "#A", "# n_predictions=1"]),
    ALLOWED_IDS,
    ALLOWED_IDS.map(lambda s: "#" + s),
)
_PREDICTIONS = st.lists(
    st.tuples(
        st.tuples(_REPORT_IDS, _REPORT_IDS).filter(lambda ids: ids[0] != ids[1]),
        st.sampled_from(Classification),
        st.floats(-1.0, 1.0),
        st.integers(0, 50),
        st.booleans(),
    ).map(lambda t: Prediction(*t[0], *t[1:])),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(_PREDICTIONS)
@example([Prediction("#A", "src", Classification.HIGH, 0.5, 2),
          Prediction("src", "#A", Classification.HIGH, 0.5, 2)])
def test_prediction_report_round_trips_allowed_ids(predictions):
    report = PredictionReport(predictions=tuple(predictions),
                              config_echo=PredictionConfig())
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.txt"
        out.write_text(format_prediction_report(report), encoding="utf-8")
        assert parse_prediction_report(out) == predictions


@pytest.mark.parametrize("body, message", [
    ("# n_predictions=0\nA,B,High,2,0.5,false\n", "data before the column header"),
    ("# n_predictions=0\n", "no column header"),
])
def test_parse_rejects_missing_header(tmp_path, body, message):
    out = tmp_path / "report.txt"
    out.write_text("# attackcf predict v1\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        parse_prediction_report(out)


def test_parse_rejects_foreign_file(tmp_path):
    out = tmp_path / "report.txt"
    out.write_text("src,dst\nA,B\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a prediction report"):
        parse_prediction_report(out)


def test_dot_escapes_quotes_in_names():
    graph = AssetGraph([Asset("A1", 'the "big" box', AssetKind.HARDWARE)])
    text = render_dot(graph)
    assert 'label="the \\"big\\" box"' in text


@settings(max_examples=150, deadline=None)
@given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
@example("rack\\")
@example('a\\"b\\n')
def test_dot_label_is_one_quoted_string(name):
    # a DOT quoted string ends at the first '"' not escaped by a backslash
    text = render_dot(AssetGraph([Asset("A1", name, AssetKind.HARDWARE)]))
    label = re.search(r'label="((?:[^"\\]|\\.)*)" shape=box\];\n', text, re.S)
    assert label is not None
    assert re.sub(r"\\(.)", r"\1", label.group(1), flags=re.S) == name


def test_dot_shapes_by_kind():
    graph = AssetGraph(
        [
            Asset("H1", "rack", AssetKind.HARDWARE),
            Asset("S1", "daemon", AssetKind.SOFTWARE, host="H1"),
        ],
        edges={("H1", "S1")},
    )
    text = render_dot(graph)
    assert '"H1" [label="rack" shape=box];' in text
    assert '"S1" [label="daemon" shape=ellipse];' in text


def test_dot_highlight_only_marks_path_edges():
    graph = AssetGraph(
        [Asset(x, x, AssetKind.HARDWARE) for x in ("A", "B", "C")],
        edges={("A", "B"), ("B", "C"), ("A", "C")},
    )
    result = DiscoveryResult(
        paths=(AttackPath(("A", "B")),),
        affected_assets=frozenset({"A", "B"}),
        graph=graph,
    )
    text = render_dot(graph, result.paths)
    assert '"A" -> "B" [color="red" penwidth=2.0];' in text
    assert '"B" -> "C";' in text
    assert '"A" -> "C";' in text
