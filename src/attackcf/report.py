"""Analyst-facing report files and Graphviz DOT export.

Reports are comma-separated text with a versioned `# attackcf <kind> v1`
first line, metadata comment lines, a column header, then data rows.
Prediction reports round-trip: parse_prediction_report re-reads exactly
the Prediction list that was written.
"""

from __future__ import annotations

from attackcf.discovery import DiscoveryResult
from attackcf.model import AssetGraph, AssetKind, AttackPath, Classification, Prediction
from attackcf.prediction import PredictionReport

DISCOVER_MAGIC = "# attackcf discover v1"
PREDICT_MAGIC = "# attackcf predict v1"
PREDICT_HEADER = "src,dst,level,co_rated,similarity,degenerate"

_LEVEL_TOKENS = {
    Classification.VERY_HIGH: "VeryHigh",
    Classification.HIGH: "High",
    Classification.MEDIUM: "Medium",
    Classification.LOW: "Low",
    Classification.VERY_LOW: "VeryLow",
}
_TOKEN_LEVELS = {v: k for k, v in _LEVEL_TOKENS.items()}


def level_token(level: Classification) -> str:
    return _LEVEL_TOKENS[level]


def format_discovery_report(result: DiscoveryResult) -> str:
    lines = [
        DISCOVER_MAGIC,
        f"# n_paths={len(result.paths)}",
        f"# n_affected={len(result.affected_assets)}",
        "# affected=" + ",".join(sorted(result.affected_assets)),
        f"# no_eligible_entries={'true' if result.no_eligible_entries else 'false'}",
        "entry,target,edges,nodes",
    ]
    for p in result.paths:
        lines.append(f"{p.entry},{p.target},{p.n_edges},{'->'.join(p.nodes)}")
    return "\n".join(lines) + "\n"


def format_prediction_report(report: PredictionReport) -> str:
    cfg = report.config_echo
    lines = [
        PREDICT_MAGIC,
        f"# thresholds x1={cfg.x1} x2={cfg.x2} x3={cfg.x3} x4={cfg.x4}",
        f"# n_predictions={len(report.predictions)}",
        PREDICT_HEADER,
    ]
    for p in report.predictions:
        lines.append(
            f"{p.src},{p.dst},{_LEVEL_TOKENS[p.level]},{p.co_rated},"
            f"{p.similarity!r},{'true' if p.degenerate else 'false'}"
        )
    return "\n".join(lines) + "\n"


def parse_prediction_report(path) -> list[Prediction]:
    """Re-read a prediction report written by format_prediction_report.

    Comment lines may only come before the column header: an asset id may
    itself begin with '#', so every non-empty line after it is a data row.
    """
    predictions: list[Prediction] = []
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != PREDICT_MAGIC:
            raise ValueError(f"{path}: not a prediction report (header {first!r})")
        for line in fh:
            if line.rstrip("\n") == PREDICT_HEADER:
                break
            if not line.startswith("#"):
                raise ValueError(f"{path}: data before the column header")
        else:
            raise ValueError(f"{path}: no column header")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            src, dst, level, co_rated, similarity, degenerate = line.split(",")
            predictions.append(
                Prediction(
                    src=src,
                    dst=dst,
                    level=_TOKEN_LEVELS[level],
                    similarity=float(similarity),
                    co_rated=int(co_rated),
                    degenerate=degenerate == "true",
                )
            )
    return predictions


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(
    graph: AssetGraph, highlight_paths: tuple[AttackPath, ...] = ()
) -> str:
    """Graphviz digraph of the asset graph; path edges drawn bold red.

    Hardware assets render as boxes, software as ellipses.  Node and edge
    ordering is stable, so identical inputs give identical output bytes.
    """
    hot: set[tuple[str, str]] = set()
    for p in highlight_paths:
        hot.update(zip(p.nodes, p.nodes[1:]))

    lines = ["digraph assets {", "  rankdir=LR;"]
    for a in graph.assets:
        shape = "box" if a.kind is AssetKind.HARDWARE else "ellipse"
        lines.append(f"  {_quote(a.id)} [label={_quote(a.name)} shape={shape}];")
    for src, dst in graph.edges:
        attrs = ' [color="red" penwidth=2.0]' if (src, dst) in hot else ""
        lines.append(f"  {_quote(src)} -> {_quote(dst)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
