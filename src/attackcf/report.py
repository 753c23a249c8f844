"""Analyst-facing report files and Graphviz DOT export.

Reports are comma-separated text with a versioned `# attackcf <kind> v1`
first line, metadata comment lines, a column header, then data rows.
A prediction report holds every field of each Prediction, with the
similarity as repr(float), so a reader can rebuild the list exactly.
"""

from __future__ import annotations

from attackcf.discovery import DiscoveryResult
from attackcf.model import AssetGraph, AssetKind, AttackPath, Classification
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
    lines += [
        f"{src},{dst},{_LEVEL_TOKENS[level]},{co_rated},"
        f"{similarity!r},{'true' if degenerate else 'false'}"
        for src, dst, level, similarity, co_rated, degenerate in report.predictions
    ]
    return "\n".join(lines) + "\n"


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
