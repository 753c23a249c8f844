"""Command-line interface.

Subcommands: discover, predict, bench, export-dot.  Exit codes are stable:
0 success, 1 data/validation error, 2 usage error (bad flags, unreadable
files, invalid benchmark spec).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from attackcf import __version__
from attackcf.bench import (
    DEFAULT_MATRIX,
    SynthSpec,
    _check_cell,
    generate,
    run_bench,
    write_bench_csv,
)
from attackcf.discovery import discover
from attackcf.ingest import IngestError, _rows, load_bundle, load_model
from attackcf.model import validate_model
from attackcf.prediction import predict
from attackcf.report import (
    format_discovery_report,
    format_prediction_report,
    render_dot,
)


class UsageError(Exception):
    pass


def _add_model_flags(parser, with_config=True):
    parser.add_argument("--assets", required=True, help="assets CSV file")
    parser.add_argument("--vulns", required=True, help="vulnerabilities CSV file")
    parser.add_argument("--edges", required=True, help="edges CSV file")
    if with_config:
        parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="accepted for flag uniformity; this command is deterministic",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attackcf",
        description="Attack path discovery and attack movement prediction.",
    )
    parser.add_argument("--version", action="version", version=f"attackcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_disc = sub.add_parser("discover", help="enumerate bounded attack paths")
    _add_model_flags(p_disc)
    p_disc.add_argument("--dot", help="also write a DOT file with path edges highlighted")

    p_pred = sub.add_parser("predict", help="discover paths, then classify asset pairs")
    _add_model_flags(p_pred)

    p_bench = sub.add_parser("bench", help="time discovery over a synthetic topology")
    p_bench.add_argument("--hardware", type=int, default=35)
    p_bench.add_argument("--software", type=int, default=145)
    p_bench.add_argument("--density", type=float, default=0.05)
    p_bench.add_argument("--vulns-per-asset", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--reps", type=int, default=3, help="repetitions per cell")
    p_bench.add_argument("--matrix", help="CSV of cells (default: built-in 12-cell matrix)")
    p_bench.add_argument("--out", required=True, help="output CSV path")

    p_dot = sub.add_parser("export-dot", help="write the asset graph as Graphviz DOT")
    _add_model_flags(p_dot, with_config=False)

    return parser


def _check_model(graph) -> None:
    violations = validate_model(graph)
    if violations:
        raise IngestError(
            "model validation failed:\n  " + "\n  ".join(violations)
        )


def _cmd_discover(args) -> int:
    bundle = load_bundle(args.assets, args.vulns, args.edges, args.config)
    _check_model(bundle.graph)
    result = discover(bundle.graph, bundle.discovery)
    Path(args.out).write_text(format_discovery_report(result), encoding="utf-8")
    if args.dot:
        Path(args.dot).write_text(
            render_dot(bundle.graph, result.paths), encoding="utf-8"
        )
    print(f"wrote {len(result.paths)} paths to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.assets, args.vulns, args.edges, args.config)
    _check_model(bundle.graph)
    result = discover(bundle.graph, bundle.discovery)
    report = predict(bundle.graph, result, bundle.prediction)
    Path(args.out).write_text(format_prediction_report(report), encoding="utf-8")
    print(f"wrote {len(report.predictions)} predictions to {args.out}")
    return 0


def _load_matrix(path):
    cells = []
    rows = _rows(path, ("capability", "propagation_length", "n_entry", "n_target"), "matrix")
    for line_no, (capability, prop_len, n_entry, n_target) in rows:
        try:
            prop_len, n_entry, n_target = int(prop_len), int(n_entry), int(n_target)
        except ValueError:
            raise IngestError(f"{path}:{line_no}: malformed matrix row") from None
        cell = (capability, prop_len, n_entry, n_target)
        try:
            _check_cell(*cell)
        except ValueError as exc:
            raise IngestError(f"{path}:{line_no}: {exc}") from None
        cells.append(cell)
    if not cells:
        raise IngestError(f"{path}: empty benchmark matrix")
    return tuple(cells)


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    try:
        spec = SynthSpec(
            n_hardware=args.hardware,
            n_software=args.software,
            edge_density=args.density,
            vuln_per_asset=args.vulns_per_asset,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    matrix = _load_matrix(args.matrix) if args.matrix else DEFAULT_MATRIX
    graph = generate(spec)
    records = run_bench(graph, spec, matrix, args.reps)
    write_bench_csv(args.out, records)
    print(f"wrote {len(records)} benchmark records to {args.out}")
    return 0


def _cmd_export_dot(args) -> int:
    graph = load_model(args.assets, args.vulns, args.edges)
    _check_model(graph)
    Path(args.out).write_text(render_dot(graph), encoding="utf-8")
    print(f"wrote DOT graph to {args.out}")
    return 0


_COMMANDS = {
    "discover": _cmd_discover,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read or write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (IngestError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
