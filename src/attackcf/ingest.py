"""File ingestion and serialization for asset models and run configuration.

Formats are comma-separated UTF-8 text whose first line is this header
(a leading byte-order mark ignored; an empty file has no records):

    assets.csv  id,name,kind,host
    vulns.csv   cve_id,asset_id,score,cwe_id,vuln_type,required_location,required_capability
    edges.csv   src,dst

The config file is flat key=value text (lists comma-separated, # comments
allowed, a leading byte-order mark ignored).  Recognised keys:
entry_points, target_points, attacker_location, attacker_capability,
propagation_length, allowed_types, x1, x2, x3, x4.  Unknown keys are
rejected.

load_assets, load_vulnerabilities and load_edges each return a set-like
view (it equals a set of the same records) that iterates in file order.
The last two drop exact repeats; a repeated asset id is an error.  Once
every row parses, each loader runs model's per-record rules and raises the
first fault at its line; only validate_model checks conflicting (cve_id,
asset) records.  Asset and VulnerabilityInstance records are immutable
tuples.  A saved file is already in the graph's order, so AssetGraph sorts
what the loaders return in near-linear time.

The loaded records hold one object per distinct value: every asset id, in
a host, a vulnerability row or an edge end, is the asset's own id string,
and each CVE id, CWE id and score is one object per distinct field text.
Files repeat each id and CVE on every row that names it, so sharing keeps
the copies out of memory and leaves adjacency and shared_cves a few
thousand ids to look up, not tens of thousands of scattered copies.  A NaN
score is never shared: two rows with their own NaN stay two records, but
one shared NaN object would make them equal.

Whitespace around each CSV field is dropped (str.strip), inside quotes too.
The strip runs only on a file that may need it: one holding a non-ASCII
character, a double quote, a carriage return, or whitespace beside a comma
or a line end.  In any other file each row is one line and no field starts
or ends with whitespace, so each field already equals its stripped self and
the records, their order and every message are the same either way.  Saved
files take that path.

Asset ids must be non-empty and may not contain a comma, "->", a double
quote, a backslash or a line break: the reports and the DOT export write
ids as they are.  This is one of model's per-record rules, so
validate_model flags such ids in a graph built in code too.

Requirement fields are plain integers 1-3, or a CVSS base vector such as
"AV:N/AC:L/Au:N/C:C/I:C/A:C" in required_location with required_capability
empty: the location is then the access vector's level (L/A/N -> 1/2/3)
and the capability the access complexity's (L/M/H -> 1/2/3).  Each pair
of the two fields' texts is parsed once per load, as each score text is.
"""

from __future__ import annotations

import csv
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from pathlib import Path

from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackerProfile,
    DiscoveryConfig,
    PredictionConfig,
    VulnType,
    VulnerabilityInstance,
    _asset_violations,
    _edge_violations,
    _vulnerability_violations,
)

_VULN_TYPE_TOKENS = {t.value: t for t in VulnType}
_ASSET_KIND_TOKENS = {k.value: k for k in AssetKind}

_CONFIG_KEYS = frozenset(
    {
        "entry_points",
        "target_points",
        "attacker_location",
        "attacker_capability",
        "propagation_length",
        "allowed_types",
        "x1",
        "x2",
        "x3",
        "x4",
    }
)

_ACCESS_VECTOR = {"L": 1, "A": 2, "N": 3}
_ACCESS_COMPLEXITY = {"L": 1, "M": 2, "H": 3}


#: the header line of each CSV format: the loaders require it, the savers write it
_ASSET_COLUMNS = ("id", "name", "kind", "host")
_VULN_COLUMNS = ("cve_id", "asset_id", "score", "cwe_id", "vuln_type",
                 "required_location", "required_capability")
_EDGE_COLUMNS = ("src", "dst")


class IngestError(ValueError):
    """A file could be read but its content is invalid."""


class ConfigError(IngestError):
    """The configuration file is invalid."""


#: the characters str.strip removes that an ASCII field can hold unquoted
#: ("\n" ends a row; "\r" ends one too, and sends its file to the strip)
_EDGE_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _may_be_padded(fh) -> bool:
    """Whether a field of the text file fh may need the strip, read in
    chunks: a chunk holds a non-ASCII character, a double quote, a "\\r",
    or whitespace beside a comma, a line feed or the chunk's edge.  If
    none does, every row is one line and no field starts or ends with
    whitespace."""
    while chunk := fh.read(1 << 16):
        if not chunk.isascii() or '"' in chunk or "\r" in chunk:
            return True
        for c in _EDGE_SPACE:
            if c in chunk and (chunk[0] == c or chunk[-1] == c or c + "," in chunk
                               or "," + c in chunk or c + "\n" in chunk or "\n" + c in chunk):
                return True
    return False


def _rows(path: Path, columns: tuple[str, ...], what: str):
    """Yield (line_no, fields) for each data row: the row's first physical
    line (a quoted line break spreads a row over several) and its stripped
    strings.  The first line must be the header naming columns.

    Stripping every field costs about as much as parsing it, and saved
    files carry no padding, so a file that _may_be_padded clears yields its
    fields as the reader gives them: each equals its stripped self.  A
    file that cannot be read twice, such as a pipe, is stripped."""
    n_fields = len(columns)
    line_no = 1
    with open(path, newline="", encoding="utf-8-sig") as fh:
        strip = True
        if fh.seekable():
            strip = _may_be_padded(fh)
            fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is not None and tuple(map(str.strip, header)) != columns:
                raise IngestError(
                    f"{path}:1: expected header {','.join(columns)!r}, "
                    f"got {','.join(map(str.strip, header))!r}"
                )
            line_no = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != n_fields:
                        raise IngestError(f"{path}:{line_no}: {what} row needs "
                                          f"{n_fields} fields, got {len(row)}")
                    yield line_no, (map(str.strip, row) if strip else row)
                line_no = reader.line_num + 1
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise IngestError(f"{path}:{line_no}: {exc}") from None


def load_assets(path) -> AbstractSet[Asset]:
    """Parse an assets file into its Asset records, a set-like view in file order.

    Every host must be a hardware asset of the same file; it may appear on
    a later line than the assets it hosts.
    """
    path = Path(path)
    # record -> first line, for the per-asset rules once every id is known
    assets: dict[Asset, int] = {}
    known: dict[str, Asset] = {}
    # each id text -> its one string, whether first met as an id or a host
    ids: dict[str, str] = {}
    for line_no, (aid, name, kind, host) in _rows(path, _ASSET_COLUMNS, "asset"):
        if aid and aid in known:  # an empty id gets its own message below
            raise IngestError(f"{path}:{line_no}: duplicate asset id {aid}")
        kind_val = _ASSET_KIND_TOKENS.get(kind)
        if kind_val is None:
            raise IngestError(
                f"{path}:{line_no}: field kind must be 'hardware' or 'software', got {kind!r}"
            )
        aid = ids.setdefault(aid, aid)
        host = ids.setdefault(host, host) if host else None
        # the record checks nothing when built; _asset_violations does below
        asset = known[aid] = tuple.__new__(Asset, (aid, name, kind_val, host))
        assets.setdefault(asset, line_no)
    for a, message in _asset_violations(assets, known):
        raise IngestError(f"{path}:{assets[a]}: {message}")
    return assets.keys()


def _parse_requirements(path: Path, line_no: int, loc_field: str, cap_field: str):
    """A row's (location, capability): a CVSS vector's AV and AC levels, or two ints."""
    if "AV:" in loc_field:
        metrics = dict(
            part.split(":", 1) for part in loc_field.split("/") if ":" in part
        )
        av = metrics.get("AV", "").upper()
        ac = metrics.get("AC", "").upper()
        if av not in _ACCESS_VECTOR or ac not in _ACCESS_COMPLEXITY:
            raise IngestError(
                f"{path}:{line_no}: CVSS vector {loc_field!r} needs AV in "
                "{L,A,N} and AC in {L,M,H}"
            )
        if cap_field:
            raise IngestError(
                f"{path}:{line_no}: required_capability must be empty when a "
                "CVSS vector supplies both requirements"
            )
        return _ACCESS_VECTOR[av], _ACCESS_COMPLEXITY[ac]
    out = []
    for field_name, raw in (
        ("required_location", loc_field),
        ("required_capability", cap_field),
    ):
        try:
            out.append(int(raw))
        except ValueError:
            raise IngestError(
                f"{path}:{line_no}: field {field_name} must be an integer "
                f"or a CVSS vector, got {raw!r}"
            ) from None
    return out[0], out[1]


def load_vulnerabilities(path, assets) -> AbstractSet[VulnerabilityInstance]:
    """Parse a vulnerabilities file into its records, a set-like view in file
    order with exact repeats dropped; every row must reference a known asset."""
    path = Path(path)
    # record -> line (the last of exact repeats), for the checks once every row parses
    vulns: dict[VulnerabilityInstance, int] = {}
    # asset id -> the asset's own string; membership is the missing-asset rule
    known = {a.id: a.id for a in assets}
    texts: dict[str, str] = {}  # CVE and CWE id text -> its one string
    scores: dict[str, float] = {}  # score text -> its one float, NaN never
    requirements: dict[tuple[str, str], tuple[int, int]] = {}  # field texts -> levels
    for line_no, (cve, aid, score_s, cwe, vtype, loc_s, cap_s) in _rows(
        path, _VULN_COLUMNS, "vulnerability"
    ):
        score = scores.get(score_s)
        if score is None:
            try:
                score = float(score_s)
            except ValueError:
                raise IngestError(
                    f"{path}:{line_no}: field score must be a decimal, got {score_s!r}"
                ) from None
            if score == score:  # one shared NaN would merge rows that differ today
                scores[score_s] = score
        vtype_val = _VULN_TYPE_TOKENS.get(vtype)
        if vtype_val is None:
            raise IngestError(
                f"{path}:{line_no}: unknown vuln_type {vtype!r}; accepted: "
                + ", ".join(sorted(_VULN_TYPE_TOKENS))
            )
        levels = requirements.get((loc_s, cap_s))
        if levels is None:  # a bad pair raises before the store
            levels = requirements[loc_s, cap_s] = _parse_requirements(
                path, line_no, loc_s, cap_s)
        loc, cap = levels
        # as in load_assets, _vulnerability_violations checks the record below
        vulns[tuple.__new__(VulnerabilityInstance, (
            texts.setdefault(cve, cve), known.get(aid, aid), score,
            texts.setdefault(cwe, cwe) if cwe else None, vtype_val, loc, cap))] = line_no
    for v, message in _vulnerability_violations(vulns, known):
        raise IngestError(f"{path}:{vulns[v]}: {message}")
    return vulns.keys()


def load_edges(path, assets) -> AbstractSet[tuple[str, str]]:
    """Parse an edges file into directed (src, dst) pairs, a set-like view in
    file order with repeats dropped."""
    path = Path(path)
    # edge -> line, as in load_vulnerabilities
    edges: dict[tuple[str, str], int] = {}
    known = {a.id: a.id for a in assets}  # as in load_vulnerabilities
    for line_no, (src, dst) in _rows(path, _EDGE_COLUMNS, "edge"):
        edges[known.get(src, src), known.get(dst, dst)] = line_no
    for e, message in _edge_violations(edges, known):
        raise IngestError(f"{path}:{edges[e]}: {message}")
    return edges.keys()


def _parse_int(raw: str, key: str, path: Path) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{path}: key {key} must be an integer, got {raw!r}") from None


def _split_list(raw: str) -> list[str]:
    """The comma-separated tokens of a list value, stripped, empty ones dropped."""
    return [t for t in map(str.strip, raw.split(",")) if t]


def load_config(path) -> tuple[DiscoveryConfig, PredictionConfig]:
    """Parse a key=value config file into discovery and prediction configs."""
    path = Path(path)
    values: dict[str, str] = {}
    # a byte-order mark, as some editors save one, is not part of the first key
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
            values[key] = value.strip()

    for key in ("entry_points", "target_points", "attacker_location",
                "attacker_capability", "propagation_length"):
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key}")

    entries = _split_list(values["entry_points"])
    targets = _split_list(values["target_points"])

    # options the file leaves out keep the config classes' defaults
    options = {}
    if "allowed_types" in values:
        tokens = _split_list(values["allowed_types"])
        for token in tokens:
            if token not in _VULN_TYPE_TOKENS:
                raise ConfigError(
                    f"{path}: unknown vuln_type {token!r} in allowed_types; "
                    "accepted: " + ", ".join(sorted(_VULN_TYPE_TOKENS))
                )
        options["allowed_types"] = {_VULN_TYPE_TOKENS[t] for t in tokens}

    try:
        attacker = AttackerProfile(
            location=_parse_int(values["attacker_location"], "attacker_location", path),
            capability=_parse_int(
                values["attacker_capability"], "attacker_capability", path
            ),
        )
        discovery = DiscoveryConfig(
            entry_points=entries,
            target_points=targets,
            attacker=attacker,
            propagation_length=_parse_int(
                values["propagation_length"], "propagation_length", path
            ),
            **options,
        )
        prediction = PredictionConfig(**{
            key: _parse_int(values[key], key, path)
            for key in ("x1", "x2", "x3", "x4") if key in values
        })
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return discovery, prediction


def load_model(assets_path, vulns_path, edges_path) -> AssetGraph:
    """Load the three model files into an AssetGraph."""
    assets = load_assets(assets_path)
    vulns = load_vulnerabilities(vulns_path, assets)
    edges = load_edges(edges_path, assets)
    return AssetGraph(assets, vulns, edges)


@dataclass(frozen=True)
class ModelBundle:
    """A loaded graph with the configs that drive discovery and prediction."""

    graph: AssetGraph
    discovery: DiscoveryConfig
    prediction: PredictionConfig


def load_bundle(assets_path, vulns_path, edges_path, config_path) -> ModelBundle:
    """Load model and config files.  Whether the configured entry and target
    points are assets of the graph is discover's check."""
    graph = load_model(assets_path, vulns_path, edges_path)
    discovery, prediction = load_config(config_path)
    return ModelBundle(graph=graph, discovery=discovery, prediction=prediction)


def _write_csv(path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # the writer quotes only the characters of its line terminator, but
        # the reader also ends a line at a bare "\r"
        quoting = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            (quoting if any("\r" in str(f) for f in row) else writer).writerow(row)


def save_assets(path, assets) -> None:
    ordered = sorted(assets, key=Asset._sort_key)
    _write_csv(
        path,
        _ASSET_COLUMNS,
        [[a.id, a.name, a.kind.value, a.host or ""] for a in ordered],
    )


def save_vulnerabilities(path, vulns) -> None:
    ordered = sorted(vulns, key=VulnerabilityInstance._sort_key)
    _write_csv(
        path,
        _VULN_COLUMNS,
        [
            [v.cve_id, v.asset, repr(float(v.score)), v.cwe_id or "", v.vuln_type.value,
             v.required_location, v.required_capability]
            for v in ordered
        ],
    )


def save_edges(path, edges) -> None:
    _write_csv(path, _EDGE_COLUMNS, [list(e) for e in sorted(edges)])
