"""Domain types shared by discovery, similarity, and prediction.

All types are immutable after construction and safe for concurrent reads.
The records a graph holds, Asset and VulnerabilityInstance, are NamedTuples:
immutable tuples that equal a plain tuple of their fields, unpack, and give
a changed copy through _replace.  They check nothing when built.
Graph-level consistency (dangling references, duplicate ids, out-of-range
scores) is reported by :func:`validate_model` rather than raised at
construction time, so that broken input data can be inspected as data.
Each per-record rule lives in one _*_violations generator here, which
validate_model and the ingest loaders both run: an asset's id (non-empty,
safe to write), host (an asset, hardware) and kind (an AssetKind member);
a vulnerability's asset (known), score (in [0, 10]), requirements (1-3)
and vuln_type (a VulnType member); an edge's ends (known, not one node).
The loaders map kind and vuln_type through their token tables, so only a
graph built in code breaks the two member rules.  Conflicting records of
one (cve_id, asset) are found by validate_model alone.
The result records are tuples too: an AttackPath is the tuple of its node
ids and a Prediction a NamedTuple.  Calling either class checks its one
rule (a simple path of two nodes or more; src != dst); the discovery kernel
and predict, whose output meets the rule by construction, build them with
tuple.__new__ and skip the check.
Configuration types, by contrast, reject invalid values immediately:
a bad config is an operator error, not a data-quality finding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from itertools import combinations, groupby, pairwise
from operator import attrgetter
from typing import NamedTuple


class AssetKind(Enum):
    HARDWARE = "hardware"
    SOFTWARE = "software"

    # members are singletons that compare by identity; Enum's own __hash__
    # is a Python call, paid for every record a dict or set hashes
    __hash__ = object.__hash__


class VulnType(Enum):
    """Vulnerability categories recognised by the path discovery filter.

    OTHER covers anything outside the six named categories; it never
    satisfies the default discovery type filter.
    """

    CODE_EXECUTION = "CodeExecution"
    OVERFLOW = "Overflow"
    XSS = "XSS"
    BYPASS_SOMETHING = "BypassSomething"
    OBTAIN_PRIVILEGE = "ObtainPrivilege"
    MEMORY_CORRUPTION = "MemoryCorruption"
    OTHER = "Other"

    __hash__ = object.__hash__  # as AssetKind's


#: Types an attack step may exploit unless the configuration says otherwise.
DEFAULT_ALLOWED_TYPES: frozenset[VulnType] = frozenset(
    {
        VulnType.CODE_EXECUTION,
        VulnType.OVERFLOW,
        VulnType.XSS,
        VulnType.BYPASS_SOMETHING,
        VulnType.OBTAIN_PRIVILEGE,
        VulnType.MEMORY_CORRUPTION,
    }
)


class Asset(NamedTuple):
    """A hardware or software node in the infrastructure graph."""

    id: str
    name: str
    kind: AssetKind
    host: str | None = None

    def _sort_key(self):
        # a None host keys as "" (the last item parts the two) and a non-member
        # kind as its repr, equal to no member's value: input order never decides
        aid, name, kind, host = self
        kind = kind._value_ if type(kind) is AssetKind else repr(kind)
        return (aid, name, kind, host or "", host is not None)


class VulnerabilityInstance(NamedTuple):
    """A CVE occurrence on one asset.

    score is the CVSS base score in [0, 10].  required_location and
    required_capability are the minimum attacker attributes (1-3 scales)
    needed to exploit the instance.
    """

    cve_id: str
    asset: str
    score: float
    cwe_id: str | None
    vuln_type: VulnType
    required_location: int
    required_capability: int

    def _sort_key(self):
        # as Asset's, for cwe_id and vuln_type
        cve, asset, score, cwe, vtype, loc, cap = self
        vtype = vtype._value_ if type(vtype) is VulnType else repr(vtype)
        return (cve, asset, score, cwe or "", vtype, loc, cap, cwe is not None)


def _sorted_records(records, key) -> tuple:
    """The distinct records as a tuple sorted by key, the first of each
    repeat kept.  The records are first sorted as plain tuples, which
    compares them in C.  A tuple comparison is decided at the first unequal
    field, where the key holds the same value, unless that field holds a
    None or an enum member: then the plain sort raises TypeError, and the
    key decides.  So a plain sort that finishes gives the key's order."""
    distinct = dict.fromkeys(records)
    try:
        return tuple(sorted(distinct))
    except TypeError:
        return tuple(sorted(distinct, key=key))


class Adjacency(NamedTuple):
    """Graph index over the sorted asset ids: node i is ids[i] (index maps
    back), succ[i] lists the nodes it has an edge to and pred[i] the nodes
    with an edge to it, both ascending, and vulns[i] lists node i's
    vulnerability records in graph order.  Every succ and pred row is a
    plain list of int, which the kernels index fastest."""

    ids: tuple[str, ...]
    index: dict[str, int]
    succ: list[list[int]]
    pred: list[list[int]]
    vulns: list[list[VulnerabilityInstance]]


@dataclass(frozen=True)
class AssetGraph:
    """Immutable asset graph: assets, vulnerability instances, reachability edges.

    Construction normalises the three collections to sorted, de-duplicated
    tuples so that structurally equal models compare equal regardless of
    input order.  Two lookups are built on first use, once per graph, and
    shared: adjacency (discover's configured-id check, entry eligibility,
    the BFS and the DFS) and shared_cves (predict).  Building adjacency
    raises KeyError for an edge to a missing asset; shared_cves skips
    records on one.  validate_model reads only the records.
    """

    assets: tuple[Asset, ...]
    vulnerabilities: tuple[VulnerabilityInstance, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, assets, vulnerabilities=(), edges=()):
        # dict.fromkeys keeps the first of each repeat in input order, so
        # input that is already sorted, as every saved file is, sorts in
        # near-linear time
        object.__setattr__(self, "assets", _sorted_records(assets, Asset._sort_key))
        object.__setattr__(self, "vulnerabilities",
                           _sorted_records(vulnerabilities, VulnerabilityInstance._sort_key))
        object.__setattr__(self, "edges", tuple(sorted(dict.fromkeys(edges))))

    @cached_property
    def adjacency(self) -> Adjacency:
        # assets sort by id and edges by (src, dst), so ids ascend without a
        # sort of their own and every succ and pred row fills in order
        ids = tuple(dict.fromkeys(a.id for a in self.assets))
        index = {aid: i for i, aid in enumerate(ids)}
        succ: list[list[int]] = [[] for _ in ids]
        pred: list[list[int]] = [[] for _ in ids]
        for s, d in self.edges:
            i, j = index[s], index[d]
            succ[i].append(j)
            pred[j].append(i)
        vulns: list[list[VulnerabilityInstance]] = [[] for _ in ids]
        for v in self.vulnerabilities:
            if v.asset in index:  # eligibility reads known entries only
                vulns[index[v.asset]].append(v)
        return Adjacency(ids, index, succ, pred, vulns)

    @cached_property
    def shared_cves(self) -> tuple[tuple[str, str, tuple[tuple[float, float, bool], ...]], ...]:
        """(a, b, rows) for each asset pair sharing a CVE, sorted by (a, b)
        with a < b.  rows holds one (score on a, score on b, same CWE) per
        shared CVE, in CVE order; absent CWE data never counts as the same.
        When one asset carries the same CVE twice, the record that sorts
        last by VulnerabilityInstance._sort_key supplies its score and CWE;
        validate_model flags such input, so the CLI rejects it.

        One pass over the CVEs; assets missing from the graph are skipped.
        """
        known = {a.id for a in self.assets}
        shared: dict[tuple[str, str], list[tuple[float, float, bool]]] = {}
        for _, group in groupby(self.vulnerabilities, key=attrgetter("cve_id")):
            # records sort by (cve, asset, ...): each asset's last record, in id order
            holders = {v.asset: v for v in group if v.asset in known}
            for va, vb in combinations(holders.values(), 2):
                shared.setdefault((va.asset, vb.asset), []).append(
                    (va.score, vb.score, va.cwe_id is not None and va.cwe_id == vb.cwe_id))
        # pop frees each pair's list once its tuple is built
        return tuple((a, b, tuple(shared.pop((a, b)))) for a, b in sorted(shared))


@dataclass(frozen=True)
class AttackerProfile:
    """Modeled adversary: location 1-3 (local/adjacent/network), capability 1-3 (low/medium/high)."""

    location: int
    capability: int

    def __post_init__(self):
        # bool is an int subclass, and True == 1
        if type(self.location) is not int or self.location not in (1, 2, 3):
            raise ValueError(f"attacker location must be 1, 2 or 3, got {self.location!r}")
        if type(self.capability) is not int or self.capability not in (1, 2, 3):
            raise ValueError(
                f"attacker capability must be 1, 2 or 3, got {self.capability!r}"
            )


def _check_positive_int(name: str, value) -> None:
    """Raise ValueError unless value is an int >= 1 (bool excluded)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class DiscoveryConfig:
    """Parameters steering attack path discovery."""

    entry_points: frozenset[str]
    target_points: frozenset[str]
    attacker: AttackerProfile
    propagation_length: int
    allowed_types: frozenset[VulnType] = DEFAULT_ALLOWED_TYPES

    def __init__(self, entry_points, target_points, attacker, propagation_length,
                 allowed_types=DEFAULT_ALLOWED_TYPES):
        for name, value in (("entry_points", entry_points), ("target_points", target_points),
                            ("allowed_types", allowed_types)):
            # frozenset("A1") would be {"A", "1"}
            if isinstance(value, str):
                raise ValueError(f"{name} must be a collection, not the string {value!r}")
            try:
                object.__setattr__(self, name, frozenset(value))
            except TypeError:  # not iterable, or an item not hashable
                raise ValueError(
                    f"{name} must be a collection of hashable items, got {value!r}") from None
        object.__setattr__(self, "attacker", attacker)
        object.__setattr__(self, "propagation_length", propagation_length)
        if not self.entry_points:
            raise ValueError("entry_points must not be empty")
        if not self.target_points:
            raise ValueError("target_points must not be empty")
        if not self.allowed_types:
            raise ValueError("allowed_types must not be empty")
        for name in ("entry_points", "target_points"):
            for x in getattr(self, name):
                if not isinstance(x, str):  # numpy.str_ is a str
                    raise ValueError(f"{name} must hold asset id strings, got {x!r}")
        _check_positive_int("propagation_length", propagation_length)
        if not isinstance(attacker, AttackerProfile):
            raise ValueError(f"attacker must be an AttackerProfile, got {attacker!r}")
        for t in self.allowed_types:
            if not isinstance(t, VulnType):
                raise ValueError(f"allowed_types must hold VulnType members, got {t!r}")


class AttackPath(tuple):
    """An ordered, non-repeating asset sequence from an entry point to a target point.

    The path is the tuple of its node ids, and nodes returns the path
    itself: it equals, hashes and sorts like that plain tuple.  Calling the
    class checks the path; the discovery kernel builds the simple paths it
    emits with tuple.__new__ and skips the check.
    """

    __slots__ = ()

    def __new__(cls, nodes):
        # tuple("AB") would be the path A -> B
        if isinstance(nodes, str):
            raise ValueError(f"nodes must be a collection, not the string {nodes!r}")
        self = tuple.__new__(cls, nodes)
        if len(self) < 2:
            raise ValueError("an attack path needs at least two nodes")
        if len(set(self)) != len(self):
            raise ValueError(f"attack path revisits a node: {tuple(self)}")
        return self

    def __repr__(self) -> str:
        return f"AttackPath({tuple.__repr__(self)})"

    @property
    def nodes(self) -> tuple[str, ...]:
        return self

    @property
    def entry(self) -> str:
        return self[0]

    @property
    def target(self) -> str:
        return self[-1]

    @property
    def n_edges(self) -> int:
        return len(self) - 1


class Classification(IntEnum):
    """Predicted-attack importance tier, totally ordered."""

    VERY_LOW = 1
    LOW = 2
    MEDIUM = 3
    HIGH = 4
    VERY_HIGH = 5


@dataclass(frozen=True)
class PredictionConfig:
    """Co-rated-count thresholds for the classification tiers (x1 > x2 > x3 > x4 >= 0)."""

    x1: int = 4
    x2: int = 2
    x3: int = 1
    x4: int = 0

    def __post_init__(self):
        xs = (self.x1, self.x2, self.x3, self.x4)
        if any(type(x) is not int for x in xs):  # bool is an int subclass
            raise ValueError(f"thresholds must be integers, got {xs}")
        if not (self.x1 > self.x2 > self.x3 > self.x4 >= 0):
            raise ValueError(
                "thresholds must be strictly descending with x4 >= 0 "
                f"(x1 > x2 > x3 > x4 >= 0), got x1={self.x1} x2={self.x2} "
                f"x3={self.x3} x4={self.x4}"
            )


class _PredictionFields(NamedTuple):
    src: str
    dst: str
    level: Classification
    similarity: float
    co_rated: int
    degenerate: bool = False


class Prediction(_PredictionFields):
    """A classified directed asset pair.

    similarity carries the Pearson value of the pair's shared vulnerability
    scores (0.0 when undefined); degenerate marks values assigned by the
    zero-information / identical-scores rule instead of the correlation
    formula.  co_rated is the exact number of CVEs shared by src and dst.

    A NamedTuple: it equals and hashes like the plain tuple of its fields.
    Calling the class rejects src == dst; predict builds its predictions
    with tuple.__new__ and skips the check, as _make and _replace do.
    """

    __slots__ = ()

    def __new__(cls, src, dst, level, similarity, co_rated, degenerate=False):
        if src == dst:
            raise ValueError(f"prediction src and dst must differ, got {src}")
        return tuple.__new__(cls, (src, dst, level, similarity, co_rated, degenerate))


#: asset ids are written unquoted into comma-separated reports, joined with
#: "->" in the discovery report and quoted in DOT, so none of these may
#: occur in one; the class holds every line break str.splitlines knows
_UNSAFE_ID = re.compile(r',|->|"|\\|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]')


def _asset_violations(assets, known):
    """Yield (asset, message) per empty or unsafe id, then per host missing
    from known (id -> Asset) or not hardware, then per kind that is not an
    AssetKind member."""
    for a in assets:
        aid, _, kind, host = a
        if not aid:
            yield a, "empty asset id"
        elif _UNSAFE_ID.search(aid):
            yield a, (f"asset id {aid!r} contains a comma, '->', a double quote, "
                      "a backslash or a line break")
        if host is not None:
            if host not in known:
                yield a, f"asset {aid} hosted on missing asset {host}"
            elif known[host][2] is not AssetKind.HARDWARE:  # the host's kind
                yield a, f"asset {aid} hosted on non-hardware asset {host}"
        if type(kind) is not AssetKind:  # an Enum with members has no subclass
            yield a, f"asset {aid} has kind {kind!r}, not an AssetKind member"


def _vulnerability_violations(vulnerabilities, known):
    """Yield (record, message) per missing asset, bad score, bad requirement
    and vuln_type that is not a VulnType member."""
    for v in vulnerabilities:
        cve, aid, score, _, vtype, loc, cap = v
        if aid not in known:
            yield v, f"vulnerability {cve} references missing asset {aid}"
        if not 0.0 <= score <= 10.0:
            yield v, f"vulnerability {cve} on {aid} has score {score} outside [0, 10]"
        if loc not in (1, 2, 3):
            yield v, (f"vulnerability {cve} on {aid} has required_location {loc} "
                      "outside {1,2,3}")
        if cap not in (1, 2, 3):
            yield v, (f"vulnerability {cve} on {aid} has required_capability {cap} "
                      "outside {1,2,3}")
        if type(vtype) is not VulnType:  # as for an asset's kind
            yield v, (f"vulnerability {cve} on {aid} has vuln_type {vtype!r}, "
                      "not a VulnType member")


def _edge_violations(edges, known):
    """Yield (edge, message) per self-loop and missing endpoint."""
    for e in edges:
        src, dst = e
        if src == dst:
            yield e, f"self-loop edge on asset {src}"
        for endpoint in e:
            if endpoint not in known:
                yield e, f"edge references missing asset {endpoint}"


def validate_model(graph: AssetGraph) -> list[str]:
    """Check every structural invariant of a graph; return one message per violation.

    An empty list means the model is valid.  Violations are data, not
    failures: this never raises for bad model content.  Order: repeated
    asset ids, each asset's id and host faults, per-record vulnerability
    faults, conflicting records of one (cve_id, asset) (after every other
    vulnerability fault), edges.  It reads only the records and caches
    nothing on the graph.
    """
    known = {a.id: a for a in reversed(graph.assets)}  # the first of each id
    # assets sort by id and records by (cve, asset), so duplicates are neighbours
    violations = [f"duplicate asset id {a.id}"
                  for before, a in pairwise(graph.assets) if a.id == before.id]
    violations += [m for _, m in _asset_violations(graph.assets, known)]
    violations += [m for _, m in _vulnerability_violations(graph.vulnerabilities, known)]
    violations += [f"duplicate vulnerability instance {v.cve_id} on {v.asset}"
                   for before, v in pairwise(graph.vulnerabilities)
                   if v.cve_id == before.cve_id and v.asset == before.asset]
    violations += [m for _, m in _edge_violations(graph.edges, known)]
    return violations
