"""Independent reference implementations used to cross-check the engines.

Everything here is deliberately written the slow, obvious way (plain
loops, recursion, permutation tests, numpy for the correlation) and shares
no code with the package internals: only its public data types and
exception classes are imported.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from attackcf.model import Classification, Prediction
from attackcf.similarity import UndefinedSimilarityError


def pearson_reference(xs, ys):
    """Textbook Pearson correlation over two equal-length sequences."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = sum((x - mx) ** 2 for x in xs) ** 0.5
    dy = sum((y - my) ** 2 for y in ys) ** 0.5
    return num / (dx * dy)


def pcc_numpy(pairs):
    """attackcf.similarity.pcc as numpy computes it: the same rejections,
    fallbacks and clamp, with every sum taken by numpy.

    The package's pure-Python pcc must match this in repr, bit for bit.
    """
    if len(pairs) < 2:
        raise UndefinedSimilarityError(
            f"correlation needs at least 2 co-rated scores, got {len(pairs)}"
        )
    xs = np.asarray([p[0] for p in pairs], dtype=np.float64)
    ys = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise UndefinedSimilarityError("correlation needs finite scores")

    if np.array_equal(xs, ys):
        return 1.0, True
    if (xs == xs[0]).all() or (ys == ys[0]).all():
        return 0.0, True

    dx = xs - xs.mean()
    dy = ys - ys.mean()
    value = float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))
    # guard against eps-scale overshoot of the mathematical bound
    return min(1.0, max(-1.0, value)), False


def simple_paths_recursive(adj, src, dst, max_edges):
    """Simple src->dst paths with at most max_edges edges, by recursion."""
    out = []

    def walk(node, path):
        if node == dst:
            out.append(tuple(path))
            return
        if len(path) - 1 >= max_edges:
            return
        for nxt in sorted(adj.get(node, ())):
            if nxt in path:
                continue
            path.append(nxt)
            walk(nxt, path)
            path.pop()

    if src != dst:
        walk(src, [src])
    return out


def bfs_distances(adj, sources, max_depth):
    """Edge count from the nearest source to every node reached within
    max_depth edges, by a plain FIFO queue; unreached nodes are absent."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        if dist[v] == max_depth:
            continue
        for w in adj.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def simple_paths_by_permutation(nodes, edges, src, dst, max_edges):
    """Test every candidate node sequence directly against the edge set.

    Exponential; keep node counts small.
    """
    found = []
    for k in range(2, min(len(nodes), max_edges + 1) + 1):
        for seq in itertools.permutations(nodes, k):
            if seq[0] != src or seq[-1] != dst:
                continue
            if all((a, b) in edges for a, b in zip(seq, seq[1:])):
                found.append(seq)
    return found


def discover_reference(adj, vulns_of, entries, targets, attacker, allowed, max_edges):
    """Eligibility guard plus per-pair recursive enumeration, merged as a set.

    vulns_of maps asset id -> iterable of (vuln_type, required_location,
    required_capability); attacker is (location, capability).
    """
    loc, cap = attacker
    paths = set()
    for e in sorted(entries):
        ok = any(
            loc >= rl and cap >= rc and vt in allowed
            for vt, rl, rc in vulns_of.get(e, ())
        )
        if not ok:
            continue
        for t in sorted(targets):
            if t == e:
                continue
            paths.update(simple_paths_recursive(adj, e, t, max_edges))
    return paths


_last_grouped = [None, {}]  # the last graph seen, and its records by asset


def _records_by_asset(graph):
    """graph.vulnerabilities grouped by asset id, each group in graph order.

    The oracles run pair by pair over one graph, so the last graph's
    grouping is kept; grouping on every call doubles the test run.
    """
    if _last_grouped[0] is not graph:
        grouped = {}
        for v in graph.vulnerabilities:
            grouped.setdefault(v.asset, []).append(v)
        _last_grouped[:] = [graph, grouped]
    return _last_grouped[1]


def common_vulnerabilities(a, b, graph):
    """(cve, score on a, score on b) for each CVE on both assets, sorted by CVE.

    The graph lists each asset's records in sorted order, so the last record
    of a repeated CVE is the one kept, as in the package.
    """
    if a == b:
        raise ValueError(f"assets must differ, got {a!r} for both")
    on_a = {v.cve_id: v.score for v in _records_by_asset(graph).get(a, ())}
    on_b = {v.cve_id: v.score for v in _records_by_asset(graph).get(b, ())}
    return [(cve, on_a[cve], on_b[cve]) for cve in sorted(on_a) if cve in on_b]


def same_type(a, b, graph):
    """True when some CVE shared by a and b carries the same CWE id on both.

    Absent CWE data never certifies agreement.
    """
    if a == b:
        raise ValueError(f"assets must differ, got {a!r} for both")
    on_a = {v.cve_id: v.cwe_id for v in _records_by_asset(graph).get(a, ())}
    on_b = {v.cve_id: v.cwe_id for v in _records_by_asset(graph).get(b, ())}
    return any(on_a[cve] is not None and on_a[cve] == on_b[cve]
               for cve in on_a.keys() & on_b.keys())


def classify_reference(n, types_agree, x1, x2, x3, x4):
    """Literal transcription of the tier rules."""
    if n >= x1 and types_agree:
        return "very high"
    if x1 > n >= x2 and types_agree:
        return "high"
    if x2 > n >= x3:
        return "medium"
    if x3 > n >= x4:
        return "low"
    return "very low"


def predict_reference(shared, agree, path_pairs, x1, x2, x3, x4):
    """Classify then rearrange every ordered pair, the slow way.

    shared maps unordered frozenset pairs -> co-rated count; agree maps the
    same keys -> type agreement; path_pairs is a set of (entry, target).
    Returns {(src, dst): tier string}.
    """
    out = {}
    for key, n in shared.items():
        if n < 1:
            continue
        a, b = sorted(key)
        for src, dst in ((a, b), (b, a)):
            tier = classify_reference(n, agree[key], x1, x2, x3, x4)
            if (src, dst) in path_pairs:
                tier = "very high"
            elif tier == "very high":
                tier = "high"
            out[(src, dst)] = tier
    return out


_PREDICT_LEVELS = {
    "VeryHigh": Classification.VERY_HIGH,
    "High": Classification.HIGH,
    "Medium": Classification.MEDIUM,
    "Low": Classification.LOW,
    "VeryLow": Classification.VERY_LOW,
}


def _parse_prediction_row(line):
    fields = line.split(",")
    if len(fields) != 6:
        raise ValueError(f"prediction row needs 6 fields, got {len(fields)}")
    src, dst, level, co_rated, similarity, degenerate = fields
    if level not in _PREDICT_LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if degenerate not in ("true", "false"):
        raise ValueError(f"degenerate must be true or false, got {degenerate!r}")
    return Prediction(src=src, dst=dst, level=_PREDICT_LEVELS[level],
                      similarity=float(similarity), co_rated=int(co_rated),
                      degenerate=degenerate == "true")


def parse_prediction_report(path):
    """Re-read a prediction report, written from the format's literals
    rather than attackcf.report's constants, so that a writer bug is not
    mirrored here.

    Comment lines may only come before the column header: an asset id may
    itself begin with '#', so every non-empty line after it is a data row.
    A malformed data row raises ValueError naming its file and line.
    """
    predictions = []
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != "# attackcf predict v1":
            raise ValueError(f"{path}: not a prediction report (header {first!r})")
        rows = enumerate(fh, start=2)
        for _, line in rows:
            if line.rstrip("\n") == "src,dst,level,co_rated,similarity,degenerate":
                break
            if not line.startswith("#"):
                raise ValueError(f"{path}: data before the column header")
        else:
            raise ValueError(f"{path}: no column header")
        for line_no, line in rows:
            line = line.strip()
            if not line:
                continue
            try:
                predictions.append(_parse_prediction_row(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    return predictions
