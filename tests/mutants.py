"""Mutation check: each listed mutant of the package must fail a test.

    python3 tests/mutants.py

Run from anywhere inside a checkout; only the standard library and the test
dependencies are needed.  A mutant names a file, an exact old text, the new
text that replaces it and the tests that should catch the change.  The
script first runs every named test on an unmutated copy of the checkout,
which must pass.  Then, for each mutant, it copies the whole checkout to a
temporary directory (pyproject.toml puts src/ on pytest's path, so a copy of
src/ alone would import the unmutated package), replaces the old text, which
must occur exactly once, and runs the mutant's tests with -x and a fixed
hypothesis seed.  A mutant is killed when they fail.

The exit code is 0 when every mutant is killed and every expected survivor
survives, and 1 otherwise: when a refactor moves an old text, or a new test
kills an expected survivor, the list changes in the same commit.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: left out of each copy: history, caches and benchmark data
IGNORED = shutil.ignore_patterns(".git", ".perfbench", ".benchmarks", ".hypothesis",
                                 ".pytest_cache", "__pycache__", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    #: why the mutant survives every test, for an expected survivor
    survives: str | None = None


INGEST = "src/attackcf/ingest.py"
MODEL = "src/attackcf/model.py"
PREDICTION = "src/attackcf/prediction.py"
SIMILARITY = "src/attackcf/similarity.py"
PADDED = "tests/test_ingest.py::TestPaddedFiles"
PADDED_CLI = "tests/test_cli.py::test_padded_demo_files_give_the_demo_outputs"
SHARED = "tests/test_ingest.py::TestSharedValues"
VALIDATE = "tests/test_model.py::TestValidateModel"
ENUM_CLI = "tests/test_cli.py::test_model_check_rejects_enum_text_in_a_graph_built_in_code"
LOAD_VULNS = "tests/test_ingest.py::TestLoadVulnerabilities"
#: load_vulnerabilities' memo of parsed requirement pairs
REQUIREMENTS = ("        levels = requirements.get((loc_s, cap_s))\n"
                "        if levels is None:  # a bad pair raises before the store\n"
                "            levels = requirements[loc_s, cap_s] = _parse_requirements(\n"
                "                path, line_no, loc_s, cap_s)\n"
                "        loc, cap = levels\n")

MUTANTS = [
    Mutant("strip never", INGEST,
           "strip = _may_be_padded(fh)", "strip = False",
           (PADDED, PADDED_CLI)),
    Mutant("the padding test ignores quotes", INGEST,
           """'"' in chunk or """, "",
           (PADDED,)),
    Mutant("the padding test ignores non-ASCII text", INGEST,
           "not chunk.isascii() or ", "",
           (PADDED,)),
    Mutant("the padding test ignores chunk edges", INGEST,
           "chunk[0] == c or chunk[-1] == c or ", "",
           (PADDED,)),
    Mutant("the padding test misses a space before a line end", INGEST,
           """or c + "\\n" in chunk """, "",
           (PADDED,)),
    Mutant("unpadded lines off by one", INGEST,
           "yield line_no, (map(str.strip, row) if strip else row)",
           "yield line_no + (not strip), (map(str.strip, row) if strip else row)",
           (PADDED,)),
    Mutant("the requirement memo never stores", INGEST,
           "levels = requirements[loc_s, cap_s] = _parse_requirements(",
           "levels = _parse_requirements(",
           (LOAD_VULNS,)),
    Mutant("the requirement memo is keyed on the location alone", INGEST,
           REQUIREMENTS, REQUIREMENTS.replace("(loc_s, cap_s)", "loc_s")
                                     .replace("[loc_s, cap_s]", "[loc_s]"),
           (LOAD_VULNS,)),
    Mutant("edges keep their own strings", INGEST,
           "edges[known.get(src, src), known.get(dst, dst)] = line_no",
           "edges[src, dst] = line_no",
           (SHARED,)),
    Mutant("records keep their own asset string", INGEST,
           "texts.setdefault(cve, cve), known.get(aid, aid), score,",
           "texts.setdefault(cve, cve), aid, score,",
           (SHARED,)),
    Mutant("hosts keep their own strings", INGEST,
           "host = ids.setdefault(host, host) if host else None",
           "host = host or None",
           (SHARED,)),
    Mutant("scores are not shared", INGEST,
           "scores[score_s] = score", "pass",
           (SHARED,)),
    Mutant("a NaN score is cached", INGEST,
           "if score == score:", "if True:",
           (SHARED,)),
    Mutant("no keyed-sort fallback", MODEL,
           "    except TypeError:\n        return tuple(sorted(distinct, key=key))",
           "    except ZeroDivisionError:\n        return tuple(sorted(distinct, key=key))",
           ("tests/test_model.py::TestAssetGraph",)),
    Mutant("DiscoveryConfig leaves frozenset's TypeError uncaught", MODEL,
           "            except TypeError:  # not iterable, or an item not hashable",
           "            except ZeroDivisionError:",
           ("tests/test_model.py::TestConfigInvariants",)),
    Mutant("the asset kind rule dropped", MODEL,
           "if type(kind) is not AssetKind:", "if False:",
           (VALIDATE, ENUM_CLI)),
    Mutant("the vuln_type rule dropped", MODEL,
           "if type(vtype) is not VulnType:", "if False:",
           (VALIDATE,)),
    Mutant("the sort key reads a text kind's _value_", MODEL,
           "kind = kind._value_ if type(kind) is AssetKind else repr(kind)",
           "kind = kind._value_",
           (VALIDATE,)),
    Mutant("the empty-id branch dropped", MODEL,
           "        if not aid:", "        if False:",
           ("tests/test_model.py",)),
    Mutant("the unsafe-id branch dropped", MODEL,
           "elif _UNSAFE_ID.search(aid):", "elif False:",
           ("tests/test_ingest.py",)),
    Mutant("the attacker check dropped", MODEL,
           "if not isinstance(attacker, AttackerProfile):", "if False:",
           ("tests/test_model.py",)),
    Mutant("a lenient discover", "src/attackcf/discovery.py",
           "        if missing:", "        if False:",
           ("tests/test_discovery.py",)),
    Mutant("_sum starts from -0.0", SIMILARITY,
           "    s = 0.0", "    s = -0.0",
           ("tests/test_similarity.py",)),
    Mutant("pcc skips its scaling rerun", SIMILARITY,
           "dx, dy, denom = _deviations(_unit_scaled(xs), _unit_scaled(ys))", "pass",
           ("tests/test_similarity.py",)),
    Mutant("no demotion", PREDICTION,
           "[min(classify_pair(n, agree, config), Classification.HIGH)",
           "[classify_pair(n, agree, config)",
           ("tests/test_prediction.py",)),
    Mutant("the endpoint promotion dropped", PREDICTION,
           "levels[i] = Classification.VERY_HIGH", "pass",
           ("tests/test_prediction.py",)),
    Mutant("absent CWEs count as agreeing in pair_grades", MODEL,
           "cwes = [p if cwe is None else cwe for p, cwe in enumerate(map(itemgetter(3), records))]",
           "cwes = list(map(itemgetter(3), records))",
           ("tests/test_prediction.py",)),
    Mutant("HIGH ignores type agreement", PREDICTION,
           "if config.x2 <= n < config.x1 and types_agree:", "if config.x2 <= n < config.x1:",
           ("tests/test_prediction.py",)),
    # the distance bound only prunes: a looser bound or none gives the same
    # paths, more slowly (up to +36 % on the paper topology at L = 10), and no
    # test counts the DFS's work yet
    Mutant("DFS distance bound loosened by one", "src/attackcf/_kernels.py",
           "if room > 0 and 0 <= dw <= room:", "if room > 0 and 0 <= dw <= room + 1:",
           ("tests",),
           survives="the bound prunes fruitless branches only; nothing counts DFS pushes"),
    Mutant("DFS distance bound dropped", "src/attackcf/_kernels.py",
           "if room > 0 and 0 <= dw <= room:", "if room > 0 and 0 <= dw:",
           ("tests",),
           survives="the bound prunes fruitless branches only; nothing counts DFS pushes"),
]


def _copy_checkout(dest: Path) -> Path:
    copy = dest / "checkout"
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    return copy


def _tests_pass(checkout: Path, tests) -> bool:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def _apply(checkout: Path, mutant: Mutant) -> None:
    path = checkout / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        if not _tests_pass(_copy_checkout(Path(tmp)), tests):
            print("the named tests fail on the unmutated checkout", file=sys.stderr)
            return 1
    failed = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            checkout = _copy_checkout(Path(tmp))
            try:
                _apply(checkout, m)
            except ValueError as exc:
                print(f"ERROR     {exc}")
                failed += 1
                continue
            killed = not _tests_pass(checkout, m.tests)
        expected = m.survives is None
        outcome = "killed" if killed else "survived"
        if killed != expected:
            failed += 1
            print(f"UNEXPECTED {outcome}: {m.name}")
        else:
            print(f"ok        {outcome}: {m.name}"
                  + (f" (expected: {m.survives})" if m.survives else ""))
    print(f"{len(MUTANTS)} mutants, {failed} unexpected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
