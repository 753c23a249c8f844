import csv
import os
import tempfile
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attackcf.bench import SynthSpec, generate
from attackcf.discovery import discover
from attackcf.ingest import (
    ConfigError,
    IngestError,
    load_assets,
    load_bundle,
    load_config,
    load_edges,
    load_model,
    load_vulnerabilities,
    save_assets,
    save_edges,
    save_vulnerabilities,
    _may_be_padded,
    _parse_requirements,
)
from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackerProfile,
    DiscoveryConfig,
    VulnType,
    VulnerabilityInstance,
    validate_model,
)
from attackcf.report import format_discovery_report

from conftest import ALLOWED_IDS, DEMO_DIR, STRIPPED_TEXT, is_allowed_id, office_graph

ASSET_HEADER = "id,name,kind,host\n"
VULN_HEADER = (
    "cve_id,asset_id,score,cwe_id,vuln_type,required_location,required_capability\n"
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


@pytest.fixture
def base_assets(tmp_path):
    return load_assets(
        _write(tmp_path, "assets.csv", ASSET_HEADER + "A1,Desktop PC,hardware,\n")
    )


class TestLoadAssets:
    def test_hardware_row(self, tmp_path):
        assets = load_assets(
            _write(tmp_path, "a.csv", ASSET_HEADER + "A1,Desktop PC,hardware,\n")
        )
        assert assets == {Asset("A1", "Desktop PC", AssetKind.HARDWARE, None)}

    def test_software_row_with_host(self, tmp_path):
        assets = load_assets(
            _write(
                tmp_path,
                "a.csv",
                ASSET_HEADER
                + "A1,Desktop PC,hardware,\nS1,Windows 10,software,A1\n",
            )
        )
        assert Asset("S1", "Windows 10", AssetKind.SOFTWARE, "A1") in assets

    def test_header_only_file(self, tmp_path):
        assert load_assets(_write(tmp_path, "a.csv", ASSET_HEADER)) == set()

    def test_malformed_row_names_line(self, tmp_path):
        path = _write(tmp_path, "a.csv", ASSET_HEADER + "A1,no kind\n")
        with pytest.raises(IngestError, match=r"a\.csv:2"):
            load_assets(path)

    def test_line_after_multi_line_field_named(self, tmp_path):
        # the quoted name spans lines 2-3, so the bad row is on line 4
        path = _write(tmp_path, "a.csv",
                      ASSET_HEADER + 'A,"two\nlines",hardware,\nB,b,bogus,\n')
        with pytest.raises(IngestError) as exc:
            load_assets(path)
        assert str(exc.value) == (
            f"{path}:4: field kind must be 'hardware' or 'software', got 'bogus'")

    def test_duplicate_id_named(self, tmp_path):
        path = _write(
            tmp_path,
            "a.csv",
            ASSET_HEADER + "A1,x,hardware,\nA1,y,software,\n",
        )
        with pytest.raises(IngestError, match="duplicate asset id A1"):
            load_assets(path)

    @pytest.mark.parametrize("aid", [
        '"A,1"', "A->B", '"A""1"', "A\\1", '"A\n1"', '"A\r1"', "A\u20281",
    ])
    def test_unsafe_id_rejected_with_line(self, tmp_path, aid):
        # the CSV reader accepts each of these; the reports could not
        path = _write(tmp_path, "a.csv", ASSET_HEADER + f"A0,x,hardware,\n{aid},y,hardware,\n")
        with pytest.raises(IngestError, match=r"a\.csv:3: asset id"):
            load_assets(path)

    def test_empty_id_rejected_with_line(self, tmp_path):
        path = _write(tmp_path, "a.csv", ASSET_HEADER + "A0,x,hardware,\n,y,hardware,\n")
        with pytest.raises(IngestError) as exc:
            load_assets(path)
        assert str(exc.value) == f"{path}:3: empty asset id"

    @pytest.mark.parametrize("second", ["z", "y"], ids=["other-name", "same-row"])
    def test_repeated_empty_id_rejected_at_first_line(self, tmp_path, second):
        body = f"A0,x,hardware,\n,y,hardware,\n,{second},hardware,\n"
        path = _write(tmp_path, "a.csv", ASSET_HEADER + body)
        with pytest.raises(IngestError) as exc:
            load_assets(path)
        assert str(exc.value) == f"{path}:3: empty asset id"

    def test_bad_kind(self, tmp_path):
        path = _write(tmp_path, "a.csv", ASSET_HEADER + "A1,x,firmware,\n")
        with pytest.raises(IngestError, match="hardware"):
            load_assets(path)

    def test_iterates_in_file_order(self, tmp_path):
        path = _write(tmp_path, "a.csv", ASSET_HEADER
                      + "H9,z,hardware,\nS1,app,software,H9\nA1,a,hardware,\n")
        assert list(load_assets(path)) == [
            Asset("H9", "z", AssetKind.HARDWARE),
            Asset("S1", "app", AssetKind.SOFTWARE, "H9"),
            Asset("A1", "a", AssetKind.HARDWARE),
        ]

    def test_host_may_come_later_in_the_file(self, tmp_path):
        path = _write(tmp_path, "a.csv", ASSET_HEADER + "S1,app,software,H1\nH1,pc,hardware,\n")
        assert Asset("S1", "app", AssetKind.SOFTWARE, "H1") in load_assets(path)

    @pytest.mark.parametrize("rows, message", [
        ("A1,pc,hardware,\nS9,app,software,GHOST\n",
         "3: asset S9 hosted on missing asset GHOST"),
        ("S9,app,software,S2\nS2,os,software,\n",
         "2: asset S9 hosted on non-hardware asset S2"),
    ], ids=["missing", "software"])
    def test_bad_host_named_with_line(self, tmp_path, rows, message):
        path = _write(tmp_path, "a.csv", ASSET_HEADER + rows)
        with pytest.raises(IngestError) as exc:
            load_assets(path)
        assert str(exc.value) == f"{path}:{message}"


class TestLoadVulnerabilities:
    def test_example_rows(self, tmp_path, base_assets):
        path = _write(
            tmp_path,
            "v.csv",
            VULN_HEADER + "CVE-2015-1769,A1,10,CWE-264,ObtainPrivilege,1,1\n",
        )
        (v,) = load_vulnerabilities(path, base_assets)
        assert v.score == 10.0
        assert v.asset == "A1"
        assert v.vuln_type is VulnType.OBTAIN_PRIVILEGE
        assert (v.required_location, v.required_capability) == (1, 1)

    def test_decimal_score(self, tmp_path, base_assets):
        path = _write(
            tmp_path,
            "v.csv",
            VULN_HEADER + "CVE-2015-2423,A1,2.9,CWE-200,BypassSomething,3,2\n",
        )
        (v,) = load_vulnerabilities(path, base_assets)
        assert v.score == 2.9

    @pytest.mark.parametrize("score", ["-1", "10.1", "99"])
    def test_score_range_error(self, tmp_path, base_assets, score):
        path = _write(
            tmp_path, "v.csv",
            VULN_HEADER + f"CVE-1,A1,{score},CWE-1,XSS,1,1\n",
        )
        with pytest.raises(IngestError) as exc:
            load_vulnerabilities(path, base_assets)
        assert str(exc.value) == (
            f"{path}:2: vulnerability CVE-1 on A1 has score {float(score)} outside [0, 10]")

    def test_non_decimal_score_rejected(self, tmp_path, base_assets):
        path = _write(tmp_path, "v.csv", VULN_HEADER + "CVE-1,A1,high,CWE-1,XSS,1,1\n")
        with pytest.raises(IngestError) as exc:
            load_vulnerabilities(path, base_assets)
        assert str(exc.value) == f"{path}:2: field score must be a decimal, got 'high'"

    def test_unknown_type_lists_tokens(self, tmp_path, base_assets):
        path = _write(
            tmp_path, "v.csv", VULN_HEADER + "CVE-1,A1,5,CWE-1,Phishing,1,1\n"
        )
        with pytest.raises(IngestError) as exc:
            load_vulnerabilities(path, base_assets)
        for token in ("CodeExecution", "Overflow", "XSS", "BypassSomething",
                      "ObtainPrivilege", "MemoryCorruption", "Other"):
            assert token in str(exc.value)

    def test_unknown_asset_rejected(self, tmp_path, base_assets):
        path = _write(tmp_path, "v.csv", VULN_HEADER + "CVE-1,A9,5,CWE-1,XSS,1,1\n")
        with pytest.raises(IngestError, match="A9"):
            load_vulnerabilities(path, base_assets)

    def test_missing_cwe_becomes_none(self, tmp_path, base_assets):
        path = _write(tmp_path, "v.csv", VULN_HEADER + "CVE-1,A1,5,,XSS,1,1\n")
        (v,) = load_vulnerabilities(path, base_assets)
        assert v.cwe_id is None

    def test_cvss_vector_derives_requirements(self, tmp_path, base_assets):
        path = _write(
            tmp_path,
            "v.csv",
            VULN_HEADER
            + "CVE-1,A1,5,CWE-1,XSS,AV:N/AC:L/Au:N/C:C/I:C/A:C,\n"
            + "CVE-2,A1,5,CWE-1,XSS,AV:A/AC:M/Au:N/C:P/I:P/A:P,\n"
            + "CVE-3,A1,5,CWE-1,XSS,AV:L/AC:H/Au:N/C:N/I:N/A:P,\n",
        )
        by_cve = {v.cve_id: v for v in load_vulnerabilities(path, base_assets)}
        assert (by_cve["CVE-1"].required_location,
                by_cve["CVE-1"].required_capability) == (3, 1)
        assert (by_cve["CVE-2"].required_location,
                by_cve["CVE-2"].required_capability) == (2, 2)
        assert (by_cve["CVE-3"].required_location,
                by_cve["CVE-3"].required_capability) == (1, 3)

    def test_cvss_vector_with_capability_field_rejected(self, tmp_path, base_assets):
        path = _write(
            tmp_path, "v.csv",
            VULN_HEADER + "CVE-1,A1,5,CWE-1,XSS,AV:N/AC:L/Au:N/C:C/I:C/A:C,2\n",
        )
        with pytest.raises(IngestError, match="empty"):
            load_vulnerabilities(path, base_assets)

    @pytest.mark.parametrize("loc, cap, field, raw", [
        (7, 1, "required_location", 7),
        (1, 0, "required_capability", 0),
        (4, 4, "required_location", 4),
    ], ids=["7-1", "1-0", "4-4"])
    def test_requirement_outside_scale_rejected(self, tmp_path, base_assets,
                                                 loc, cap, field, raw):
        path = _write(tmp_path, "v.csv", VULN_HEADER + f"CVE-1,A1,5,CWE-1,XSS,{loc},{cap}\n")
        with pytest.raises(IngestError) as exc:
            load_vulnerabilities(path, base_assets)
        assert str(exc.value) == (
            f"{path}:2: vulnerability CVE-1 on A1 has {field} {raw} outside {{1,2,3}}")

    def test_non_integer_requirement_rejected(self, tmp_path, base_assets):
        path = _write(tmp_path, "v.csv", VULN_HEADER + "CVE-1,A1,5,CWE-1,XSS,1,high\n")
        with pytest.raises(IngestError) as exc:
            load_vulnerabilities(path, base_assets)
        assert str(exc.value) == (f"{path}:2: field required_capability must be an "
                                  "integer or a CVSS vector, got 'high'")

    @pytest.mark.parametrize("loc, cap, expected", [
        ("03", "1", (3, 1)), ("1", "+2", (1, 2)), (" 2", "3 ", (2, 3)),
    ])
    def test_other_integer_spellings_still_parse(self, tmp_path, base_assets,
                                                 loc, cap, expected):
        # int() reads each field, so spellings other than "1", "2" and "3" load too
        path = _write(tmp_path, "v.csv", VULN_HEADER + f"CVE-1,A1,5,CWE-1,XSS,{loc},{cap}\n")
        (v,) = load_vulnerabilities(path, base_assets)
        assert (v.required_location, v.required_capability) == expected

    @settings(max_examples=150, deadline=None)
    @given(loc=st.sampled_from(["1", "2", "3", "0", "4", "03", "+2", "\u0663", "x", "",
                                "AV:N/AC:M", "av:l/ac:h", "AV:Q/AC:L"]),
           cap=st.sampled_from(["1", "2", "3", "0", "9", "+3", "\u0661", "x", ""]))
    def test_requirement_lookup_agrees_with_the_general_parse(self, loc, cap):
        # the loader parses each distinct pair once and looks its repeats up
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(Path(tmp), "v.csv", VULN_HEADER + f"C1,A1,5,,XSS,{loc},{cap}\n")
            try:
                expected = _parse_requirements(path, 2, loc, cap)
            except IngestError as exc:
                expected = str(exc)
            try:
                (v,) = load_vulnerabilities(path, [Asset("A1", "pc", AssetKind.HARDWARE)])
                got = v.required_location, v.required_capability
            except IngestError as exc:
                got = str(exc)
        if isinstance(expected, tuple) and not {*expected} <= {1, 2, 3}:
            assert got.endswith(" outside {1,2,3}")  # the record rule, once the row parses
        else:
            assert got == expected

    def test_each_distinct_requirement_pair_parses_once(self, tmp_path, base_assets,
                                                         monkeypatch):
        calls = []

        def counted(path, line_no, loc, cap):
            calls.append((line_no, loc, cap))
            return _parse_requirements(path, line_no, loc, cap)

        monkeypatch.setattr("attackcf.ingest._parse_requirements", counted)
        vector = "AV:A/AC:L/Au:N/C:P/I:P/A:P"
        rows = "".join(f"CVE-{i},A1,5,CWE-1,XSS,{vector},\nCVE-{i},A1,5,CWE-1,XSS,3,2\n"
                       for i in range(3))
        vulns = load_vulnerabilities(_write(tmp_path, "v.csv", VULN_HEADER + rows),
                                     base_assets)
        assert calls == [(2, vector, ""), (3, "3", "2")]
        assert [(v.required_location, v.required_capability) for v in vulns] == [
            (2, 1), (3, 2)] * 3

    def test_pairs_that_share_a_location_stay_apart(self, tmp_path, base_assets):
        path = _write(tmp_path, "v.csv", VULN_HEADER
                      + "CVE-1,A1,5,CWE-1,XSS,3,2\nCVE-1,A1,5,CWE-1,XSS,3,3\n")
        vulns = load_vulnerabilities(path, base_assets)
        assert [(v.required_location, v.required_capability) for v in vulns] == [
            (3, 2), (3, 3)]

    @pytest.mark.parametrize("good, bad, message", [
        ("AV:N/AC:L,", "AV:N/AC:L,2", "required_capability must be empty when a "
                                       "CVSS vector supplies both requirements"),
        ("3,2", "3,x", "field required_capability must be an integer or a CVSS "
                       "vector, got 'x'"),
    ], ids=["vector", "integers"])
    def test_a_bad_pair_after_good_ones_reports_its_own_line(self, tmp_path, base_assets,
                                                             good, bad, message):
        path = _write(tmp_path, "v.csv", VULN_HEADER + f"CVE-1,A1,5,CWE-1,XSS,{good}\n"
                      + f"CVE-2,A1,5,CWE-1,XSS,{good}\nCVE-3,A1,5,CWE-1,XSS,{bad}\n")
        with pytest.raises(IngestError) as exc:
            load_vulnerabilities(path, base_assets)
        assert str(exc.value) == f"{path}:4: {message}"

    def test_iterates_in_file_order_without_exact_repeats(self, tmp_path, base_assets):
        path = _write(tmp_path, "v.csv", VULN_HEADER
                      + "CVE-2,A1,5,CWE-1,XSS,1,1\n"
                      + "CVE-1,A1,5,,XSS,1,1\n"
                      + "CVE-2,A1,5,CWE-1,XSS,1,1\n"
                      + "CVE-1,A1,6,,XSS,1,1\n")
        vulns = load_vulnerabilities(path, base_assets)
        # a repeat with another score is not exact: validate_model reports it
        assert [(v.cve_id, v.score) for v in vulns] == [
            ("CVE-2", 5.0), ("CVE-1", 5.0), ("CVE-1", 6.0)]
        assert len(vulns) == 3

    def test_garbled_vector_rejected(self, tmp_path, base_assets):
        path = _write(
            tmp_path, "v.csv", VULN_HEADER + "CVE-1,A1,5,CWE-1,XSS,AV:X/AC:L,\n"
        )
        with pytest.raises(IngestError, match="AV"):
            load_vulnerabilities(path, base_assets)


class TestLoadEdges:
    def test_three_rows(self, tmp_path):
        assets = {Asset(x, x, AssetKind.HARDWARE) for x in ("A1", "A2", "A3")}
        path = _write(tmp_path, "e.csv", "src,dst\nA1,A2\nA2,A3\nA2,A1\n")
        assert load_edges(path, assets) == {("A1", "A2"), ("A2", "A3"), ("A2", "A1")}

    def test_duplicates_collapse(self, tmp_path):
        assets = {Asset(x, x, AssetKind.HARDWARE) for x in ("A1", "A2")}
        path = _write(tmp_path, "e.csv", "src,dst\nA1,A2\nA1,A2\n")
        assert load_edges(path, assets) == {("A1", "A2")}

    def test_iterates_in_file_order_without_repeats(self, tmp_path):
        assets = {Asset(x, x, AssetKind.HARDWARE) for x in ("A1", "A2", "A3")}
        path = _write(tmp_path, "e.csv", "src,dst\nA3,A1\nA1,A2\nA3,A1\nA2,A1\n")
        edges = load_edges(path, assets)
        assert list(edges) == [("A3", "A1"), ("A1", "A2"), ("A2", "A1")]
        assert ("A1", "A2") in edges and len(edges) == 3

    def test_self_loop_rejected(self, tmp_path):
        assets = {Asset("A1", "a", AssetKind.HARDWARE)}
        path = _write(tmp_path, "e.csv", "src,dst\nA1,A1\n")
        with pytest.raises(IngestError, match="self-loop"):
            load_edges(path, assets)

    def test_unknown_endpoint_rejected(self, tmp_path):
        assets = {Asset("A1", "a", AssetKind.HARDWARE)}
        path = _write(tmp_path, "e.csv", "src,dst\nA1,B7\n")
        with pytest.raises(IngestError, match="B7"):
            load_edges(path, assets)


class TestHeaderLine:
    """Each CSV file starts with its header; a file without one would lose its first record."""

    def test_headerless_assets_file_rejected(self, tmp_path):
        path = _write(tmp_path, "a.csv", "A1,Desktop PC,hardware,\n")
        with pytest.raises(IngestError) as exc:
            load_assets(path)
        assert str(exc.value) == (
            f"{path}:1: expected header 'id,name,kind,host', got 'A1,Desktop PC,hardware,'")

    def test_headerless_vulnerabilities_file_rejected(self, tmp_path, base_assets):
        path = _write(tmp_path, "v.csv", "CVE-1,A1,5,CWE-1,XSS,1,1\n")
        with pytest.raises(IngestError) as exc:
            load_vulnerabilities(path, base_assets)
        assert str(exc.value) == (
            f"{path}:1: expected header {VULN_HEADER.strip()!r}, got 'CVE-1,A1,5,CWE-1,XSS,1,1'")

    def test_headerless_edges_file_rejected(self, tmp_path):
        assets = {Asset(x, x, AssetKind.HARDWARE) for x in ("A1", "A2", "A3")}
        path = _write(tmp_path, "e.csv", "A1,A2\nA2,A3\n")
        with pytest.raises(IngestError) as exc:
            load_edges(path, assets)
        assert str(exc.value) == f"{path}:1: expected header 'src,dst', got 'A1,A2'"

    def test_byte_order_mark_before_header_ignored(self, tmp_path):
        assets = load_assets(
            _write(tmp_path, "a.csv", "\ufeff" + ASSET_HEADER + "A1,pc,hardware,\n"))
        assert assets == {Asset("A1", "pc", AssetKind.HARDWARE)}
        vulns = load_vulnerabilities(
            _write(tmp_path, "v.csv", "\ufeff" + VULN_HEADER + "CVE-1,A1,5,,XSS,1,1\n"), assets)
        assert [v.cve_id for v in vulns] == ["CVE-1"]
        two = assets | {Asset("A2", "pc", AssetKind.HARDWARE)}
        edges = load_edges(_write(tmp_path, "e.csv", "\ufeffsrc,dst\nA1,A2\n"), two)
        assert edges == {("A1", "A2")}

    def test_header_fields_are_stripped(self, tmp_path):
        assets = {Asset(x, x, AssetKind.HARDWARE) for x in ("A1", "A2")}
        path = _write(tmp_path, "e.csv", " src , dst \nA1,A2\n")
        assert load_edges(path, assets) == {("A1", "A2")}

    def test_file_without_lines_has_no_records(self, tmp_path):
        assert load_assets(_write(tmp_path, "a.csv", "")) == set()
        assert load_edges(_write(tmp_path, "e.csv", ""), set()) == set()


HW, SW = AssetKind.HARDWARE, AssetKind.SOFTWARE
PC = Asset("A1", "pc", HW)


def _record(cve="CVE-1", asset="A1", score=5.0, loc=1, cap=1):
    return VulnerabilityInstance(cve, asset, score, "CWE-1", VulnType.XSS, loc, cap)


# one case per rule of model's _*_violations generators: the file broken at
# `line`, and the same records built in code
SHARED_RULE_CASES = {
    "host-missing": ("assets", "A1,pc,hardware,\nS9,app,software,GHOST\n", 3,
                     AssetGraph([PC, Asset("S9", "app", SW, "GHOST")])),
    "host-software": ("assets", "S9,app,software,S2\nS2,os,software,\n", 2,
                      AssetGraph([Asset("S9", "app", SW, "S2"), Asset("S2", "os", SW)])),
    "vuln-missing-asset": ("vulns", "CVE-1,A9,5,CWE-1,XSS,1,1\n", 2,
                           AssetGraph([PC], [_record(asset="A9")])),
    "score": ("vulns", "CVE-1,A1,99,CWE-1,XSS,1,1\n", 2,
              AssetGraph([PC], [_record(score=99.0)])),
    "location": ("vulns", "CVE-1,A1,5,CWE-1,XSS,7,1\n", 2,
                 AssetGraph([PC], [_record(loc=7)])),
    "capability": ("vulns", "CVE-1,A1,5,CWE-1,XSS,1,0\n", 2,
                   AssetGraph([PC], [_record(cap=0)])),
    "self-loop": ("edges", "A1,A1\n", 2, AssetGraph([PC], edges=[("A1", "A1")])),
    "edge-missing-asset": ("edges", "A1,B7\n", 2, AssetGraph([PC], edges=[("A1", "B7")])),
}


def _model_files(tmp_path, assets="A1,pc,hardware,\n", vulns="", edges=""):
    return (_write(tmp_path, "assets.csv", ASSET_HEADER + assets),
            _write(tmp_path, "vulns.csv", VULN_HEADER + vulns),
            _write(tmp_path, "edges.csv", "src,dst\n" + edges))


class TestSharedRules:
    @pytest.mark.parametrize("case", SHARED_RULE_CASES)
    def test_loader_reports_validate_model_message_at_line(self, tmp_path, case):
        which, rows, line, graph = SHARED_RULE_CASES[case]
        files = _model_files(tmp_path, **{which: rows})
        (message,) = validate_model(graph)
        with pytest.raises(IngestError) as exc:
            load_model(*files)
        path = files[("assets", "vulns", "edges").index(which)]
        assert str(exc.value) == f"{path}:{line}: {message}"

    def test_first_faulty_record_in_file_order_is_reported(self, tmp_path):
        files = _model_files(tmp_path, vulns="CVE-1,A1,5,CWE-1,XSS,1,1\n"
                             "CVE-2,A1,5,CWE-1,XSS,1,9\nCVE-3,A9,99,CWE-1,XSS,1,1\n")
        with pytest.raises(IngestError) as exc:
            load_model(*files)
        assert str(exc.value) == (
            f"{files[1]}:3: vulnerability CVE-2 on A1 has required_capability 9 outside {{1,2,3}}")

    def test_unparsable_row_reported_before_an_earlier_rule_fault(self, tmp_path):
        files = _model_files(tmp_path, vulns="CVE-1,A9,5,CWE-1,XSS,1,1\n"
                             "CVE-2,A1,5,CWE-1,Phishing,1,1\n")
        with pytest.raises(IngestError) as exc:
            load_model(*files)
        assert str(exc.value) == (
            f"{files[1]}:3: unknown vuln_type 'Phishing'; accepted: BypassSomething, "
            "CodeExecution, MemoryCorruption, ObtainPrivilege, Other, Overflow, XSS")


CONFIG_MINIMAL = """\
entry_points=A1,A2
target_points=A1,A2,A3
attacker_location=3
attacker_capability=3
propagation_length=1
"""


class TestLoadConfig:
    def test_threshold_defaults(self, tmp_path):
        _, prediction = load_config(_write(tmp_path, "c.txt", CONFIG_MINIMAL))
        assert (prediction.x1, prediction.x2, prediction.x3, prediction.x4) == (4, 2, 1, 0)

    def test_attacker_pass_through(self, tmp_path):
        discovery, _ = load_config(_write(tmp_path, "c.txt", CONFIG_MINIMAL))
        assert discovery.attacker.location == 3
        assert discovery.attacker.capability == 3
        assert discovery.entry_points == {"A1", "A2"}
        assert discovery.propagation_length == 1

    def test_wide_scan_parameters(self, tmp_path):
        entries = ",".join(f"E{i:02d}" for i in range(25))
        targets = ",".join(f"T{i:02d}" for i in range(25))
        text = (
            f"entry_points={entries}\ntarget_points={targets}\n"
            "attacker_location=3\nattacker_capability=3\npropagation_length=10\n"
        )
        discovery, _ = load_config(_write(tmp_path, "c.txt", text))
        assert len(discovery.entry_points) == 25
        assert len(discovery.target_points) == 25
        assert discovery.propagation_length == 10

    def test_thresholds_must_descend(self, tmp_path):
        text = CONFIG_MINIMAL + "x1=2\nx2=3\n"
        with pytest.raises(ConfigError, match="descending"):
            load_config(_write(tmp_path, "c.txt", text))

    def test_bad_propagation_length(self, tmp_path):
        text = CONFIG_MINIMAL.replace("propagation_length=1", "propagation_length=0")
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, "c.txt", text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            load_config(_write(tmp_path, "c.txt", CONFIG_MINIMAL + "mystery=1\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path, "c.txt", CONFIG_MINIMAL + "x1=5\nx1=6\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:7: duplicate key 'x1'"

    def test_line_without_equals_rejected(self, tmp_path):
        path = _write(tmp_path, "c.txt", CONFIG_MINIMAL + "x1 5\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:6: expected key=value, got 'x1 5'"

    def test_non_integer_value_rejected(self, tmp_path):
        path = _write(tmp_path, "c.txt",
                      CONFIG_MINIMAL.replace("attacker_location=3", "attacker_location=high"))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: key attacker_location must be an integer, got 'high'"

    def test_missing_required_key(self, tmp_path):
        text = CONFIG_MINIMAL.replace("attacker_location=3\n", "")
        with pytest.raises(ConfigError, match="attacker_location"):
            load_config(_write(tmp_path, "c.txt", text))

    def test_allowed_types_parsing(self, tmp_path):
        text = CONFIG_MINIMAL + "allowed_types=XSS,Other\n"
        discovery, _ = load_config(_write(tmp_path, "c.txt", text))
        assert discovery.allowed_types == {VulnType.XSS, VulnType.OTHER}

    @pytest.mark.parametrize("text", [
        CONFIG_MINIMAL, "# comment first\n" + CONFIG_MINIMAL,
        (DEMO_DIR / "config.txt").read_text(encoding="utf-8"),
    ], ids=["key-first", "comment-first", "demo"])
    def test_byte_order_mark_ignored(self, tmp_path, text):
        plain = load_config(_write(tmp_path, "plain.txt", text))
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(bom) == plain

    @pytest.mark.parametrize("value, expected", [
        ("XSS,", {VulnType.XSS}),
        (" XSS , ,Other ", {VulnType.XSS, VulnType.OTHER}),
    ], ids=["trailing-comma", "spaces-and-empty"])
    def test_allowed_types_drop_empty_tokens(self, tmp_path, value, expected):
        text = CONFIG_MINIMAL + f"allowed_types={value}\n"
        discovery, _ = load_config(_write(tmp_path, "c.txt", text))
        assert discovery.allowed_types == expected

    def test_entry_points_drop_empty_tokens(self, tmp_path):
        text = CONFIG_MINIMAL.replace("entry_points=A1,A2", "entry_points=A1, ,")
        discovery, _ = load_config(_write(tmp_path, "c.txt", text))
        assert discovery.entry_points == {"A1"}

    @pytest.mark.parametrize("value", ["", " , ,"], ids=["blank", "commas"])
    def test_empty_allowed_types_rejected(self, tmp_path, value):
        path = _write(tmp_path, "c.txt", CONFIG_MINIMAL + f"allowed_types={value}\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: allowed_types must not be empty"

    def test_bad_allowed_type(self, tmp_path):
        text = CONFIG_MINIMAL + "allowed_types=XSS,Nope\n"
        with pytest.raises(ConfigError, match="Nope"):
            load_config(_write(tmp_path, "c.txt", text))


class TestBundleAndRoundTrip:
    def test_demo_bundle_loads(self):
        bundle = load_bundle(
            DEMO_DIR / "assets.csv",
            DEMO_DIR / "vulns.csv",
            DEMO_DIR / "edges.csv",
            DEMO_DIR / "config.txt",
        )
        assert bundle.graph == office_graph()

    def test_bundle_rejects_unknown_entry_point(self, tmp_path):
        # the bundle loads; discover owns the check that configured ids are assets
        config = CONFIG_MINIMAL.replace("entry_points=A1,A2", "entry_points=A1,ZZ")
        path = _write(tmp_path, "c.txt", config)
        bundle = load_bundle(
            DEMO_DIR / "assets.csv",
            DEMO_DIR / "vulns.csv",
            DEMO_DIR / "edges.csv",
            path,
        )
        assert bundle.discovery.entry_points == {"A1", "ZZ"}
        with pytest.raises(ValueError) as exc:
            discover(bundle.graph, bundle.discovery)
        assert str(exc.value) == "entry_points reference unknown assets: ZZ"

    def test_ingestion_deterministic(self):
        paths = (DEMO_DIR / "assets.csv", DEMO_DIR / "vulns.csv", DEMO_DIR / "edges.csv")
        assert load_model(*paths) == load_model(*paths)

    @pytest.mark.parametrize("seed", [1, 7, 99])
    def test_round_trip_random_models(self, tmp_path, seed):
        graph = generate(SynthSpec(4, 9, 0.3, 3, seed))
        self._assert_round_trips(tmp_path, graph)

    def test_round_trip_at_benchmark_scale(self, tmp_path):
        graph = generate(SynthSpec(1000, 4000, 0.01, 3, 1))
        self._assert_round_trips(tmp_path, graph)
        # a saved file is in the graph's order, and the loaders keep it
        loaded = load_vulnerabilities(tmp_path / "v.csv", graph.assets)
        assert tuple(loaded) == graph.vulnerabilities

    def test_round_trip_office_model(self, tmp_path):
        self._assert_round_trips(tmp_path, office_graph())

    def test_round_trip_quotes_awkward_names(self, tmp_path):
        graph = AssetGraph(
            [Asset("A1", "PCS node, rack 3", AssetKind.HARDWARE)]
        )
        self._assert_round_trips(tmp_path, graph)

    def test_round_trip_carriage_return_in_name(self, tmp_path):
        # csv.writer quotes "\n" (its line terminator) but not a bare "\r"
        graph = AssetGraph([Asset("A1", "rack\r3", AssetKind.HARDWARE)])
        self._assert_round_trips(tmp_path, graph)

    @pytest.mark.parametrize("score", [np.float64(5.0), True], ids=["float64", "bool"])
    def test_round_trip_non_float_score(self, tmp_path, score):
        # validate_model accepts any real score; the saver writes it as a float
        graph = AssetGraph(
            [Asset("A1", "pc", AssetKind.HARDWARE)],
            [VulnerabilityInstance("CVE-1", "A1", score, None, VulnType.XSS, 1, 1)],
        )
        assert validate_model(graph) == []
        self._assert_round_trips(tmp_path, graph)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_round_trip_allowed_ids(self, data):
        ids = data.draw(st.lists(ALLOWED_IDS, min_size=1, max_size=6, unique=True))
        hardware = [i for i in ids if data.draw(st.booleans())]
        assets = [
            Asset(i, data.draw(STRIPPED_TEXT), AssetKind.HARDWARE) for i in hardware
        ] + [
            Asset(i, data.draw(STRIPPED_TEXT), AssetKind.SOFTWARE,
                  data.draw(st.sampled_from(hardware)) if hardware else None)
            for i in ids if i not in hardware
        ]
        vulns = [
            VulnerabilityInstance(
                cve_id=data.draw(ALLOWED_IDS),
                asset=data.draw(st.sampled_from(ids)),
                score=data.draw(st.floats(0.0, 10.0)),
                cwe_id=data.draw(st.none() | ALLOWED_IDS),
                vuln_type=data.draw(st.sampled_from(VulnType)),
                required_location=data.draw(st.integers(1, 3)),
                required_capability=data.draw(st.integers(1, 3)),
            )
            for _ in range(data.draw(st.integers(0, 6)))
        ]
        pairs = [(a, b) for a in ids for b in ids if a != b]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_round_trips(Path(tmp), AssetGraph(assets, vulns, edges))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.just("") | STRIPPED_TEXT, min_size=2, max_size=5, unique=True))
    def test_validated_ids_survive_every_writer(self, ids):
        # a chain over ids, each asset exploitable, so every id lands on a path
        graph = AssetGraph(
            [Asset(i, "x", AssetKind.HARDWARE) for i in ids],
            [VulnerabilityInstance("CVE-1", i, 5.0, None, VulnType.XSS, 1, 1) for i in ids],
            pairwise(ids),
        )
        violations = validate_model(graph)
        # each id the ingest rule rejects is flagged once, and nothing else is
        assert len(violations) == sum(not is_allowed_id(i) for i in ids)
        if violations:
            return
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_round_trips(Path(tmp), graph)
        result = discover(graph, DiscoveryConfig({ids[0]}, ids[1:], AttackerProfile(3, 3), 4))
        assert len(result.paths) == len(ids) - 1
        rows = format_discovery_report(result).splitlines()[6:]
        assert [row.split(",") for row in rows] == [
            [p.entry, p.target, str(p.n_edges), "->".join(p)] for p in result.paths]

    @staticmethod
    def _assert_round_trips(tmp_path, graph: AssetGraph):
        a, v, e = tmp_path / "a.csv", tmp_path / "v.csv", tmp_path / "e.csv"
        save_assets(a, graph.assets)
        save_vulnerabilities(v, graph.vulnerabilities)
        save_edges(e, graph.edges)
        assert load_model(a, v, e) == graph


#: a few tokens per column, each accepted or rejected by its loader, so that
#: drawn files load or fail at some line
_COLUMN_TOKENS = {
    "assets": [["A1", "A2", "S1", "", "A->B", "A\\1"], ["pc", "rack 3", ""],
               ["hardware", "software", "firmware"], ["", "A1", "S1", "Z"]],
    "vulns": [["C1", "C2"], ["A1", "S1", "Z"], ["5", "7.5", "11", "x"], ["", "CWE-1"],
              ["XSS", "Other", "Phish"], ["1", "3", "0", "01", "AV:N/AC:H"],
              ["1", "2", "", "4", "x"]],
    "edges": [["A1", "A2", "S1", "Z"]] * 2,
}
_HEADERS = {"assets": ASSET_HEADER, "vulns": VULN_HEADER, "edges": "src,dst\n"}
_KNOWN = [Asset("A1", "pc", HW), Asset("A2", "pc", HW), Asset("S1", "app", SW, "A1")]
_LOADERS = {"assets": load_assets,
            "vulns": lambda path: load_vulnerabilities(path, _KNOWN),
            "edges": lambda path: load_edges(path, _KNOWN)}
#: what str.strip removes, in and beyond ASCII (U+0085 and U+2028 end a line
#: for str.splitlines, not for the CSV reader)
_ASCII_PADS = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f"), min_size=1, max_size=3)
_UNICODE_PADS = st.text(st.sampled_from("\xa0\u2003\u3000\x85\u2028"), min_size=1, max_size=2)


@st.composite
def _table(draw, fmt):
    """The header and data rows of a file; now and then a row has a field
    too few or too many.  No row is one empty field, which is a blank line."""
    tokens = _COLUMN_TOKENS[fmt]
    n = len(tokens)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        width = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        rows.append([draw(st.sampled_from(tokens[i % n])) for i in range(width)])
    return [_HEADERS[fmt].rstrip("\n").split(",")] + rows


def _csv_text(table, pad="", quote=False, eol="\n", bom=False, blanks=(), last_eol=True):
    """table written with each field padded (inside its quotes), a blank line
    before each line number in blanks, and the line each table line lands on."""
    out, line_of = [], {}
    for no, row in enumerate(table, 1):
        if no in blanks:
            out.append("")
        line_of[no] = len(out) + 1
        out.append(",".join(f'"{pad}{f}{pad}"' if quote else f"{pad}{f}{pad}" for f in row))
    if len(table) + 1 in blanks:
        out.append("")
    return ("\ufeff" if bom else "") + eol.join(out) + (eol if last_eol else ""), line_of


def _outcome(loader, path):
    try:
        return list(loader(path))
    except IngestError as exc:
        return str(exc)


class TestPaddedFiles:
    """The strip is skipped for files that cannot need it; every other file
    gives the records, order and messages of its unpadded twin."""

    @pytest.mark.parametrize("fmt", _LOADERS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_padded_variants_load_like_the_plain_file(self, fmt, data):
        table = data.draw(_table(fmt))
        pad = data.draw(_ASCII_PADS)
        wide_pad = data.draw(_UNICODE_PADS)
        blanks = data.draw(st.sets(st.integers(2, len(table) + 1)))
        variants = {
            "padded": dict(pad=pad),
            "quoted": dict(quote=True),
            "padded-quoted": dict(pad=pad, quote=True),
            "crlf": dict(eol="\r\n"),
            "bom": dict(bom=True),
            "blank-lines": dict(blanks=blanks),
            "non-ascii": dict(pad=wide_pad),
            "all": dict(pad=pad + wide_pad, quote=True, eol="\r\n", bom=True, blanks=blanks,
                        last_eol=False),
        }
        loader = _LOADERS[fmt]
        with tempfile.TemporaryDirectory() as tmp:
            plain = Path(tmp) / "plain.csv"
            text, _ = _csv_text(table)
            plain.write_text(text, encoding="utf-8", newline="")
            with open(plain, newline="", encoding="utf-8-sig") as fh:
                assert not _may_be_padded(fh)  # the plain file skips the strip
            expected = _outcome(loader, plain)
            for name, options in variants.items():
                path = Path(tmp) / f"{name}.csv"
                text, line_of = _csv_text(table, **options)
                path.write_text(text, encoding="utf-8", newline="")
                got = _outcome(loader, path)
                if isinstance(expected, str):
                    # the same message at the variant's own file and line
                    line, _, message = expected.removeprefix(f"{plain}:").partition(":")
                    assert got == f"{path}:{line_of[int(line)]}:{message}", name
                else:
                    assert got == expected, name

    def test_saved_and_shipped_files_skip_the_strip(self, tmp_path):
        graph = generate(SynthSpec(20, 60, 0.2, 3, 5))
        save_assets(tmp_path / "a.csv", graph.assets)
        save_vulnerabilities(tmp_path / "v.csv", graph.vulnerabilities)
        save_edges(tmp_path / "e.csv", graph.edges)
        paths = [tmp_path / f for f in ("a.csv", "v.csv", "e.csv")]
        paths += [DEMO_DIR / f for f in ("assets.csv", "vulns.csv", "edges.csv")]
        for path in paths:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                assert not _may_be_padded(fh), path

    @pytest.mark.parametrize("text", [
        "a, b\n", "a ,b\n", " a,b\n", "a,b \n", "a,b\t", "\x1fa,b\n", 'a,"b"\n', "a,b\r\n",
        "a,\xe9\n",
    ])
    def test_any_field_edge_whitespace_or_quote_takes_the_strip(self, tmp_path, text):
        path = _write(tmp_path, "f.csv", "x,y\n" + text)
        with open(path, newline="", encoding="utf-8-sig") as fh:
            assert _may_be_padded(fh)

    def test_padding_at_a_chunk_edge_is_stripped(self, tmp_path):
        # the file is checked in chunks of 2**16 characters; the first ends
        # at the comma before " pc", so the pad starts the second
        head = ASSET_HEADER + "A0,"
        filler = "x" * ((1 << 16) - len(head) - len(",hardware,\nA1,"))
        path = _write(tmp_path, "a.csv", head + filler + ",hardware,\nA1, pc,hardware,\n")
        assert path.read_text(encoding="utf-8")[(1 << 16) - 1:(1 << 16) + 1] == ", "
        assert [a.name for a in load_assets(path)] == [filler, "pc"]

    def test_a_pipe_is_read_once_and_stripped(self, tmp_path):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
            fh.write(ASSET_HEADER + " A1 , pc ,hardware,\n")
        try:
            assert list(load_assets(f"/dev/fd/{read_fd}")) == [Asset("A1", "pc", HW)]
        finally:
            os.close(read_fd)


def _pad_copy(src: Path, dest: Path) -> Path:
    """src with a space around every field, which sends it through the strip."""
    lines = src.read_text(encoding="utf-8").splitlines()
    dest.write_text("".join(",".join(f" {f} " for f in line.split(",")) + "\n"
                            for line in lines), encoding="utf-8")
    return dest


def _assert_one_object_per_value(graph: AssetGraph, vulns_path: Path) -> None:
    own = {a.id: a.id for a in graph.assets}
    assert all(a.host is own[a.host] for a in graph.assets if a.host is not None)
    assert all(v.asset is own[v.asset] for v in graph.vulnerabilities)
    assert all(s is own[s] and d is own[d] for s, d in graph.edges)
    for field in ("cve_id", "cwe_id"):
        values = [getattr(v, field) for v in graph.vulnerabilities]
        assert len({id(x) for x in values}) == len(set(values)), field
    with open(vulns_path, newline="", encoding="utf-8") as fh:
        score_texts = {row[2].strip() for row in list(csv.reader(fh))[1:]}
    assert len({id(v.score) for v in graph.vulnerabilities}) == len(score_texts)


class TestSharedValues:
    """The loaders give each distinct id, CVE, CWE and score text one object."""

    def _check(self, tmp_path, a, v, e):
        graph = load_model(a, v, e)
        _assert_one_object_per_value(graph, v)
        padded = [_pad_copy(p, tmp_path / f"padded-{p.name}") for p in (a, v, e)]
        for p in padded:
            with open(p, newline="", encoding="utf-8-sig") as fh:
                assert _may_be_padded(fh)
        padded_graph = load_model(*padded)
        assert padded_graph == graph
        _assert_one_object_per_value(padded_graph, padded[1])

    def test_demo_files(self, tmp_path):
        self._check(tmp_path, *(DEMO_DIR / f for f in ("assets.csv", "vulns.csv", "edges.csv")))

    def test_saved_generated_files(self, tmp_path):
        graph = generate(SynthSpec(300, 1500, 0.01, 3, 1))
        a, v, e = tmp_path / "a.csv", tmp_path / "v.csv", tmp_path / "e.csv"
        save_assets(a, graph.assets)
        save_vulnerabilities(v, graph.vulnerabilities)
        save_edges(e, graph.edges)
        self._check(tmp_path, a, v, e)

    def test_a_host_on_a_later_line_is_that_asset_id(self, tmp_path):
        path = _write(tmp_path, "a.csv", ASSET_HEADER + "S1,app,software,H1\nH1,pc,hardware,\n")
        app, pc = load_assets(path)
        assert app.host is pc.id

    def test_two_nan_rows_stay_two_records(self, tmp_path, base_assets):
        # NaN equals nothing, so each row keeps its own: one shared NaN would
        # merge the rows and report the second line
        row = "CVE-1,A1,nan,CWE-1,XSS,1,1\n"
        path = _write(tmp_path, "v.csv", VULN_HEADER + row + row)
        with pytest.raises(IngestError) as exc:
            load_vulnerabilities(path, base_assets)
        assert str(exc.value) == (
            f"{path}:2: vulnerability CVE-1 on A1 has score nan outside [0, 10]")
