import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from attackcf.bench import SynthSpec, generate
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
)
from attackcf.model import Asset, AssetGraph, AssetKind, VulnType, VulnerabilityInstance

from conftest import ALLOWED_IDS, DEMO_DIR, STRIPPED_TEXT, office_graph

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

    def test_bad_kind(self, tmp_path):
        path = _write(tmp_path, "a.csv", ASSET_HEADER + "A1,x,firmware,\n")
        with pytest.raises(IngestError, match="hardware"):
            load_assets(path)


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
        with pytest.raises(IngestError, match="range"):
            load_vulnerabilities(path, base_assets)

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
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(_write(tmp_path, "c.txt", CONFIG_MINIMAL + "x1=5\nx1=6\n"))

    def test_missing_required_key(self, tmp_path):
        text = CONFIG_MINIMAL.replace("attacker_location=3\n", "")
        with pytest.raises(ConfigError, match="attacker_location"):
            load_config(_write(tmp_path, "c.txt", text))

    def test_allowed_types_parsing(self, tmp_path):
        text = CONFIG_MINIMAL + "allowed_types=XSS,Other\n"
        discovery, _ = load_config(_write(tmp_path, "c.txt", text))
        assert discovery.allowed_types == {VulnType.XSS, VulnType.OTHER}

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
        config = CONFIG_MINIMAL.replace("entry_points=A1,A2", "entry_points=A1,ZZ")
        path = _write(tmp_path, "c.txt", config)
        with pytest.raises(ConfigError, match="ZZ"):
            load_bundle(
                DEMO_DIR / "assets.csv",
                DEMO_DIR / "vulns.csv",
                DEMO_DIR / "edges.csv",
                path,
            )

    def test_ingestion_deterministic(self):
        paths = (DEMO_DIR / "assets.csv", DEMO_DIR / "vulns.csv", DEMO_DIR / "edges.csv")
        assert load_model(*paths) == load_model(*paths)

    @pytest.mark.parametrize("seed", [1, 7, 99])
    def test_round_trip_random_models(self, tmp_path, seed):
        graph = generate(SynthSpec(4, 9, 0.3, 3, seed))
        self._assert_round_trips(tmp_path, graph)

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

    @staticmethod
    def _assert_round_trips(tmp_path, graph: AssetGraph):
        a, v, e = tmp_path / "a.csv", tmp_path / "v.csv", tmp_path / "e.csv"
        save_assets(a, graph.assets)
        save_vulnerabilities(v, graph.vulnerabilities)
        save_edges(e, graph.edges)
        assert load_model(a, v, e) == graph
