import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from attackcf.bench import SynthSpec, generate
from attackcf.ingest import (
    load_assets,
    load_edges,
    load_vulnerabilities,
    save_assets,
    save_edges,
    save_vulnerabilities,
)
from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackPath,
    AttackerProfile,
    Classification,
    DiscoveryConfig,
    Prediction,
    PredictionConfig,
    VulnType,
    VulnerabilityInstance,
    validate_model,
)

from conftest import office_graph


def _vuln(cve="CVE-1", asset="A1", score=5.0, cwe="CWE-1",
          vtype=VulnType.CODE_EXECUTION, loc=1, cap=1):
    return VulnerabilityInstance(
        cve_id=cve, asset=asset, score=score, cwe_id=cwe,
        vuln_type=vtype, required_location=loc, required_capability=cap,
    )


class TestValidateModel:
    def test_edge_to_unknown_asset(self):
        graph = AssetGraph(
            assets=[Asset("A1", "a", AssetKind.HARDWARE)],
            edges={("A1", "X9")},
        )
        assert validate_model(graph) == ["edge references missing asset X9"]

    def test_edge_to_a_none_end_beside_a_str_end(self):
        # None does not order against a str: the edges' keyed sort must decide
        assets = [Asset("A", "a", AssetKind.HARDWARE), Asset("B", "b", AssetKind.HARDWARE)]
        for edges in ([("A", None), ("A", "B")], [("A", "B"), ("A", None)]):
            graph = AssetGraph(assets, [], edges)
            assert graph.edges == (("A", None), ("A", "B"))
            assert validate_model(graph) == ["edge references missing asset None"]

    def test_reads_only_the_records_and_caches_nothing(self):
        # H's first asset, by the graph's sort, is software: the host rule
        # reads that one, whatever kind a later repeat has
        graph = AssetGraph(
            assets=[Asset("H", "b", AssetKind.HARDWARE), Asset("H", "a", AssetKind.SOFTWARE),
                    Asset("S", "s", AssetKind.SOFTWARE, "H")],
            edges={("H", "X9")},
        )
        before = dict(vars(graph))
        assert validate_model(graph) == [
            "duplicate asset id H",
            "asset S hosted on non-hardware asset H",
            "edge references missing asset X9",
        ]
        assert vars(graph) == before

    def test_office_model_is_clean(self):
        assert validate_model(office_graph()) == []

    def test_score_out_of_range_names_the_cve(self):
        graph = AssetGraph(
            assets=[Asset("A1", "a", AssetKind.HARDWARE)],
            vulnerabilities=[_vuln(cve="CVE-2099-0001", score=11.0)],
        )
        violations = validate_model(graph)
        assert len(violations) == 1
        assert "CVE-2099-0001" in violations[0]
        assert "11.0" in violations[0]

    def test_duplicate_asset_id(self):
        graph = AssetGraph(
            assets=[
                Asset("A1", "first", AssetKind.HARDWARE),
                Asset("A1", "second", AssetKind.HARDWARE),
            ]
        )
        assert validate_model(graph) == ["duplicate asset id A1"]

    def test_host_must_exist_and_be_hardware(self):
        missing = AssetGraph(
            assets=[Asset("S1", "app", AssetKind.SOFTWARE, host="H9")]
        )
        assert validate_model(missing) == ["asset S1 hosted on missing asset H9"]

        soft_host = AssetGraph(
            assets=[
                Asset("S1", "app", AssetKind.SOFTWARE, host="S2"),
                Asset("S2", "lib", AssetKind.SOFTWARE),
            ]
        )
        assert validate_model(soft_host) == ["asset S1 hosted on non-hardware asset S2"]

    def test_requirement_ranges(self):
        graph = AssetGraph(
            assets=[Asset("A1", "a", AssetKind.HARDWARE)],
            vulnerabilities=[_vuln(loc=0), _vuln(cve="CVE-2", cap=4)],
        )
        violations = validate_model(graph)
        assert len(violations) == 2
        assert any("required_location" in v for v in violations)
        assert any("required_capability" in v for v in violations)

    def test_duplicate_cve_on_asset(self):
        graph = AssetGraph(
            assets=[Asset("A1", "a", AssetKind.HARDWARE)],
            vulnerabilities=[_vuln(score=5.0), _vuln(score=6.0)],
        )
        assert validate_model(graph) == ["duplicate vulnerability instance CVE-1 on A1"]

    def test_self_loop_edge(self):
        graph = AssetGraph(
            assets=[Asset("A1", "a", AssetKind.HARDWARE)], edges={("A1", "A1")}
        )
        assert validate_model(graph) == ["self-loop edge on asset A1"]

    def test_vuln_on_unknown_asset(self):
        graph = AssetGraph(assets=[Asset("A1", "a", AssetKind.HARDWARE)],
                           vulnerabilities=[_vuln(asset="ZZ")])
        assert validate_model(graph) == [
            "vulnerability CVE-1 references missing asset ZZ"
        ]

    def test_each_repeat_of_an_asset_id_is_reported(self):
        graph = AssetGraph(
            assets=[Asset("A1", name, AssetKind.HARDWARE) for name in "abc"]
            + [Asset("A0", "x", AssetKind.HARDWARE), Asset("A2", "y", AssetKind.HARDWARE)]
        )
        assert validate_model(graph) == ["duplicate asset id A1"] * 2

    def test_each_repeat_of_a_vulnerability_instance_is_reported(self):
        # CVE-1 on A2 sorts next to A1's copies but is no duplicate
        graph = AssetGraph(
            assets=[Asset(a, a, AssetKind.HARDWARE) for a in ("A1", "A2")],
            vulnerabilities=[_vuln(score=s) for s in (1.0, 2.0, 3.0)]
            + [_vuln(cve="CVE-0"), _vuln(asset="A2"), _vuln(cve="CVE-2")],
        )
        assert validate_model(graph) == ["duplicate vulnerability instance CVE-1 on A1"] * 2

    def test_conflicting_duplicate_follows_every_per_record_fault(self):
        # CVE-1's records sort before CVE-2's, yet its conflict is listed last
        graph = AssetGraph(
            assets=[Asset("A1", "a", AssetKind.HARDWARE)],
            vulnerabilities=[_vuln(score=5.0), _vuln(score=6.0), _vuln(cve="CVE-2", score=11.0)],
        )
        assert validate_model(graph) == [
            "vulnerability CVE-2 on A1 has score 11.0 outside [0, 10]",
            "duplicate vulnerability instance CVE-1 on A1",
        ]

    def test_kind_and_vuln_type_must_be_enum_members(self):
        # only a graph built in code can hold the enums' text; the loaders
        # map both fields through their token tables
        graph = AssetGraph(
            assets=[Asset("A1", "a", "hardware")],
            vulnerabilities=[_vuln(vtype="XSS")],
        )
        assert validate_model(graph) == [
            "asset A1 has kind 'hardware', not an AssetKind member",
            "vulnerability CVE-1 on A1 has vuln_type 'XSS', not a VulnType member",
        ]

    def test_enum_member_rules_follow_each_record_other_faults(self):
        graph = AssetGraph(
            assets=[Asset("", "a", "software", host="H9")],
            vulnerabilities=[_vuln(asset="", score=11.0, cap=4, vtype="XSS")],
        )
        assert validate_model(graph) == [
            "empty asset id",
            "asset  hosted on missing asset H9",
            "asset  has kind 'software', not an AssetKind member",
            "vulnerability CVE-1 on  has score 11.0 outside [0, 10]",
            "vulnerability CVE-1 on  has required_capability 4 outside {1,2,3}",
            "vulnerability CVE-1 on  has vuln_type 'XSS', not a VulnType member",
        ]

    def test_kind_text_beside_its_member_builds(self):
        # the records tie up to kind, so the plain sort raises and _sort_key
        # decides: it must not read _value_ off the text
        text, member = Asset("A1", "a", "hardware"), Asset("A1", "a", AssetKind.HARDWARE)
        graph = AssetGraph([text, member])
        assert graph == AssetGraph([member, text])
        assert graph.assets == (text, member)
        assert validate_model(graph) == [
            "duplicate asset id A1",
            "asset A1 has kind 'hardware', not an AssetKind member",
        ]

    def test_vuln_type_text_beside_its_member_builds(self):
        text, member = _vuln(vtype="XSS"), _vuln(vtype=VulnType.XSS)
        graph = AssetGraph([Asset("A1", "a", AssetKind.HARDWARE)], [text, member])
        assert graph == AssetGraph(graph.assets, [member, text])
        assert graph.vulnerabilities == (text, member)
        assert validate_model(graph) == [
            "vulnerability CVE-1 on A1 has vuln_type 'XSS', not a VulnType member",
            "duplicate vulnerability instance CVE-1 on A1",
        ]

    def test_every_rule_broken_once_in_order(self):
        graph = AssetGraph(
            assets=[
                Asset("A1", "first", AssetKind.HARDWARE),
                Asset("A1", "second", AssetKind.HARDWARE),
                Asset("S1", "app", AssetKind.SOFTWARE, host="H9"),
                Asset("S2", "lib", AssetKind.SOFTWARE, host="S3"),
                Asset("S3", "os", AssetKind.SOFTWARE),
            ],
            vulnerabilities=[
                _vuln(cve="CVE-1", asset="ZZ"),
                _vuln(cve="CVE-2", score=11.0),
                _vuln(cve="CVE-3", loc=0),
                _vuln(cve="CVE-4", cap=4),
                _vuln(cve="CVE-5", score=5.0),
                _vuln(cve="CVE-5", score=6.0),
            ],
            edges=[("S3", "S3"), ("A1", "X9")],
        )
        assert validate_model(graph) == [
            "duplicate asset id A1",
            "asset S1 hosted on missing asset H9",
            "asset S2 hosted on non-hardware asset S3",
            "vulnerability CVE-1 references missing asset ZZ",
            "vulnerability CVE-2 on A1 has score 11.0 outside [0, 10]",
            "vulnerability CVE-3 on A1 has required_location 0 outside {1,2,3}",
            "vulnerability CVE-4 on A1 has required_capability 4 outside {1,2,3}",
            "duplicate vulnerability instance CVE-5 on A1",
            "edge references missing asset X9",
            "self-loop edge on asset S3",
        ]


class TestAssetGraph:
    def test_construction_order_independent(self):
        a = Asset("A1", "a", AssetKind.HARDWARE)
        b = Asset("A2", "b", AssetKind.HARDWARE)
        v = _vuln()
        g1 = AssetGraph([a, b], [v], {("A1", "A2")})
        g2 = AssetGraph([b, a], [v], [("A1", "A2"), ("A1", "A2")])
        assert g1 == g2

    def test_same_key_but_for_missing_cwe_sorts_without_error(self):
        # None does not order against a str; _sort_key must keep it out of the comparison
        bare, empty, typed = _vuln(cwe=None), _vuln(cwe=""), _vuln(cwe="CWE-1")
        for order in itertools.permutations([bare, empty, typed]):
            graph = AssetGraph([Asset("A1", "a", AssetKind.HARDWARE)], order)
            assert graph.vulnerabilities == (bare, empty, typed)
        hosts = [Asset("S1", "app", AssetKind.SOFTWARE, host) for host in (None, "", "H1")]
        for order in itertools.permutations(hosts):
            assert AssetGraph(order).assets == tuple(hosts)

    @pytest.mark.parametrize("seed", range(12))
    def test_any_input_order_gives_the_file_order_graph(self, tmp_path, seed):
        rng = random.Random(seed)
        generated = generate(SynthSpec(8, 30, 0.15, 3, seed))
        # records that differ only in cwe_id or score sort by those fields
        vulns = list(generated.vulnerabilities)
        vulns += [v._replace(cwe_id=None) for v in rng.sample(vulns, 10)]
        vulns += [v._replace(score=10.0 - v.score) for v in rng.sample(vulns, 10)]
        files = tmp_path / "a.csv", tmp_path / "v.csv", tmp_path / "e.csv"
        save_assets(files[0], generated.assets)
        save_vulnerabilities(files[1], vulns)
        save_edges(files[2], generated.edges)
        assets = load_assets(files[0])
        from_files = AssetGraph(assets, load_vulnerabilities(files[1], assets),
                                load_edges(files[2], assets))

        def shuffled(records):
            out = list(records) + rng.sample(list(records), len(records) // 4)
            rng.shuffle(out)
            return out

        for wrap in (list, set, lambda xs: dict.fromkeys(xs).keys()):
            graph = AssetGraph(wrap(shuffled(from_files.assets)),
                               wrap(shuffled(from_files.vulnerabilities)),
                               wrap(shuffled(from_files.edges)))
            assert graph == from_files
            assert graph.vulnerabilities == tuple(
                sorted(set(vulns), key=VulnerabilityInstance._sort_key))

    @settings(max_examples=300, deadline=None)
    @given(
        assets=st.lists(st.builds(Asset, st.sampled_from(["A1", "A2"]), st.sampled_from("ab"),
                                  st.sampled_from(list(AssetKind)),
                                  st.sampled_from([None, "", "H1", "H2"])),
                        max_size=8),
        vulns=st.lists(st.builds(VulnerabilityInstance, st.sampled_from(["C1", "C2"]),
                                 st.sampled_from(["A1", "A2"]), st.sampled_from([0.0, 5.0, 7.5]),
                                 st.sampled_from([None, "", "CWE-1", "CWE-2"]),
                                 st.sampled_from(list(VulnType)), st.sampled_from([1, 2]),
                                 st.sampled_from([1, 3])),
                       max_size=12),
    )
    def test_records_sort_by_the_sort_key(self, assets, vulns):
        # repeated ids and fields, None against "" and unequal enum members
        # make the plain tuple sort raise, so the keyed sort must decide
        graph = AssetGraph(assets, vulns)
        assert graph.assets == tuple(sorted(dict.fromkeys(assets), key=Asset._sort_key))
        assert graph.vulnerabilities == tuple(
            sorted(dict.fromkeys(vulns), key=VulnerabilityInstance._sort_key))

    def test_adjacency_rows_sorted(self):
        g = AssetGraph(
            assets=[Asset(x, x, AssetKind.HARDWARE) for x in ("A3", "A1", "A2")],
            edges={("A1", "A3"), ("A1", "A2")},
        )
        adj = g.adjacency
        assert adj.ids == ("A1", "A2", "A3")
        assert adj.index == {"A1": 0, "A2": 1, "A3": 2}
        # the kernels index plain lists of int, never numpy scalars
        for rows in (adj.succ, adj.pred):
            assert type(rows) is list
            for r in rows:
                assert type(r) is list
                assert all(type(x) is int for x in r)

        def row(aid):
            return tuple(adj.ids[j] for j in adj.succ[adj.index[aid]])

        def predecessors(aid):
            return tuple(adj.ids[j] for j in adj.pred[adj.index[aid]])

        assert row("A1") == ("A2", "A3")
        assert row("A3") == ()
        assert predecessors("A3") == ("A1",)
        assert predecessors("A1") == ()
        assert g.adjacency is adj

    @settings(max_examples=80, deadline=None)
    @given(
        assets=st.lists(st.builds(lambda aid, name: Asset(aid, name, AssetKind.HARDWARE),
                                  st.sampled_from("ABCD"), st.sampled_from("xy")),
                        max_size=6),
        vulns=st.lists(st.builds(lambda cve, aid, score: _vuln(cve=cve, asset=aid, score=score),
                                 st.sampled_from(["C1", "C2", "C3"]), st.sampled_from("ABCDEF"),
                                 st.sampled_from([1.0, 5.0])),
                       max_size=12),
    )
    def test_vulns_row_lists_each_assets_records_in_graph_order(self, assets, vulns):
        # repeated ids, records on ids that are not assets (E and F are
        # never drawn as assets) and assets without records
        graph = AssetGraph(assets, vulns)
        adj = graph.adjacency
        assert adj.ids == tuple(sorted({a.id for a in assets}))
        assert len(adj.vulns) == len(adj.ids)
        for x in adj.ids:
            assert adj.vulns[adj.index[x]] == [v for v in graph.vulnerabilities if v.asset == x]

    def test_reverse_adjacency_is_the_transpose(self):
        rng = random.Random(3)
        ids = [f"N{i}" for i in range(8)]
        edges = {(u, v) for u in ids for v in ids if u != v and rng.random() < 0.3}
        adj = AssetGraph([Asset(x, x, AssetKind.HARDWARE) for x in ids], edges=edges).adjacency
        for v in ids:
            preds = [adj.ids[j] for j in adj.pred[adj.index[v]]]
            assert preds == sorted(u for u, w in edges if w == v)


class TestRecords:
    """Asset and VulnerabilityInstance are NamedTuples."""

    def test_equal_to_a_plain_tuple_of_the_fields(self):
        asset = Asset("S1", "app", AssetKind.SOFTWARE, "H1")
        assert asset == ("S1", "app", AssetKind.SOFTWARE, "H1")
        assert hash(asset) == hash(("S1", "app", AssetKind.SOFTWARE, "H1"))
        assert Asset("A1", "a", AssetKind.HARDWARE) == ("A1", "a", AssetKind.HARDWARE, None)
        assert _vuln() == ("CVE-1", "A1", 5.0, "CWE-1", VulnType.CODE_EXECUTION, 1, 1)

    @pytest.mark.parametrize("record, field", [
        (Asset("A1", "a", AssetKind.HARDWARE), "host"),
        (_vuln(), "score"),
    ])
    def test_assignment_raises_attribute_error(self, record, field):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_replace_gives_a_changed_copy(self):
        v = _vuln()
        changed = v._replace(score=9.0, cwe_id=None)
        assert (changed.score, changed.cwe_id, v.score) == (9.0, None, 5.0)
        assert changed._replace(score=5.0, cwe_id="CWE-1") == v
        with pytest.raises(TypeError):
            dataclasses.replace(v, score=9.0)

    def test_unpack_and_len(self):
        aid, name, kind, host = Asset("A1", "a", AssetKind.HARDWARE)
        assert (aid, name, kind, host) == ("A1", "a", AssetKind.HARDWARE, None)
        assert len(Asset("A1", "a", AssetKind.HARDWARE)) == 4
        cve, asset, score, cwe, vtype, loc, cap = _vuln(cap=3)
        assert (cve, score, cap) == ("CVE-1", 5.0, 3)
        assert len(_vuln()) == 7

    def test_sort_key_reads_the_enum_value(self):
        v = _vuln(cwe=None, vtype=VulnType.XSS, loc=2, cap=3)
        assert v._sort_key() == ("CVE-1", "A1", 5.0, "", "XSS", 2, 3, False)
        assert Asset("S1", "app", AssetKind.SOFTWARE)._sort_key() == (
            "S1", "app", "software", "", False)

    @pytest.mark.parametrize("enum", [AssetKind, VulnType])
    def test_enum_members_hash_by_identity(self, enum):
        # the C-level object hash; members are singletons, so equal means identical
        assert enum.__hash__ is object.__hash__
        for member in enum:
            for twin in (copy.deepcopy(member), pickle.loads(pickle.dumps(member)),
                         enum(member.value)):
                assert twin is member and hash(twin) == hash(member)
        assert len(set(enum) | set(enum)) == len(enum)


class TestClassification:
    def test_total_order(self):
        levels = list(Classification)
        for a, b in itertools.product(levels, levels):
            assert (a < b) + (a == b) + (a > b) == 1

    def test_expected_ranking(self):
        assert (
            Classification.VERY_HIGH
            > Classification.HIGH
            > Classification.MEDIUM
            > Classification.LOW
            > Classification.VERY_LOW
        )


class TestConfigInvariants:
    def test_attacker_profile_bounds(self):
        AttackerProfile(1, 3)
        with pytest.raises(ValueError):
            AttackerProfile(0, 1)
        with pytest.raises(ValueError):
            AttackerProfile(1, 4)

    def test_attacker_profile_rejects_bool(self):
        # True == 1, so a bool would pass the range check
        with pytest.raises(ValueError, match="location"):
            AttackerProfile(True, 1)
        with pytest.raises(ValueError, match="capability"):
            AttackerProfile(1, True)

    def test_discovery_config_rejects_empty_points(self):
        attacker = AttackerProfile(3, 3)
        with pytest.raises(ValueError):
            DiscoveryConfig((), {"A1"}, attacker, 1)
        with pytest.raises(ValueError):
            DiscoveryConfig({"A1"}, (), attacker, 1)

    @pytest.mark.parametrize("attacker", [None, (3, 3)], ids=["none", "tuple"])
    def test_discovery_config_rejects_non_profile_attacker(self, attacker):
        with pytest.raises(ValueError) as exc:
            DiscoveryConfig({"A1"}, {"A3"}, attacker, 3)
        assert str(exc.value) == f"attacker must be an AttackerProfile, got {attacker!r}"

    def test_discovery_config_rejects_empty_allowed_types(self):
        # an empty filter would leave every entry ineligible
        with pytest.raises(ValueError, match="^allowed_types must not be empty$"):
            DiscoveryConfig({"A1"}, {"A3"}, AttackerProfile(3, 3), 3, allowed_types=())

    @pytest.mark.parametrize("field, value", [
        ("entry_points", "A1"),
        ("target_points", "A3"),
        ("allowed_types", "XSS"),
        ("allowed_types", {VulnType.XSS, "Overflow"}),
        ("allowed_types", [None]),
        ("entry_points", ["A2", 1]),
        ("entry_points", [None]),
        ("entry_points", [b"A1"]),
        ("target_points", [1]),
        ("target_points", ["A2", None]),
        ("target_points", [b"A3"]),
    ], ids=["entry-str", "target-str", "types-str", "types-str-member", "types-none",
            "entry-int", "entry-none", "entry-bytes", "target-int", "target-none",
            "target-bytes"])
    def test_discovery_config_rejects_strings_and_foreign_types(self, field, value):
        args = {"entry_points": {"A1"}, "target_points": ["A3"],
                "attacker": AttackerProfile(3, 3), "propagation_length": 3}
        args[field] = value
        with pytest.raises(ValueError, match=field):
            DiscoveryConfig(**args)

    @pytest.mark.parametrize("field", ["entry_points", "target_points", "allowed_types"])
    @pytest.mark.parametrize("value", [[["A1"]], 5, None], ids=["nested-list", "int", "none"])
    def test_discovery_config_rejects_non_collections(self, field, value):
        # frozenset() raises TypeError for each of these
        args = {"entry_points": {"A1"}, "target_points": ["A3"],
                "attacker": AttackerProfile(3, 3), "propagation_length": 3}
        args[field] = value
        with pytest.raises(ValueError) as exc:
            DiscoveryConfig(**args)
        assert str(exc.value) == f"{field} must be a collection of hashable items, got {value!r}"

    def test_discovery_config_takes_any_iterable(self):
        config = DiscoveryConfig(("A1",), iter(["A3", "A4"]), AttackerProfile(3, 3), 3,
                                 [VulnType.XSS])
        assert config.entry_points == {"A1"}
        assert config.target_points == {"A3", "A4"}
        assert config.allowed_types == {VulnType.XSS}

    def test_discovery_config_rejects_bad_length(self):
        attacker = AttackerProfile(3, 3)
        with pytest.raises(ValueError):
            DiscoveryConfig({"A1"}, {"A2"}, attacker, 0)

    def test_discovery_config_rejects_bool_length(self):
        # bool is a subclass of int, so True would pass as a length of 1
        with pytest.raises(ValueError, match="propagation_length"):
            DiscoveryConfig({"A1"}, {"A2"}, AttackerProfile(3, 3), True)

    def test_prediction_config_must_descend(self):
        PredictionConfig(4, 2, 1, 0)
        for xs in [(2, 3, 1, 0), (4, 4, 1, 0), (3, 2, 1, -1)]:
            with pytest.raises(ValueError):
                PredictionConfig(*xs)

    def test_prediction_config_rejects_bool_thresholds(self):
        # descending as ints (4 > 2 > 1 > 0), rejected only for the bools
        with pytest.raises(ValueError, match="integers"):
            PredictionConfig(4, 2, True, False)


class TestAttackPath:
    def test_needs_two_distinct_nodes(self):
        with pytest.raises(ValueError):
            AttackPath(["A1"])
        with pytest.raises(ValueError):
            AttackPath(["A1", "A2", "A1"])

    def test_rejects_a_bare_string(self):
        # tuple("AB") would be the path A -> B
        with pytest.raises(ValueError, match="string 'AB'"):
            AttackPath("AB")

    def test_endpoints(self):
        p = AttackPath(["A1", "A2", "A3"])
        assert p.entry == "A1"
        assert p.target == "A3"
        assert p.n_edges == 2

    def test_is_the_tuple_of_its_nodes(self):
        p = AttackPath(iter(["A1", "A2", "A3"]))
        assert p.nodes is p
        assert p == ("A1", "A2", "A3")
        assert p < AttackPath(["A1", "A3"])
        assert repr(p) == "AttackPath(('A1', 'A2', 'A3'))"


def test_prediction_rejects_self_pair():
    with pytest.raises(ValueError):
        Prediction("A1", "A1", Classification.HIGH, 0.0, 1)


def test_prediction_fields_and_default():
    p = Prediction(src="A1", dst="A2", level=Classification.HIGH, similarity=0.5, co_rated=2)
    assert p._fields == ("src", "dst", "level", "similarity", "co_rated", "degenerate")
    assert (p.src, p.dst, p.level, p.similarity, p.co_rated, p.degenerate) == (
        "A1", "A2", Classification.HIGH, 0.5, 2, False)
    assert repr(p).startswith("Prediction(src='A1', dst='A2', ")


_PATH = AttackPath(["A1", "A2"])
_PREDICTION = Prediction("A1", "A2", Classification.HIGH, 0.5, 2)
#: the same records built past their checks, as _make and tuple.__new__ allow
_BAD_PATH = tuple.__new__(AttackPath, ("A1", "A1"))
_BAD_PREDICTION = Prediction._make(("A1", "A1", Classification.HIGH, 0.5, 2, False))


@pytest.mark.parametrize("value, field", [(_PATH, "nodes"), (_PREDICTION, "level")])
def test_result_types_are_slotted_and_frozen(value, field):
    # one instance per path or prediction: no per-instance __dict__
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("value", [_PATH, _PREDICTION], ids=["path", "prediction"])
def test_result_types_equal_and_hash_like_a_plain_tuple(value):
    plain = tuple(value)
    assert type(plain) is tuple
    assert value == plain and plain == value
    assert hash(value) == hash(plain)
    assert {plain: 1}[value] == 1


def _pickle_round_trip(protocol):
    return lambda value: pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("value, bad", [(_PATH, _BAD_PATH), (_PREDICTION, _BAD_PREDICTION)],
                         ids=["path", "prediction"])
@pytest.mark.parametrize("round_trip", [
    *(pytest.param(_pickle_round_trip(protocol), id=f"pickle-{protocol}")
      for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)),
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
])
def test_result_types_round_trip_through_their_check(value, bad, round_trip):
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value
    with pytest.raises(ValueError):
        round_trip(bad)


def test_prediction_replace_and_make_skip_the_check():
    # documented on Prediction: only calling the class checks src != dst
    assert _PREDICTION._replace(dst="A1") == _BAD_PREDICTION
    assert type(_BAD_PREDICTION) is Prediction
