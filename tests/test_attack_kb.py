"""STIX bundle parsing, usage-matrix construction and the action dataset."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from helpers import E2E_DIR, actor, attack_pattern, bundle, usage_bundle, uses
from oracles import dense_usage_oracle, dense_usage_to_dict

from ttpmine.attack_kb import (
    USAGE_FORMAT_VERSION,
    ActionDataset,
    UsageMatrix,
    EmptyCatalogError,
    StixParseError,
    build_action_dataset,
    catalog_from_dict,
    catalog_to_dict,
    parse_stix,
    usage_from_dict,
    usage_to_dict,
)
from ttpmine.pipeline import PipelineError, load_kb_usage, write_json


class TestParseStix:
    def test_basic_catalog_sorted_by_id(self):
        catalog, _ = parse_stix(
            bundle(
                attack_pattern("T1204", "User Execution"),
                attack_pattern("T1046", "Network Service Discovery"),
                collection_version="17.1",
            )
        )
        assert catalog.technique_ids == ("T1046", "T1204")
        assert catalog.get("T1204").name == "User Execution"
        assert catalog.version == "17.1"
        assert "T1046" in catalog and "T9999" not in catalog

    def test_version_unknown_without_collection_object(self):
        catalog, _ = parse_stix(bundle(attack_pattern("T1566", "Phishing")))
        assert catalog.version == "unknown"

    def test_subtechnique_folds_into_parent(self):
        group = actor("G0001")
        parent = attack_pattern("T1566", "Phishing")
        sub = attack_pattern("T1566.002", "Spearphishing Link")
        catalog, _ = parse_stix(
            bundle(
                parent,
                sub,
                group,
                uses(group, sub, "The group sent spearphishing links."),
                uses(group, parent, "The group sent malicious mail."),
            )
        )
        assert catalog.technique_ids == ("T1566",)
        record = catalog.get("T1566")
        assert record.name == "Phishing"
        assert "The group sent spearphishing links." in record.procedure_examples
        assert "The group sent malicious mail." in record.procedure_examples

    def test_orphan_subtechnique_names_parent_id(self):
        catalog, _ = parse_stix(bundle(attack_pattern("T1566.002", "Spearphishing Link")))
        assert catalog.technique_ids == ("T1566",)
        assert catalog.get("T1566").name == "Spearphishing Link"

    def test_revoked_and_deprecated_excluded(self):
        catalog, _ = parse_stix(
            bundle(
                attack_pattern("T1001", "Old", revoked=True),
                attack_pattern("T1002", "Older", deprecated=True),
                attack_pattern("T1003", "Current"),
            )
        )
        assert catalog.technique_ids == ("T1003",)

    def test_all_excluded_raises_empty(self):
        with pytest.raises(EmptyCatalogError):
            parse_stix(bundle(attack_pattern("T1001", "Old", revoked=True)))

    def test_no_patterns_raises_empty(self):
        with pytest.raises(EmptyCatalogError):
            parse_stix(bundle(actor("G0001")))

    def test_revoked_relationship_contributes_nothing(self):
        group = actor("G0001")
        tech = attack_pattern("T1566", "Phishing")
        catalog, _ = parse_stix(
            bundle(tech, group, uses(group, tech, "Stale text.", revoked=True))
        )
        assert catalog.get("T1566").procedure_examples == ()

    def test_descriptions_split_into_sentences(self):
        group = actor("G0001")
        tech = attack_pattern("T1566", "Phishing")
        catalog, _ = parse_stix(
            bundle(tech, group, uses(group, tech, "First act. Second act."))
        )
        assert catalog.get("T1566").procedure_examples == (
            "First act.",
            "Second act.",
        )

    def test_non_actor_relationship_ignored(self):
        tech_a = attack_pattern("T1566", "Phishing")
        tech_b = attack_pattern("T1204", "User Execution")
        catalog, _ = parse_stix(
            bundle(tech_a, tech_b, uses(tech_a, tech_b, "Not an actor source."))
        )
        assert catalog.get("T1204").procedure_examples == ()

    def test_examples_and_usage_filter_one_walk_apart(self):
        # A procedure example needs only an actor-kind source id; a usage
        # cell also needs that actor in the bundle and not excluded. The
        # relationships come before the objects they name, and the first
        # collection object gives the version.
        tech = attack_pattern("T1566", "Phishing")
        group, absent, revoked = actor("G0001"), actor("G0002"), actor("G0003")
        revoked["revoked"] = True
        data = bundle(
            uses(group, tech, "Used by a listed actor."),
            uses(absent, tech, "Used by an absent actor."),
            uses(revoked, tech, "Used by a revoked actor."),
            uses(group, {"id": "attack-pattern--ghost"}, "Unknown target."),
            {
                "type": "x-mitre-collection",
                "id": "x-mitre-collection--later",
                "x_mitre_version": "2",
            },
            tech,
            group,
            revoked,
            collection_version="1",
        )
        catalog, um = parse_stix(data)
        assert catalog.version == "1"
        assert catalog.get("T1566").procedure_examples == (
            "Used by a listed actor.",
            "Used by an absent actor.",
            "Used by a revoked actor.",
        )
        assert um.actors == ("G0001",)
        assert um.cells.tolist() == [[1]]
        assert um.skipped_unknown == 1

    def test_malformed_json_raises(self):
        with pytest.raises(StixParseError, match="malformed"):
            parse_stix(b"{not json")

    def test_non_utf8_raises(self):
        with pytest.raises(StixParseError, match="UTF-8"):
            parse_stix(b"\xff\xfe\x00")

    def test_missing_objects_list_raises(self):
        with pytest.raises(StixParseError, match="objects"):
            parse_stix(b'{"type": "bundle"}')


class TestUsageMatrix:
    def test_two_actor_fixture(self):
        phishing = attack_pattern("T1566", "Phishing")
        execution = attack_pattern("T1204", "User Execution")
        group_a = actor("G0001")
        group_b = actor("G0002")
        data = bundle(
            phishing,
            execution,
            group_a,
            group_b,
            uses(group_a, phishing),
            uses(group_a, execution),
            uses(group_b, execution),
        )
        catalog, um = parse_stix(data)
        assert um.actors == ("G0001", "G0002")
        assert um.techniques == ("T1204", "T1566") == catalog.technique_ids
        # Column order follows the sorted catalog: T1204 first, T1566 second.
        assert np.array_equal(um.cells, np.array([[1, 1], [1, 0]], dtype=np.int8))
        assert um.cells[0, um.technique_index("T1566")] == 1
        assert um.cells[0, um.technique_index("T1204")] == 1
        assert um.cells[1, um.technique_index("T1566")] == 0
        assert um.cells[1, um.technique_index("T1204")] == 1
        assert um.skipped_unknown == 0

    def test_subtechnique_usage_sets_parent_column(self):
        parent = attack_pattern("T1566", "Phishing")
        sub = attack_pattern("T1566.002", "Spearphishing Link")
        group = actor("G0001")
        data = bundle(parent, sub, group, uses(group, sub))
        _, um = parse_stix(data)
        assert um.cells[0, um.technique_index("T1566")] == 1

    def test_unresolvable_target_skipped_and_counted(self):
        tech = attack_pattern("T1566", "Phishing")
        group = actor("G0001")
        ghost = {"id": "attack-pattern--ghost"}
        data = bundle(tech, group, uses(group, tech), uses(group, ghost))
        _, um = parse_stix(data)
        assert um.skipped_unknown == 1
        assert um.cells.sum() == 1

    def test_actor_without_techniques_excluded(self):
        tech = attack_pattern("T1566", "Phishing")
        group_a = actor("G0001")
        group_b = actor("G0002")
        data = bundle(tech, group_a, group_b, uses(group_a, tech))
        _, um = parse_stix(data)
        assert um.actors == ("G0001",)

    def test_software_and_campaign_actors_count(self):
        tech = attack_pattern("T1566", "Phishing")
        mal = actor("S0001", kind="malware")
        camp = actor("C0001", kind="campaign")
        tool = actor("S0002", kind="tool")
        data = bundle(
            tech, mal, camp, tool, uses(mal, tech), uses(camp, tech), uses(tool, tech)
        )
        _, um = parse_stix(data)
        assert um.actors == ("C0001", "S0001", "S0002")

    def test_revoked_actor_excluded(self):
        tech = attack_pattern("T1566", "Phishing")
        group = actor("G0001")
        group["revoked"] = True
        data = bundle(tech, group, uses(group, tech))
        _, um = parse_stix(data)
        assert um.actors == ()
        assert um.cells.shape == (0, 1)


class TestActionDataset:
    def _catalog(self, per_technique: dict[str, list[str]]):
        objects = []
        for k, (tid, sentences) in enumerate(sorted(per_technique.items())):
            tech = attack_pattern(tid, f"Technique {tid}")
            group = actor(f"G{9000 + k}")
            objects.append(tech)
            objects.append(group)
            for sentence in sentences:
                objects.append(uses(group, tech, sentence))
        return parse_stix(bundle(*objects))[0]

    def test_threshold_filters_sparse_techniques(self):
        catalog = self._catalog(
            {
                "T1001": [f"Rich example number {k} ran." for k in range(3)],
                "T1002": ["Poor example ran."],
            }
        )
        dataset = build_action_dataset(catalog, min_examples=3)
        assert dataset.techniques == ("T1001",)
        assert all("Rich" in s for s, _ in dataset.examples)

    def test_duplicate_sentence_unions_labels(self):
        catalog = self._catalog(
            {
                "T1001": ["Shared sentence ran.", "Only first ran."],
                "T1002": ["Shared sentence ran.", "Only second ran."],
            }
        )
        dataset = build_action_dataset(catalog, min_examples=1)
        by_sentence = dict(dataset.examples)
        assert by_sentence["Shared sentence ran."] == frozenset({"T1001", "T1002"})

    def test_extra_mappings_merge(self):
        catalog = self._catalog({"T1001": ["Native example ran."]})
        dataset = build_action_dataset(
            catalog,
            min_examples=2,
            extra=[("Manual example ran.", {"T1001"})],
        )
        assert dataset.techniques == ("T1001",)
        assert len(dataset.examples) == 2

    def test_extra_unknown_technique_rejected(self):
        catalog = self._catalog({"T1001": ["Example ran."]})
        with pytest.raises(ValueError, match="T9999"):
            build_action_dataset(catalog, extra=[("Ghost.", {"T9999"})])

    def test_min_examples_must_be_positive(self):
        catalog = self._catalog({"T1001": ["Example ran."]})
        with pytest.raises(ValueError, match="min_examples"):
            build_action_dataset(catalog, min_examples=0)

    def test_raising_threshold_shrinks_technique_set(self):
        catalog = self._catalog(
            {
                "T1001": [f"Alpha one {k}." for k in range(5)],
                "T1002": [f"Bravo two {k}." for k in range(3)],
                "T1003": ["Charlie three 0."],
            }
        )
        retained = [
            build_action_dataset(catalog, min_examples=n).techniques
            for n in (1, 2, 4, 6)
        ]
        for wider, narrower in zip(retained, retained[1:]):
            assert set(narrower) <= set(wider)

    def test_dropped_label_removed_from_examples(self):
        catalog = self._catalog(
            {
                "T1001": ["Shared sentence ran.", "Another alpha ran."],
                "T1002": ["Shared sentence ran."],
            }
        )
        dataset = build_action_dataset(catalog, min_examples=2)
        by_sentence = dict(dataset.examples)
        assert by_sentence["Shared sentence ran."] == frozenset({"T1001"})


class TestRoundTrips:
    def test_catalog_round_trip(self):
        group = actor("G0001")
        tech = attack_pattern("T1566", "Phishing")
        catalog, _ = parse_stix(
            bundle(tech, group, uses(group, tech, "One act."), collection_version="17.1")
        )
        again = catalog_from_dict(catalog_to_dict(catalog))
        assert again == catalog

    def test_usage_round_trip(self):
        tech = attack_pattern("T1566", "Phishing")
        group = actor("G0001")
        data = bundle(tech, group, uses(group, tech))
        _, um = parse_stix(data)
        again = usage_from_dict(usage_to_dict(um))
        assert again.actors == um.actors
        assert again.techniques == um.techniques
        assert again.cells.dtype == np.int8
        assert np.array_equal(again.cells, um.cells)
        assert again.skipped_unknown == um.skipped_unknown

    def test_dataset_is_plain_data(self):
        dataset = ActionDataset(
            examples=(("Example ran.", frozenset({"T1"})),),
            techniques=("T1",),
            min_examples=1,
        )
        assert dataset.min_examples == 1


def _edge_bundle() -> bytes:
    """Uses that the matrix must fold, skip or count: a sub-technique
    and its parent used by one actor, revoked and deprecated techniques,
    a revoked relationship, a target missing from the bundle, a revoked
    actor, a non-actor source and a repeated use."""
    parent = attack_pattern("T1566", "Phishing")
    sub = attack_pattern("T1566.002", "Spearphishing Link")
    orphan_sub = attack_pattern("T1059.001", "PowerShell")
    other = attack_pattern("T1204", "User Execution")
    revoked = attack_pattern("T1001", "Old", revoked=True)
    deprecated = attack_pattern("T1002", "Older", deprecated=True)
    ghost = {"id": "attack-pattern--ghost"}
    group = actor("G0001")
    malware = actor("S0001", kind="malware")
    tool = actor("S0002", kind="tool")
    gone = actor("G0002")
    gone["revoked"] = True
    return bundle(
        parent, sub, orphan_sub, other, revoked, deprecated, group, malware, tool, gone,
        uses(group, sub), uses(group, parent), uses(group, parent),
        uses(group, revoked), uses(group, deprecated), uses(group, ghost),
        uses(malware, orphan_sub), uses(malware, other, revoked=True),
        uses(tool, ghost), uses(tool, other), uses(gone, other),
        uses(parent, other),
    )


USAGE_BUNDLES = {
    "e2e": lambda: (E2E_DIR / "stix_bundle.json").read_bytes(),
    "seeded-0": lambda: usage_bundle(0),
    "seeded-1": lambda: usage_bundle(1),
    "seeded-2": lambda: usage_bundle(2, actors=400, techniques=120),
    "edges": _edge_bundle,
}


def _assert_same_usage(got, want):
    assert got.actors == want.actors
    assert got.techniques == want.techniques
    assert got.skipped_unknown == want.skipped_unknown
    assert got.cells.dtype == want.cells.dtype == np.int8
    assert np.array_equal(got.cells, want.cells)


@pytest.mark.parametrize("name", sorted(USAGE_BUNDLES))
class TestUsageAgainstDenseOracle:
    """The matrix built in one assignment and stored as its uses equals
    the matrix built one cell at a time and stored as every cell."""

    def test_parse_matches_oracle(self, name):
        data = USAGE_BUNDLES[name]()
        _, um = parse_stix(data)
        _assert_same_usage(um, dense_usage_oracle(data))

    def test_round_trip_through_json(self, name):
        _, um = parse_stix(USAGE_BUNDLES[name]())
        as_dict = usage_to_dict(um)
        assert as_dict["format_version"] == USAGE_FORMAT_VERSION == "2"
        assert "cells" not in as_dict
        assert [len(u) for u in as_dict["uses"]] == um.cells.sum(axis=1).tolist()
        assert all(u == sorted(set(u)) for u in as_dict["uses"])
        again = usage_from_dict(json.loads(json.dumps(as_dict)))
        _assert_same_usage(again, um)


def test_edge_bundle_folds_and_skips():
    _, um = parse_stix(_edge_bundle())
    assert um.actors == ("G0001", "S0001", "S0002")
    assert um.techniques == ("T1059", "T1204", "T1566")
    assert um.cells.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    # revoked, deprecated and missing targets: G0001 x3, S0002 x1.
    assert um.skipped_unknown == 4


def test_round_trip_keeps_an_actor_without_uses():
    matrix = UsageMatrix(
        actors=("A", "B"),
        techniques=("T1", "T2", "T3"),
        cells=np.array([[0, 0, 0], [1, 0, 1]], dtype=np.int8),
        skipped_unknown=2,
    )
    um = usage_from_dict(usage_to_dict(matrix))
    assert um.cells.tolist() == [[0, 0, 0], [1, 0, 1]]
    assert um.skipped_unknown == 2


class TestUsageFileRejections:
    """`load_kb_usage` fails with one PipelineError naming the file for a
    dense (format 1) file or uses that do not fit the matrix."""

    def _write(self, tmp_path, usage: dict):
        write_json(str(tmp_path / "usage.json"), {"meta": {}, "usage": usage})

    def _fails(self, tmp_path, match: str):
        path = re.escape(str(tmp_path / "usage.json"))
        with pytest.raises(PipelineError, match=f"^{path}: malformed kb usage: .*{match}"):
            load_kb_usage(str(tmp_path))

    def _valid(self) -> dict:
        _, um = parse_stix(_edge_bundle())
        return usage_to_dict(um)

    def test_valid_file_loads(self, tmp_path):
        self._write(tmp_path, self._valid())
        _assert_same_usage(load_kb_usage(str(tmp_path)), parse_stix(_edge_bundle())[1])

    def test_dense_format_1_asks_for_kb_build(self, tmp_path):
        self._write(tmp_path, dense_usage_to_dict(parse_stix(_edge_bundle())[1]))
        self._fails(tmp_path, re.escape("format 1 (the dense matrix) is no longer read; "
                                        "rerun `ttpmine kb build`"))

    @pytest.mark.parametrize("version", ["3", None, 2])
    def test_other_format_rejected(self, tmp_path, version):
        data = self._valid()
        data["format_version"] = version
        self._write(tmp_path, data)
        self._fails(tmp_path, "usage format .* is not '2'")

    @pytest.mark.parametrize("key", ["actors", "techniques", "uses"])
    def test_missing_key_rejected(self, tmp_path, key):
        data = self._valid()
        del data[key]
        self._write(tmp_path, data)
        self._fails(tmp_path, f"usage has no '{key}' key")

    @pytest.mark.parametrize(
        "uses",
        [[[2], [0]], [[2], [0], [1], []], {"G0001": [2]}, [[2], [0], 1]],
        ids=["too-few", "too-many", "not-a-list", "entry-not-a-list"],
    )
    def test_length_mismatch_rejected(self, tmp_path, uses):
        data = self._valid()
        data["uses"] = uses
        self._write(tmp_path, data)
        self._fails(tmp_path, re.escape("'uses' must hold one list per actor (3)"))

    @pytest.mark.parametrize("bad", [3, -1, 99])
    def test_out_of_range_index_rejected(self, tmp_path, bad):
        data = self._valid()
        data["uses"][1] = [0, bad]
        self._write(tmp_path, data)
        self._fails(tmp_path, re.escape("technique index outside 0..2"))

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", True, None, [1]])
    def test_non_integer_index_rejected(self, tmp_path, bad):
        data = self._valid()
        data["uses"][1] = [0, bad]
        self._write(tmp_path, data)
        self._fails(tmp_path, "technique index that is not an integer")

    def test_duplicate_index_rejected(self, tmp_path):
        data = self._valid()
        data["uses"][0] = [2, 2]
        self._write(tmp_path, data)
        self._fails(tmp_path, "lists a technique index twice for one actor")
