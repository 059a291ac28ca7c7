"""STIX bundle parsing, usage-matrix construction and the action dataset."""

from __future__ import annotations

import gc
import json
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from helpers import (
    E2E_DIR,
    actor,
    attack_pattern,
    bundle,
    pad_bundle,
    random_bundle,
    usage_bundle,
    uses,
    workload_bundle,
)
from oracles import dense_usage_oracle, dense_usage_to_dict, parse_stix_oracle

from ttpmine import attack_kb
from ttpmine.attack_kb import (
    USAGE_FORMAT_VERSION,
    ActionDataset,
    UsageMatrix,
    EmptyCatalogError,
    StixParseError,
    build_action_dataset,
    parse_stix,
    usage_from_dict,
    usage_to_dict,
)
from ttpmine.pipeline import PipelineError, load_kb_usage, write_json


def _record(catalog, technique_id):
    """The catalog's record of `technique_id`."""
    return next(rec for rec in catalog.techniques if rec.id == technique_id)


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
        assert catalog.version == "17.1"

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
        record = _record(catalog, "T1566")
        assert "The group sent spearphishing links." in record.procedure_examples
        assert "The group sent malicious mail." in record.procedure_examples
        # A sub-technique without its parent in the bundle still folds.
        catalog, _ = parse_stix(bundle(attack_pattern("T1566.002", "Spearphishing Link")))
        assert catalog.technique_ids == ("T1566",)

    def test_pattern_needs_external_id_and_name(self):
        # Techniques carry no name, but a pattern still needs a non-empty
        # one, and a mitre-attack external id, to count.
        blank, spaces, no_id = (
            attack_pattern("T1001", ""), attack_pattern("T1002", "  "), attack_pattern("T1003", "x")
        )
        no_id["external_references"] = [{"source_name": "other", "external_id": "T1003"}]
        catalog, _ = parse_stix(bundle(blank, spaces, no_id, attack_pattern("T1004", "Kept")))
        assert catalog.technique_ids == ("T1004",)
        with pytest.raises(EmptyCatalogError):
            parse_stix(bundle(blank, spaces, no_id))

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
        assert _record(catalog, "T1566").procedure_examples == ()

    def test_descriptions_split_into_sentences(self):
        group = actor("G0001")
        tech = attack_pattern("T1566", "Phishing")
        catalog, _ = parse_stix(
            bundle(tech, group, uses(group, tech, "First act. Second act."))
        )
        assert _record(catalog, "T1566").procedure_examples == (
            "First act.",
            "Second act.",
        )

    def test_non_actor_relationship_ignored(self):
        tech_a = attack_pattern("T1566", "Phishing")
        tech_b = attack_pattern("T1204", "User Execution")
        catalog, _ = parse_stix(
            bundle(tech_a, tech_b, uses(tech_a, tech_b, "Not an actor source."))
        )
        assert _record(catalog, "T1204").procedure_examples == ()

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
        assert _record(catalog, "T1566").procedure_examples == (
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

    @pytest.mark.parametrize(
        "data, index",
        [
            (b'{"objects": [1]}', 0),
            (b'{"objects": [{"type": "attack-pattern"}, "x"]}', 1),
            (b'{"objects": [{}, {}, null]}', 2),
            (b'{"objects": [{}, [{}]]}', 1),
        ],
    )
    def test_non_object_entry_raises(self, data, index):
        with pytest.raises(
            StixParseError, match=f"^bundle 'objects' entry {index} is not a JSON object$"
        ):
            parse_stix(data)


def _typed(obj: dict, **fields) -> dict:
    """`obj` with `fields` set; a field given as None is removed."""
    obj = {**obj, **fields}
    return {key: value for key, value in obj.items() if value is not None}


_TECH, _GROUP = attack_pattern("T1566", "Phishing"), actor("G0001")
_COLLECTION = {"type": "x-mitre-collection", "id": "x-mitre-collection--c"}


class TestFieldTypes:
    """Each field `parse_stix` reads must have its JSON type, or it
    fails with one StixParseError naming the entry and the field."""

    @pytest.mark.parametrize(
        "objects, problem",
        [
            ((_TECH, _GROUP, _typed(uses(_GROUP, _TECH), description=5)),
             "entry 2: 'description' is not a string"),
            ((_TECH, _typed(_GROUP, external_references={"source_name": "mitre-attack"})),
             "entry 1: 'external_references' is not a list of objects"),
            ((_typed(_TECH, external_references=["mitre-attack"]),),
             "entry 0: 'external_references' is not a list of objects"),
            ((_TECH, _GROUP, _typed(uses(_GROUP, _TECH), target_ref=[_TECH["id"]])),
             "entry 2: 'target_ref' is not a string"),
            ((_typed(_TECH, name=["Phishing"]),), "entry 0: 'name' is not a string"),
            ((_typed(_TECH, id=None),), "entry 0: 'id' is not a string"),
            ((_typed(_TECH, external_references=[
                {"source_name": "mitre-attack", "external_id": 1566}]),),
             "entry 0: 'external_id' is not a string"),
            ((_TECH, _typed(_COLLECTION, x_mitre_version=["17.1"])),
             "entry 1: 'x_mitre_version' is not a string or number"),
            ((_TECH, _typed(_COLLECTION, x_mitre_version={"major": 17})),
             "entry 1: 'x_mitre_version' is not a string or number"),
            ((_TECH, _typed(_COLLECTION, x_mitre_version=True)),
             "entry 1: 'x_mitre_version' is not a string or number"),
            ((_TECH, _typed(_COLLECTION, x_mitre_version=False)),
             "entry 1: 'x_mitre_version' is not a string or number"),
            ((_TECH, _typed(_COLLECTION, x_mitre_version=float("nan"))),
             "entry 1: 'x_mitre_version' is not a string or number"),
        ],
        ids=["description", "references-object", "references-entry", "target-list",
             "name", "pattern-id", "external-id", "version-list", "version-object",
             "version-true", "version-false", "version-nan"],
    )
    def test_wrong_type_raises(self, objects, problem):
        with pytest.raises(StixParseError) as excinfo:
            parse_stix(bundle(*objects))
        assert str(excinfo.value) == f"bundle 'objects' {problem}"

    @pytest.mark.parametrize("null", [True, False], ids=["null", "missing"])
    def test_missing_or_null_description_is_empty(self, null):
        rel = _typed(uses(_GROUP, _TECH), description=None)
        if null:
            rel["description"] = None
        catalog, um = parse_stix(bundle(_TECH, _GROUP, rel))
        assert _record(catalog, "T1566").procedure_examples == ()
        assert um.cells.tolist() == [[1]]

    def test_unread_fields_are_not_checked(self):
        # Revoked objects and relationships of another kind are not read.
        revoked = _typed(uses(_GROUP, _TECH), description=5, revoked=True)
        other = _typed(uses(_GROUP, _TECH), description=5, relationship_type="mitigates")
        catalog, _ = parse_stix(bundle(_TECH, _GROUP, revoked, other))
        assert catalog.technique_ids == ("T1566",)

    def test_errors_come_in_document_order(self):
        # An entry is checked as it is decoded, before a syntax error
        # later in the text.
        with pytest.raises(StixParseError, match="^bundle 'objects' entry 0 is not a JSON"):
            parse_stix(b'{"objects": [1, {')
        bad = json.dumps(_typed(_TECH, name=5))
        with pytest.raises(StixParseError, match="^bundle 'objects' entry 0: 'name' is not"):
            parse_stix(f'{{"objects": [{bad}, ]'.encode())


def _json_loads_problem(text: bytes) -> str:
    """The StixParseError text of the error `json.loads` raises on `text`."""
    with pytest.raises(json.JSONDecodeError) as excinfo:
        json.loads(text.decode("utf-8"))
    return f"malformed bundle JSON at offset {excinfo.value.pos}: {excinfo.value.msg}"


_SMALL = bundle(_TECH, _GROUP, uses(_GROUP, _TECH, "Sent mail."), collection_version="1")


class TestSyntaxErrors:
    """A bundle that is not JSON fails with the error `json.loads` gives."""

    @pytest.mark.parametrize(
        "text",
        [
            b"", b"  ", b"{", b"{ ", b"}", b'{"objects"', b'{"objects" []}', b'{"objects": }',
            b"{'objects': []}", b'{"objects": [], }', b'{"objects": [{}] "x": 1}',
            b'{"objects": [{},]}', b'{"objects": [{} {}]}', b'{"objects": [{}]]',
            b'{"objects": []} x', b'{"objects": []}{}', b'\xef\xbb\xbf{"objects": []}',
            b'{"a": tru, "objects": []}', b'{"objects": ["\x01"]}', b'{"objects": [{"a": 1,}]}',
            b'{"objects": [{"a": NaN', b'{"objects": [{"a": "\\x"}]}',
        ],
    )
    def test_message_is_json_loads(self, text):
        with pytest.raises(StixParseError) as excinfo:
            parse_stix(text)
        assert str(excinfo.value) == _json_loads_problem(text)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_every_truncation(self, indent):
        text = json.dumps(json.loads(_SMALL), indent=indent).encode()
        for end in range(len(text)):
            with pytest.raises(StixParseError) as excinfo:
                parse_stix(text[:end])
            assert str(excinfo.value) == _json_loads_problem(text[:end]), end

    @pytest.mark.parametrize(
        "text", [b"[]", b'"objects"', b"{}", b'{"objects": {}}', b'{"objects": [], "objects": 5}']
    )
    def test_no_objects_list(self, text):
        with pytest.raises(StixParseError, match="^bundle JSON has no 'objects' list$"):
            parse_stix(text)

    def test_last_objects_key_wins(self):
        text = b'{"objects": 5, "objects": []}'
        with pytest.raises(EmptyCatalogError):
            parse_stix(text)
        decoy = bundle(attack_pattern("T1001", "Decoy"))[:-1]
        objects = json.dumps(json.loads(_SMALL)["objects"]).encode()
        catalog, _ = parse_stix(decoy + b', "objects": ' + objects + b"}")
        assert catalog.technique_ids == ("T1566",)
        assert catalog.version == "1"


ORACLE_BUNDLES = {
    "e2e": lambda: (E2E_DIR / "stix_bundle.json").read_bytes(),
    **{name: partial(workload_bundle, name) for name in ("run-train", "apply-long", "train-csv")},
    **{f"random-{seed:02d}": partial(random_bundle, seed) for seed in range(24)},
}


@pytest.mark.parametrize("name", sorted(ORACLE_BUNDLES))
def test_parse_matches_json_loads_oracle(name):
    # The walk equals one `json.loads` and walks over the decoded
    # objects, with a split per relationship.
    data = ORACLE_BUNDLES[name]()
    catalog, um = parse_stix(data)
    want_catalog, want_um = parse_stix_oracle(data)
    assert catalog == want_catalog
    assert catalog.techniques
    _assert_same_usage(um, want_um)
    _assert_same_usage(um, dense_usage_oracle(data))


def test_random_bundles_cover_their_layouts():
    texts = [random_bundle(seed) for seed in range(24)]
    assert any(b"\r\n" in t for t in texts)
    assert any(b'":[' in t for t in texts)
    assert any(b'\n  "' in t for t in texts)
    assert any(t.count(b'"objects"') == 2 for t in texts)
    assert all(b"malware--mixed" in t for t in texts)


def test_parse_peak_stays_near_the_text():
    # Each object is reduced to its record as it is decoded: with the
    # unread fields ATT&CK objects carry, the traced peak is the text and
    # little else, where one `json.loads` holds every object at once.
    data = pad_bundle(usage_bundle(0), citations=2)
    size = len(data)
    held = [data]
    del data
    tracemalloc.start()
    try:
        parse_stix(held.pop())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size


class TestCollectorPause:
    """`parse_stix` pauses the cyclic collector for the decode and the
    object walk and leaves it as it found it, also on a bad bundle."""

    GOOD = bundle(attack_pattern("T1566", "Phishing"))

    @pytest.fixture
    def collector(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    def test_decode_runs_with_collector_paused(self, monkeypatch, collector):
        seen = []

        def load(data):
            seen.append(gc.isenabled())
            return real(data)

        real = attack_kb._load_bundle
        monkeypatch.setattr(attack_kb, "_load_bundle", load)
        gc.enable()
        parse_stix(self.GOOD)
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, monkeypatch, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        parse_stix(self.GOOD)
        assert gc.isenabled() is enabled
        with pytest.raises(StixParseError):
            parse_stix(b"{not json")
        assert gc.isenabled() is enabled

        def fail(obj):
            raise RuntimeError("walk failed")

        monkeypatch.setattr(attack_kb, "_is_excluded", fail)
        with pytest.raises(RuntimeError, match="walk failed"):
            parse_stix(self.GOOD)
        assert gc.isenabled() is enabled


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
        assert um.cells[0, um.techniques.index("T1566")] == 1
        assert um.cells[0, um.techniques.index("T1204")] == 1
        assert um.cells[1, um.techniques.index("T1566")] == 0
        assert um.cells[1, um.techniques.index("T1204")] == 1
        assert um.skipped_unknown == 0

    def test_subtechnique_usage_sets_parent_column(self):
        parent = attack_pattern("T1566", "Phishing")
        sub = attack_pattern("T1566.002", "Spearphishing Link")
        group = actor("G0001")
        data = bundle(parent, sub, group, uses(group, sub))
        _, um = parse_stix(data)
        assert um.cells[0, um.techniques.index("T1566")] == 1

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
        )
        assert dataset.techniques == ("T1",)


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

    @pytest.mark.parametrize(
        "version, message",
        [
            ("3", "usage format '3' is not '2'"),
            (None, "format_version must be a string, got None"),
            (2, "format_version must be a string, got 2"),
        ],
        ids=["3", "None", "2"],
    )
    def test_other_format_rejected(self, tmp_path, version, message):
        data = self._valid()
        data["format_version"] = version
        self._write(tmp_path, data)
        self._fails(tmp_path, message)

    @pytest.mark.parametrize("key", ["actors", "techniques", "uses"])
    def test_missing_key_rejected(self, tmp_path, key):
        data = self._valid()
        del data[key]
        self._write(tmp_path, data)
        self._fails(tmp_path, f"missing key '{key}'")

    @pytest.mark.parametrize(
        "uses, message",
        [
            ([[2], [0]], "'uses' must hold one list per actor (3)"),
            ([[2], [0], [1], []], "'uses' must hold one list per actor (3)"),
            ({"G0001": [2]}, "uses must be a list of lists of integers, got {'G0001': [2]}"),
            ([[2], [0], 1], "uses must be a list of lists of integers, got [[2], [0], 1]"),
        ],
        ids=["too-few", "too-many", "not-a-list", "entry-not-a-list"],
    )
    def test_length_mismatch_rejected(self, tmp_path, uses, message):
        data = self._valid()
        data["uses"] = uses
        self._write(tmp_path, data)
        self._fails(tmp_path, re.escape(message))

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
        message = f"uses must be a list of lists of integers, got {data['uses']!r:.40}"
        self._fails(tmp_path, re.escape(message))

    def test_duplicate_index_rejected(self, tmp_path):
        data = self._valid()
        data["uses"][0] = [2, 2]
        self._write(tmp_path, data)
        self._fails(tmp_path, "lists a technique index twice for one actor")
