"""ATT&CK STIX bundle ingestion.

Produces the technique catalog (with procedure-example sentences pulled
from `uses` relationship descriptions), the binary actor-usage matrix
backing the association-measure features, and the filtered multi-label
action dataset used to train the sentence classifier.
"""

from __future__ import annotations

import gc
import json
import logging
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .corpus import split_sentences

logger = logging.getLogger(__name__)

# "2": `usage.json` lists each actor's technique columns ("uses"); "1"
# stored every cell of the dense matrix and is no longer read.
USAGE_FORMAT_VERSION = "2"

# Procedure examples a technique needs to be a classifier class.
DEFAULT_MIN_EXAMPLES = 20

# STIX object id prefixes that count as actors in the usage matrix.
_ACTOR_PREFIXES = ("intrusion-set--", "malware--", "tool--", "campaign--")


class StixParseError(ValueError):
    """Raised when bundle bytes are not a usable STIX JSON bundle."""


class EmptyCatalogError(ValueError):
    """Raised when a bundle yields no usable attack-pattern objects."""


@dataclass(frozen=True)
class TechniqueRecord:
    id: str
    procedure_examples: tuple[str, ...]


@dataclass(frozen=True)
class TechniqueCatalog:
    techniques: tuple[TechniqueRecord, ...]
    version: str

    @property
    def technique_ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec in self.techniques)


@dataclass(eq=False)
class UsageMatrix:
    actors: tuple[str, ...]
    techniques: tuple[str, ...]
    cells: np.ndarray  # shape (len(actors), len(techniques)), values 0/1
    skipped_unknown: int = 0


@dataclass(frozen=True)
class ActionDataset:
    examples: tuple[tuple[str, frozenset[str]], ...]
    techniques: tuple[str, ...]


def _load_bundle(bundle_bytes: bytes) -> list[dict]:
    """The bundle's ``objects``, each a JSON object.

    The bytes are dropped once decoded: when this call holds the only
    reference to them, they are freed before the objects are built.
    """
    try:
        text = bundle_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StixParseError(
            f"bundle is not UTF-8 at byte offset {exc.start}"
        ) from exc
    del bundle_bytes
    try:
        bundle = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StixParseError(
            f"malformed bundle JSON at offset {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(bundle, dict) or not isinstance(bundle.get("objects"), list):
        raise StixParseError("bundle JSON has no 'objects' list")
    objects = bundle["objects"]
    if not set(map(type, objects)) <= {dict}:
        index = next(i for i, obj in enumerate(objects) if type(obj) is not dict)
        raise StixParseError(f"bundle 'objects' entry {index} is not a JSON object")
    return objects


def _is_excluded(obj: dict) -> bool:
    return bool(obj.get("revoked")) or bool(obj.get("x_mitre_deprecated"))


def _external_id(obj: dict) -> str | None:
    for ref in obj.get("external_references", ()):
        if ref.get("source_name") == "mitre-attack":
            ext = ref.get("external_id")
            if ext:
                return ext
    return None


def _pattern_map(objects: list[dict]) -> dict[str, str]:
    """Map attack-pattern STIX ids to their parent technique id,
    exclusions applied and sub-technique ids folded to their parent. An
    object counts only with an external id and a non-empty name."""
    out: dict[str, str] = {}
    for obj in objects:
        if obj.get("type") != "attack-pattern" or _is_excluded(obj):
            continue
        ext = _external_id(obj)
        if ext is None or not (obj.get("name") or "").strip():
            continue
        out[obj["id"]] = ext.split(".")[0]
    return out


def parse_stix(bundle_bytes: bytes) -> tuple[TechniqueCatalog, UsageMatrix]:
    """Parse a STIX 2.x bundle into a technique catalog and its usage matrix.

    Revoked and deprecated objects are excluded; sub-techniques fold
    into their parent (id prefix rule), which inherits the sub's
    procedure examples. Procedure-example sentences come from the
    descriptions of `uses` relationships whose source is an
    intrusion-set/malware/tool/campaign, split by the corpus sentence
    splitter (`split_sentences`, no tokenizing), in bundle order. The
    bundle is decoded once and its objects walked once; the procedure
    examples and the usage matrix (`_usage_matrix`) both come from the
    `uses` relationships that walk collects.

    The cyclic garbage collector is paused for the decode and the walk
    (and restored as it was): decoded JSON holds no cycles, so its
    collections there would only traverse the new containers.

    The bytes are handed on to `_load_bundle` without a reference kept
    here, so a caller that keeps none either (``parse_stix(f.read())``)
    has them freed before the objects are built.
    """
    held = [bundle_bytes]
    del bundle_bytes
    pattern_objects: list[dict] = []
    actor_objects: list[dict] = []
    relationships: list[dict] = []
    version = None
    collecting = gc.isenabled()
    gc.disable()
    try:
        for obj in _load_bundle(held.pop()):
            kind = obj.get("type")
            if kind == "x-mitre-collection" and version is None:
                if obj.get("x_mitre_version"):
                    version = str(obj["x_mitre_version"])
            if kind == "attack-pattern":
                # Excluded ones too: `_pattern_map` drops them.
                pattern_objects.append(obj)
            if _is_excluded(obj):
                continue
            if str(obj.get("id", "")).startswith(_ACTOR_PREFIXES):
                actor_objects.append(obj)
            if (
                kind == "relationship"
                and obj.get("relationship_type") == "uses"
                and str(obj.get("source_ref", "")).startswith(_ACTOR_PREFIXES)
            ):
                relationships.append(obj)
    finally:
        if collecting:
            gc.enable()

    patterns = _pattern_map(pattern_objects)
    if not patterns:
        raise EmptyCatalogError("bundle contains no usable attack-pattern objects")

    examples: dict[str, list[str]] = {tid: [] for tid in sorted(set(patterns.values()))}
    for obj in relationships:
        target = patterns.get(obj.get("target_ref"))
        if target is not None:
            examples[target].extend(split_sentences(obj.get("description") or ""))

    records = tuple(
        TechniqueRecord(id=tid, procedure_examples=tuple(v)) for tid, v in examples.items()
    )
    catalog = TechniqueCatalog(techniques=records, version=version or "unknown")
    return catalog, _usage_matrix(relationships, actor_objects, patterns, catalog)


def _usage_matrix(
    relationships: list[dict],
    actor_objects: list[dict],
    patterns: dict[str, str],
    catalog: TechniqueCatalog,
) -> UsageMatrix:
    """Binary actor-by-technique usage matrix from `uses` relationships.

    `relationships` are the bundle's unexcluded `uses` relationships
    from an actor-prefixed source and `actor_objects` its unexcluded
    objects with an actor-prefixed id, both in bundle order. A
    relationship counts when its source is one of those actors and its
    target an attack pattern.
    Rows are actors (groups, software, campaigns) with at least one
    resolvable technique, in lexicographic actor-id order; columns are
    catalog techniques. Relationships whose target is missing from
    `patterns` are skipped and counted, not fatal; the catalog is built
    from every entry of `patterns`, so any other target resolves in it.
    """
    actor_ids: dict[str, str] = {}
    for obj in actor_objects:
        stix_id = str(obj.get("id", ""))
        actor_ids[stix_id] = _external_id(obj) or stix_id

    used: dict[str, set[str]] = {}
    skipped = 0
    for obj in relationships:
        source = obj.get("source_ref")
        if source not in actor_ids:
            continue
        if not str(obj.get("target_ref", "")).startswith("attack-pattern--"):
            continue
        target = patterns.get(obj.get("target_ref"))
        if target is None:
            skipped += 1
            continue
        used.setdefault(actor_ids[source], set()).add(target)

    actors = tuple(sorted(used))
    techniques = catalog.technique_ids
    col = {tid: k for k, tid in enumerate(techniques)}
    cells = _cells(
        [[col[tid] for tid in used[actor]] for actor in actors], len(techniques)
    )
    if skipped:
        logger.warning("usage matrix: skipped %d relationships with unknown techniques", skipped)
    return UsageMatrix(
        actors=actors, techniques=techniques, cells=cells, skipped_unknown=skipped
    )


def _cells(uses: Sequence[Sequence[int]], n_techniques: int) -> np.ndarray:
    """Dense 0/1 int8 cells with one row per entry of `uses`, set at the
    columns that entry lists, in one fancy assignment."""
    counts = np.fromiter(map(len, uses), dtype=np.intp, count=len(uses))
    cols = np.fromiter(chain.from_iterable(uses), dtype=np.intp, count=int(counts.sum()))
    cells = np.zeros((len(uses), n_techniques), dtype=np.int8)
    cells[np.repeat(np.arange(len(uses)), counts), cols] = 1
    return cells


def build_action_dataset(
    catalog: TechniqueCatalog,
    min_examples: int = DEFAULT_MIN_EXAMPLES,
) -> ActionDataset:
    """The catalog's procedure examples, without the techniques that have
    fewer than min_examples examples.

    Examples are keyed by exact sentence text, labels unioned. The
    count filter is a single pass over pre-drop counts, so raising
    min_examples can only shrink the retained technique set.
    """
    if min_examples < 1:
        raise ValueError(f"min_examples must be >= 1, got {min_examples}")

    merged: dict[str, set[str]] = {}
    for rec in catalog.techniques:
        for sentence in rec.procedure_examples:
            if not sentence.strip():
                continue
            merged.setdefault(sentence, set()).add(rec.id)

    counts: dict[str, int] = {}
    for labels in merged.values():
        for tid in labels:
            counts[tid] = counts.get(tid, 0) + 1
    retained = {tid for tid, n in counts.items() if n >= min_examples}

    examples = tuple(
        (sentence, frozenset(labels & retained))
        for sentence, labels in merged.items()
        if labels & retained
    )
    return ActionDataset(examples=examples, techniques=tuple(sorted(retained)))


def usage_to_dict(matrix: UsageMatrix) -> dict:
    """The matrix as its uses: for each actor, aligned with `actors`, the
    ascending column indices into `techniques` that it uses."""
    return {
        "format_version": USAGE_FORMAT_VERSION,
        "actors": list(matrix.actors),
        "techniques": list(matrix.techniques),
        "uses": [np.flatnonzero(row).tolist() for row in matrix.cells],
        "skipped_unknown": matrix.skipped_unknown,
    }


def usage_from_dict(data: Mapping) -> UsageMatrix:
    """Rebuild a `usage_to_dict` matrix.

    Raises ValueError for the dense format "1", another format, or uses
    that do not fit the actors and techniques: a list count other than
    one per actor, an index that is not an integer or is out of range,
    or an index listed twice for one actor.
    """
    version = data.get("format_version")
    if version == "1":
        raise ValueError(
            "usage format 1 (the dense matrix) is no longer read; "
            "rerun `ttpmine kb build`"
        )
    if version != USAGE_FORMAT_VERSION:
        raise ValueError(
            f"usage format {version!r} is not {USAGE_FORMAT_VERSION!r}"
        )
    try:
        actors, techniques, uses = data["actors"], data["techniques"], data["uses"]
    except KeyError as exc:
        raise ValueError(f"usage has no {exc} key") from None
    if (
        not isinstance(uses, list)
        or len(uses) != len(actors)
        or not all(isinstance(u, list) for u in uses)
    ):
        raise ValueError(f"'uses' must hold one list per actor ({len(actors)})")
    flat = list(chain.from_iterable(uses))
    if not set(map(type, flat)) <= {int}:
        raise ValueError("'uses' holds a technique index that is not an integer")
    if flat and not (min(flat) >= 0 and max(flat) < len(techniques)):
        raise ValueError(
            f"'uses' holds a technique index outside 0..{len(techniques) - 1}"
        )
    cells = _cells(uses, len(techniques))
    if np.count_nonzero(cells) != len(flat):
        raise ValueError("'uses' lists a technique index twice for one actor")
    return UsageMatrix(
        actors=tuple(actors),
        techniques=tuple(techniques),
        cells=cells,
        skipped_unknown=int(data.get("skipped_unknown", 0)),
    )
