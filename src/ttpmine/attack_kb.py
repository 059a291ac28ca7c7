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
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import split_sentences
from .records import INT, STRING, STRINGS, check_record, list_of

logger = logging.getLogger(__name__)

# "2": `usage.json` lists each actor's technique columns ("uses"); "1"
# stored every cell of the dense matrix and is no longer read.
USAGE_FORMAT_VERSION = "2"

# Procedure examples a technique needs to be a classifier class.
DEFAULT_MIN_EXAMPLES = 20

# STIX object id prefixes that count as actors in the usage matrix.
_ACTOR_PREFIXES = ("intrusion-set--", "malware--", "tool--", "campaign--")

# The tags of the records `_record` reduces a bundle object to.
_VERSION, _PATTERN, _ACTOR, _USE, _ROLES = "version", "pattern", "actor", "use", "roles"

# Skips JSON whitespace from a position, as the decoder does.
_whitespace = json.decoder.WHITESPACE.match


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


def _load_bundle(bundle_bytes: bytes) -> list[tuple | None]:
    """One `_record` per entry of the bundle's ``objects``, in order.

    The top-level JSON object is walked by `_walk_bundle`, which reduces
    each entry of ``objects`` to its record before it decodes the next,
    so the text and the records are the most held at once. The bytes
    are dropped once decoded: when this call holds the only reference
    to them, they are freed before the walk.
    """
    try:
        text = bundle_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StixParseError(
            f"bundle is not UTF-8 at byte offset {exc.start}"
        ) from exc
    del bundle_bytes
    try:
        objects = _walk_bundle(text)
    except json.JSONDecodeError as exc:
        raise StixParseError(
            f"malformed bundle JSON at offset {exc.pos}: {exc.msg}"
        ) from exc
    if type(objects) is not list:
        raise StixParseError("bundle JSON has no 'objects' list")
    return objects


def _walk_bundle(text: str) -> object:
    """The value of the last "objects" key of the JSON object `text`, a
    list's entries each reduced to its `_record`; None without one.

    Keys are read with the decoder's `scanstring` and every other value
    is decoded by one `scan_once` call, so the walk accepts what
    `json.loads` accepts. Errors come in document order: an entry of
    ``objects`` that is not a JSON object, or whose fields `_record`
    rejects, fails before a syntax error later in the text. Where the
    walk finds the text malformed, `_decoder_error` gives the error
    `json.loads` raises.
    """
    end = _whitespace(text, 0).end()
    if not text.startswith("{", end):
        json.loads(text)  # raises, or returns a value that has no objects
        return None
    scan_once = json.JSONDecoder().scan_once
    refs: dict[str, str] = {}
    objects = None
    end = _whitespace(text, end + 1).end()
    if not text.startswith("}", end):
        while True:
            if not text.startswith('"', end):
                raise _decoder_error(text)
            key, end = json.decoder.scanstring(text, end + 1)
            end = _whitespace(text, end).end()
            if not text.startswith(":", end):
                raise _decoder_error(text)
            end = _whitespace(text, end + 1).end()
            if key == "objects" and text.startswith("[", end):
                objects, end = _walk_objects(text, end + 1, scan_once, refs)
            else:
                value, end = _decode_value(text, end, scan_once)
                if key == "objects":
                    objects = value
            end = _whitespace(text, end).end()
            if text.startswith("}", end):
                break
            if not text.startswith(",", end):
                raise _decoder_error(text)
            end = _whitespace(text, end + 1).end()
    if _whitespace(text, end + 1).end() != len(text):
        raise _decoder_error(text)
    return objects


def _walk_objects(
    text: str, end: int, scan_once, refs: dict[str, str]
) -> tuple[list[tuple | None], int]:
    """The records of the JSON array whose "[" is just before `end`, and
    the index after its "]"."""
    records: list[tuple | None] = []
    end = _whitespace(text, end).end()
    if text.startswith("]", end):
        return records, end + 1
    while True:
        obj, end = _decode_value(text, end, scan_once)
        if type(obj) is not dict:
            raise StixParseError(
                f"bundle 'objects' entry {len(records)} is not a JSON object"
            )
        records.append(_record(obj, len(records), refs))
        end = _whitespace(text, end).end()
        if text.startswith("]", end):
            return records, end + 1
        if not text.startswith(",", end):
            raise _decoder_error(text)
        end = _whitespace(text, end + 1).end()


def _decode_value(text: str, end: int, scan_once) -> tuple[object, int]:
    try:
        return scan_once(text, end)
    except StopIteration:
        raise _decoder_error(text) from None


def _decoder_error(text: str) -> json.JSONDecodeError:
    """The error `json.loads` raises on `text`. The walk calls this
    where it finds the text malformed, which is where `json.loads` fails
    too: everything before it was read by the same rules."""
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return exc
    raise AssertionError("json.loads decoded a bundle that the walk found malformed")


def _record(obj: dict, index: int, refs: dict[str, str]) -> tuple | None:
    """What `parse_stix` reads of `obj`, entry `index` of ``objects``, or
    None when it reads nothing:

    * ``(_VERSION, version)``: an ``x-mitre-collection`` with a version,
      a string or a JSON number's text;
    * ``(_PATTERN, stix_id, technique_id)``: an attack pattern with a
      mitre-attack external id and a non-empty name, a sub-technique's
      id folded to its parent's;
    * ``(_USE, source, target, description)``: a ``uses`` relationship
      whose source has an actor prefix (target None when it has none);
    * ``(_ACTOR, stix_id, actor_id)``: an object whose id has an actor
      prefix, its actor id the external id or else the STIX id;
    * ``(_ROLES, role, actor)``: an actor that is one of the others too.

    Revoked and deprecated objects give only a version. A field that is
    read must have its JSON type, or StixParseError names the entry and
    the field; a missing or null one is absent. Equal ids share one
    string, the first one met, through `refs`.
    """
    kind = obj.get("type")
    role = None
    if kind == "x-mitre-collection":
        version = obj.get("x_mitre_version")
        # NaN and Infinity decode as floats but are not JSON numbers.
        if version is not None and not (
            type(version) in (str, int) or (type(version) is float and math.isfinite(version))
        ):
            raise _field_error(index, "x_mitre_version", "a string or number")
        if version:
            role = (_VERSION, str(version))
    if _is_excluded(obj):
        return role
    if kind == "attack-pattern":
        role = _pattern_role(obj, index, refs)
    elif kind == "relationship" and obj.get("relationship_type") == "uses":
        role = _use_role(obj, index, refs)
    stix_id = obj.get("id")
    if type(stix_id) is str and stix_id.startswith(_ACTOR_PREFIXES):
        actor = (_ACTOR, refs.setdefault(stix_id, stix_id), _external_id(obj, index) or stix_id)
        return actor if role is None else (_ROLES, role, actor)
    return role


def _pattern_role(obj: dict, index: int, refs: dict[str, str]) -> tuple | None:
    ext = _external_id(obj, index)
    name = _string(obj, "name", index)
    if ext is None or not (name or "").strip():
        return None
    stix_id = _string(obj, "id", index)
    if stix_id is None:
        raise _field_error(index, "id", "a string")
    technique = ext.split(".")[0]
    return (_PATTERN, refs.setdefault(stix_id, stix_id), refs.setdefault(technique, technique))


def _use_role(obj: dict, index: int, refs: dict[str, str]) -> tuple | None:
    source = _string(obj, "source_ref", index)
    if source is None or not source.startswith(_ACTOR_PREFIXES):
        return None
    target = _string(obj, "target_ref", index)
    return (
        _USE,
        refs.setdefault(source, source),
        refs.setdefault(target, target),
        _string(obj, "description", index) or "",
    )


def _is_excluded(obj: dict) -> bool:
    return bool(obj.get("revoked")) or bool(obj.get("x_mitre_deprecated"))


def _external_id(obj: dict, index: int) -> str | None:
    """The first non-empty mitre-attack external id of `obj`, entry
    `index` of ``objects``."""
    references = obj.get("external_references")
    if references is None:
        return None
    if type(references) is not list or not set(map(type, references)) <= {dict}:
        raise _field_error(index, "external_references", "a list of objects")
    for ref in references:
        if ref.get("source_name") == "mitre-attack":
            ext = _string(ref, "external_id", index)
            if ext:
                return ext
    return None


def _string(obj: dict, field: str, index: int) -> str | None:
    """`obj[field]`, None when missing or null; anything but a string
    fails naming entry `index` of ``objects``."""
    value = obj.get(field)
    if value is None or type(value) is str:
        return value
    raise _field_error(index, field, "a string")


def _field_error(index: int, field: str, kind: str) -> StixParseError:
    return StixParseError(f"bundle 'objects' entry {index}: '{field}' is not {kind}")


def _roles(records: list[tuple | None]) -> Iterator[tuple]:
    """Each record's roles, in bundle order."""
    for record in records:
        if record is None:
            continue
        if record[0] is _ROLES:
            yield from record[1:]
        else:
            yield record


def parse_stix(bundle_bytes: bytes) -> tuple[TechniqueCatalog, UsageMatrix]:
    """Parse a STIX 2.x bundle into a technique catalog and its usage matrix.

    Revoked and deprecated objects are excluded; sub-techniques fold
    into their parent (id prefix rule), which inherits the sub's
    procedure examples. Procedure-example sentences come from the
    descriptions of `uses` relationships whose source is an
    intrusion-set/malware/tool/campaign, split by the corpus sentence
    splitter (`split_sentences`, no tokenizing), in bundle order: one
    split per technique of its descriptions joined by "\n", a hard
    boundary. The bundle is decoded once, each object reduced to its
    `_record` as it is decoded; the procedure examples and the usage
    matrix (`_usage_matrix`) both come from the `uses` records.

    The cyclic garbage collector is paused for the decode and the walk
    (and restored as it was): decoded JSON holds no cycles, so its
    collections there would only traverse the new containers.

    The bytes are handed on to `_load_bundle` without a reference kept
    here, so a caller that keeps none either (``parse_stix(f.read())``)
    has them freed before the objects are decoded.
    """
    held = [bundle_bytes]
    del bundle_bytes
    patterns: dict[str, str] = {}
    actor_ids: dict[str, str] = {}
    uses: list[tuple] = []
    version = None
    collecting = gc.isenabled()
    gc.disable()
    try:
        for role in _roles(_load_bundle(held.pop())):
            tag = role[0]
            if tag is _USE:
                uses.append(role)
            elif tag is _PATTERN:
                patterns[role[1]] = role[2]
            elif tag is _ACTOR:
                actor_ids[role[1]] = role[2]
            elif version is None:
                version = role[1]
    finally:
        if collecting:
            gc.enable()

    if not patterns:
        raise EmptyCatalogError("bundle contains no usable attack-pattern objects")

    descriptions: dict[str, list[str]] = {tid: [] for tid in sorted(set(patterns.values()))}
    for _, _, target, description in uses:
        technique = patterns.get(target)
        if technique is not None:
            descriptions[technique].append(description)

    records = tuple(
        TechniqueRecord(id=tid, procedure_examples=tuple(split_sentences("\n".join(texts))))
        for tid, texts in descriptions.items()
    )
    catalog = TechniqueCatalog(techniques=records, version=version or "unknown")
    return catalog, _usage_matrix(uses, actor_ids, patterns, catalog)


def _usage_matrix(
    uses: list[tuple],
    actor_ids: dict[str, str],
    patterns: dict[str, str],
    catalog: TechniqueCatalog,
) -> UsageMatrix:
    """Binary actor-by-technique usage matrix from `uses` relationships.

    `uses` are the bundle's `_USE` records in bundle order, `actor_ids`
    maps each actor's STIX id to its actor id and `patterns` each
    attack pattern's STIX id to its technique id. A relationship counts
    when its source is one of those actors and its target an attack
    pattern.
    Rows are actors (groups, software, campaigns) with at least one
    resolvable technique, in lexicographic actor-id order; columns are
    catalog techniques. Relationships whose target is missing from
    `patterns` are skipped and counted, not fatal; the catalog is built
    from every entry of `patterns`, so any other target resolves in it.
    """
    used: dict[str, set[str]] = {}
    skipped = 0
    for _, source, target, _ in uses:
        actor = actor_ids.get(source)
        if actor is None or target is None or not target.startswith("attack-pattern--"):
            continue
        technique = patterns.get(target)
        if technique is None:
            skipped += 1
            continue
        used.setdefault(actor, set()).add(technique)

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


# The shape `usage_to_dict` writes.
_USAGE_SHAPE = dict(
    format_version=STRING, actors=STRINGS, techniques=STRINGS, uses=list_of(list_of(INT)),
    skipped_unknown=INT,
)


def usage_from_dict(data: Mapping) -> UsageMatrix:
    """Rebuild a `usage_to_dict` matrix.

    Raises ValueError for the dense format "1", a record of another shape
    (see `check_record`) or format, or uses that do not fit: a list count
    other than one per actor, or an index out of range or listed twice.
    """
    if data.get("format_version") == "1":
        raise ValueError(
            "usage format 1 (the dense matrix) is no longer read; "
            "rerun `ttpmine kb build`"
        )
    check_record(data, _USAGE_SHAPE)
    version = data["format_version"]
    if version != USAGE_FORMAT_VERSION:
        raise ValueError(
            f"usage format {version!r} is not {USAGE_FORMAT_VERSION!r}"
        )
    actors, techniques, uses = data["actors"], data["techniques"], data["uses"]
    if len(uses) != len(actors):
        raise ValueError(f"'uses' must hold one list per actor ({len(actors)})")
    flat = list(chain.from_iterable(uses))
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
        skipped_unknown=data["skipped_unknown"],
    )
