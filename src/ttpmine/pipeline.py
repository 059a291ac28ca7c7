"""Pipeline orchestration: stage functions and artifact I/O.

Every stage writes its artifacts and returns what it built, and the
next stage takes that as it is: ``run_pipeline`` passes each stage's
objects on in memory and still writes every artifact, while the CLI
commands read prior artifacts from disk, so any stage can be re-run
standalone. There is one feature layout, the constants of
``features.layout``: the features CSV's header and a model's
``layout_version`` are checked against it as they are read, so rows and
models always agree. Artifacts embed the tool version, the
configuration hash, and (where applicable) the feature layout version. Every artifact reader fails with one ``PipelineError``
that names the file (and, in a JSONL artifact, the line).

Artifact formats:

* JSON artifacts carry a top-level ``"meta"`` object beside their
  payload: the usage matrix under ``"usage"`` and each model under
  ``"model"``.
* JSONL artifacts start with a single meta line ``{"meta": {...}}``
  followed by one record per line; a file without it does not load.
* The feature CSV has no inline meta: its header is the layout's, and
  ``<stem>.meta.json`` beside it holds only ``{"meta": ...}``, as the
  mine stage's ``patterns.meta.json`` does.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .attack_kb import (
    DEFAULT_MIN_EXAMPLES,
    EmptyCatalogError,
    StixParseError,
    UsageMatrix,
    build_action_dataset,
    parse_stix,
    usage_from_dict,
    usage_to_dict,
)
from .corpus import Report, load_annotations, load_reports, pair_universe
from .ctfidf import (
    DEFAULT_THRESHOLD,
    TOP_K_SCORES,
    CtfidfModel,
    ReportPrediction,
    model_from_dict,
    model_to_dict,
    predict_report,
    train_ctfidf,
)
from .embeddings import WordVectors, load_word_vectors
from .features.builder import (
    FeatureRows,
    build_report_features,
    coref_sentences,
    f4_table,
    read_features_csv,
    write_features_csv,
)
from .features.layout import LAYOUT_VERSION, N_SLOTS
from .gbdt.ensemble import (
    GbdtEnsemble,
    TrainConfig,
    decided_labels,
    ensemble_from_dict,
    ensemble_to_dict,
    predict_batch,
)
from .gbdt.ensemble import train as train_ensemble
from .labels import NULL
from .mining import (
    DEFAULT_MIN_SUPPORT,
    PACKAGED_CATEGORIES,
    CategoryMap,
    categorize,
    category_map_from_dict,
    export,
    mine,
    relation_prediction_from_dict,
    relation_prediction_records,
)
from .records import (
    INT, NUMBER, OBJECT, STRING, STRING_OR_NULL, Kind, check_object, check_record, list_of,
    object_of,
)

# SHA-256 from the interpreter's builtin module, the code `hashlib` falls
# back to, so the digests are the same; importing `hashlib` loads OpenSSL
# (about 3.5 MiB resident) for one 16-hex-digit hash per artifact.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

logger = logging.getLogger(__name__)

# allow_nan=False: NaN and Infinity are not JSON, so no writer emits them.
_JSON_KW = {"sort_keys": True, "separators": (",", ":"), "allow_nan": False}
# `json.dumps(value, **_JSON_KW)` without building an encoder per call.
_encode = json.JSONEncoder(**_JSON_KW).encode


class PipelineError(Exception):
    """A stage could not run (missing/invalid input or artifact)."""


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration for the end-to-end pipeline.

    Paths are part of the hash input, so re-running an identical
    configuration file yields artifacts with identical provenance.
    """

    stix: str | None = None
    reports: str | None = None
    annotations: str | None = None
    vectors: str | None = None
    categories: str | None = None
    out_dir: str = "out"
    threshold: float = DEFAULT_THRESHOLD
    min_examples: int = DEFAULT_MIN_EXAMPLES
    min_support: int = DEFAULT_MIN_SUPPORT
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_record(vars(self), _FIELD_SHAPE)
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        for name in ("min_examples", "min_support"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        """A `run` config file's config: a key left out keeps its default."""
        check_object(data)
        record = {**cls().to_dict(), **data}
        check_record(record, _CONFIG_SHAPE)
        return cls(**{**record, "train": TrainConfig.from_dict(record["train"], "train: ")})

    def config_hash(self) -> str:
        return provenance_hash(self.to_dict())


# A `run` config file's shape; a `PipelineConfig` holds a `TrainConfig` as `train`.
_CONFIG_SHAPE = dict(
    {key: STRING_OR_NULL for key in ("stix", "reports", "annotations", "vectors", "categories")},
    out_dir=STRING, threshold=NUMBER, min_examples=INT, min_support=INT, train=OBJECT,
)
_FIELD_SHAPE = {**_CONFIG_SHAPE, "train": Kind("a TrainConfig", frozenset({TrainConfig}))}


def provenance_hash(payload: Mapping) -> str:
    """The ``config_hash`` of an artifact's meta block: sha256 of the
    payload's sorted, compact JSON, cut to 16 hex digits."""
    return _sha256(_encode(payload).encode("utf-8")).hexdigest()[:16]


def make_meta(stage: str, config_hash: str, *, layout: bool = False) -> dict:
    """Provenance block embedded in every artifact; with ``layout``, it
    names the feature layout its rows or model are of."""
    meta = {
        "tool": "ttpmine",
        "tool_version": __version__,
        "stage": stage,
        "config_hash": config_hash,
    }
    if layout:
        meta["layout_version"] = LAYOUT_VERSION
    return meta


def write_json(path: str, payload: Mapping) -> None:
    # Encoded first: a NaN or infinity raises before the file is created.
    text = _encode(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _decoded(decode: Callable, value, path: str, what: str):
    """``decode(value)``, for a ``value`` read from the artifact at ``path``.

    Whatever decoding a malformed artifact or config file raises (bad
    JSON, a wrong type, a missing key, a bad value) becomes one
    PipelineError that names the file and ``what`` was being read.
    """
    try:
        return decode(value)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, PipelineError) as exc:
        raise PipelineError(
            f"{path}: malformed {what}: {type(exc).__name__}: {exc}"
        ) from exc


def read_json(path: str, what: str, decode: Callable):
    """The JSON artifact or config file at ``path``, passed through
    ``decode``."""
    if not os.path.exists(path):
        raise PipelineError(f"{what} not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        payload = _decoded(json.load, fh, path, what)
    return _decoded(decode, payload, path, what)


def write_jsonl(path: str, meta: Mapping, records: Iterable[Mapping]) -> None:
    """Stream the artifact into ``<path>.tmp``, then move it to ``path``:
    a record that fails to encode (a NaN) leaves ``path`` as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_encode({"meta": meta}) + "\n")
            for record in records:
                fh.write(_encode(record) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _payload(document, *keys: str) -> dict:
    """``document[keys[0]]``, once ``document`` holds an object under each key."""
    check_record(document, dict.fromkeys(keys, OBJECT))
    return document[keys[0]]


def _read_artifact(path: str, what: str, key: str, decode: Callable):
    """``decode`` of the JSON artifact's payload: its object beside ``meta``."""
    return read_json(path, what, lambda document: decode(_payload(document, key, "meta")))


def read_jsonl(
    path: str, what: str = "record", decode: Callable | None = None
) -> tuple[dict, list]:
    """Read a JSONL artifact, returning ``(meta, records)``, each record
    passed through ``decode`` if given. Line 1 must be the meta line."""
    if not os.path.exists(path):
        raise PipelineError(f"artifact not found: {path}")
    records: list = []
    with open(path, "r", encoding="utf-8") as fh:
        head = _decoded(json.loads, fh.readline(), path, "meta on line 1")
        meta = _decoded(lambda obj: _payload(obj, "meta"), head, path, "meta on line 1")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            where = f"{what} on line {lineno}"
            obj = _decoded(json.loads, line, path, where)
            records.append(obj if decode is None else _decoded(decode, obj, path, where))
    return meta, records


# The shape of a `classify.jsonl` record.
_REPORT_PREDICTION_SHAPE = dict(
    report_id=STRING, hit_sentences=object_of(list_of(INT)), top_scores=object_of(list_of(NUMBER))
)


def report_prediction_to_dict(p: ReportPrediction) -> dict:
    return {
        "report_id": p.report_id,
        "hit_sentences": {cid: list(v) for cid, v in p.hit_sentences.items()},
        "top_scores": {cid: list(v) for cid, v in p.top_scores.items()},
    }


def report_prediction_from_dict(data: Mapping) -> ReportPrediction:
    """A `ReportPrediction` record. ValueError for a record of another
    shape (see `check_record`), or unless exactly the detected techniques
    (the `hit_sentences` keys) have top scores, and each has a hit and
    `TOP_K_SCORES` scores in [0, 1], descending, as `predict_report` writes."""
    check_record(data, _REPORT_PREDICTION_SHAPE)
    prediction = ReportPrediction(
        report_id=data["report_id"],
        hit_sentences={cid: tuple(v) for cid, v in data["hit_sentences"].items()},
        top_scores={cid: tuple(map(float, v)) for cid, v in data["top_scores"].items()},
    )
    where = f"report {prediction.report_id!r}"
    hits, top = prediction.hit_sentences, prediction.top_scores
    for tid in sorted(hits):
        if not hits[tid]:
            raise ValueError(f"{where}: detected technique {tid} has no hit sentences")
        scores = top.get(tid, ())
        if len(scores) != TOP_K_SCORES:
            raise ValueError(f"{where}: {tid} needs {TOP_K_SCORES} top_scores")
        if not all(0.0 <= s <= 1.0 for s in scores):
            raise ValueError(f"{where}: {tid} top_scores {list(scores)} not all in [0, 1]")
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError(f"{where}: {tid} top_scores {list(scores)} are not descending")
    if set(top) != set(hits):
        raise ValueError(
            f"{where}: top_scores keys {sorted(top)} are not the "
            f"hit_sentences keys {sorted(hits)}"
        )
    return prediction


# ---------------------------------------------------------------------------
# Stage: kb
# ---------------------------------------------------------------------------


def stage_kb(
    stix_path: str,
    out_dir: str,
    *,
    min_examples: int = DEFAULT_MIN_EXAMPLES,
    config_hash: str = "",
) -> tuple[UsageMatrix, CtfidfModel]:
    """Parse a STIX bundle and train the sentence classifier.

    Writes ``usage.json`` and ``ctfidf.json`` into ``out_dir``, their
    meta naming the ATT&CK release (``attack_version``), and returns the
    usage matrix and the trained classifier. A bad ``min_examples``
    fails before any of it. A bundle that does not parse, or that leaves
    no technique with ``min_examples`` procedure examples, fails with
    its path before ``out_dir`` is made.
    """
    if min_examples < 1:
        raise ValueError(f"min_examples must be >= 1, got {min_examples}")
    if not os.path.exists(stix_path):
        raise PipelineError(f"kb: STIX bundle not found: {stix_path}")
    try:
        # No name here holds the bytes, so `parse_stix` can free them
        # once they are decoded.
        catalog, usage = parse_stix(Path(stix_path).read_bytes())
    except (StixParseError, EmptyCatalogError) as exc:
        raise PipelineError(f"kb: {stix_path}: {exc}") from exc
    counts = usage_counts(usage)
    logger.info(
        "kb: %d techniques, %d actors, %d uses (%d skipped: unknown technique)",
        len(catalog.techniques),
        counts["n_actors"],
        counts["n_uses"],
        counts["n_skipped_uses"],
    )
    dataset = build_action_dataset(catalog, min_examples=min_examples)
    logger.info(
        "kb: action dataset keeps %d/%d techniques (min_examples=%d)",
        len(dataset.techniques),
        len(catalog.techniques),
        min_examples,
    )
    if not dataset.techniques:
        raise PipelineError(
            f"kb: {stix_path}: no technique has at least {min_examples} "
            "procedure examples (min_examples)"
        )
    model = train_ctfidf(dataset)
    os.makedirs(out_dir, exist_ok=True)
    meta = make_meta("kb", config_hash)
    meta["attack_version"] = catalog.version
    write_json(
        os.path.join(out_dir, "usage.json"),
        {"meta": meta, "usage": usage_to_dict(usage)},
    )
    write_json(
        os.path.join(out_dir, "ctfidf.json"),
        {"meta": meta, "model": model_to_dict(model)},
    )
    return usage, model


def usage_counts(usage: UsageMatrix) -> dict:
    """The actors and uses the usage matrix kept, and the `uses`
    relationships it skipped because their technique is not in the
    catalog."""
    # count_nonzero, not sum: an int8 sum casts through a 64 KiB buffer,
    # which at the end of a run raises the peak RSS.
    return {
        "n_actors": len(usage.actors),
        "n_uses": int(np.count_nonzero(usage.cells)),
        "n_skipped_uses": usage.skipped_unknown,
    }


def load_kb_usage(kb_dir: str) -> UsageMatrix:
    return _read_artifact(os.path.join(kb_dir, "usage.json"), "kb usage", "usage", usage_from_dict)


def load_ctfidf_model(path: str) -> CtfidfModel:
    return _read_artifact(path, "classifier model", "model", model_from_dict)


# ---------------------------------------------------------------------------
# Stage: classify
# ---------------------------------------------------------------------------


def _classify(
    model: CtfidfModel, reports: Sequence[Report], threshold: float
) -> list[ReportPrediction]:
    return [predict_report(model, r, threshold=threshold) for r in reports]


def stage_classify(
    model: CtfidfModel,
    reports: Sequence[Report],
    out_path: str,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    config_hash: str = "",
) -> list[ReportPrediction]:
    """Run the sentence classifier over every report and write JSONL."""
    ordered = sorted(reports, key=lambda r: r.report_id)
    predictions = _classify(model, ordered, threshold)
    meta = make_meta("classify", config_hash)
    meta["threshold"] = threshold
    write_jsonl(out_path, meta, (report_prediction_to_dict(p) for p in predictions))
    logger.info(
        "classify: wrote %d report predictions to %s", len(predictions), out_path
    )
    return predictions


def load_report_predictions(path: str) -> list[ReportPrediction]:
    """The report predictions of a ``classify.jsonl``."""
    return read_jsonl(path, "report prediction", report_prediction_from_dict)[1]


# ---------------------------------------------------------------------------
# Stage: features
# ---------------------------------------------------------------------------


def stage_features(
    usage: UsageMatrix,
    reports: Sequence[Report],
    predictions: Sequence[ReportPrediction],
    out_path: str,
    *,
    vectors: WordVectors | None = None,
    config_hash: str = "",
) -> FeatureRows:
    """Extract the pair-feature rows of every report and write CSV.

    A report's rows are the ordered pairs of the techniques its
    prediction detected (see ``build_report_features``); a pair the
    classifier did not detect in a report gets no row there.
    ``predictions`` takes the classify stage's output, one per report,
    and uses its detections as given: the rows do not depend on the
    threshold they were made at. A hit sentence outside its report fails
    with one PipelineError naming the report. The f4 slots are computed
    once per pair of the universe (the union of the reports' pairs), not
    once per row. Each report's block of rows is copied into one corpus
    matrix as soon as it is built. The meta block goes to
    ``<stem>.meta.json`` beside the CSV.
    """
    ordered = sorted(reports, key=lambda r: r.report_id)
    by_id = {p.report_id: p for p in predictions}
    for report in ordered:
        if report.report_id not in by_id:
            raise PipelineError(
                f"features: no classifier prediction for {report.report_id!r}"
            )

    universes = [pair_universe(by_id[r.report_id].techniques) for r in ordered]
    f4 = f4_table(usage, (pair for u in universes for pair in u))
    n_rows = sum(map(len, universes))
    values = np.empty((n_rows, N_SLOTS), dtype=np.float64)
    keys = []
    for report in ordered:
        try:
            block = build_report_features(report, by_id[report.report_id], wv=vectors, f4=f4)
        except ValueError as exc:  # a hit sentence outside the report
            raise PipelineError(f"features: {exc}") from exc
        values[len(keys) : len(keys) + len(block)] = block.values
        keys += block.keys
    rows = FeatureRows(keys, values)
    write_features_csv(rows, path=out_path)
    meta = make_meta("features", config_hash, layout=True)
    write_json(os.path.splitext(out_path)[0] + ".meta.json", {"meta": meta})
    logger.info(
        "features: wrote %d pair vectors (%d slots, %d with f4_missing) to %s; "
        "coreference over %d hit sentences of %d",
        len(rows),
        N_SLOTS,
        count_f4_missing(rows),
        out_path,
        count_hit_sentences(by_id[report.report_id] for report in ordered),
        sum(len(report.sentences) for report in ordered),
    )
    return rows


def count_hit_sentences(predictions: Iterable[ReportPrediction]) -> int:
    """The sentences the features stage computes coreference links among:
    each report's `coref_sentences`."""
    return sum(len(coref_sentences(p)) for p in predictions)


def count_f4_missing(rows: FeatureRows) -> int:
    """Rows whose f4 slots are zero because a technique of the pair is
    not in the usage matrix (or the matrix has no actors)."""
    return int(np.count_nonzero(rows.f4_missing))


def load_features(path: str) -> FeatureRows:
    """Load a feature CSV of the one layout. A CSV whose header is not
    the layout's, or a row that does not fit it, fails
    with its path (and line)."""
    if not os.path.exists(path):
        raise PipelineError(f"features artifact not found: {path}")
    try:
        return read_features_csv(path)
    except ValueError as exc:
        raise PipelineError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Stage: train-relations
# ---------------------------------------------------------------------------


def labels_for_rows(rows: FeatureRows, annotations) -> list[frozenset[str]]:
    """Resolve the label set for each feature row.

    Pairs without an explicit annotation are implicit ``{NULL}``.
    """
    explicit: dict[tuple[str, str, str], frozenset[str]] = {}
    for ann in annotations:
        explicit[(ann.report_id, ann.tx, ann.ty)] = ann.labels
    null_only = frozenset({NULL})
    return [explicit.get(key, null_only) for key in rows]


def count_unrowed_annotations(rows: FeatureRows, annotations) -> int:
    """Annotated pairs with a temporal relation (labels other than
    ``{NULL}``) that have no feature row: the classifier did not detect
    both techniques in the report, or the report is not in the corpus.
    No row means the pair is not trained on, scored or mined."""
    rowed = set(rows)
    return sum(
        1
        for ann in annotations
        if NULL not in ann.labels and (ann.report_id, ann.tx, ann.ty) not in rowed
    )


def _n_splits(node: dict) -> int:
    """The split nodes of a serialized tree."""
    return 0 if "value" in node else 1 + _n_splits(node["left"]) + _n_splits(node["right"])


def stage_train(
    rows: FeatureRows,
    labels: Sequence[frozenset[str]],
    out_path: str,
    *,
    train_config: TrainConfig | None = None,
    feature_groups: Sequence[str] | None = None,
    config_hash: str = "",
) -> GbdtEnsemble:
    """Train the temporal relation classifier and write the model JSON."""
    config = train_config or TrainConfig()
    ensemble = train_ensemble(rows, labels, config, feature_groups=feature_groups)
    for label, lm in ensemble.models.items():
        curve = lm.loss_curve
        logger.info(
            "train-relations: label %s: %d trees (%d splits), %d rows (%d positive), "
            "degenerate=%s, loss %s",
            label,
            len(lm.trees),
            sum(map(_n_splits, lm.trees)),
            lm.n_rows,
            lm.n_positives,
            lm.degenerate,
            f"{curve[0]:.6g} -> {curve[-1]:.6g}" if curve else "n/a",
        )
    meta = make_meta("train-relations", config_hash, layout=True)
    write_json(out_path, {"meta": meta, "model": ensemble_to_dict(ensemble)})
    logger.info("train-relations: wrote model to %s", out_path)
    return ensemble


def load_relation_model(path: str) -> GbdtEnsemble:
    return _read_artifact(path, "relation model", "model", ensemble_from_dict)


# ---------------------------------------------------------------------------
# Stage: predict
# ---------------------------------------------------------------------------


def stage_predict(
    ensemble: GbdtEnsemble,
    rows: FeatureRows,
    out_path: str,
    *,
    config_hash: str = "",
) -> list[frozenset[str]]:
    """Predict temporal relations for every feature row, write one JSONL
    record per row (its key, its probability of each label and its
    decided labels), and return the decided label sets."""
    probabilities = predict_batch(ensemble, rows)
    labels = decided_labels(probabilities, ensemble.config.decision_threshold)
    meta = make_meta("predict", config_hash, layout=True)
    write_jsonl(out_path, meta, relation_prediction_records(rows.keys, probabilities, labels))
    logger.info("predict: wrote %d pair predictions to %s", len(labels), out_path)
    return labels


def load_relation_predictions(path: str) -> tuple[list, list[frozenset[str]]]:
    """The pair keys ``(report_id, tx, ty)`` of a ``predictions.jsonl``
    and their decided label sets, aligned."""
    records = read_jsonl(path, "relation prediction", relation_prediction_from_dict)[1]
    return [key for key, _ in records], [labels for _, labels in records]


# ---------------------------------------------------------------------------
# Stage: mine
# ---------------------------------------------------------------------------


def load_categories(path: str) -> CategoryMap:
    """The category map file at ``path``; one PipelineError naming the
    file if it does not decode or breaks the map's rules."""
    return read_json(path, "category map", category_map_from_dict)


def stage_mine(
    keys: Sequence[tuple[str, str, str]],
    labels: Sequence[frozenset[str]],
    out_path: str,
    *,
    category_map: CategoryMap,
    min_support: int = DEFAULT_MIN_SUPPORT,
    config_hash: str = "",
) -> list:
    """Mine recurring patterns from the pair keys ``(report_id, tx, ty)``
    and their aligned decided label sets, attach categories, and export
    them as csv, json and dot: ``out_path``'s stem with each extension.
    """
    patterns = mine(keys, labels, n=min_support)
    patterns = categorize(patterns, category_map)
    base = os.path.splitext(out_path)[0]
    for fmt in ("csv", "json", "dot"):
        with open(f"{base}.{fmt}", "wb") as fh:
            fh.write(export(patterns, fmt))
    meta = make_meta("mine", config_hash)
    meta["min_support"] = min_support
    meta["patterns"] = len(patterns)
    write_json(base + ".meta.json", {"meta": meta})
    logger.info("mine: %d patterns at min_support=%d", len(patterns), min_support)
    return patterns


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute kb -> classify -> features -> train -> predict -> mine.

    Returns a summary dict of artifact paths and headline counts. The
    relation model is trained from ``config.annotations``; the run
    fails before it writes anything if a required input is missing.
    """
    for name, exists in (
        ("stix", os.path.isfile),
        ("reports", os.path.isdir),
        ("annotations", os.path.isfile),
    ):
        path = getattr(config, name)
        if path is None:
            raise PipelineError(f"run: config.{name} is required")
        if not exists(path):
            raise PipelineError(f"run: {name} not found: {path}")
    # The side inputs are read first, so a bad one fails the run before
    # it writes anything.
    vectors = None
    if config.vectors is not None:
        vectors = load_word_vectors(config.vectors)
    category_map = load_categories(config.categories or PACKAGED_CATEGORIES)
    chash = config.config_hash()
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    kb_dir = os.path.join(out_dir, "kb")

    usage, model = stage_kb(
        config.stix, kb_dir, min_examples=config.min_examples, config_hash=chash
    )
    reports = load_reports(config.reports)
    if not reports:
        raise PipelineError(f"run: no reports found under {config.reports}")

    classify_path = os.path.join(out_dir, "classify.jsonl")
    report_predictions = stage_classify(
        model,
        reports,
        classify_path,
        threshold=config.threshold,
        config_hash=chash,
    )

    features_path = os.path.join(out_dir, "features.csv")
    rows = stage_features(
        usage,
        reports,
        report_predictions,
        features_path,
        vectors=vectors,
        config_hash=chash,
    )

    annotations = load_annotations(config.annotations, techniques=usage.techniques)
    labels = labels_for_rows(rows, annotations)
    n_unrowed = count_unrowed_annotations(rows, annotations)
    if n_unrowed:
        logger.warning(
            "train-relations: %d annotated relations have no feature row "
            "(a technique of the pair was not detected)",
            n_unrowed,
        )

    model_path = os.path.join(out_dir, "relations.json")
    ensemble = stage_train(
        rows,
        labels,
        model_path,
        train_config=config.train,
        config_hash=chash,
    )

    predictions_path = os.path.join(out_dir, "predictions.jsonl")
    predicted = stage_predict(ensemble, rows, predictions_path, config_hash=chash)

    patterns_path = os.path.join(out_dir, "patterns.csv")
    patterns = stage_mine(
        rows.keys,
        predicted,
        patterns_path,
        min_support=config.min_support,
        category_map=category_map,
        config_hash=chash,
    )

    return {
        "config_hash": chash,
        "kb_dir": kb_dir,
        "classify": classify_path,
        "features": features_path,
        "model": model_path,
        "predictions": predictions_path,
        "patterns": patterns_path,
        "n_reports": len(reports),
        "n_sentences": sum(len(report.sentences) for report in reports),
        "n_hit_sentences": count_hit_sentences(report_predictions),
        "n_pairs": len(rows),
        "n_unrowed_annotations": n_unrowed,
        "n_f4_missing": count_f4_missing(rows),
        "n_patterns": len(patterns),
        **usage_counts(usage),
    }
