"""Pipeline orchestration: stage functions and artifact I/O.

Every stage writes its artifacts and returns what it built, and the
next stage takes that as it is: ``run_pipeline`` passes each stage's
objects on in memory and still writes every artifact, while the CLI
commands read prior artifacts from disk, so any stage can be re-run
standalone. Feature rows carry their layout, so no stage takes a layout
beside them. Artifacts embed the tool version, the configuration hash,
and (where applicable) the feature layout version. Two checks guard the
layout: ``load_features`` checks a features CSV against its sidecar,
and ``predict_batch`` refuses rows whose layout is not the model's.
Every artifact reader fails with one ``PipelineError`` that names the
file (and, in a JSONL artifact, the line).

Artifact formats:

* JSON artifacts carry a top-level ``"meta"`` object; model payloads
  sit under ``"model"`` (bare model files are also accepted on read).
* JSONL artifacts start with a single meta line ``{"meta": {...}}``
  followed by one record per line.
* The feature CSV has no inline meta; a sidecar ``<out>.layout.json``
  carries the layout descriptor plus the meta block.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .attack_kb import (
    TechniqueCatalog,
    UsageMatrix,
    build_action_dataset,
    catalog_from_dict,
    catalog_to_dict,
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
from .features import FeatureLayout, FeatureRows
from .features.builder import (
    build_report_features,
    coref_sentences,
    f4_table,
    read_features_csv,
    write_features_csv,
)
from .gbdt import GbdtEnsemble, RelationPrediction, TrainConfig
from .gbdt.ensemble import (
    check_field_types,
    ensemble_from_dict,
    ensemble_to_dict,
    predict_batch,
)
from .gbdt.ensemble import train as train_ensemble
from .labels import NULL
from .mining import CategoryMap, categorize, export, load_category_map, mine

logger = logging.getLogger(__name__)

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}
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
    min_examples: int = 20
    bins: int = 10
    min_support: int = 2
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        for name in ("min_examples", "bins", "min_support"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise PipelineError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("train"), Mapping):
            kwargs["train"] = TrainConfig.from_dict(kwargs["train"])
        return cls(**kwargs)

    def config_hash(self) -> str:
        return provenance_hash(self.to_dict())


def provenance_hash(payload: Mapping) -> str:
    """The ``config_hash`` of an artifact's meta block: sha256 of the
    payload's sorted, compact JSON, cut to 16 hex digits."""
    return hashlib.sha256(_encode(payload).encode("utf-8")).hexdigest()[:16]


def make_meta(stage: str, config_hash: str, layout_version: str | None = None) -> dict:
    """Provenance block embedded in every artifact."""
    meta = {
        "tool": "ttpmine",
        "tool_version": __version__,
        "stage": stage,
        "config_hash": config_hash,
    }
    if layout_version is not None:
        meta["layout_version"] = layout_version
    return meta


def write_json(path: str, payload: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_encode(payload) + "\n")


def _decoded(decode: Callable, value, path: str, what: str):
    """``decode(value)``, for a ``value`` read from the artifact at ``path``.

    Whatever decoding a malformed artifact or config file raises (bad
    JSON, a wrong type, a missing key, a bad value) becomes one
    PipelineError that names the file and ``what`` was being read.
    """
    try:
        return decode(value)
    except (KeyError, TypeError, ValueError, AttributeError, PipelineError) as exc:
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_encode({"meta": meta}) + "\n")
        for record in records:
            fh.write(_encode(record) + "\n")


def read_jsonl(
    path: str, what: str = "record", decode: Callable | None = None
) -> tuple[dict, list]:
    """Read a JSONL artifact, returning ``(meta, records)``, each record
    passed through ``decode`` if given.

    The meta line is optional so hand-built files also load.
    """
    if not os.path.exists(path):
        raise PipelineError(f"artifact not found: {path}")
    meta: dict = {}
    records: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{what} on line {lineno}"
            obj = _decoded(json.loads, line, path, where)
            if lineno == 1 and isinstance(obj, dict) and set(obj) == {"meta"}:
                meta = obj["meta"]
                continue
            records.append(obj if decode is None else _decoded(decode, obj, path, where))
    return meta, records


def _unwrap(payload: Mapping, key: str):
    """Accept both ``{"meta": ..., key: {...}}`` and the bare ``{...}``."""
    return payload[key] if key in payload else payload


def report_prediction_to_dict(p: ReportPrediction) -> dict:
    return {
        "report_id": p.report_id,
        "threshold": p.threshold,
        "techniques": sorted(p.techniques),
        "top_scores": {cid: list(v) for cid, v in p.top_scores.items()},
        "hit_sentences": {cid: list(v) for cid, v in p.hit_sentences.items()},
    }


def report_prediction_from_dict(data: Mapping) -> ReportPrediction:
    """A `ReportPrediction` record. ValueError unless its detected
    techniques are its `hit_sentences` keys, each with a hit (detection
    needs one), its hits are integer sentence indices and each technique
    has `TOP_K_SCORES` top scores."""
    prediction = ReportPrediction(
        report_id=data["report_id"],
        threshold=float(data["threshold"]),
        techniques=frozenset(data["techniques"]),
        top_scores={
            cid: tuple(map(float, v)) for cid, v in data["top_scores"].items()
        },
        hit_sentences={cid: tuple(v) for cid, v in data["hit_sentences"].items()},
    )
    techniques = prediction.techniques
    where = f"report {prediction.report_id!r}"
    if techniques != set(prediction.hit_sentences):
        raise ValueError(
            f"{where}: techniques {sorted(techniques)} are not the "
            f"hit_sentences keys {sorted(prediction.hit_sentences)}"
        )
    if not all(type(i) is int for hits in prediction.hit_sentences.values() for i in hits):
        raise ValueError(f"{where}: hit_sentences must hold integer sentence indices")
    for tid in sorted(techniques):
        if not prediction.hit_sentences[tid]:
            raise ValueError(f"{where}: detected technique {tid} has no hit sentences")
        if len(prediction.top_scores.get(tid, ())) != TOP_K_SCORES:
            raise ValueError(f"{where}: {tid} needs {TOP_K_SCORES} top_scores")
    return prediction


def relation_prediction_to_dict(p: RelationPrediction) -> dict:
    return {
        "report_id": p.report_id,
        "tx": p.tx,
        "ty": p.ty,
        "probabilities": p.probabilities,
        "labels": sorted(p.labels),
    }


def relation_prediction_from_dict(data: Mapping) -> RelationPrediction:
    return RelationPrediction(
        tx=data["tx"],
        ty=data["ty"],
        probabilities={k: float(v) for k, v in data["probabilities"].items()},
        labels=frozenset(data["labels"]),
        report_id=data.get("report_id", ""),
    )


# ---------------------------------------------------------------------------
# Stage: kb
# ---------------------------------------------------------------------------


def stage_kb(
    stix_path: str,
    out_dir: str,
    *,
    min_examples: int = 20,
    config_hash: str = "",
) -> tuple[TechniqueCatalog, UsageMatrix, CtfidfModel]:
    """Parse a STIX bundle and train the sentence classifier.

    Writes ``catalog.json``, ``usage.json``, and ``ctfidf.json`` into
    ``out_dir`` and returns the catalog, the usage matrix and the
    trained classifier. A bad ``min_examples`` fails before any of it.
    """
    if min_examples < 1:
        raise ValueError(f"min_examples must be >= 1, got {min_examples}")
    if not os.path.exists(stix_path):
        raise PipelineError(f"kb: STIX bundle not found: {stix_path}")
    with open(stix_path, "rb") as fh:
        bundle_bytes = fh.read()
    os.makedirs(out_dir, exist_ok=True)
    catalog, usage = parse_stix(bundle_bytes)
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
    model = train_ctfidf(dataset)
    meta = make_meta("kb", config_hash)
    write_json(
        os.path.join(out_dir, "catalog.json"),
        {"meta": meta, "catalog": catalog_to_dict(catalog)},
    )
    write_json(
        os.path.join(out_dir, "usage.json"),
        {"meta": meta, "usage": usage_to_dict(usage)},
    )
    write_json(
        os.path.join(out_dir, "ctfidf.json"),
        {"meta": meta, "model": model_to_dict(model)},
    )
    return catalog, usage, model


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


def load_kb_catalog(kb_dir: str) -> TechniqueCatalog:
    return read_json(
        os.path.join(kb_dir, "catalog.json"),
        "kb catalog",
        lambda payload: catalog_from_dict(_unwrap(payload, "catalog")),
    )


def load_kb_usage(kb_dir: str) -> UsageMatrix:
    return read_json(
        os.path.join(kb_dir, "usage.json"),
        "kb usage",
        lambda payload: usage_from_dict(_unwrap(payload, "usage")),
    )


def load_ctfidf_model(path: str) -> CtfidfModel:
    return read_json(
        path,
        "classifier model",
        lambda payload: model_from_dict(_unwrap(payload, "model")),
    )


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
    threshold: float = DEFAULT_THRESHOLD,
    bins: int = 10,
    config_hash: str = "",
) -> FeatureRows:
    """Extract the pair-feature rows of every report and write CSV.

    A report's rows are the ordered pairs of the techniques its
    prediction detected (see ``build_report_features``); a pair the
    classifier did not detect in a report gets no row there.
    ``predictions`` takes the classify stage's output, one per report,
    made at ``threshold``; a hit sentence outside its report fails with
    one PipelineError naming the report. The f4 slots are computed once
    per pair of the universe (the union of the reports' pairs), not once
    per row. Each report's block of rows is copied
    into one corpus matrix as soon as it is built.

    A sidecar ``<out>.layout.json`` records the layout descriptor so
    later stages can validate compatibility.
    """
    layout = FeatureLayout(bins=bins)
    ordered = sorted(reports, key=lambda r: r.report_id)
    by_id = {p.report_id: p for p in predictions}
    for report in ordered:
        prediction = by_id.get(report.report_id)
        if prediction is None:
            raise PipelineError(
                f"features: no classifier prediction for {report.report_id!r}"
            )
        if prediction.threshold != threshold:
            raise PipelineError(
                f"features: prediction for report {report.report_id!r} used "
                f"threshold {prediction.threshold}, not {threshold}"
            )

    universes = [pair_universe(by_id[r.report_id].techniques) for r in ordered]
    f4 = f4_table(usage, (pair for u in universes for pair in u), bins)
    n_rows = sum(map(len, universes))
    values = np.empty((n_rows, layout.total), dtype=np.float64)
    keys = []
    for report in ordered:
        try:
            block = build_report_features(
                report, by_id[report.report_id], wv=vectors, layout=layout, f4=f4
            )
        except ValueError as exc:  # a hit sentence outside the report
            raise PipelineError(f"features: {exc}") from exc
        values[len(keys) : len(keys) + len(block)] = block.values
        keys += block.keys
    rows = FeatureRows(keys, values, layout)
    write_features_csv(rows, path=out_path)
    meta = make_meta("features", config_hash, layout_version=layout.version)
    meta["threshold"] = threshold
    write_json(out_path + ".layout.json", {"meta": meta, "layout": layout.descriptor()})
    logger.info(
        "features: wrote %d pair vectors (%d slots, %d with f4_missing) to %s; "
        "coreference over %d hit sentences of %d",
        len(rows),
        layout.total,
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


def _sidecar_layout(sidecar: Mapping) -> FeatureLayout:
    """The layout a features sidecar describes."""
    descriptor = sidecar["layout"]
    layout = FeatureLayout(bins=int(descriptor["bins"]))
    if layout.version != descriptor["layout_version"]:
        raise ValueError(
            f"layout version {descriptor['layout_version']!r} does not match "
            f"its bins ({layout.version!r})"
        )
    return layout


def load_features(path: str) -> FeatureRows:
    """Load a feature CSV under the layout its sidecar describes. A CSV
    that does not fit that layout fails with its path and line."""
    if not os.path.exists(path):
        raise PipelineError(f"features artifact not found: {path}")
    layout = read_json(path + ".layout.json", "features sidecar", _sidecar_layout)
    try:
        return read_features_csv(path, layout)
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
            "train-relations: label %s: %d trees, %d rows (%d positive), "
            "degenerate=%s, loss %s",
            label,
            len(lm.trees),
            lm.n_rows,
            lm.n_positives,
            lm.degenerate,
            f"{curve[0]:.6g} -> {curve[-1]:.6g}" if curve else "n/a",
        )
    meta = make_meta("train-relations", config_hash, layout_version=rows.layout.version)
    write_json(out_path, {"meta": meta, "model": ensemble_to_dict(ensemble)})
    logger.info("train-relations: wrote model to %s", out_path)
    return ensemble


def load_relation_model(path: str) -> GbdtEnsemble:
    return read_json(
        path,
        "relation model",
        lambda payload: ensemble_from_dict(_unwrap(payload, "model")),
    )


# ---------------------------------------------------------------------------
# Stage: predict
# ---------------------------------------------------------------------------


def stage_predict(
    ensemble: GbdtEnsemble,
    rows: FeatureRows,
    out_path: str,
    *,
    config_hash: str = "",
) -> list[RelationPrediction]:
    """Predict temporal relations for every feature row and write JSONL."""
    predictions = predict_batch(ensemble, rows)
    meta = make_meta("predict", config_hash, layout_version=rows.layout.version)
    write_jsonl(out_path, meta, (relation_prediction_to_dict(p) for p in predictions))
    logger.info("predict: wrote %d pair predictions to %s", len(predictions), out_path)
    return predictions


def load_relation_predictions(path: str) -> list[RelationPrediction]:
    return read_jsonl(path, "relation prediction", relation_prediction_from_dict)[1]


# ---------------------------------------------------------------------------
# Stage: mine
# ---------------------------------------------------------------------------


def stage_mine(
    predictions: Sequence[RelationPrediction],
    out_path: str,
    *,
    min_support: int = 2,
    category_map: CategoryMap | None = None,
    formats: Sequence[str] = ("csv", "json", "dot"),
    config_hash: str = "",
) -> list:
    """Mine recurring patterns, attach categories, and export.

    ``out_path`` names the primary artifact; sibling formats replace
    its extension.
    """
    cmap = category_map if category_map is not None else load_category_map()
    by_report: dict[str, list[RelationPrediction]] = {}
    for pred in predictions:
        by_report.setdefault(pred.report_id, []).append(pred)
    patterns = mine(by_report, n=min_support)
    patterns = categorize(patterns, cmap)
    base, ext = os.path.splitext(out_path)
    for fmt in formats:
        path = out_path if ext == "." + fmt else base + "." + fmt
        with open(path, "wb") as fh:
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
    fails early if a required input is missing.
    """
    for name in ("stix", "reports", "annotations"):
        if getattr(config, name) is None:
            raise PipelineError(f"run: config.{name} is required")
    chash = config.config_hash()
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    kb_dir = os.path.join(out_dir, "kb")

    catalog, usage, model = stage_kb(
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

    vectors = None
    if config.vectors is not None:
        vectors = load_word_vectors(config.vectors)

    features_path = os.path.join(out_dir, "features.csv")
    rows = stage_features(
        usage,
        reports,
        report_predictions,
        features_path,
        vectors=vectors,
        threshold=config.threshold,
        bins=config.bins,
        config_hash=chash,
    )

    annotations = load_annotations(config.annotations, catalog=catalog)
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
    predictions = stage_predict(ensemble, rows, predictions_path, config_hash=chash)

    category_map = None
    if config.categories is not None:
        category_map = load_category_map(config.categories)
    patterns_path = os.path.join(out_dir, "patterns.csv")
    patterns = stage_mine(
        predictions,
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
