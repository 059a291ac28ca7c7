"""Command line interface.

One subcommand per pipeline stage plus ``run`` for the whole chain.
Every stage writes deterministic artifacts; re-running a command with
identical inputs yields byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__
from .attack_kb import EmptyCatalogError, StixParseError
from .corpus import AnnotationError, CorpusError, load_annotations, load_reports
from .ctfidf import DEFAULT_THRESHOLD, TrainingError
from .embeddings import EmbeddingParseError, load_word_vectors
from .features.layout import FEATURE_GROUPS, FeatureLayout
from .gbdt import TrainConfig
from .gbdt.ensemble import GbdtTrainingError, predict_batch
from .labels import NULL
from .metrics import evaluate_relations
from .mining import load_category_map
from .pipeline import (
    PipelineConfig,
    PipelineError,
    _classify,
    count_f4_missing,
    count_unrowed_annotations,
    labels_for_rows,
    load_ctfidf_model,
    load_features,
    load_kb_catalog,
    load_kb_usage,
    load_relation_model,
    load_relation_predictions,
    load_report_predictions,
    make_meta,
    provenance_hash,
    run_pipeline,
    stage_classify,
    stage_features,
    stage_kb,
    stage_mine,
    stage_predict,
    stage_train,
    usage_counts,
    write_json,
)
from .stopwords import STOPWORDS_VERSION

logger = logging.getLogger(__name__)

_ERRORS = (
    PipelineError,
    CorpusError,
    AnnotationError,
    StixParseError,
    EmptyCatalogError,
    TrainingError,
    GbdtTrainingError,
    EmbeddingParseError,
    OSError,
    ValueError,
)


def _version_string() -> str:
    from importlib import resources

    data = json.loads(
        resources.files("ttpmine")
        .joinpath("data/pattern_categories.json")
        .read_text(encoding="utf-8")
    )
    layout = FeatureLayout()
    return (
        f"ttpmine {__version__} "
        f"(feature layout {layout.version}, stopwords {STOPWORDS_VERSION}, "
        f"categories {data['format_version']})"
    )


class _VersionAction(argparse.Action):
    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_string())
        parser.exit()


def _split_csv(value: str | None) -> list[str] | None:
    if value is None:
        return None
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty list argument: {value!r}")
    return parts


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def cmd_kb_build(args) -> int:
    chash = provenance_hash(
        {"stix": args.stix, "out": args.out, "min_examples": args.min_examples}
    )
    _, usage, model = stage_kb(
        args.stix, args.out, min_examples=args.min_examples, config_hash=chash
    )
    counts = usage_counts(usage)
    print(
        f"kb: {len(model.class_ids)} classifier classes, "
        f"{counts['n_actors']} actors, {counts['n_uses']} uses "
        f"({counts['n_skipped_uses']} skipped: unknown technique); "
        f"wrote catalog.json, usage.json, ctfidf.json to {args.out}"
    )
    return 0


def cmd_corpus_validate(args) -> int:
    reports = load_reports(args.reports)
    n_sentences = sum(len(r.sentences) for r in reports)
    print(f"reports: {len(reports)} files, {n_sentences} sentences")
    if args.annotations:
        catalog = load_kb_catalog(args.kb) if args.kb else None
        annotations = load_annotations(args.annotations, catalog=catalog)
        known = {r.report_id for r in reports}
        referenced = {a.report_id for a in annotations}
        missing = sorted(referenced - known)
        if missing:
            raise PipelineError(
                "corpus: annotations reference unknown reports: " + ", ".join(missing)
            )
        print(
            f"annotations: {len(annotations)} labeled pairs across "
            f"{len(referenced)} reports"
        )
    print("corpus: OK")
    return 0


def cmd_classify(args) -> int:
    model = load_ctfidf_model(args.model)
    reports = load_reports(args.reports)
    chash = provenance_hash(
        {
            "model": args.model,
            "reports": args.reports,
            "threshold": args.threshold,
        }
    )
    predictions = stage_classify(
        model,
        reports,
        args.out,
        threshold=args.threshold,
        config_hash=chash,
    )
    detected = sum(len(p.techniques) for p in predictions)
    print(
        f"classify: {len(predictions)} reports, {detected} technique detections "
        f"-> {args.out}"
    )
    return 0


def cmd_features(args) -> int:
    if args.predictions:
        model, predictions = None, load_report_predictions(args.predictions)
        source = {"predictions": args.predictions}
    else:
        model_path = args.model or os.path.join(args.kb, "ctfidf.json")
        model = load_ctfidf_model(model_path)
        source = {"model": model_path}
    usage = load_kb_usage(args.kb)
    vectors = load_word_vectors(args.vectors) if args.vectors else None
    reports = load_reports(args.reports)
    if model is not None:
        predictions = _classify(model, reports, args.threshold)
    chash = provenance_hash(
        {
            "reports": args.reports,
            "kb": args.kb,
            **source,
            "vectors": args.vectors,
            "threshold": args.threshold,
            "bins": args.bins,
        }
    )
    try:
        rows = stage_features(
            usage,
            reports,
            predictions,
            args.out,
            vectors=vectors,
            threshold=args.threshold,
            bins=args.bins,
            config_hash=chash,
        )
    except PipelineError as exc:
        if not args.predictions:
            raise
        raise PipelineError(f"{args.predictions}: {exc}") from exc
    print(
        f"features: {len(rows)} pair vectors x {rows.layout.total} slots "
        f"({rows.layout.version}), {count_f4_missing(rows)} with f4_missing "
        f"-> {args.out}"
    )
    return 0


def _load_labeled_rows(features_path: str, annotations_path: str, kb: str | None):
    rows = load_features(features_path)
    catalog = load_kb_catalog(kb) if kb else None
    annotations = load_annotations(annotations_path, catalog=catalog)
    labels = labels_for_rows(rows, annotations)
    return rows, labels, count_unrowed_annotations(rows, annotations)


def cmd_train_relations(args) -> int:
    rows, labels, n_unrowed = _load_labeled_rows(
        args.features, args.annotations, args.kb
    )
    if args.train_config:
        with open(args.train_config, "r", encoding="utf-8") as fh:
            train_config = TrainConfig.from_dict(json.load(fh))
    else:
        train_config = TrainConfig()
    groups = _split_csv(args.feature_groups)
    if groups is not None:
        unknown = sorted(set(groups) - set(FEATURE_GROUPS))
        if unknown:
            raise PipelineError(
                f"unknown feature groups: {', '.join(unknown)} "
                f"(expected subset of {', '.join(FEATURE_GROUPS)})"
            )
    chash = provenance_hash(
        {
            "features": args.features,
            "annotations": args.annotations,
            "train_config": train_config.to_dict(),
            "feature_groups": groups,
        }
    )
    stage_train(
        rows,
        labels,
        args.out,
        train_config=train_config,
        feature_groups=groups,
        config_hash=chash,
    )
    print(
        f"train-relations: {len(rows)} rows ({rows.layout.version}), {n_unrowed} "
        f"annotated relations without a row -> {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    model = load_relation_model(args.model)
    rows, truth, n_unrowed = _load_labeled_rows(
        args.features, args.annotations, args.kb
    )
    predictions = predict_batch(model, rows)
    report = evaluate_relations(
        truth,
        [p.labels for p in predictions],
        [p.probabilities for p in predictions],
    )
    chash = provenance_hash(
        {
            "model": args.model,
            "features": args.features,
            "annotations": args.annotations,
        }
    )
    payload = {
        "meta": make_meta("eval", chash, layout_version=rows.layout.version),
        "metrics": report.to_dict(),
        # Annotated relations with no feature row are not scored as
        # misses: there is no row to score. They are counted here.
        "n_unrowed_annotations": n_unrowed,
    }
    if args.out:
        write_json(args.out, payload)
        print(
            f"eval: {len(rows)} rows, {n_unrowed} annotated relations "
            f"without a row -> {args.out}"
        )
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    model = load_relation_model(args.model)
    rows = load_features(args.features)
    chash = provenance_hash({"model": args.model, "features": args.features})
    predictions = stage_predict(model, rows, args.out, config_hash=chash)
    positive = sum(1 for p in predictions if p.labels != frozenset({NULL}))
    print(
        f"predict: {len(predictions)} pairs, {positive} with a temporal relation "
        f"-> {args.out}"
    )
    return 0


def cmd_mine(args) -> int:
    predictions = load_relation_predictions(args.predictions)
    category_map = load_category_map(args.categories) if args.categories else None
    formats = _split_csv(args.format) or ["csv", "json", "dot"]
    unknown = sorted(set(formats) - {"csv", "json", "dot"})
    if unknown:
        raise PipelineError(f"unknown export formats: {', '.join(unknown)}")
    chash = provenance_hash(
        {
            "predictions": args.predictions,
            "min_support": args.min_support,
            "categories": args.categories,
            "format": formats,
        }
    )
    patterns = stage_mine(
        predictions,
        args.out,
        min_support=args.min_support,
        category_map=category_map,
        formats=formats,
        config_hash=chash,
    )
    print(
        f"mine: {len(patterns)} patterns at min_support={args.min_support} -> {args.out}"
    )
    return 0


def cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    overrides = {
        "out_dir": args.out_dir,
        "threshold": args.threshold,
        "bins": args.bins,
        "min_support": args.min_support,
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    config = PipelineConfig.from_dict(data)
    summary = run_pipeline(config)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttpmine",
        description="Mine temporal attack patterns from CTI report text.",
    )
    parser.add_argument(
        "--version", action=_VersionAction, help="print version information and exit"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable debug logging"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("kb", help="knowledge base commands")
    kb_sub = p.add_subparsers(dest="kb_command", required=True, metavar="action")
    b = kb_sub.add_parser(
        "build", help="parse a STIX bundle and train the sentence classifier"
    )
    b.add_argument("--stix", required=True, help="ATT&CK STIX 2.x bundle (JSON)")
    b.add_argument("--out", required=True, help="output directory for kb artifacts")
    b.add_argument(
        "--min-examples",
        type=int,
        default=20,
        help="minimum procedure examples per technique class (default 20)",
    )
    b.set_defaults(func=cmd_kb_build)

    p = sub.add_parser("corpus", help="corpus commands")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True, metavar="action")
    c = corpus_sub.add_parser("validate", help="validate reports and annotations")
    c.add_argument("--reports", required=True, help="directory of report .txt files")
    c.add_argument("--annotations", help="relation annotation JSONL")
    c.add_argument("--kb", help="kb directory (checks annotation technique ids)")
    c.set_defaults(func=cmd_corpus_validate)

    p = sub.add_parser("classify", help="technique detection per report")
    p.add_argument("--model", required=True, help="ctfidf model JSON")
    p.add_argument("--reports", required=True, help="directory of report .txt files")
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"sentence detection threshold (default {DEFAULT_THRESHOLD})",
    )
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("features", help="pair feature extraction")
    p.add_argument("--reports", required=True, help="directory of report .txt files")
    p.add_argument("--kb", required=True, help="kb directory from `kb build`")
    detections = p.add_mutually_exclusive_group()
    detections.add_argument(
        "--model", help="ctfidf model JSON (default <kb>/ctfidf.json)"
    )
    detections.add_argument(
        "--predictions",
        help="classify.jsonl from `classify`, used instead of classifying again",
    )
    p.add_argument("--vectors", help="word vector text file for similarity features")
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"sentence detection threshold (default {DEFAULT_THRESHOLD})",
    )
    p.add_argument(
        "--bins", type=int, default=10, help="histogram bins per measure (default 10)"
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train-relations", help="train the temporal relation model")
    p.add_argument("--features", required=True, help="feature CSV from `features`")
    p.add_argument("--annotations", required=True, help="relation annotation JSONL")
    p.add_argument("--kb", help="kb directory (validates annotation technique ids)")
    p.add_argument("--train-config", help="TrainConfig JSON file")
    p.add_argument(
        "--feature-groups",
        help="comma list restricting split features (subset of "
        + ",".join(FEATURE_GROUPS)
        + "; default slots always active)",
    )
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_train_relations)

    p = sub.add_parser("eval", help="evaluate a relation model against annotations")
    p.add_argument("--model", required=True, help="relation model JSON")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--annotations", required=True, help="relation annotation JSONL")
    p.add_argument("--kb", help="kb directory (validates annotation technique ids)")
    p.add_argument("--out", help="metrics JSON path (default: print to stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict relations for extracted features")
    p.add_argument("--model", required=True, help="relation model JSON")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("mine", help="mine recurring temporal patterns")
    p.add_argument("--predictions", required=True, help="prediction JSONL")
    p.add_argument(
        "--min-support",
        type=int,
        default=2,
        help="minimum distinct reports per pattern (default 2)",
    )
    p.add_argument(
        "--categories", help="category map JSON (default: packaged map)"
    )
    p.add_argument(
        "--format",
        help="comma list of export formats: csv,json,dot (default all)",
    )
    p.add_argument("--out", required=True, help="primary output path")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out-dir", help="override config out_dir")
    p.add_argument("--threshold", type=float, help="override config threshold")
    p.add_argument("--bins", type=int, help="override config bins")
    p.add_argument("--min-support", type=int, help="override config min_support")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"ttpmine {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
