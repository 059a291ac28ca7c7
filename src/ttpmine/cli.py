"""Command line interface.

One subcommand per pipeline stage plus ``run`` for the whole chain.
Every stage writes deterministic artifacts; re-running a command with
identical inputs yields byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace

from . import __version__
from .attack_kb import DEFAULT_MIN_EXAMPLES
from .corpus import load_annotations, load_reports
from .ctfidf import DEFAULT_THRESHOLD
from .embeddings import load_word_vectors
from .features.layout import FEATURE_GROUPS, LAYOUT_VERSION, N_SLOTS
from .gbdt.ensemble import TrainConfig, decided_labels, predict_batch
from .labels import ALL_LABELS, NULL
from .metrics import evaluate_relations
from .mining import CATEGORY_FORMAT_VERSION, DEFAULT_MIN_SUPPORT, PACKAGED_CATEGORIES
from .pipeline import (
    PipelineConfig,
    PipelineError,
    _classify,
    count_f4_missing,
    count_unrowed_annotations,
    labels_for_rows,
    load_categories,
    load_ctfidf_model,
    load_features,
    load_kb_usage,
    load_relation_model,
    load_relation_predictions,
    load_report_predictions,
    make_meta,
    provenance_hash,
    read_json,
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

# Every other error the package raises on bad input subclasses ValueError.
_ERRORS = (PipelineError, OSError, ValueError)


def _version_string() -> str:
    # The version printed is the one the map reader accepted.
    load_categories(PACKAGED_CATEGORIES)
    return (
        f"ttpmine {__version__} "
        f"(feature layout {LAYOUT_VERSION}, stopwords {STOPWORDS_VERSION}, "
        f"categories {CATEGORY_FORMAT_VERSION})"
    )


class _VersionAction(argparse.Action):
    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        # Runs inside parse_args, before `main` can catch anything.
        try:
            version = _version_string()
        except _ERRORS as exc:
            parser.exit(1, f"{parser.prog}: error: {exc}\n")
        print(version)
        parser.exit()


def _positive_int(value: str) -> int:
    """Argparse type for a count: an int of at least 1."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _threshold(value: str) -> float:
    """Argparse type for a detection threshold: a float in (0, 1]."""
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not 0.0 < number <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {number}")
    return number


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
    usage, model = stage_kb(
        args.stix, args.out, min_examples=args.min_examples, config_hash=chash
    )
    counts = usage_counts(usage)
    print(
        f"kb: {len(model.class_ids)} classifier classes, "
        f"{counts['n_actors']} actors, {counts['n_uses']} uses "
        f"({counts['n_skipped_uses']} skipped: unknown technique); "
        f"wrote usage.json, ctfidf.json to {args.out}"
    )
    return 0


def _kb_techniques(kb: str | None) -> tuple[str, ...] | None:
    """The technique ids of the kb directory given to ``--kb``, if any."""
    return load_kb_usage(kb).techniques if kb else None


def cmd_corpus_validate(args) -> int:
    reports = load_reports(args.reports)
    n_sentences = sum(len(r.sentences) for r in reports)
    print(f"reports: {len(reports)} files, {n_sentences} sentences")
    if args.annotations:
        techniques = _kb_techniques(args.kb)
        annotations = load_annotations(args.annotations, techniques=techniques)
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
    # Without --predictions the reports are classified at the default
    # threshold; another threshold goes through `classify --threshold`.
    if args.predictions:
        model, predictions = None, load_report_predictions(args.predictions)
        source = {"predictions": args.predictions}
    else:
        model_path = os.path.join(args.kb, "ctfidf.json")
        model = load_ctfidf_model(model_path)
        source = {"model": model_path}
    usage = load_kb_usage(args.kb)
    vectors = load_word_vectors(args.vectors) if args.vectors else None
    reports = load_reports(args.reports)
    if model is not None:
        predictions = _classify(model, reports, DEFAULT_THRESHOLD)
    chash = provenance_hash(
        {
            "reports": args.reports,
            "kb": args.kb,
            **source,
            "vectors": args.vectors,
        }
    )
    try:
        rows = stage_features(
            usage,
            reports,
            predictions,
            args.out,
            vectors=vectors,
            config_hash=chash,
        )
    except PipelineError as exc:
        if not args.predictions:
            raise
        raise PipelineError(f"{args.predictions}: {exc}") from exc
    print(
        f"features: {len(rows)} pair vectors x {N_SLOTS} slots "
        f"({LAYOUT_VERSION}), {count_f4_missing(rows)} with f4_missing "
        f"-> {args.out}"
    )
    return 0


def _load_labeled_rows(features_path: str, annotations_path: str, kb: str | None):
    rows = load_features(features_path)
    annotations = load_annotations(annotations_path, techniques=_kb_techniques(kb))
    labels = labels_for_rows(rows, annotations)
    return rows, labels, count_unrowed_annotations(rows, annotations)


def cmd_train_relations(args) -> int:
    rows, labels, n_unrowed = _load_labeled_rows(
        args.features, args.annotations, args.kb
    )
    train_config = TrainConfig()
    if args.train_config:
        train_config = read_json(args.train_config, "train config", TrainConfig.from_dict)
    groups = _split_csv(args.feature_groups)
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
        f"train-relations: {len(rows)} rows ({LAYOUT_VERSION}), {n_unrowed} "
        f"annotated relations without a row -> {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    model = load_relation_model(args.model)
    rows, truth, n_unrowed = _load_labeled_rows(
        args.features, args.annotations, args.kb
    )
    probabilities = predict_batch(model, rows)
    report = evaluate_relations(
        truth,
        decided_labels(probabilities, model.config.decision_threshold),
        [dict(zip(ALL_LABELS, row)) for row in probabilities.tolist()],
    )
    chash = provenance_hash(
        {
            "model": args.model,
            "features": args.features,
            "annotations": args.annotations,
        }
    )
    payload = {
        "meta": make_meta("eval", chash, layout=True),
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
    labels = stage_predict(model, rows, args.out, config_hash=chash)
    positive = sum(1 for decided in labels if NULL not in decided)
    print(
        f"predict: {len(labels)} pairs, {positive} with a temporal relation "
        f"-> {args.out}"
    )
    return 0


def cmd_mine(args) -> int:
    keys, labels = load_relation_predictions(args.predictions)
    category_map = load_categories(args.categories or PACKAGED_CATEGORIES)
    chash = provenance_hash(
        {
            "predictions": args.predictions,
            "min_support": args.min_support,
            "categories": args.categories,
        }
    )
    patterns = stage_mine(
        keys,
        labels,
        args.out,
        min_support=args.min_support,
        category_map=category_map,
        config_hash=chash,
    )
    print(
        f"mine: {len(patterns)} patterns at min_support={args.min_support} -> {args.out}"
    )
    return 0


def cmd_run(args) -> int:
    config = read_json(args.config, "pipeline config", PipelineConfig.from_dict)
    if args.out_dir is not None:
        config = replace(config, out_dir=args.out_dir)
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
    kb_sub = p.add_subparsers(dest="action", required=True, metavar="action")
    b = kb_sub.add_parser(
        "build", help="parse a STIX bundle and train the sentence classifier"
    )
    b.add_argument("--stix", required=True, help="ATT&CK STIX 2.x bundle (JSON)")
    b.add_argument("--out", required=True, help="output directory for kb artifacts")
    b.add_argument(
        "--min-examples",
        type=_positive_int,
        default=DEFAULT_MIN_EXAMPLES,
        help="minimum procedure examples per technique class "
        f"(default {DEFAULT_MIN_EXAMPLES})",
    )
    b.set_defaults(func=cmd_kb_build)

    p = sub.add_parser("corpus", help="corpus commands")
    corpus_sub = p.add_subparsers(dest="action", required=True, metavar="action")
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
        type=_threshold,
        default=DEFAULT_THRESHOLD,
        help=f"sentence detection threshold (default {DEFAULT_THRESHOLD})",
    )
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("features", help="pair feature extraction")
    p.add_argument("--reports", required=True, help="directory of report .txt files")
    p.add_argument("--kb", required=True, help="kb directory from `kb build`")
    p.add_argument(
        "--predictions",
        help="classify.jsonl from `classify`, whose detections are used as given; "
        "without it the reports are classified with <kb>/ctfidf.json at the "
        f"default threshold {DEFAULT_THRESHOLD}",
    )
    p.add_argument("--vectors", help="word vector text file for similarity features")
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
        type=_positive_int,
        default=DEFAULT_MIN_SUPPORT,
        help=f"minimum distinct reports per pattern (default {DEFAULT_MIN_SUPPORT})",
    )
    p.add_argument(
        "--categories", help="category map JSON (default: packaged map)"
    )
    p.add_argument(
        "--out",
        required=True,
        help="patterns path; the .csv, .json and .dot exports share its stem",
    )
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out-dir", help="override config out_dir")
    p.set_defaults(func=cmd_run)

    return parser


# One parser per process: each one built is about 100 KiB of cyclic
# garbage once dropped, which several in-process calls would leave behind.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except _ERRORS as exc:
        # A nested command is named in full: `kb build`, `corpus validate`.
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        print(f"ttpmine {command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
