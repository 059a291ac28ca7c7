"""End-to-end pipeline orchestration and the command line interface,
driven by the bundled miniature corpus."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import E2E_DIR, REPO_ROOT, e2e_config_dict, label_sets, v1_bins_header
from ttpmine import __version__, attack_kb, cli, pipeline
from ttpmine.attack_kb import UsageMatrix, usage_to_dict
from ttpmine.corpus import load_annotations, load_reports
from ttpmine.cli import main
from ttpmine.ctfidf import DEFAULT_THRESHOLD, predict_report
from ttpmine.features.layout import SLOT_NAMES
from ttpmine.gbdt.ensemble import TrainConfig
from ttpmine.labels import ALL_LABELS, BEFORE, NULL
from ttpmine.pipeline import (
    PipelineConfig,
    PipelineError,
    labels_for_rows,
    load_ctfidf_model,
    load_features,
    load_kb_usage,
    load_relation_model,
    load_relation_predictions,
    load_report_predictions,
    provenance_hash,
    read_jsonl,
    report_prediction_from_dict,
    report_prediction_to_dict,
    run_pipeline,
    stage_features,
    stage_kb,
    write_json,
)

PLANTED = "T1566,T1204,BEFORE,3,r01;r02;r03,Baiting towards malicious execution"

STIX = str(E2E_DIR / "stix_bundle.json")
REPORTS = str(E2E_DIR / "reports")
ANNOTATIONS = str(E2E_DIR / "annotations.jsonl")


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("pipeline")
    config = PipelineConfig.from_dict(e2e_config_dict(out_dir))
    summary = run_pipeline(config)
    return summary, out_dir, config


class TestRunPipeline:
    def test_summary_counts(self, pipeline_out):
        summary, _, _ = pipeline_out
        assert summary["n_reports"] == 5
        assert summary["n_pairs"] == 18
        assert summary["n_patterns"] == 1

    def test_artifacts_written(self, pipeline_out):
        _, out_dir, _ = pipeline_out
        names = sorted(p.name for p in out_dir.rglob("*") if p.is_file())
        assert names == [
            "classify.jsonl",
            "ctfidf.json",
            "features.csv",
            "features.meta.json",
            "patterns.csv",
            "patterns.dot",
            "patterns.json",
            "patterns.meta.json",
            "predictions.jsonl",
            "relations.json",
            "usage.json",
        ]

    def test_planted_pattern_recovered(self, pipeline_out):
        _, out_dir, _ = pipeline_out
        lines = (out_dir / "patterns.csv").read_text().splitlines()
        assert lines == ["tx,ty,relation,count,report_ids,category", PLANTED]

    def test_artifact_meta_blocks(self, pipeline_out):
        summary, out_dir, _ = pipeline_out
        meta, records = read_jsonl(out_dir / "classify.jsonl")
        assert meta["tool"] == "ttpmine"
        assert meta["stage"] == "classify"
        assert meta["threshold"] == 0.95
        assert meta["config_hash"] == summary["config_hash"]
        assert len(records) == 5
        # A record holds the report's detections and nothing else.
        assert {tuple(sorted(r)) for r in records} == {
            ("hit_sentences", "report_id", "top_scores")
        }
        mine_meta = json.loads((out_dir / "patterns.meta.json").read_text())["meta"]
        assert mine_meta["stage"] == "mine"
        assert mine_meta["min_support"] == 2
        assert mine_meta["patterns"] == 1
        # Like patterns.meta.json, features.meta.json holds the meta alone:
        # the CSV's header names its layout.
        features = json.loads((out_dir / "features.meta.json").read_text())
        assert list(features) == ["meta"]
        assert features["meta"]["stage"] == "features"
        assert features["meta"]["layout_version"] == "v2"
        assert features["meta"]["config_hash"] == summary["config_hash"]
        assert "threshold" not in features["meta"]
        for name in ("usage.json", "ctfidf.json"):
            kb_meta = json.loads((out_dir / "kb" / name).read_text())["meta"]
            assert kb_meta["stage"] == "kb"
            assert kb_meta["attack_version"] == "fixture-1"

    def test_features_round_trip_and_labels(self, pipeline_out):
        _, out_dir, _ = pipeline_out
        rows = load_features(str(out_dir / "features.csv"))
        assert len(rows) == 18
        techniques = load_kb_usage(str(out_dir / "kb")).techniques
        annotations = load_annotations(ANNOTATIONS, techniques=techniques)
        labels = labels_for_rows(rows, annotations)
        assert labels.dtype == bool
        assert labels.shape == (18, len(ALL_LABELS))
        sets = label_sets(labels)
        before_rows = [
            row.report_id
            for row, labs in zip(rows, sets)
            if labs == frozenset({BEFORE})
        ]
        assert sorted(before_rows) == ["r01", "r02", "r03"]
        assert sets.count(frozenset({NULL})) == 15

    def test_predictions_artifact(self, pipeline_out):
        _, out_dir, _ = pipeline_out
        keys, labels = load_relation_predictions(str(out_dir / "predictions.jsonl"))
        assert len(keys) == len(labels) == 18
        assert labels.dtype == bool
        positives = {key for key, labs in zip(keys, label_sets(labels)) if BEFORE in labs}
        assert positives == {
            ("r01", "T1566", "T1204"),
            ("r02", "T1566", "T1204"),
            ("r03", "T1566", "T1204"),
        }

    def test_predict_layout_guard(self, pipeline_out, tmp_path):
        # Rows have the one layout, so the guard is the model reader: a
        # model of another layout does not load, and nothing is predicted.
        _, out_dir, _ = pipeline_out
        payload = json.loads((out_dir / "relations.json").read_text())
        payload["model"].update(layout_version="v1-bins5", n_features=107)
        path = tmp_path / "relations.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(PipelineError, match=f"^{re.escape(str(path))}: .*v1-bins5 "):
            load_relation_model(str(path))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^unknown key 'min_count'$"):
            PipelineConfig.from_dict({"min_count": 2})
        with pytest.raises(PipelineError, match="config.stix is required"):
            run_pipeline(PipelineConfig(reports="x", annotations="y"))

    def test_e2e_config_hash_pinned(self):
        # Every artifact's meta carries this hash; a change to how the
        # config is turned into a dict would move it.
        data = json.loads((E2E_DIR / "config.json").read_text(encoding="utf-8"))
        config = PipelineConfig.from_dict(data)
        assert config.config_hash() == "eae58b60ac7afd27"
        assert PipelineConfig().config_hash() == "dd029eeb7f3d6f82"

    def test_config_hash_sensitivity(self, pipeline_out):
        _, _, config = pipeline_out
        data = config.to_dict()
        assert PipelineConfig.from_dict(data).config_hash() == config.config_hash()
        data["min_support"] = 3
        assert PipelineConfig.from_dict(data).config_hash() != config.config_hash()


class TestClassifyOnce:
    def test_run_pipeline_classifies_each_report_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(model, report, **kwargs):
            calls.append(report.report_id)
            return predict_report(model, report, **kwargs)

        monkeypatch.setattr(pipeline, "predict_report", counting)
        summary = run_pipeline(PipelineConfig.from_dict(e2e_config_dict(tmp_path)))
        assert len(calls) == summary["n_reports"]
        assert len(set(calls)) == summary["n_reports"]

    def test_features_from_classify_stage_match_standalone(
        self, pipeline_out, tmp_path
    ):
        # The features stage given the classify stage's predictions writes
        # the same bytes as the standalone `features` command, which
        # classifies the reports itself at the default threshold.
        _, out_dir, config = pipeline_out
        assert config.threshold == DEFAULT_THRESHOLD
        out = tmp_path / "features.csv"
        argv = [
            "features",
            "--reports", REPORTS,
            "--kb", str(out_dir / "kb"),
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert out.read_bytes() == (out_dir / "features.csv").read_bytes()
        mine = json.loads((tmp_path / "features.meta.json").read_text())
        theirs = json.loads((out_dir / "features.meta.json").read_text())
        # Only the provenance differs: the command hashes its own arguments.
        del mine["meta"]["config_hash"], theirs["meta"]["config_hash"]
        assert mine == theirs

    def test_features_rejects_predictions_that_do_not_fit(self, pipeline_out, tmp_path):
        _, out_dir, _ = pipeline_out
        kb = out_dir / "kb"
        model = load_ctfidf_model(str(kb / "ctfidf.json"))
        usage = load_kb_usage(str(kb))
        reports = load_reports(REPORTS)
        predictions = [predict_report(model, r, threshold=0.95) for r in reports]
        out = str(tmp_path / "features.csv")
        with pytest.raises(PipelineError, match="no classifier prediction for 'r01'"):
            stage_features(usage, reports, predictions[1:], out)


class _LoggedBytes(bytes):
    """Bytes that append "bytes freed" to `log` when they are freed."""

    def __new__(cls, data: bytes, log: list):
        self = super().__new__(cls, data)
        self.log = log
        return self

    def __del__(self):
        self.log.append("bytes freed")


class TestKbOnce:
    """The kb stage decodes the bundle once and hands on what it built;
    `run_pipeline` reads none of the kb artifacts back."""

    def _count_bundle_loads(self, monkeypatch) -> list[int]:
        calls = []
        original = attack_kb._load_bundle

        def counting(bundle_bytes):
            calls.append(len(bundle_bytes))
            return original(bundle_bytes)

        monkeypatch.setattr(attack_kb, "_load_bundle", counting)
        return calls

    def test_stage_kb_decodes_bundle_once(self, tmp_path, monkeypatch):
        calls = self._count_bundle_loads(monkeypatch)
        stage_kb(STIX, str(tmp_path))
        assert len(calls) == 1

    def test_stage_kb_checks_min_examples_first(self, tmp_path, monkeypatch):
        calls = self._count_bundle_loads(monkeypatch)
        out = tmp_path / "kb"
        with pytest.raises(ValueError, match="^min_examples must be >= 1, got 0$"):
            stage_kb(STIX, str(out), min_examples=0)
        assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"objects": [1]}', "bundle 'objects' entry 0 is not a JSON object"),
            ('{"objects": [', "malformed bundle JSON at offset 13: Expecting value"),
            ('{"objects": []} x', "malformed bundle JSON at offset 16: Extra data"),
            ('{"objects": []}', "bundle contains no usable attack-pattern objects"),
        ],
        ids=["non-object", "truncated", "extra-data", "no-patterns"],
    )
    def test_stage_kb_parses_bundle_before_out_dir(self, tmp_path, text, problem):
        stix = tmp_path / "bundle.json"
        stix.write_text(text, encoding="utf-8")
        out = tmp_path / "kb"
        with pytest.raises(PipelineError) as excinfo:
            stage_kb(str(stix), str(out))
        assert str(excinfo.value) == f"kb: {stix}: {problem}"
        assert not out.exists()

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 a caller's argument lives until the call returns",
    )
    def test_stage_kb_keeps_no_bundle_bytes(self, tmp_path, monkeypatch):
        # Neither `stage_kb` nor `parse_stix` keeps a reference to the
        # bytes read, so they are freed before the walk decodes the text.
        log = []

        def read(path):
            return SimpleNamespace(read_bytes=lambda: _LoggedBytes(Path(path).read_bytes(), log))

        def walk(text):
            log.append("walk started")
            return real_walk(text)

        real_walk = attack_kb._walk_bundle
        monkeypatch.setattr(pipeline, "Path", read)
        monkeypatch.setattr(attack_kb, "_walk_bundle", walk)
        stage_kb(STIX, str(tmp_path))
        assert log == ["bytes freed", "walk started"]

    def test_run_pipeline_reads_no_kb_artifact(self, tmp_path, monkeypatch):
        calls = self._count_bundle_loads(monkeypatch)
        read = []
        original = pipeline.read_json

        def recording(path, *args):
            read.append(os.path.basename(path))
            return original(path, *args)

        monkeypatch.setattr(pipeline, "read_json", recording)
        run_pipeline(PipelineConfig.from_dict(e2e_config_dict(tmp_path)))
        assert len(calls) == 1
        assert "usage.json" not in read
        assert sorted(os.listdir(tmp_path / "kb")) == ["ctfidf.json", "usage.json"]

    def test_in_memory_kb_equals_artifacts(self, tmp_path):
        usage, model = stage_kb(STIX, str(tmp_path))
        again = load_kb_usage(str(tmp_path))
        assert usage.actors == again.actors
        assert usage.techniques == again.techniques
        assert usage.skipped_unknown == again.skipped_unknown
        assert usage.cells.dtype == again.cells.dtype
        assert np.array_equal(usage.cells, again.cells)
        loaded = load_ctfidf_model(str(tmp_path / "ctfidf.json"))
        assert loaded.class_ids == model.class_ids
        assert np.array_equal(loaded.class_vectors, model.class_vectors)


class TestNoWorkersKnob:
    """The thread pool is gone; an old `workers` setting is an error, not
    a silent no-op."""

    def test_config_key_rejected(self, tmp_path):
        data = dict(e2e_config_dict(tmp_path), workers=2)
        with pytest.raises(ValueError, match="^unknown key 'workers'$"):
            PipelineConfig.from_dict(data)

    def test_run_with_workers_config_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        data = dict(e2e_config_dict(tmp_path / "out"), workers=2)
        config_path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"ttpmine run: error: {config_path}: malformed pipeline config: "
            "ValueError: unknown key 'workers'"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--model", "m.json", "--reports", REPORTS, "--out", "o"],
            ["features", "--reports", REPORTS, "--kb", "kb", "--out", "o"],
            ["run", "--config", "c.json"],
        ],
        ids=["classify", "features", "run"],
    )
    def test_workers_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestNumberArguments:
    """A count below 1 or a threshold outside (0, 1] is a usage error
    that names the option. It stops the command before any input is
    read or any output directory is made."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kb", "build", "--stix", STIX, "--out", "{out}", "--min-examples", "0"],
             "argument --min-examples: must be >= 1, got 0"),
            (["kb", "build", "--stix", STIX, "--out", "{out}", "--min-examples", "x"],
             "argument --min-examples: invalid int value: 'x'"),
            (["classify", "--model", "m.json", "--reports", REPORTS,
              "--out", "{out}/c.jsonl", "--threshold", "0"],
             "argument --threshold: must be in (0, 1], got 0.0"),
            (["mine", "--predictions", "p.jsonl", "--out", "{out}/m.csv",
              "--min-support", "x"],
             "argument --min-support: invalid int value: 'x'"),
            (["classify", "--model", "m.json", "--reports", REPORTS,
              "--out", "{out}/c.jsonl", "--threshold", "1.5"],
             "argument --threshold: must be in (0, 1], got 1.5"),
            (["classify", "--model", "m.json", "--reports", REPORTS,
              "--out", "{out}/c.jsonl", "--threshold", "nan"],
             "argument --threshold: must be in (0, 1], got nan"),
            (["mine", "--predictions", "p.jsonl", "--out", "{out}/m.csv",
              "--min-support", "-1"],
             "argument --min-support: must be >= 1, got -1"),
        ],
    )
    def test_bad_number_is_usage_error(self, argv, message, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(e2e_config_dict(tmp_path / "out")), encoding="utf-8"
        )
        out = tmp_path / "out"
        argv = [arg.format(out=out, config=config) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bounds_are_accepted(self):
        assert cli._positive_int("1") == 1
        assert cli._threshold("1") == 1.0


class TestRemovedOptions:
    """Options that repeated another input are gone: `features` reads its
    classifier from `<kb>/ctfidf.json` and its detections' threshold from
    `classify`, `mine` writes csv, json and dot, and `run` takes its
    threshold, bins and min_support from the config file. F4 has no bins,
    so `features --bins` is gone too. Each is now a usage error, raised
    before any file is read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["features", "--reports", REPORTS, "--kb", "kb", "--out", "f.csv",
             "--model", "m.json"],
            ["features", "--reports", REPORTS, "--kb", "kb", "--out", "f.csv",
             "--threshold", "0.9"],
            ["features", "--reports", REPORTS, "--kb", "kb", "--out", "f.csv",
             "--bins", "10"],
            ["mine", "--predictions", "p.jsonl", "--out", "m.csv", "--format", "csv"],
            ["run", "--config", "c.json", "--threshold", "0.5"],
            ["run", "--config", "c.json", "--bins", "5"],
            ["run", "--config", "c.json", "--min-support", "3"],
        ],
        ids=["features-model", "features-threshold", "features-bins", "mine-format", "run-threshold", "run-bins", "run-min-support"],
    )
    def test_removed_option_is_usage_error(self, argv, capsys):
        # The inputs do not exist: reading one would exit 1, not 2.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_option_count(self):
        # Every option of every command, -h aside.
        def options(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from options(sub)
                elif not isinstance(action, argparse._HelpAction):
                    yield action

        assert len(list(options(cli.build_parser()))) == 37


class TestNestedCommandErrors:
    """A nested command's error names the command in full."""

    def test_kb_build(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["kb", "build", "--stix", str(missing), "--out", str(tmp_path / "kb")]) == 1
        assert capsys.readouterr().err == (
            f"ttpmine kb build: error: kb: STIX bundle not found: {missing}\n"
        )

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"objects": [1]}', "bundle 'objects' entry 0 is not a JSON object"),
            ('{"objects": [{"type": "attack-pattern"',
             "malformed bundle JSON at offset 38: Expecting ',' delimiter"),
            ('{"objects": [{"type": "relationship", "relationship_type": "uses", '
             '"source_ref": "intrusion-set--g1", "description": 5}]}',
             "bundle 'objects' entry 0: 'description' is not a string"),
        ],
        ids=["non-object", "truncated", "wrong-type"],
    )
    def test_kb_build_bad_bundle(self, tmp_path, capsys, text, problem):
        stix = tmp_path / "bundle.json"
        stix.write_text(text, encoding="utf-8")
        out = tmp_path / "kb"
        assert main(["kb", "build", "--stix", str(stix), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"ttpmine kb build: error: kb: {stix}: {problem}\n"
        assert not out.exists()

    def test_kb_build_keeps_no_technique(self, tmp_path, capsys):
        # No e2e technique has 1000 procedure examples: the classifier has
        # no class, and the error names the bundle and the setting.
        out = tmp_path / "kb"
        argv = ["kb", "build", "--stix", STIX, "--out", str(out), "--min-examples", "1000"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"ttpmine kb build: error: kb: {STIX}: no technique has at least 1000 "
            "procedure examples (min_examples)\n"
        )
        assert not out.exists()

    def test_run_keeps_no_technique(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**e2e_config_dict(tmp_path / "out"), "min_examples": 1000}),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"ttpmine run: error: kb: {STIX}: no technique has at least 1000 "
            "procedure examples (min_examples)\n"
        )
        assert not (tmp_path / "out" / "kb").exists()

    def test_corpus_validate(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["corpus", "validate", "--reports", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"ttpmine corpus validate: error: report directory not found: {missing}\n"
        )


def test_main_leaves_no_argparse_garbage(capsys):
    # The parser is built once per process, by the first call; later
    # calls leave none of it to the cyclic collector.
    argv = ["corpus", "validate", "--reports", REPORTS]
    assert main(argv) == 0
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        assert main(argv) == 0
        gc.collect()
        left = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert left == []
    assert capsys.readouterr().out.count("corpus: OK\n") == 3


def test_cli_chain_loads_no_openssl_or_statistics(tmp_path):
    # A fresh interpreter: nothing else has imported these. The config
    # hash takes SHA-256 from the interpreter's builtin module.
    train_json = tmp_path / "train.json"
    train_json.write_text(json.dumps(e2e_config_dict(tmp_path)["train"]), encoding="utf-8")
    steps = [
        ["kb", "build", "--stix", STIX, "--out", "kb"],
        ["classify", "--model", "kb/ctfidf.json", "--reports", REPORTS, "--out", "classify.jsonl"],
        ["features", "--reports", REPORTS, "--kb", "kb", "--predictions", "classify.jsonl",
         "--out", "features.csv"],
        ["train-relations", "--features", "features.csv", "--annotations", ANNOTATIONS,
         "--train-config", str(train_json), "--out", "relations.json"],
        ["predict", "--model", "relations.json", "--features", "features.csv",
         "--out", "predictions.jsonl"],
        ["mine", "--predictions", "predictions.jsonl", "--out", "patterns.csv"],
        ["eval", "--model", "relations.json", "--features", "features.csv",
         "--annotations", ANNOTATIONS, "--out", "metrics.json"],
    ]
    script = textwrap.dedent(f"""
        import sys

        from ttpmine.cli import main

        for argv in {steps!r}:
            assert main(argv) == 0, argv
        print(sorted({{"_hashlib", "hashlib", "statistics", "decimal"}} & set(sys.modules)))
    """)
    path = os.environ.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "patterns.csv").read_text(encoding="utf-8").count(PLANTED) == 1


def test_provenance_hash_formula():
    # Both the CLI commands and `PipelineConfig` hash this way; artifacts'
    # meta blocks depend on the exact value.
    def oracle(payload):
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    payload = {"z": [1, 2.5, None], "a": {"é": "ü", "b": True}, "m": "x"}
    assert provenance_hash(payload) == oracle(payload)
    config = PipelineConfig(stix="s.json", reports="r")
    assert config.config_hash() == oracle(config.to_dict())
    assert len(config.to_dict()) == 10


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """Artifacts produced by chaining every CLI stage command."""
    d = tmp_path_factory.mktemp("cli_chain")
    train_json = d / "train.json"
    train_json.write_text(
        json.dumps(e2e_config_dict(d)["train"]), encoding="utf-8"
    )
    steps = [
        ["kb", "build", "--stix", STIX, "--out", str(d / "kb")],
        [
            "classify",
            "--model", str(d / "kb" / "ctfidf.json"),
            "--reports", REPORTS,
            "--out", str(d / "classify.jsonl"),
        ],
        [
            "features",
            "--reports", REPORTS,
            "--kb", str(d / "kb"),
            "--out", str(d / "features.csv"),
        ],
        [
            "train-relations",
            "--features", str(d / "features.csv"),
            "--annotations", ANNOTATIONS,
            "--kb", str(d / "kb"),
            "--train-config", str(train_json),
            "--out", str(d / "relations.json"),
        ],
        [
            "predict",
            "--model", str(d / "relations.json"),
            "--features", str(d / "features.csv"),
            "--out", str(d / "predictions.jsonl"),
        ],
        [
            "mine",
            "--predictions", str(d / "predictions.jsonl"),
            "--out", str(d / "patterns.csv"),
        ],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return d


class TestCliChain:
    def test_chain_recovers_planted_pattern(self, cli_dir):
        lines = (cli_dir / "patterns.csv").read_text().splitlines()
        assert lines[1] == PLANTED

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == (
            f"ttpmine {__version__} (feature layout v2, stopwords 1, "
            f"categories 1)"
        )

    def test_version_with_truncated_packaged_map(self, tmp_path, capsys, monkeypatch):
        # `--version` runs inside parse_args, yet a packaged map that does
        # not decode still ends it with one error line naming the file.
        bad = tmp_path / "pattern_categories.json"
        text = (REPO_ROOT / "src" / "ttpmine" / "data" / "pattern_categories.json").read_text()
        bad.write_text(text[: len(text) // 2], encoding="utf-8")
        monkeypatch.setattr(cli, "PACKAGED_CATEGORIES", str(bad))
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"ttpmine: error: {bad}: malformed category map: JSONDecodeError: "
        )
        assert captured.err.count("\n") == 1

    def test_corpus_validate_ok(self, cli_dir, capsys):
        rc = main(
            [
                "corpus", "validate",
                "--reports", REPORTS,
                "--annotations", ANNOTATIONS,
                "--kb", str(cli_dir / "kb"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "reports: 5 files" in out
        assert "annotations: 3 labeled pairs" in out
        assert "corpus: OK" in out

    def test_corpus_validate_unknown_report(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(
                {
                    "report_id": "r99",
                    "tx": "T1566",
                    "ty": "T1204",
                    "labels": ["BEFORE"],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        rc = main(
            ["corpus", "validate", "--reports", REPORTS, "--annotations", str(bad)]
        )
        assert rc == 1
        assert "unknown reports: r99" in capsys.readouterr().err

    def test_corpus_validate_unknown_technique(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(
                {
                    "report_id": "r01",
                    "tx": "T9999",
                    "ty": "T1204",
                    "labels": ["BEFORE"],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        rc = main(
            [
                "corpus", "validate",
                "--reports", REPORTS,
                "--annotations", str(bad),
                "--kb", str(cli_dir / "kb"),
            ]
        )
        assert rc == 1
        assert "T9999" in capsys.readouterr().err

    def test_kb_holds_usage_and_classifier_only(self, cli_dir):
        # Every command of the chain ran on this kb directory.
        assert sorted(os.listdir(cli_dir / "kb")) == ["ctfidf.json", "usage.json"]

    @pytest.mark.parametrize("command", ["corpus", "train-relations", "eval"])
    def test_unknown_technique_under_kb(self, cli_dir, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        record = {"report_id": "r01", "tx": "T9999", "ty": "T1204", "labels": ["BEFORE"]}
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        features = ["--features", str(cli_dir / "features.csv")]
        argv = {
            "corpus": ["corpus", "validate", "--reports", REPORTS],
            "train-relations": ["train-relations", *features, "--out", str(tmp_path / "m.json")],
            "eval": ["eval", "--model", str(cli_dir / "relations.json"), *features],
        }[command]
        assert main([*argv, "--annotations", str(bad), "--kb", str(cli_dir / "kb")]) == 1
        err = capsys.readouterr().err
        name = " ".join(argv[:2]) if command == "corpus" else command
        assert err == f"ttpmine {name}: error: {bad} line 1: unknown technique id T9999\n"

    def test_eval_to_stdout(self, cli_dir, capsys):
        rc = main(
            [
                "eval",
                "--model", str(cli_dir / "relations.json"),
                "--features", str(cli_dir / "features.csv"),
                "--annotations", ANNOTATIONS,
                "--kb", str(cli_dir / "kb"),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["stage"] == "eval"
        metrics = payload["metrics"]
        # The model was trained on these rows; BEFORE is fully separable.
        assert metrics["per_label"][BEFORE]["f1"] == 1.0
        assert "LRAP" in metrics and "NDCG" in metrics
        assert "P@50" in metrics and "P@100" in metrics

    def test_eval_to_file(self, cli_dir, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(
            [
                "eval",
                "--model", str(cli_dir / "relations.json"),
                "--features", str(cli_dir / "features.csv"),
                "--annotations", ANNOTATIONS,
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "-> " in capsys.readouterr().out
        assert json.loads(out.read_text())["metrics"]["per_label"][BEFORE]["support"] == 3.0

    def test_mine_high_support_empty(self, cli_dir, tmp_path, capsys):
        out = tmp_path / "patterns.csv"
        rc = main(
            [
                "mine",
                "--predictions", str(cli_dir / "predictions.jsonl"),
                "--min-support", "999",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "0 patterns at min_support=999" in capsys.readouterr().out
        assert out.read_text().splitlines() == [
            "tx,ty,relation,count,report_ids,category"
        ]

    def test_bins_mismatch_fails_predict(self, cli_dir, tmp_path, capsys):
        # A model and a features CSV of the retired layout v1-bins10 each
        # stop `predict` with one line naming their file.
        payload = json.loads((cli_dir / "relations.json").read_text())
        payload["model"].update(layout_version="v1-bins10", n_features=152)
        model = tmp_path / "relations.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        features = tmp_path / "features.csv"
        header = v1_bins_header(10)
        features.write_text(
            ",".join(header) + "\n" + ",".join(["r01", "T1566", "T1204"] + ["0.0"] * 152) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "p.jsonl"
        for argv, message in (
            (["--model", str(model), "--features", str(cli_dir / "features.csv")],
             f"{model}: malformed relation model: ValueError: feature layout v1-bins10 "
             "(152 features) is not v2 (62 features); retrain on features from "
             "`ttpmine features`"),
            (["--model", str(cli_dir / "relations.json"), "--features", str(features)],
             f"{features}: feature CSV header does not match layout v2 (expected 65 "
             "columns, got 155); re-run `ttpmine features`"),
        ):
            assert main(["predict", *argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"ttpmine predict: error: {message}\n"
            assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(
            [
                "classify",
                "--model", str(tmp_path / "nope.json"),
                "--reports", REPORTS,
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "ttpmine classify: error:" in err
        assert "not found" in err

    def test_unknown_feature_group(self, cli_dir, tmp_path, capsys):
        rc = main(
            [
                "train-relations",
                "--features", str(cli_dir / "features.csv"),
                "--annotations", ANNOTATIONS,
                "--feature-groups", "f9",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "ttpmine train-relations: error: unknown feature groups: f9 "
            "(expected subset of default, f1, f2, f3, f4)\n"
        )
        assert not (tmp_path / "m.json").exists()

    def test_run_with_overrides(self, tmp_path, capsys):
        # `--out-dir` is the one override; every other setting comes from
        # the config file.
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({**e2e_config_dict(tmp_path / "ignored"), "min_support": 999}),
            encoding="utf-8",
        )
        rc = main(
            [
                "run",
                "--config", str(config_path),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_reports"] == 5
        assert summary["n_patterns"] == 0
        assert (tmp_path / "out" / "patterns.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_console_script_smoke(self):
        # The entry point runs from the source tree, with no install step.
        src = str(REPO_ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        result = subprocess.run(
            [sys.executable, "-m", "ttpmine", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout.startswith(f"ttpmine {__version__} ")
        # The installed console script maps to the same function. Read as
        # text: tomllib is missing on Python 3.10.
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert 'ttpmine = "ttpmine.cli:main"' in scripts.splitlines()


class TestBadFeaturesCsv:
    """A features CSV row that does not fit the layout stops `predict` and
    `train-relations` with exit 1 and one error naming the file and line."""

    def _corrupt(self, cli_dir, tmp_path, line, edit):
        path = tmp_path / "features.csv"
        lines = (cli_dir / "features.csv").read_text(encoding="utf-8").splitlines(True)
        cells = lines[line - 1].rstrip("\n").split(",")
        lines[line - 1] = ",".join(edit(cells)) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    def _assert_fails(self, cli_dir, tmp_path, path, message, capsys):
        argvs = {
            "predict": ["--model", str(cli_dir / "relations.json")],
            "train-relations": ["--annotations", ANNOTATIONS],
        }
        for command, extra in argvs.items():
            argv = [command, "--features", str(path), *extra,
                    "--out", str(tmp_path / "out.json")]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err == f"ttpmine {command}: error: {path}:{message}\n"
        with pytest.raises(PipelineError, match=f"^{path}:"):
            load_features(str(path))

    def test_row_one_value_short(self, cli_dir, tmp_path, capsys):
        path = self._corrupt(cli_dir, tmp_path, 5, lambda cells: cells[:-1])
        self._assert_fails(cli_dir, tmp_path, path, "5: 64 columns, expected 65", capsys)

    def test_non_numeric_value(self, cli_dir, tmp_path, capsys):
        path = self._corrupt(
            cli_dir, tmp_path, 19, lambda cells: [*cells[:19], "x1", *cells[20:]]
        )
        self._assert_fails(
            cli_dir, tmp_path, path, "19: could not convert string to float: 'x1'", capsys
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, cli_dir, tmp_path, capsys, value):
        path = self._corrupt(
            cli_dir, tmp_path, 19, lambda cells: [*cells[:19], value, *cells[20:]]
        )
        slot = SLOT_NAMES[16]
        self._assert_fails(
            cli_dir, tmp_path, path, f"19: slot {slot} is {value}, not a finite number", capsys
        )


    def test_csv_with_the_f4_missing_column(self, cli_dir, tmp_path, capsys):
        # A features CSV that still carries the f4_missing flag column
        # after `ty`: the header no longer names the layout.
        flags = load_features(str(cli_dir / "features.csv")).f4_missing.tolist()
        lines = (cli_dir / "features.csv").read_text(encoding="utf-8").splitlines()
        old = [lines[0].replace("ty,", "ty,f4_missing,", 1)]
        for line, flag in zip(lines[1:], flags):
            cells = line.split(",")
            old.append(",".join([*cells[:3], str(int(flag)), *cells[3:]]))
        path = tmp_path / "features.csv"
        path.write_text("\n".join(old) + "\n", encoding="utf-8")
        message = (
            f"{path}: feature CSV header does not match layout v2 (expected 65 "
            "columns, got 66); re-run `ttpmine features`"
        )
        model = str(cli_dir / "relations.json")
        for argv in (
            ["predict", "--model", model, "--out", str(tmp_path / "p.jsonl")],
            ["eval", "--model", model, "--annotations", ANNOTATIONS],
            ["train-relations", "--annotations", ANNOTATIONS, "--out", str(tmp_path / "m.json")],
        ):
            assert main([*argv, "--features", str(path)]) == 1
            assert capsys.readouterr().err == f"ttpmine {argv[0]}: error: {message}\n"


class TestFeaturesLayoutFromHeader:
    """`load_features` checks the CSV's header against the one layout,
    with no file beside it."""

    def test_stale_layout_sidecar_is_ignored(self, cli_dir, tmp_path):
        # A `.layout.json` left by an older version is not read, whatever
        # it holds.
        path = tmp_path / "features.csv"
        path.write_bytes((cli_dir / "features.csv").read_bytes())
        (tmp_path / "features.csv.layout.json").write_text("[garbage", encoding="utf-8")
        load_features(str(path))
        argv = ["predict", "--model", str(cli_dir / "relations.json"),
                "--features", str(path), "--out", str(tmp_path / "p.jsonl")]
        assert main(argv) == 0
        # The same records; the meta line's hash names the other path.
        mine = (tmp_path / "p.jsonl").read_text(encoding="utf-8").splitlines()
        theirs = (cli_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        assert mine[1:] == theirs[1:] and len(mine) > 1


# JSON nested far deeper than the interpreter's recursion limit.
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, argv, jsonl",
    [
        ("predict", ["predict", "--model", "{deep}", "--features", "{chain}/features.csv",
                     "--out", "{out}"], False),
        ("mine", ["mine", "--predictions", "{deep}", "--out", "{out}/patterns.csv"], True),
        ("mine", ["mine", "--predictions", "{chain}/predictions.jsonl", "--categories", "{deep}",
                  "--out", "{out}/patterns.csv"], False),
        ("run", ["run", "--config", "{deep}", "--out-dir", "{out}"], False),
        ("corpus validate", ["corpus", "validate", "--reports", REPORTS,
                             "--annotations", "{deep}"], False),
        ("kb build", ["kb", "build", "--stix", "{deep}", "--out", "{out}"], False),
    ],
    ids=["predict-model", "mine-predictions", "mine-categories", "run-config",
         "corpus-annotations", "kb-stix"],
)
def test_deeply_nested_json_names_file(cli_dir, tmp_path, capsys, command, argv, jsonl):
    # Too deep to decode is malformed input: exit 1, one error line that
    # names the file, and nothing written. A JSONL reader gets a good
    # meta line and the deep value on line 2.
    deep = tmp_path / "deep.json"
    deep.write_text(('{"meta": {}}\n' if jsonl else "") + _DEEP + "\n", encoding="utf-8")
    paths = dict(deep=deep, out=tmp_path / "out", chain=cli_dir)
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"ttpmine {command}: error: "), err
    assert str(deep) in err and "recursion" in err, err
    assert os.listdir(tmp_path) == ["deep.json"]


class TestMalformedArtifacts:
    """An artifact that does not decode stops the command with exit 1 and
    one error line naming the file (and, in JSONL, the line); no
    traceback."""

    def _assert_fails(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ttpmine {argv[0]}: error: {message}"), err

    def _predict(self, cli_dir, tmp_path, model):
        return ["predict", "--model", str(model),
                "--features", str(cli_dir / "features.csv"),
                "--out", str(tmp_path / "p.jsonl")]

    def _model(self, cli_dir):
        return json.loads((cli_dir / "relations.json").read_text(encoding="utf-8"))

    def test_model_json_syntax(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "relations.json"
        bad.write_text('{"meta": {}, "model": {"a" 1}}', encoding="utf-8")
        self._assert_fails(
            self._predict(cli_dir, tmp_path, bad),
            f"{bad}: malformed relation model: JSONDecodeError: Expecting ':' delimiter",
            capsys,
        )

    def test_model_without_config(self, cli_dir, tmp_path, capsys):
        payload = self._model(cli_dir)
        del payload["model"]["config"]
        bad = tmp_path / "relations.json"
        write_json(str(bad), payload)
        self._assert_fails(
            self._predict(cli_dir, tmp_path, bad),
            f"{bad}: malformed relation model: ValueError: missing key 'config'",
            capsys,
        )

    def test_model_is_a_list(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "relations.json"
        bad.write_text(json.dumps([self._model(cli_dir)["model"]]), encoding="utf-8")
        self._assert_fails(
            self._predict(cli_dir, tmp_path, bad),
            f"{bad}: malformed relation model: ValueError: expected an object, got [",
            capsys,
        )

    def _format_2(self, source, dest, wrapper):
        """`source` with its payload's format_version rewritten to "2"."""
        payload = json.loads(source.read_text(encoding="utf-8"))
        payload[wrapper]["format_version"] = "2"
        write_json(str(dest), payload)

    def test_model_of_another_format(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "relations.json"
        self._format_2(cli_dir / "relations.json", bad, "model")
        self._assert_fails(
            self._predict(cli_dir, tmp_path, bad),
            f"{bad}: malformed relation model: ValueError: ensemble format '2' is not '1'\n",
            capsys,
        )

    def test_classifier_of_another_format(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "ctfidf.json"
        self._format_2(cli_dir / "kb" / "ctfidf.json", bad, "model")
        argv = ["classify", "--model", str(bad), "--reports", REPORTS,
                "--out", str(tmp_path / "c.jsonl")]
        self._assert_fails(
            argv,
            f"{bad}: malformed classifier model: ValueError: classifier format '2' is not '1'\n",
            capsys,
        )

    @pytest.mark.parametrize(
        "tree, message",
        [
            ({"value": "x"}, "tree leaf: value must be a finite number, got 'x'"),
            (
                {"feature": 0, "threshold": None, "left": {"value": 0.0}, "right": {"value": 0.0}},
                "tree split: threshold must be a finite number, got None",
            ),
        ],
    )
    def test_model_with_bad_tree(self, cli_dir, tmp_path, capsys, tree, message):
        payload = self._model(cli_dir)
        payload["model"]["labels"][BEFORE]["trees"][0] = tree
        bad = tmp_path / "relations.json"
        write_json(str(bad), payload)
        self._assert_fails(
            self._predict(cli_dir, tmp_path, bad),
            f"{bad}: malformed relation model: ValueError: label BEFORE: tree 0: {message}\n",
            capsys,
        )

    def test_model_with_renamed_label(self, cli_dir, tmp_path, capsys):
        payload = self._model(cli_dir)
        payload["model"]["labels"]["FOO"] = payload["model"]["labels"].pop(NULL)
        bad = tmp_path / "relations.json"
        write_json(str(bad), payload)
        self._assert_fails(
            self._predict(cli_dir, tmp_path, bad),
            f"{bad}: malformed relation model: ValueError: labels ['BEFORE', "
            "'CONCURRENT', 'FOO', 'SIMULTANEOUS_OVERLAP'] are not ['BEFORE', "
            "'CONCURRENT', 'NULL', 'SIMULTANEOUS_OVERLAP']\n",
            capsys,
        )

    @pytest.mark.parametrize("score", [float("nan"), float("inf")])
    def test_model_with_non_finite_init_score(self, cli_dir, tmp_path, capsys, score):
        payload = self._model(cli_dir)
        payload["model"]["labels"][BEFORE]["init_score"] = score
        bad = tmp_path / "relations.json"
        # json.dumps writes NaN and Infinity; no artifact writer does.
        bad.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_fails(
            self._predict(cli_dir, tmp_path, bad),
            f"{bad}: malformed relation model: ValueError: label BEFORE: "
            f"init_score must be a finite number, got {score}\n",
            capsys,
        )
        assert not (tmp_path / "p.jsonl").exists()

    def _mine(self, cli_dir, tmp_path, edit) -> tuple[list, str, dict]:
        """`mine` over the chain's predictions with the record on line 3
        passed through `edit`: its argv, the file and the record."""
        lines = (cli_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        edit(record)
        lines[2] = json.dumps(record)
        bad = tmp_path / "predictions.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ["mine", "--predictions", str(bad), "--out", str(tmp_path / "p.csv")], bad, record

    def test_prediction_without_ty(self, cli_dir, tmp_path, capsys):
        argv, bad, _ = self._mine(cli_dir, tmp_path, lambda r: r.pop("ty"))
        self._assert_fails(
            argv, f"{bad}: malformed relation prediction on line 3: ValueError: missing key 'ty'",
            capsys,
        )

    def test_prediction_without_report_id(self, cli_dir, tmp_path, capsys):
        # Without a report id, every such record would count as one report.
        argv, bad, _ = self._mine(cli_dir, tmp_path, lambda r: r.pop("report_id"))
        self._assert_fails(
            argv,
            f"{bad}: malformed relation prediction on line 3: ValueError: missing key 'report_id'\n",
            capsys,
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.update(labels=["FOO"]), "unknown relation labels ['FOO']"),
            (lambda r: r.update(labels=[]), "empty label set"),
            (lambda r: r.update(labels=[NULL, BEFORE]), "NULL must be the sole label"),
            (
                lambda r: r["probabilities"].pop(NULL),
                "probabilities ['BEFORE', 'CONCURRENT', 'SIMULTANEOUS_OVERLAP'] are not "
                "keyed by ['BEFORE', 'CONCURRENT', 'NULL', 'SIMULTANEOUS_OVERLAP']",
            ),
        ],
        ids=["unknown-label", "no-label", "null-and-before", "no-null-probability"],
    )
    def test_prediction_with_bad_labels(self, cli_dir, tmp_path, capsys, edit, message):
        argv, bad, r = self._mine(cli_dir, tmp_path, edit)
        self._assert_fails(
            argv,
            f"{bad}: malformed relation prediction on line 3: ValueError: report "
            f"{r['report_id']!r} pair ({r['tx']}, {r['ty']}): {message}\n",
            capsys,
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.5, -0.1])
    def test_prediction_with_bad_probability(self, cli_dir, tmp_path, capsys, value):
        # NaN and infinity are no finite numbers: the record's shape
        # rejects them before the range is checked.
        argv, bad, r = self._mine(
            cli_dir, tmp_path, lambda r: r["probabilities"].update({BEFORE: value})
        )
        problem = (
            f"report {r['report_id']!r} pair ({r['tx']}, {r['ty']}): probabilities "
            f"{r['probabilities']} not all in [0, 1]"
            if math.isfinite(value)
            else f"probabilities must be an object of finite numbers, got {r['probabilities']!r:.40}"
        )
        self._assert_fails(
            argv,
            f"{bad}: malformed relation prediction on line 3: ValueError: {problem}\n",
            capsys,
        )
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_prediction_with_probability_not_a_number(self, cli_dir, tmp_path, capsys, value):
        # float() would parse "0.5" and take True as 1.0.
        argv, bad, r = self._mine(
            cli_dir, tmp_path, lambda r: r["probabilities"].update({BEFORE: value})
        )
        self._assert_fails(
            argv,
            f"{bad}: malformed relation prediction on line 3: ValueError: probabilities "
            f"must be an object of finite numbers, got {r['probabilities']!r:.40}\n",
            capsys,
        )
        assert not (tmp_path / "p.csv").exists()

    def test_predictions_without_meta_line(self, cli_dir, tmp_path, capsys):
        lines = (cli_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "predictions.jsonl"
        bad.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        argv = ["mine", "--predictions", str(bad), "--out", str(tmp_path / "p.csv")]
        self._assert_fails(
            argv, f"{bad}: malformed meta on line 1: ValueError: missing key 'meta'\n", capsys
        )



class TestMalformedCategoryMap:
    """A category map that does not decode or breaks the map's rules
    stops `mine` with exit 1 and one error line naming the file; `run`
    reads the map before any stage and writes nothing."""

    ROW = {"tx": "T1566", "ty": "T1204", "relation": "BEFORE", "category": "c"}

    def _mine(self, cli_dir, tmp_path, capsys, text) -> str:
        path = tmp_path / "categories.json"
        path.write_text(text, encoding="utf-8")
        argv = ["mine", "--predictions", str(cli_dir / "predictions.jsonl"),
                "--categories", str(path), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and not (tmp_path / "p.csv").exists()
        return err.replace(str(path), "<file>").rstrip("\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"format_version": "1", "categories": ["c"]}, "missing key 'patterns'"),
            ({"format_version": "1", "categories": ["c"], "patterns": [
                {k: v for k, v in ROW.items() if k != "category"}]},
             "'patterns' entry 0: missing key 'category'"),
            ([ROW], f"expected an object, got {[ROW]!r:.40}"),
            ({"format_version": "1", "categories": "c", "patterns": [ROW]},
             "categories must be a list of strings, got 'c'"),
            ({"format_version": "1", "categories": ["c"], "patterns": [{**ROW, "category": "z"}]},
             "category 'z' not in the closed list"),
            ({"format_version": "1", "categories": ["c"], "patterns": [{**ROW, "relation": "NULL"}]},
             "category map has invalid relation 'NULL'"),
            ({"format_version": 7, "categories": ["c"], "patterns": [ROW]},
             "format_version must be a string, got 7"),
            ({"format_version": "7", "categories": ["c"], "patterns": [ROW]},
             "category map format '7' is not '1'"),
        ],
        ids=[
            "no-patterns", "row-without-category", "not-an-object", "categories-not-strings",
            "unknown-category", "invalid-relation", "version-not-a-string", "other-version",
        ],
    )
    def test_mine_names_the_file(self, cli_dir, tmp_path, capsys, data, message):
        assert self._mine(cli_dir, tmp_path, capsys, json.dumps(data)) == (
            f"ttpmine mine: error: <file>: malformed category map: ValueError: {message}"
        )

    def test_mine_json_syntax(self, cli_dir, tmp_path, capsys):
        assert self._mine(cli_dir, tmp_path, capsys, '{"categories" []}') == (
            "ttpmine mine: error: <file>: malformed category map: "
            "JSONDecodeError: Expecting ':' delimiter: line 1 column 15 (char 14)"
        )

    def test_mine_missing_file(self, cli_dir, tmp_path, capsys):
        missing = tmp_path / "none.json"
        argv = ["mine", "--predictions", str(cli_dir / "predictions.jsonl"),
                "--categories", str(missing), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"ttpmine mine: error: category map not found: {missing}\n"
        )

    def _run(self, tmp_path, capsys, **changes) -> str:
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**e2e_config_dict(tmp_path / "out"), **changes}), encoding="utf-8"
        )
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        # Nothing is written: no kb/, no classify or prediction output.
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()
        return err.rstrip("\n")

    def test_run_reads_the_map_before_any_stage(self, tmp_path, capsys):
        bad = tmp_path / "categories.json"
        bad.write_text(json.dumps({"categories": ["c"]}), encoding="utf-8")
        assert self._run(tmp_path, capsys, categories=str(bad)) == (
            f"ttpmine run: error: {bad}: malformed category map: ValueError: "
            "missing key 'format_version'"
        )

    def test_broken_packaged_map_names_its_file(self, cli_dir, tmp_path, capsys, monkeypatch):
        # The packaged map is read like any other, so a broken one is named.
        bad = tmp_path / "pattern_categories.json"
        bad.write_text(json.dumps({"categories": ["c"]}), encoding="utf-8")
        monkeypatch.setattr(cli, "PACKAGED_CATEGORIES", str(bad))
        monkeypatch.setattr(pipeline, "PACKAGED_CATEGORIES", str(bad))
        argv = ["mine", "--predictions", str(cli_dir / "predictions.jsonl"),
                "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 1
        message = f"{bad}: malformed category map: ValueError: missing key 'format_version'"
        assert capsys.readouterr().err == f"ttpmine mine: error: {message}\n"
        assert not (tmp_path / "p.csv").exists()
        assert self._run(tmp_path, capsys) == f"ttpmine run: error: {message}"

    def test_run_reads_the_vectors_before_any_stage(self, tmp_path, capsys):
        bad = tmp_path / "vectors.txt"
        bad.write_bytes(b"1 2\n\xff 1 0\n")
        err = self._run(tmp_path, capsys, vectors=str(bad))
        assert err.startswith(f"ttpmine run: error: {bad}: not UTF-8 text: "), err
        bad.write_text("2 2\na 1 0\n", encoding="utf-8")
        assert self._run(tmp_path, capsys, vectors=str(bad)) == (
            f"ttpmine run: error: {bad}: header declares 2 rows, file has 1"
        )

    def test_non_finite_vectors_stop_features_and_run(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "vectors.txt"
        bad.write_text("2 2\na 1 0\nb nan inf\n", encoding="utf-8")
        message = f"{bad} line 3: non-finite vector value"
        argv = _features_argv(cli_dir, tmp_path / "f.csv", "--vectors", str(bad))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"ttpmine features: error: {message}\n"
        assert not (tmp_path / "f.csv").exists()
        assert self._run(tmp_path, capsys, vectors=str(bad)) == f"ttpmine run: error: {message}"


def _features_argv(cli_dir, out, *extra):
    return [
        "features",
        "--reports", REPORTS,
        "--kb", str(cli_dir / "kb"),
        "--out", str(out),
        *extra,
    ]


class TestFeaturesFromClassifyOutput:
    """`features --predictions` takes the detections `classify` wrote
    instead of classifying every report again."""

    def test_report_prediction_round_trip(self, cli_dir):
        model = load_ctfidf_model(str(cli_dir / "kb" / "ctfidf.json"))
        for report in load_reports(REPORTS):
            p = predict_report(model, report, threshold=0.95)
            text = json.dumps(report_prediction_to_dict(p))
            assert report_prediction_from_dict(json.loads(text)) == p

    def test_features_match_reclassifying_path(self, cli_dir, tmp_path, monkeypatch):
        def no_model(path):
            raise AssertionError(f"model loaded: {path}")

        monkeypatch.setattr(cli, "load_ctfidf_model", no_model)
        out = tmp_path / "features.csv"
        predictions = str(cli_dir / "classify.jsonl")
        assert main(_features_argv(cli_dir, out, "--predictions", predictions)) == 0
        assert out.read_bytes() == (cli_dir / "features.csv").read_bytes()
        mine = json.loads((tmp_path / "features.meta.json").read_text())
        theirs = json.loads((cli_dir / "features.meta.json").read_text())
        # Only the provenance differs: the detections came from a file.
        assert mine["meta"]["config_hash"] != theirs["meta"]["config_hash"]
        del mine["meta"]["config_hash"], theirs["meta"]["config_hash"]
        assert mine == theirs

    def test_other_threshold_goes_through_classify(self, cli_dir, tmp_path):
        # `features --predictions` uses the detections as given: at 0.9
        # it writes the bytes `run` writes with threshold 0.9.
        classify = tmp_path / "c.jsonl"
        assert main([
            "classify", "--model", str(cli_dir / "kb" / "ctfidf.json"),
            "--reports", REPORTS, "--threshold", "0.9", "--out", str(classify),
        ]) == 0
        out = tmp_path / "features.csv"
        assert main(_features_argv(cli_dir, out, "--predictions", str(classify))) == 0
        config = {**e2e_config_dict(tmp_path / "run"), "threshold": 0.9}
        run_pipeline(PipelineConfig.from_dict(config))
        assert out.read_bytes() == (tmp_path / "run" / "features.csv").read_bytes()
        # At 0.9 r04's T1560 hits one sentence more than at the default.
        assert out.read_bytes() != (cli_dir / "features.csv").read_bytes()

    def test_old_format_record_names_file_and_line(self, cli_dir, tmp_path, capsys):
        lines = (cli_dir / "classify.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record.update(techniques=sorted(record["hit_sentences"]), threshold=0.95)
        bad = tmp_path / "old.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(record)]) + "\n", encoding="utf-8")
        argv = _features_argv(cli_dir, tmp_path / "f.csv", "--predictions", str(bad))
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ttpmine features: error: {bad}: malformed report prediction on line 2: "
            "ValueError: unknown key 'techniques'"
        ]
        assert not (tmp_path / "f.csv").exists()

    def test_report_without_prediction_names_file(self, cli_dir, tmp_path, capsys):
        lines = (cli_dir / "classify.jsonl").read_text().splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text(
            "".join(line for line in lines if '"report_id":"r03"' not in line)
        )
        assert len(partial.read_text().splitlines()) == len(lines) - 1
        argv = _features_argv(cli_dir, tmp_path / "f.csv", "--predictions", str(partial))
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ttpmine features: error: {partial}: features: no classifier "
            "prediction for 'r03'"
        ]

    def test_malformed_record_names_file(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"meta": {}}\n{"report_id": "r01", "threshold": 0.95}\n')
        argv = _features_argv(cli_dir, tmp_path / "f.csv", "--predictions", str(bad))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"ttpmine features: error: {bad}: malformed report prediction on line 2" in err

    def test_load_report_predictions_skips_meta_line(self, cli_dir):
        loaded = load_report_predictions(str(cli_dir / "classify.jsonl"))
        assert [p.report_id for p in loaded] == ["r01", "r02", "r03", "r04", "r05"]



# JSON values that are not strings: a list, a number and an object.
_NOT_STRINGS = pytest.mark.parametrize(
    "value", [["T1566"], 5, {"id": "T1566"}], ids=["list", "number", "object"]
)


class TestIdsMustBeStrings:
    """Every reader requires `report_id`, `tx` and `ty` to be JSON
    strings and `labels` a JSON list of strings. A wrong type fails with
    the reader's one error line naming the file and the line, and
    nothing is written."""

    def _fails(self, argv, capsys) -> str:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def _annotations(self, tmp_path, **changes):
        record = {"report_id": "r01", "tx": "T1566", "ty": "T1204", "labels": ["BEFORE"]}
        path = tmp_path / "annotations.jsonl"
        path.write_text(json.dumps({**record, **changes}) + "\n", encoding="utf-8")
        return path, ["corpus", "validate", "--reports", REPORTS, "--annotations", str(path)]

    @pytest.mark.parametrize("field", ["report_id", "tx", "ty"])
    @_NOT_STRINGS
    def test_annotation_id(self, tmp_path, capsys, field, value):
        path, argv = self._annotations(tmp_path, **{field: value})
        assert self._fails(argv, capsys) == (
            f"ttpmine corpus validate: error: {path} line 1: "
            f"{field} must be a string, got {value!r}\n"
        )

    @pytest.mark.parametrize(
        "value", [{"BEFORE": 1}, "BEFORE", [1], None], ids=["object", "string", "number", "null"]
    )
    def test_annotation_labels(self, tmp_path, capsys, value):
        path, argv = self._annotations(tmp_path, labels=value)
        assert self._fails(argv, capsys) == (
            f"ttpmine corpus validate: error: {path} line 1: "
            f"labels must be a list of strings, got {value!r}\n"
        )

    def _mine(self, cli_dir, tmp_path, **changes):
        """`mine` over the chain's predictions with the record on line 2
        changed: its argv, the file and the record."""
        lines = (cli_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        record = {**json.loads(lines[1]), **changes}
        lines[1] = json.dumps(record)
        path = tmp_path / "predictions.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["mine", "--predictions", str(path), "--out", str(tmp_path / "p.csv")]
        return argv, path, record

    @pytest.mark.parametrize("field", ["report_id", "tx", "ty"])
    @_NOT_STRINGS
    def test_prediction_id(self, cli_dir, tmp_path, capsys, field, value):
        argv, path, _ = self._mine(cli_dir, tmp_path, **{field: value})
        assert self._fails(argv, capsys) == (
            f"ttpmine mine: error: {path}: malformed relation prediction on line 2: "
            f"ValueError: {field} must be a string, got {value!r}\n"
        )
        assert not (tmp_path / "p.csv").exists()

    def test_prediction_labels_object(self, cli_dir, tmp_path, capsys):
        argv, path, r = self._mine(cli_dir, tmp_path, labels={"BEFORE": 1})
        assert self._fails(argv, capsys) == (
            f"ttpmine mine: error: {path}: malformed relation prediction on line 2: "
            "ValueError: labels must be a list of strings, got {'BEFORE': 1}\n"
        )
        assert not (tmp_path / "p.csv").exists()

    def test_prediction_extra_key(self, cli_dir, tmp_path, capsys):
        # A record holds exactly its five keys, as a classify record does.
        argv, path, _ = self._mine(cli_dir, tmp_path, threshold=0.5)
        assert self._fails(argv, capsys) == (
            f"ttpmine mine: error: {path}: malformed relation prediction on line 2: "
            "ValueError: unknown key 'threshold'\n"
        )

    @_NOT_STRINGS
    def test_classify_report_id(self, cli_dir, tmp_path, capsys, value):
        lines = (cli_dir / "classify.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "report_id": value})
        path = tmp_path / "classify.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        argv = _features_argv(cli_dir, out, "--predictions", str(path))
        assert self._fails(argv, capsys) == (
            f"ttpmine features: error: {path}: malformed report prediction on line 2: "
            f"ValueError: report_id must be a string, got {value!r}\n"
        )
        assert not out.exists()


class TestMalformedClassifyOutput:
    """A `classify.jsonl` record that does not fit the features stage
    fails `features --predictions` with one error naming the file and
    the line or the report; no traceback."""

    def _fails(self, cli_dir, tmp_path, capsys, edit) -> str:
        lines = (cli_dir / "classify.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        assert record["report_id"] == "r01" and len(record["hit_sentences"]) >= 2
        edit(record)
        lines[1] = json.dumps(record)
        bad = tmp_path / "classify.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        assert main(_features_argv(cli_dir, out, "--predictions", str(bad))) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and not out.exists()
        return err.replace(str(bad), "<file>").rstrip("\n")

    def test_technique_without_top_scores(self, cli_dir, tmp_path, capsys):
        def edit(record):
            del record["top_scores"][sorted(record["hit_sentences"])[0]]

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': T"
        ) and err.endswith(" needs 5 top_scores"), err

    def test_top_scores_of_two_values(self, cli_dir, tmp_path, capsys):
        def edit(record):
            record["top_scores"][sorted(record["hit_sentences"])[-1]] = [1.0, 0.5]

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': T"
        ) and err.endswith(" needs 5 top_scores"), err

    def test_top_scores_not_the_hit_keys(self, cli_dir, tmp_path, capsys):
        # Top scores of a technique that was not detected.
        def edit(record):
            del record["hit_sentences"][sorted(record["hit_sentences"])[0]]

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': top_scores keys ["
        ) and " are not the hit_sentences keys " in err, err

    def test_detected_technique_without_hits(self, cli_dir, tmp_path, capsys):
        def edit(record):
            record["hit_sentences"][sorted(record["hit_sentences"])[0]] = []

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': detected technique T"
        ) and err.endswith(" has no hit sentences"), err

    @pytest.mark.parametrize(
        "scores, problem",
        [
            ([float("nan"), 0.0, 0.0, 0.0, 0.0], None),
            ([7.0, 0.0, 0.0, 0.0, 0.0], "[7.0, 0.0, 0.0, 0.0, 0.0] not all in [0, 1]"),
            ([1.0, "0.5", 0.0, 0.0, 0.0], None),
            ([True, 0.0, 0.0, 0.0, 0.0], None),
            ([0.0, 0.0, 0.0, 0.5, 1.0], "[0.0, 0.0, 0.0, 0.5, 1.0] are not descending"),
        ],
        ids=["nan", "above-one", "string", "bool", "ascending"],
    )
    def test_top_scores_that_predict_report_never_writes(
        self, cli_dir, tmp_path, capsys, scores, problem
    ):
        # Each would reach the `default.*_top*` slots of the features CSV.
        # A score that is no finite number (problem None) breaks the
        # record's shape; the others break what `predict_report` writes.
        def edit(record):
            record["top_scores"][sorted(record["hit_sentences"])[0]] = scores
            edited.update(record["top_scores"])

        edited = {}
        err = self._fails(cli_dir, tmp_path, capsys, edit)
        if problem is None:
            message = f"top_scores must be an object of lists of finite numbers, got {edited!r:.40}"
        else:
            message = f"report 'r01': T1204 top_scores {problem}"
        assert err == (
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            f"ValueError: {message}"
        )

    def test_integer_top_scores_load_as_floats(self, cli_dir):
        # 1 and 0 are JSON numbers too.
        record = json.loads((cli_dir / "classify.jsonl").read_text().splitlines()[1])
        record["top_scores"]["T1204"] = [1, 0, 0, 0, 0]
        scores = report_prediction_from_dict(record).top_scores["T1204"]
        assert scores == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert {type(s) for s in scores} == {float}

    def test_hit_that_is_not_an_index(self, cli_dir, tmp_path, capsys):
        def edit(record):
            record["hit_sentences"][sorted(record["hit_sentences"])[0]].append(1.5)

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: hit_sentences must be an object of lists of integers, got {'T1204': "
        ), err

    def test_hit_past_the_report_end(self, cli_dir, tmp_path, capsys):
        def edit(record):
            record["hit_sentences"][sorted(record["hit_sentences"])[0]].append(99)

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err == (
            "ttpmine features: error: <file>: features: sentence index 99 "
            "outside report 'r01' of 4 sentences"
        )


class TestBadConfigFiles:
    """A config file that does not parse or does not fit its dataclass
    stops `run` and `train-relations` with exit 1 and one error line
    naming the file; no traceback, and nothing silently defaulted."""

    def _run(self, tmp_path, capsys, text) -> str:
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()
        return err.replace(str(path), "<file>").rstrip("\n")

    def _train(self, cli_dir, tmp_path, capsys, text) -> str:
        path = tmp_path / "train.json"
        path.write_text(text, encoding="utf-8")
        argv = ["train-relations", "--features", str(cli_dir / "features.csv"),
                "--annotations", ANNOTATIONS, "--train-config", str(path),
                "--out", str(tmp_path / "m.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and not (tmp_path / "m.json").exists()
        return err.replace(str(path), "<file>").rstrip("\n")

    def _config(self, tmp_path, **changes) -> str:
        return json.dumps({**e2e_config_dict(tmp_path / "out"), **changes})

    @pytest.mark.parametrize("key", ["stix", "reports", "annotations"])
    def test_run_missing_input_writes_nothing(self, tmp_path, capsys, key):
        missing = tmp_path / "missing"
        assert self._run(tmp_path, capsys, self._config(tmp_path, **{key: str(missing)})) == (
            f"ttpmine run: error: run: {key} not found: {missing}"
        )

    def test_run_config_json_syntax(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, '{"stix": "x" "y"}') == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "JSONDecodeError: Expecting ',' delimiter: line 1 column 14 (char 13)"
        )

    def test_train_config_json_syntax(self, cli_dir, tmp_path, capsys):
        assert self._train(cli_dir, tmp_path, capsys, '{"trees" 5}') == (
            "ttpmine train-relations: error: <file>: malformed train config: "
            "JSONDecodeError: Expecting ':' delimiter: line 1 column 10 (char 9)"
        )

    def test_train_config_wrong_type(self, cli_dir, tmp_path, capsys):
        assert self._train(cli_dir, tmp_path, capsys, '{"trees": "a"}') == (
            "ttpmine train-relations: error: <file>: malformed train config: "
            "ValueError: trees must be an integer, got 'a'"
        )

    def test_train_config_unknown_key(self, cli_dir, tmp_path, capsys):
        assert self._train(cli_dir, tmp_path, capsys, '{"tress": 5}') == (
            "ttpmine train-relations: error: <file>: malformed train config: "
            "ValueError: unknown key 'tress'"
        )

    def test_run_config_wrong_type(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, self._config(tmp_path, min_examples="a")) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: min_examples must be an integer, got 'a'"
        )
        train = {**e2e_config_dict(tmp_path)["train"], "trees": "a"}
        assert self._run(tmp_path, capsys, self._config(tmp_path, train=train)) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: train: trees must be an integer, got 'a'"
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("threshold", 0, "threshold must be in (0, 1], got 0"),
            ("threshold", 1.5, "threshold must be in (0, 1], got 1.5"),
            ("min_examples", 0, "min_examples must be >= 1, got 0"),
            ("min_support", -1, "min_support must be >= 1, got -1"),
        ],
    )
    def test_run_config_out_of_range(self, tmp_path, capsys, field, value, message):
        # Refused before any stage runs: `_run` checks no output exists.
        assert self._run(tmp_path, capsys, self._config(tmp_path, **{field: value})) == (
            f"ttpmine run: error: <file>: malformed pipeline config: ValueError: {message}"
        )

    def test_run_config_with_bins(self, tmp_path, capsys):
        # F4 has no bin count: an older config's `bins` is an unknown key.
        assert self._run(tmp_path, capsys, self._config(tmp_path, bins=10)) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: unknown key 'bins'"
        )

    @pytest.mark.parametrize("text", ["5", "[1]"])
    def test_config_not_an_object(self, cli_dir, tmp_path, capsys, text):
        # Checked as an object before any key is read or defaulted.
        assert self._run(tmp_path, capsys, text) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            f"ValueError: expected an object, got {text}"
        )
        assert self._train(cli_dir, tmp_path, capsys, text) == (
            "ttpmine train-relations: error: <file>: malformed train config: "
            f"ValueError: expected an object, got {text}"
        )

    def test_run_config_train_not_an_object(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, self._config(tmp_path, train=5)) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: train must be an object, got 5"
        )

    def test_run_config_unknown_train_key(self, tmp_path, capsys):
        train = {**e2e_config_dict(tmp_path)["train"], "tress": 5}
        assert self._run(tmp_path, capsys, self._config(tmp_path, train=train)) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: train: unknown key 'tress'"
        )

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_downsample_ratio(self, cli_dir, tmp_path, capsys, value):
        message = f"negative_downsample_ratio must be a finite number, got {float(value)}"
        text = f'{{"negative_downsample_ratio": {value}}}'
        assert self._train(cli_dir, tmp_path, capsys, text) == (
            f"ttpmine train-relations: error: <file>: malformed train config: ValueError: {message}"
        )
        train = {**e2e_config_dict(tmp_path)["train"], "negative_downsample_ratio": float(value)}
        assert self._run(tmp_path, capsys, self._config(tmp_path, train=train)) == (
            f"ttpmine run: error: <file>: malformed pipeline config: ValueError: train: {message}"
        )

    def test_bools_and_floats_for_ints_rejected(self):
        with pytest.raises(ValueError, match="^min_support must be an integer, got True$"):
            PipelineConfig(min_support=True)
        with pytest.raises(ValueError, match="^max_depth must be an integer, got 2.5$"):
            TrainConfig(max_depth=2.5)
        with pytest.raises(ValueError, match="^train must be a TrainConfig, got {'trees': 5}$"):
            PipelineConfig(train={"trees": 5})
        assert TrainConfig(learning_rate=1).learning_rate == 1


class TestSkipCounts:
    """`kb build`, `features` and the `run` summary count the uses the
    usage matrix kept and skipped and the rows whose f4 slots are zeroed;
    no artifact carries these counts."""

    def test_run_summary(self, pipeline_out):
        summary, out_dir, _ = pipeline_out
        assert summary["n_actors"] == 3
        assert summary["n_uses"] == 7
        assert summary["n_skipped_uses"] == 0
        assert summary["n_f4_missing"] == 0
        for path in out_dir.rglob("*"):
            if path.is_file():
                text = path.read_text(encoding="utf-8")
                for key in ("n_actors", "n_uses", "n_skipped_uses", "n_f4_missing"):
                    assert key not in text, (path, key)

    def test_kb_build_prints_counts(self, tmp_path, capsys):
        bundle = json.loads((E2E_DIR / "stix_bundle.json").read_text())
        source = next(
            o["id"] for o in bundle["objects"] if o["type"] == "intrusion-set"
        )
        bundle["objects"].append(
            {
                "type": "relationship",
                "id": "relationship--ghost",
                "relationship_type": "uses",
                "source_ref": source,
                "target_ref": "attack-pattern--ghost",
            }
        )
        stix = tmp_path / "stix.json"
        stix.write_text(json.dumps(bundle), encoding="utf-8")
        assert main(["kb", "build", "--stix", STIX, "--out", str(tmp_path / "a")]) == 0
        assert main(["kb", "build", "--stix", str(stix), "--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "3 actors, 7 uses (0 skipped: unknown technique)" in out[0]
        assert out[0].endswith(f"; wrote usage.json, ctfidf.json to {tmp_path / 'a'}")
        assert "3 actors, 7 uses (1 skipped: unknown technique)" in out[1]

    def test_features_prints_f4_missing_rows(self, cli_dir, tmp_path, capsys):
        usage = load_kb_usage(str(cli_dir / "kb"))
        assert main(_features_argv(cli_dir, tmp_path / "all.csv")) == 0
        # A usage matrix without T1204: every row with T1204 loses F4.
        keep = [k for k, tid in enumerate(usage.techniques) if tid != "T1204"]
        kb = tmp_path / "kb"
        kb.mkdir()
        (kb / "ctfidf.json").write_bytes((cli_dir / "kb" / "ctfidf.json").read_bytes())
        narrowed = UsageMatrix(
            actors=usage.actors,
            techniques=tuple(usage.techniques[k] for k in keep),
            cells=usage.cells[:, keep],
        )
        write_json(str(kb / "usage.json"), {"meta": {}, "usage": usage_to_dict(narrowed)})
        argv = ["features", "--reports", REPORTS, "--kb", str(kb),
                "--out", str(tmp_path / "narrow.csv")]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        rows = load_features(str(tmp_path / "narrow.csv"))
        expected = sum(1 for key in rows if "T1204" in (key.tx, key.ty))
        assert expected > 0
        assert rows.f4_missing.sum() == expected
        assert ", 0 with f4_missing ->" in out[0]
        assert f", {expected} with f4_missing ->" in out[1]


class TestCoreferenceSentenceCount:
    """The features stage logs, and the `run` summary returns, the hit
    sentences coreference was computed over beside the corpus sentence
    count; no artifact carries them."""

    def test_run_summary(self, pipeline_out):
        summary, out_dir, _ = pipeline_out
        predictions = load_report_predictions(str(out_dir / "classify.jsonl"))
        expected = sum(
            len({i for tid in p.techniques for i in p.hit_sentences[tid]})
            for p in predictions
            if len(p.techniques) >= 2
        )
        assert summary["n_sentences"] == 20
        assert summary["n_hit_sentences"] == expected == 9
        for path in out_dir.rglob("*"):
            if path.is_file():
                text = path.read_text(encoding="utf-8")
                for key in ("n_sentences", "n_hit_sentences", "hit sentences"):
                    assert key not in text, (path, key)

    def test_features_info_line(self, cli_dir, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="ttpmine.pipeline"):
            assert main(_features_argv(cli_dir, tmp_path / "f.csv")) == 0
        lines = [
            r.getMessage()
            for r in caplog.records
            if r.getMessage().startswith("features:")
        ]
        assert len(lines) == 1
        assert lines[0].endswith("; coreference over 9 hit sentences of 20")


def _readme_stage_commands() -> list[list[str]]:
    """The arguments of each `ttpmine` command in README's "Stage by
    stage" sh block, continuation lines joined."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Stage by stage\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ttpmine ")]


def test_readme_stage_by_stage(tmp_path, monkeypatch):
    # The README's commands, run as written from a directory where
    # tests/data/e2e resolves, mine the planted pattern.
    commands = _readme_stage_commands()
    assert [argv[0] for argv in commands] == [
        "kb", "corpus", "classify", "features", "train-relations", "eval", "predict", "mine",
    ]
    (tmp_path / "tests" / "data").mkdir(parents=True)
    (tmp_path / "tests" / "data" / "e2e").symlink_to(E2E_DIR, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    rows = (tmp_path / "out" / "patterns.csv").read_text(encoding="utf-8").splitlines()
    assert [row for row in rows if row.startswith("T1566,T1204,BEFORE,")] == [PLANTED]


def _readme_artifacts() -> list[str]:
    """The file named in each row of README's "Artifacts" table."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Artifacts\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]


def test_readme_artifacts_table(tmp_path, monkeypatch):
    # The table names, one a row, exactly the files `ttpmine run` writes.
    monkeypatch.chdir(REPO_ROOT)
    argv = ["run", "--config", "tests/data/e2e/config.json", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert sorted(_readme_artifacts()) == written
