"""End-to-end pipeline orchestration and the command line interface,
driven by the bundled miniature corpus."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import E2E_DIR, REPO_ROOT, e2e_config_dict
from ttpmine import __version__, attack_kb, cli, pipeline
from ttpmine.attack_kb import UsageMatrix, usage_to_dict
from ttpmine.corpus import load_annotations, load_reports
from ttpmine.cli import main
from ttpmine.ctfidf import predict_report
from ttpmine.features import FeatureLayout, FeatureRows
from ttpmine.gbdt import TrainConfig
from ttpmine.labels import BEFORE, NULL
from ttpmine.pipeline import (
    PipelineConfig,
    PipelineError,
    labels_for_rows,
    load_ctfidf_model,
    load_features,
    load_kb_catalog,
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
    stage_predict,
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
            "catalog.json",
            "classify.jsonl",
            "ctfidf.json",
            "features.csv",
            "features.csv.layout.json",
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
        mine_meta = json.loads((out_dir / "patterns.meta.json").read_text())["meta"]
        assert mine_meta["stage"] == "mine"
        assert mine_meta["min_support"] == 2
        assert mine_meta["patterns"] == 1
        sidecar = json.loads(
            (out_dir / "features.csv.layout.json").read_text()
        )
        assert sidecar["meta"]["layout_version"] == "v1-bins10"
        assert sidecar["layout"]["total"] == 152

    def test_features_round_trip_and_labels(self, pipeline_out):
        _, out_dir, _ = pipeline_out
        rows = load_features(str(out_dir / "features.csv"))
        assert len(rows) == 18
        assert rows.layout.version == "v1-bins10"
        catalog = load_kb_catalog(str(out_dir / "kb"))
        annotations = load_annotations(ANNOTATIONS, catalog=catalog)
        labels = labels_for_rows(rows, annotations)
        before_rows = [
            row.report_id
            for row, labs in zip(rows, labels)
            if labs == frozenset({BEFORE})
        ]
        assert sorted(before_rows) == ["r01", "r02", "r03"]
        assert labels.count(frozenset({NULL})) == 15

    def test_predictions_artifact(self, pipeline_out):
        _, out_dir, _ = pipeline_out
        predictions = load_relation_predictions(str(out_dir / "predictions.jsonl"))
        assert len(predictions) == 18
        positives = {
            (p.report_id, p.tx, p.ty) for p in predictions if BEFORE in p.labels
        }
        assert positives == {
            ("r01", "T1566", "T1204"),
            ("r02", "T1566", "T1204"),
            ("r03", "T1566", "T1204"),
        }

    def test_predict_layout_guard(self, pipeline_out, tmp_path):
        # `predict_batch` refuses rows of another layout than the model's,
        # so the predict stage writes nothing.
        _, out_dir, _ = pipeline_out
        rows = load_features(str(out_dir / "features.csv"))
        coarse = FeatureRows(
            rows.keys, np.zeros((len(rows), 107)), FeatureLayout(bins=5)
        )
        model = load_relation_model(str(out_dir / "relations.json"))
        with pytest.raises(ValueError, match="v1-bins5 .* does not match the model"):
            stage_predict(model, coarse, str(tmp_path / "x.jsonl"))
        assert not (tmp_path / "x.jsonl").exists()

    def test_config_validation(self):
        with pytest.raises(PipelineError, match="unknown config keys"):
            PipelineConfig.from_dict({"min_count": 2})
        with pytest.raises(PipelineError, match="config.stix is required"):
            run_pipeline(PipelineConfig(reports="x", annotations="y"))

    def test_e2e_config_hash_pinned(self):
        # Every artifact's meta carries this hash; a change to how the
        # config is turned into a dict would move it.
        data = json.loads((E2E_DIR / "config.json").read_text(encoding="utf-8"))
        config = PipelineConfig.from_dict(data)
        assert config.config_hash() == "e812b53bec5eda02"
        assert PipelineConfig().config_hash() == "50f936c5e91cc479"

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
        # classifies the reports itself.
        _, out_dir, config = pipeline_out
        out = tmp_path / "features.csv"
        argv = [
            "features",
            "--reports", REPORTS,
            "--kb", str(out_dir / "kb"),
            "--threshold", repr(config.threshold),
            "--bins", str(config.bins),
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert out.read_bytes() == (out_dir / "features.csv").read_bytes()
        mine = json.loads((tmp_path / "features.csv.layout.json").read_text())
        theirs = json.loads((out_dir / "features.csv.layout.json").read_text())
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
        with pytest.raises(PipelineError, match="threshold 0.95, not 0.9"):
            stage_features(usage, reports, predictions, out, threshold=0.9)


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
        assert "catalog.json" not in read
        assert "usage.json" not in read
        assert (tmp_path / "kb" / "catalog.json").exists()
        assert (tmp_path / "kb" / "usage.json").exists()

    def test_in_memory_kb_equals_artifacts(self, tmp_path):
        catalog, usage, model = stage_kb(STIX, str(tmp_path))
        assert catalog == load_kb_catalog(str(tmp_path))
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
        with pytest.raises(PipelineError, match="^unknown config keys: workers$"):
            PipelineConfig.from_dict(data)

    def test_run_with_workers_config_exits_1(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        data = dict(e2e_config_dict(tmp_path / "out"), workers=2)
        config_path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"ttpmine run: error: {config_path}: malformed pipeline config: "
            "PipelineError: unknown config keys: workers"
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
            (["features", "--reports", REPORTS, "--kb", "kb",
              "--out", "{out}/f.csv", "--bins", "0"],
             "argument --bins: must be >= 1, got 0"),
            (["features", "--reports", REPORTS, "--kb", "kb",
              "--out", "{out}/f.csv", "--threshold", "1.5"],
             "argument --threshold: must be in (0, 1], got 1.5"),
            (["features", "--reports", REPORTS, "--kb", "kb",
              "--out", "{out}/f.csv", "--threshold", "nan"],
             "argument --threshold: must be in (0, 1], got nan"),
            (["mine", "--predictions", "p.jsonl", "--out", "{out}/m.csv",
              "--min-support", "-1"],
             "argument --min-support: must be >= 1, got -1"),
            (["run", "--config", "{config}", "--out-dir", "{out}", "--bins", "0"],
             "argument --bins: must be >= 1, got 0"),
            (["run", "--config", "{config}", "--out-dir", "{out}",
              "--min-support", "0"],
             "argument --min-support: must be >= 1, got 0"),
            (["run", "--config", "{config}", "--out-dir", "{out}",
              "--threshold", "2"],
             "argument --threshold: must be in (0, 1], got 2.0"),
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
    assert len(config.to_dict()) == 11


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
            f"ttpmine {__version__} (feature layout v1-bins10, stopwords 1, "
            f"categories 1)"
        )

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

    def test_mine_single_format(self, cli_dir, tmp_path):
        out = tmp_path / "patterns.dot"
        rc = main(
            [
                "mine",
                "--predictions", str(cli_dir / "predictions.jsonl"),
                "--format", "dot",
                "--out", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert text.count("->") == 1
        assert '"T1566" -> "T1204"' in text
        assert not (tmp_path / "patterns.json").exists()
        assert (tmp_path / "patterns.meta.json").exists()

    def test_mine_unknown_format(self, cli_dir, tmp_path, capsys):
        rc = main(
            [
                "mine",
                "--predictions", str(cli_dir / "predictions.jsonl"),
                "--format", "xml",
                "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 1
        assert "unknown export formats: xml" in capsys.readouterr().err

    def test_bins_mismatch_fails_predict(self, cli_dir, tmp_path, capsys):
        coarse = tmp_path / "coarse.csv"
        rc = main(
            [
                "features",
                "--reports", REPORTS,
                "--kb", str(cli_dir / "kb"),
                "--bins", "5",
                "--out", str(coarse),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "predict",
                "--model", str(cli_dir / "relations.json"),
                "--features", str(coarse),
                "--out", str(tmp_path / "p.jsonl"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "ttpmine predict: error:" in err
        assert "v1-bins5" in err and "v1-bins10" in err

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
        assert "unknown feature groups: f9" in capsys.readouterr().err

    def test_run_with_overrides(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(e2e_config_dict(tmp_path / "ignored")), encoding="utf-8"
        )
        rc = main(
            [
                "run",
                "--config", str(config_path),
                "--out-dir", str(tmp_path / "out"),
                "--min-support", "999",
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_reports"] == 5
        assert summary["n_patterns"] == 0
        assert (tmp_path / "out" / "patterns.csv").exists()

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
        sidecar = (cli_dir / "features.csv.layout.json").read_bytes()
        (tmp_path / "features.csv.layout.json").write_bytes(sidecar)
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
        self._assert_fails(cli_dir, tmp_path, path, "5: 155 columns, expected 156", capsys)

    def test_flag_other_than_0_or_1(self, cli_dir, tmp_path, capsys):
        path = self._corrupt(
            cli_dir, tmp_path, 2, lambda cells: [*cells[:3], "7", *cells[4:]]
        )
        self._assert_fails(
            cli_dir, tmp_path, path, "2: f4_missing is '7', not 0 or 1", capsys
        )

    def test_non_numeric_value(self, cli_dir, tmp_path, capsys):
        path = self._corrupt(
            cli_dir, tmp_path, 19, lambda cells: [*cells[:20], "x1", *cells[21:]]
        )
        self._assert_fails(
            cli_dir, tmp_path, path, "19: could not convert string to float: 'x1'", capsys
        )


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
            f"{bad}: malformed relation model: KeyError: 'config'",
            capsys,
        )

    def test_model_is_a_list(self, cli_dir, tmp_path, capsys):
        bad = tmp_path / "relations.json"
        bad.write_text(json.dumps([self._model(cli_dir)["model"]]), encoding="utf-8")
        self._assert_fails(
            self._predict(cli_dir, tmp_path, bad),
            f"{bad}: malformed relation model: TypeError: ",
            capsys,
        )

    def test_sidecar_is_a_list(self, cli_dir, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_bytes((cli_dir / "features.csv").read_bytes())
        sidecar = tmp_path / "features.csv.layout.json"
        sidecar.write_text("[]", encoding="utf-8")
        argv = ["predict", "--model", str(cli_dir / "relations.json"),
                "--features", str(features), "--out", str(tmp_path / "p.jsonl")]
        self._assert_fails(
            argv, f"{sidecar}: malformed features sidecar: TypeError: ", capsys
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

    def test_catalog_of_another_format(self, cli_dir, tmp_path, capsys):
        kb = tmp_path / "kb"
        kb.mkdir()
        bad = kb / "catalog.json"
        self._format_2(cli_dir / "kb" / "catalog.json", bad, "catalog")
        argv = ["corpus", "validate", "--reports", REPORTS,
                "--annotations", ANNOTATIONS, "--kb", str(kb)]
        self._assert_fails(
            argv,
            f"{bad}: malformed kb catalog: ValueError: catalog format '2' is not '1'\n",
            capsys,
        )

    def test_prediction_without_ty(self, cli_dir, tmp_path, capsys):
        lines = (cli_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        del record["ty"]
        lines[2] = json.dumps(record)
        bad = tmp_path / "predictions.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["mine", "--predictions", str(bad), "--out", str(tmp_path / "p.csv")]
        self._assert_fails(
            argv, f"{bad}: malformed relation prediction on line 3: KeyError: 'ty'", capsys
        )


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
        mine = json.loads((tmp_path / "features.csv.layout.json").read_text())
        theirs = json.loads((cli_dir / "features.csv.layout.json").read_text())
        assert mine["layout"] == theirs["layout"]
        # Only the provenance differs: the detections came from a file.
        assert mine["meta"]["config_hash"] != theirs["meta"]["config_hash"]
        del mine["meta"]["config_hash"], theirs["meta"]["config_hash"]
        assert mine == theirs

    def test_wrong_threshold_names_file(self, cli_dir, tmp_path, capsys):
        predictions = str(cli_dir / "classify.jsonl")
        argv = _features_argv(
            cli_dir, tmp_path / "f.csv", "--predictions", predictions, "--threshold", "0.9"
        )
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ttpmine features: error: {predictions}: features: prediction for "
            "report 'r01' used threshold 0.95, not 0.9"
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
        bad.write_text('{"report_id": "r01", "threshold": 0.95}\n')
        argv = _features_argv(cli_dir, tmp_path / "f.csv", "--predictions", str(bad))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"ttpmine features: error: {bad}: malformed report prediction" in err

    def test_load_report_predictions_skips_meta_line(self, cli_dir):
        loaded = load_report_predictions(str(cli_dir / "classify.jsonl"))
        assert [p.report_id for p in loaded] == ["r01", "r02", "r03", "r04", "r05"]

    def test_model_and_predictions_are_exclusive(self, cli_dir, tmp_path, capsys):
        argv = _features_argv(
            cli_dir, tmp_path / "f.csv",
            "--predictions", str(cli_dir / "classify.jsonl"),
            "--model", str(cli_dir / "kb" / "ctfidf.json"),
        )
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestMalformedClassifyOutput:
    """A `classify.jsonl` record that does not fit the features stage
    fails `features --predictions` with one error naming the file and
    the line or the report; no traceback."""

    def _fails(self, cli_dir, tmp_path, capsys, edit) -> str:
        lines = (cli_dir / "classify.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        assert record["report_id"] == "r01" and len(record["techniques"]) >= 2
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
            del record["top_scores"][record["techniques"][0]]

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': T"
        ) and err.endswith(" needs 5 top_scores"), err

    def test_top_scores_of_two_values(self, cli_dir, tmp_path, capsys):
        def edit(record):
            record["top_scores"][record["techniques"][-1]] = [1.0, 0.5]

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': T"
        ) and err.endswith(" needs 5 top_scores"), err

    def test_techniques_not_the_hit_keys(self, cli_dir, tmp_path, capsys):
        def edit(record):
            del record["hit_sentences"][record["techniques"][0]]

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': techniques ["
        ) and " are not the hit_sentences keys " in err, err

    def test_detected_technique_without_hits(self, cli_dir, tmp_path, capsys):
        def edit(record):
            record["hit_sentences"][record["techniques"][0]] = []

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err.startswith(
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': detected technique T"
        ) and err.endswith(" has no hit sentences"), err

    def test_hit_that_is_not_an_index(self, cli_dir, tmp_path, capsys):
        def edit(record):
            record["hit_sentences"][record["techniques"][0]].append(1.5)

        err = self._fails(cli_dir, tmp_path, capsys, edit)
        assert err == (
            "ttpmine features: error: <file>: malformed report prediction on line 2: "
            "ValueError: report 'r01': hit_sentences must hold integer sentence indices"
        )

    def test_hit_past_the_report_end(self, cli_dir, tmp_path, capsys):
        def edit(record):
            record["hit_sentences"][record["techniques"][0]].append(99)

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
            "ValueError: trees must be int, got 'a'"
        )

    def test_train_config_unknown_key(self, cli_dir, tmp_path, capsys):
        assert self._train(cli_dir, tmp_path, capsys, '{"tress": 5}') == (
            "ttpmine train-relations: error: <file>: malformed train config: "
            "ValueError: unknown train config keys: tress"
        )

    def test_run_config_wrong_type(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, self._config(tmp_path, bins="a")) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: bins must be int, got 'a'"
        )
        train = {**e2e_config_dict(tmp_path)["train"], "trees": "a"}
        assert self._run(tmp_path, capsys, self._config(tmp_path, train=train)) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: trees must be int, got 'a'"
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("threshold", 0, "threshold must be in (0, 1], got 0"),
            ("threshold", 1.5, "threshold must be in (0, 1], got 1.5"),
            ("min_examples", 0, "min_examples must be >= 1, got 0"),
            ("bins", 0, "bins must be >= 1, got 0"),
            ("min_support", -1, "min_support must be >= 1, got -1"),
        ],
    )
    def test_run_config_out_of_range(self, tmp_path, capsys, field, value, message):
        # Refused before any stage runs: `_run` checks no output exists.
        assert self._run(tmp_path, capsys, self._config(tmp_path, **{field: value})) == (
            f"ttpmine run: error: <file>: malformed pipeline config: ValueError: {message}"
        )

    def test_run_config_train_not_an_object(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, self._config(tmp_path, train=5)) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: train must be TrainConfig, got 5"
        )

    def test_run_config_unknown_train_key(self, tmp_path, capsys):
        train = {**e2e_config_dict(tmp_path)["train"], "tress": 5}
        assert self._run(tmp_path, capsys, self._config(tmp_path, train=train)) == (
            "ttpmine run: error: <file>: malformed pipeline config: "
            "ValueError: unknown train config keys: tress"
        )

    def test_bools_and_floats_for_ints_rejected(self):
        with pytest.raises(ValueError, match="^min_support must be int, got True$"):
            PipelineConfig(min_support=True)
        with pytest.raises(ValueError, match="^max_depth must be int, got 2.5$"):
            TrainConfig(max_depth=2.5)
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
        write_json(str(kb / "usage.json"), {"usage": usage_to_dict(narrowed)})
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
