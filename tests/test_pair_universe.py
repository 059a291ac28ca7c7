"""The pair universe: a report's rows are the ordered pairs of the
techniques the classifier detected in it. Checked against the all-class
rows, on a many-class corpus, and through the count of annotated
relations that get no row."""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    E2E_DIR,
    e2e_config_dict,
    random_prediction,
    random_report,
    write_many_class_corpus,
)
from oracles import full_universe_rows_oracle
from ttpmine.cli import main
from ttpmine.corpus import load_reports
from ttpmine.pipeline import (
    PipelineConfig,
    load_ctfidf_model,
    read_jsonl,
    run_pipeline,
    stage_classify,
    stage_features,
    stage_kb,
)

# r05 mentions only T1560; the classifier does not detect T1046 there.
UNROWED = {"report_id": "r05", "tx": "T1560", "ty": "T1046", "labels": ["BEFORE"]}


@pytest.fixture(scope="module")
def e2e_kb(tmp_path_factory):
    out = tmp_path_factory.mktemp("kb")
    _, usage, model = stage_kb(str(E2E_DIR / "stix_bundle.json"), str(out))
    return model, usage


def _assert_detected_rows_of_oracle(rows, oracle, predictions):
    found = {p.report_id: p.techniques for p in predictions}
    expected = oracle.take(
        [k for k, key in enumerate(oracle) if {key.tx, key.ty} <= found[key.report_id]]
    )
    assert rows.keys == expected.keys
    assert rows.f4_missing.tolist() == expected.f4_missing.tolist()
    for key, got, want in zip(rows, rows.values, expected.values):
        assert got.tobytes() == want.tobytes(), key


class TestFullUniverseOracle:
    def test_e2e_fixture(self, e2e_kb, tmp_path):
        model, usage = e2e_kb
        reports = load_reports(E2E_DIR / "reports")
        predictions = stage_classify(model, reports, str(tmp_path / "c.jsonl"))
        rows = stage_features(usage, reports, predictions, str(tmp_path / "f.csv"))
        oracle = full_universe_rows_oracle(reports, predictions, model.class_ids, usage)
        assert len(oracle) == 60
        assert len(rows) == 18
        _assert_detected_rows_of_oracle(rows, oracle, predictions)

    @pytest.mark.parametrize("with_usage", [True, False])
    def test_seeded_reports(self, e2e_kb, tmp_path, with_usage):
        model, usage = e2e_kb
        usage = usage if with_usage else None
        rng = np.random.default_rng(20261019)
        reports = [
            random_report(rng, f"s{k:02d}", n_sentences=(3, 30)) for k in range(10)
        ]
        predictions = [
            random_prediction(rng, r, *model.class_ids) for r in reports
        ]
        rows = stage_features(usage, reports, predictions, str(tmp_path / "f.csv"))
        oracle = full_universe_rows_oracle(reports, predictions, model.class_ids, usage)
        assert 0 < len(rows) < len(oracle)
        _assert_detected_rows_of_oracle(rows, oracle, predictions)


class TestManyClasses:
    def test_mined_reports_detect_both_techniques(self, tmp_path):
        config = write_many_class_corpus(tmp_path, seed=1)
        summary = run_pipeline(PipelineConfig.from_dict(config))
        out = tmp_path / "out"
        assert len(load_ctfidf_model(str(out / "kb" / "ctfidf.json")).class_ids) == 40
        _, classified = read_jsonl(out / "classify.jsonl")
        detected = {r["report_id"]: set(r["techniques"]) for r in classified}
        patterns = json.loads((out / "patterns.json").read_text())
        assert summary["n_patterns"] == len(patterns) > 0
        for pattern in patterns:
            for rid in pattern["report_ids"]:
                assert {pattern["tx"], pattern["ty"]} <= detected[rid], pattern
        # Every planted relation is mined.
        lines = Path(config["annotations"]).read_text(encoding="utf-8").splitlines()
        planted = {(a["tx"], a["ty"]) for a in map(json.loads, lines)}
        assert planted <= {(p["tx"], p["ty"]) for p in patterns}


class TestUnrowedAnnotations:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("unrowed")
        annotations = d / "annotations.jsonl"
        annotations.write_text(
            (E2E_DIR / "annotations.jsonl").read_text(encoding="utf-8")
            + json.dumps(UNROWED, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        config = e2e_config_dict(d / "out")
        config["annotations"] = str(annotations)
        return d, annotations, config

    def test_run_pipeline_counts_and_warns(self, run, caplog):
        _, _, config = run
        with caplog.at_level(logging.WARNING, logger="ttpmine.pipeline"):
            summary = run_pipeline(PipelineConfig.from_dict(config))
        assert summary["n_unrowed_annotations"] == 1
        warnings = [
            r.getMessage() for r in caplog.records if r.name == "ttpmine.pipeline"
        ]
        assert warnings == [
            "train-relations: 1 annotated relations have no feature row "
            "(a technique of the pair was not detected)"
        ]
        # The relation without a row changes nothing else.
        assert summary["n_pairs"] == 18
        assert summary["n_patterns"] == 1

    def test_cli_prints_count(self, run, capsys):
        d, annotations, config = run
        out = d / "out"
        run_pipeline(PipelineConfig.from_dict(config))
        capsys.readouterr()
        assert main([
            "train-relations", "--features", str(out / "features.csv"),
            "--annotations", str(annotations), "--out", str(d / "relations.json"),
        ]) == 0
        assert "1 annotated relations without a row" in capsys.readouterr().out
        assert main([
            "eval", "--model", str(d / "relations.json"),
            "--features", str(out / "features.csv"),
            "--annotations", str(annotations),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_unrowed_annotations"] == 1
        assert main([
            "eval", "--model", str(d / "relations.json"),
            "--features", str(out / "features.csv"),
            "--annotations", str(annotations), "--out", str(d / "eval.json"),
        ]) == 0
        assert "1 annotated relations without a row" in capsys.readouterr().out

    def test_zero_on_e2e_fixture(self, tmp_path):
        summary = run_pipeline(PipelineConfig.from_dict(e2e_config_dict(tmp_path)))
        assert summary["n_unrowed_annotations"] == 0
