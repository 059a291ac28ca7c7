"""One benchmark step in a fresh process.

    python3 pipebench/child.py TASK WORKLOAD DATA OUT META [--trace]

TASK is one of:

* ``fixture``: ``run_pipeline`` on ``tests/data/e2e/config.json``;
* ``prepare``: untimed inputs a workload needs (a trained model for
  ``apply-long``, features CSVs for ``train-csv``);
* ``rep``: one measured repetition: set-up, then the workload's call(s);
* ``score``: ``train-csv`` only, applies the trained model in
  ``DATA/trained.json`` to the held-out split so it can be scored.

Artifacts go to OUT. ``META/result.json`` gets the timings, peak RSS and
the active split backend; with ``--trace``, ``META/spans.json`` gets the
spans and the per-layer metrics. Run from the repository root with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from workloads import RUN_TRAIN_CONFIG, WORKLOADS


def cli(*argv: str) -> None:
    from ttpmine.cli import main

    code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"ttpmine {argv[0]} exited with {code}")


def setup(workload: str, data: Path, out: Path) -> None:
    """Set-up paid once per process: the knowledge base, and for
    ``apply-long`` the relation model."""
    from ttpmine import pipeline

    pipeline.stage_kb(str(data / "stix_bundle.json"), str(out / "kb"))
    if workload == "apply-long":
        pipeline.load_relation_model(str(data / "model" / "relations.json"))


def measured(workload: str, data: Path, out: Path) -> None:
    """The workload's measured call(s), through public entry points."""
    from ttpmine.gbdt import TrainConfig
    from ttpmine.pipeline import PipelineConfig, run_pipeline

    if workload == "run-train":
        run_pipeline(
            PipelineConfig(
                stix=str(data / "stix_bundle.json"),
                reports=str(data / "r"),
                annotations=str(data / "r.annotations.jsonl"),
                out_dir=str(out),
                train=TrainConfig.from_dict(RUN_TRAIN_CONFIG),
            )
        )
    elif workload == "apply-long":
        kb, reports = out / "kb", str(data / "a")
        cli("classify", "--model", str(kb / "ctfidf.json"), "--reports", reports,
            "--out", str(out / "classify.jsonl"))
        cli("features", "--reports", reports, "--kb", str(kb),
            "--out", str(out / "features.csv"))
        cli("predict", "--model", str(data / "model" / "relations.json"),
            "--features", str(out / "features.csv"), "--out", str(out / "predictions.jsonl"))
        cli("mine", "--predictions", str(out / "predictions.jsonl"),
            "--out", str(out / "patterns.csv"))
    elif workload == "train-csv":
        cli("train-relations", "--features", str(data / "c.features.csv"),
            "--annotations", str(data / "c.annotations.jsonl"), "--kb", str(out / "kb"),
            "--out", str(out / "relations.json"))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, data: Path) -> None:
    from ttpmine.gbdt import TrainConfig
    from ttpmine.pipeline import PipelineConfig, run_pipeline

    if workload == "apply-long":
        run_pipeline(
            PipelineConfig(
                stix=str(data / "stix_bundle.json"),
                reports=str(data / "t"),
                annotations=str(data / "t.annotations.jsonl"),
                out_dir=str(data / "model"),
                train=TrainConfig.from_dict(RUN_TRAIN_CONFIG),
            )
        )
    elif workload == "train-csv":
        cli("kb", "build", "--stix", str(data / "stix_bundle.json"), "--out", str(data / "kb"))
        for split in ("c", "h"):
            cli("features", "--reports", str(data / split), "--kb", str(data / "kb"),
                "--out", str(data / f"{split}.features.csv"))


def score(data: Path, out: Path) -> None:
    cli("predict", "--model", str(data / "trained.json"),
        "--features", str(data / "h.features.csv"), "--out", str(out / "predictions.jsonl"))
    cli("mine", "--predictions", str(out / "predictions.jsonl"),
        "--out", str(out / "patterns.csv"))


def fixture(out: Path) -> None:
    from ttpmine.pipeline import PipelineConfig, run_pipeline

    with open("tests/data/e2e/config.json", encoding="utf-8") as fh:
        config = json.load(fh)
    config["out_dir"] = str(out)
    run_pipeline(PipelineConfig.from_dict(config))


def split_backend() -> str:
    try:
        from ttpmine.gbdt.kernel import BACKEND
    except ImportError:
        return "none"
    return str(BACKEND)


def main() -> None:
    task, workload, data, out, meta = sys.argv[1:6]
    trace = "--trace" in sys.argv[6:]
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    data, out, meta = Path(data), Path(out), Path(meta)
    result: dict = {}

    start = time.perf_counter()
    import ttpmine.cli  # noqa: F401  (imports every traced module)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    if task == "rep":
        setup(workload, data, out)
        result["setup_s"] = time.perf_counter() - start
        start = time.perf_counter()
        measured(workload, data, out)
        result["wall_s"] = time.perf_counter() - start
    elif task == "prepare":
        prepare(workload, data)
    elif task == "score":
        score(data, out)
    elif task == "fixture":
        fixture(out)
    else:
        raise SystemExit(f"unknown task {task!r}")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["split_backend"] = split_backend()
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        result["absent"] = tracer.absent_metrics()
        with open(meta / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "detail"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
            fh.write("\n")
    with open(meta / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
