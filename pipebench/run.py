"""End-to-end benchmark of the ttpmine pipeline.

    python3 pipebench/run.py --workload {run-train,apply-long,train-csv}
        --seed N --seconds S --trace {0,1}

Run from the repository root. One run:

1. generates the workload's corpus from ``--seed`` (``gen.py``);
2. prepares untimed inputs (``apply-long``: a model trained on a separate
   annotated split; ``train-csv``: the features CSVs);
3. gates: the ``tests/data/e2e`` fixture must mine exactly
   ``T1566,T1204,BEFORE``, and two repetitions of the workload must give byte-identical artifacts. If the
   gate fails the run exits non-zero and times nothing;
4. scores the gate's outputs against the generator's truth;
5. repeats the workload, each repetition in a fresh process, for
   ``--seconds``; a repetition that fails or whose artifacts differ from
   the gate's counts as failed.

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics from traced repetitions alternated with untraced
ones. It prints a table, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``, and writes the samples and the
run's metadata to ``.pipebench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import generate  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
WORK = Path(".pipebench")
MIN_SAMPLES = 3
# A run must end within 180 s; children are killed once this budget is spent.
BUDGET_S = 170
STARTED = time.monotonic()
FIXTURE_PATTERNS = [("T1566", "T1204", "BEFORE")]

TIMINGS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Quality ratios; all are printed and recorded. Precision and macro-F1 swing
# between seeds on these small corpora (the model's false positives depend
# on the few annotated relations it sees), so only recall is reported as an
# end-to-end metric.
QUALITY_REPORTED = ("pattern_recall",)


class StepFailed(Exception):
    """A child process failed or an output check did not hold."""


def run_child(task: str, workload: str, work: Path, trace: bool = False) -> dict:
    """Run one step in a fresh process; return its result with the digests
    of the artifacts it wrote to ``work/out``."""
    out, meta = work / "out", work / "meta"
    for path in (out, meta):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), task, workload,
           str(work / "data"), str(out), str(meta)] + (["--trace"] if trace else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    log = work / "child.log"
    timeout = max(1.0, BUDGET_S - (time.monotonic() - STARTED))
    started = time.perf_counter()
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise StepFailed(f"{task} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8").splitlines()[-15:]
        raise StepFailed(f"{task} exited with {proc.returncode}:\n" + "\n".join(tail))
    result = json.loads((meta / "result.json").read_text(encoding="utf-8"))
    result["elapsed_s"] = time.perf_counter() - started
    result["digests"] = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    return result


def read_patterns(path: Path) -> set[tuple[str, str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {(r["tx"], r["ty"], r["relation"]) for r in csv.DictReader(fh)}


def gate(workload: str, work: Path) -> tuple[list[float], dict]:
    """The correctness gate. Returns the gate repetitions' durations and
    their artifact digests, and keeps their artifacts in ``work/gate``."""
    run_child("fixture", workload, work)
    mined = read_patterns(work / "out" / "patterns.csv")
    if mined != set(FIXTURE_PATTERNS):
        raise StepFailed(f"e2e fixture mined {sorted(mined)}, expected {FIXTURE_PATTERNS}")

    first = run_child("rep", workload, work)
    keep = work / "gate"
    shutil.rmtree(keep, ignore_errors=True)
    shutil.copytree(work / "out", keep)
    second = run_child("rep", workload, work)
    differ = sorted(
        name for name in set(first["digests"]) | set(second["digests"])
        if first["digests"].get(name) != second["digests"].get(name)
    )
    if differ:
        raise StepFailed(f"{workload}: two runs differ in {', '.join(differ)}")
    return [first["elapsed_s"], second["elapsed_s"]], first["digests"]


def quality(workload: str, work: Path) -> dict[str, float]:
    """Pattern recall and precision, and relation macro-F1 via
    ``ttpmine.metrics``, of the gate's outputs against the generator truth."""
    from ttpmine.metrics import macro_prf

    spec = WORKLOADS[workload]
    scored = work / "gate"
    if workload == "train-csv":
        shutil.copyfile(scored / "relations.json", work / "data" / "trained.json")
        run_child("score", workload, work)
        scored = work / "out"
    truth = json.loads((work / "data" / "truth.json").read_text(encoding="utf-8"))[spec.scored]

    labelled = {(r["report_id"], r["tx"], r["ty"]): frozenset(r["labels"])
                for r in truth["relations"]}
    rows = []
    with open(scored / "predictions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if set(record) != {"meta"}:
                rows.append(record)
    if not rows:
        raise StepFailed(f"{workload}: no predictions to score")
    expected = [labelled.get((r["report_id"], r["tx"], r["ty"]), frozenset({"NULL"}))
                for r in rows]
    predicted = [frozenset(r["labels"]) for r in rows]

    mined = read_patterns(scored / "patterns.csv")
    planted = {tuple(p) for p in truth["patterns"]}
    hits = len(mined & planted)
    return {
        "pattern_recall": hits / len(planted),
        "pattern_precision": hits / len(mined) if mined else 0.0,
        "relation_macro_f1": macro_prf(expected, predicted).macro_f1,
    }


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metadata(backend: str) -> dict:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
        commit = commit or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "split_backend": backend,
        "workers": None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/ttpmine/__init__.py", "tests/data/e2e/config.json"):
        if not (ROOT / needed).is_file():
            print(f"pipebench: run from the repository root ({needed} not found)",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    spec = WORKLOADS[args.workload]
    generate(work / "data", spec.bundle, args.seed, spec.splits)
    try:
        run_child("prepare", args.workload, work)
        gate_times, reference = gate(args.workload, work)
        ratios = quality(args.workload, work)
    except StepFailed as exc:
        print(f"pipebench: correctness gate failed: {exc}", file=sys.stderr)
        return 1

    # Timed repetitions; with --trace 1, untraced and traced ones alternate.
    estimate = max(gate_times)
    deadline = time.perf_counter() + args.seconds
    samples: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    errors: list[str] = []
    while attempted < MIN_SAMPLES * (1 + args.trace) or time.perf_counter() + estimate <= deadline:
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        try:
            result = run_child("rep", args.workload, work, trace=traced)
        except StepFailed as exc:
            failed += 1
            errors.append(str(exc))
            continue
        if result["digests"] != reference:
            failed += 1
            errors.append("artifacts differ from the gate's")
            continue
        samples[traced].append(result)
        if traced:
            shutil.copyfile(work / "meta" / "spans.json", work / "spans.json")

    plain, traced_runs = samples[False], samples[True]
    if not plain or (args.trace and not traced_runs):
        print("pipebench: no repetition succeeded:\n" + "\n".join(errors), file=sys.stderr)
        return 1
    backend = plain[0]["split_backend"]
    stats = {name: summary([r[name] for r in plain]) for name in TIMINGS}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": metadata(backend),
        "attempted": attempted, "failed": failed, "errors": errors,
        "error_rate": failed / attempted, "quality": ratios, "timings": stats,
        "samples": [{k: r[k] for k in TIMINGS} for r in plain],
    }

    print(f"pipebench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced samples, {attempted} attempted, {failed} failed")
    print("meta: " + ", ".join(f"{k}={v}" for k, v in report["meta"].items()))
    if args.trace:
        layers = summarise_layers(traced_runs, stats["wall_s"]["median"])
        report["layers"] = layers
        report["absent"] = traced_runs[0]["absent"]
        metrics = {name: {"value": layers[name]["median"], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        for name, (unit, _) in LAYER_METRICS.items():
            row = layers[name]
            mark = "  absent" if name in report["absent"] else ""
            print(f"  {name:<36} {row['median']:>14.6g} {unit:<6} "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n={row['n']}{mark}")
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in TIMINGS.items()}
        metrics.update({name: {"value": ratios[name], "unit": "ratio"}
                        for name in QUALITY_REPORTED})
        for name, unit in TIMINGS.items():
            s = stats[name]
            print(f"  {name:<18} {s['median']:>10.4f} {unit:<6} "
                  f"(median; q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
        for name, value in ratios.items():
            print(f"  {name:<18} {value:>10.4f} ratio")
        print(f"  {'error_rate':<18} {failed / attempted:>10.4f} ratio  "
              f"({failed} of {attempted} runs failed)")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    if args.trace:
        shutil.copyfile(work / "spans.json", results / f"{stem}.spans.json")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def summarise_layers(traced: list[dict], untraced_wall: float) -> dict:
    layers = {name: summary([r["layers"][name] for r in traced])
              for name in LAYER_METRICS if name != "trace.overhead_s"}
    overhead = statistics.median(r["wall_s"] for r in traced) - untraced_wall
    layers["trace.overhead_s"] = {"median": overhead, "q1": overhead, "q3": overhead,
                                  "n": len(traced)}
    return layers


if __name__ == "__main__":
    sys.exit(main())
