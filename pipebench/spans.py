"""In-memory spans around ttpmine's public functions, and the per-layer
metrics computed from them.

``Tracer.install`` replaces each traced function, in every loaded
``ttpmine`` module that refers to it, with a wrapper that records a span
``[name, start, end, parent, detail]``. Callers look functions up as module
attributes (``ttpmine.pipeline.predict_report``, ``ttpmine.cli.stage_train``,
``ttpmine.gbdt.tree._default_best_split``), so replacing every reference
catches every call without changing program code. ``detail`` is what the
span's hook reads off the call: a count such as rows built or objects
parsed, a tuple of counts, or the id of the report classified.

A traced function that no longer exists, or whose hook can no longer read
its call, is reported as absent, and the metrics that depend on it are
listed as absent rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name, hook). A hook maps (args, kwargs, result)
# to the span's detail.
TARGETS = (
    ("ttpmine.attack_kb", "parse_stix", "attack_kb.parse", None),
    ("ttpmine.attack_kb", "build_usage_matrix", "attack_kb.parse", None),
    ("ttpmine.attack_kb", "_load_bundle", "attack_kb.load_bundle", lambda a, k, r: len(r)),
    ("ttpmine.ctfidf", "train_ctfidf", "ctfidf.train", None),
    ("ttpmine.ctfidf", "predict_report", "ctfidf.classify",
     lambda a, k, r: r.report_id),
    ("ttpmine.corpus", "load_reports", "corpus.load",
     lambda a, k, r: sum(len(rep.sentences) for rep in r)),
    ("ttpmine.features.builder", "build_report_features", "features.build",
     lambda a, k, r: (len(r), _detected_rows(r, _arg(a, k, 1, "report_prediction")))),
    ("ttpmine.features.builder", "write_features_csv", "features.csv_write",
     lambda a, k, r: os.path.getsize(_arg(a, k, 2, "path"))),
    ("ttpmine.features.builder", "read_features_csv", "features.csv_read", None),
    ("ttpmine.gbdt.ensemble", "train", "gbdt.train",
     lambda a, k, r: (len(_arg(a, k, 0, "features")), sum(len(m.trees) for m in r.models.values()))),
    ("ttpmine.gbdt.tree", "fit_tree", "gbdt.fit_tree", None),
    ("ttpmine.gbdt.kernel", "best_split", "gbdt.split", None),
    ("ttpmine.gbdt.ensemble", "predict_batch", "gbdt.predict", lambda a, k, r: len(r)),
    ("ttpmine.gbdt.ensemble", "predict", "gbdt.predict", lambda a, k, r: 1),
    ("ttpmine.gbdt.tree", "predict_tree", "gbdt.predict_tree", None),
    ("ttpmine.mining", "mine", "mining.mine", lambda a, k, r: len(r)),
    ("ttpmine.pipeline", "stage_kb", "pipeline.stage.kb", None),
    ("ttpmine.pipeline", "stage_classify", "pipeline.stage.classify", None),
    ("ttpmine.pipeline", "stage_features", "pipeline.stage.features", None),
    ("ttpmine.pipeline", "stage_train", "pipeline.stage.train", None),
    ("ttpmine.pipeline", "stage_predict", "pipeline.stage.predict", None),
    ("ttpmine.pipeline", "stage_mine", "pipeline.stage.mine", None),
    ("ttpmine.pipeline", "write_json", "pipeline.artifact_write", None),
    ("ttpmine.pipeline", "write_jsonl", "pipeline.artifact_write", None),
    ("ttpmine.pipeline", "read_json", "pipeline.artifact_read", None),
    ("ttpmine.pipeline", "read_jsonl", "pipeline.artifact_read", None),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _detected_rows(rows, prediction) -> int:
    found = prediction.techniques
    return sum(1 for fv in rows if fv.tx in found and fv.ty in found)


# Per-layer metric -> (unit, the spans it is computed from).
LAYER_METRICS = {
    "attack_kb.parse_s": ("s", ("attack_kb.parse",)),
    "attack_kb.bundle_objects": ("count", ("attack_kb.load_bundle",)),
    "ctfidf.train_s": ("s", ("ctfidf.train",)),
    "corpus.load_s": ("s", ("corpus.load",)),
    "corpus.load_calls": ("count", ("corpus.load",)),
    "corpus.sentences": ("count", ("corpus.load",)),
    "ctfidf.classify_s": ("s", ("ctfidf.classify",)),
    "ctfidf.classify_passes_per_report": ("ratio", ("ctfidf.classify",)),
    "features.build_s": ("s", ("features.build",)),
    "features.rows": ("count", ("features.build",)),
    "features.rows_detected_share": ("ratio", ("features.build",)),
    "features.csv_write_s": ("s", ("features.csv_write",)),
    "features.csv_bytes": ("bytes", ("features.csv_write",)),
    "features.csv_read_s": ("s", ("features.csv_read",)),
    "gbdt.train_s": ("s", ("gbdt.train",)),
    "gbdt.fit_tree_s": ("s", ("gbdt.fit_tree",)),
    "gbdt.fit_tree_calls": ("count", ("gbdt.fit_tree",)),
    "gbdt.split_s": ("s", ("gbdt.split",)),
    "gbdt.split_calls": ("count", ("gbdt.split",)),
    "gbdt.train_rows": ("count", ("gbdt.train",)),
    "gbdt.trees": ("count", ("gbdt.train",)),
    "gbdt.predict_s": ("s", ("gbdt.predict",)),
    "gbdt.predict_rows": ("count", ("gbdt.predict",)),
    "gbdt.predict_tree_calls": ("count", ("gbdt.predict", "gbdt.predict_tree")),
    "mining.mine_s": ("s", ("mining.mine",)),
    "mining.patterns": ("count", ("mining.mine",)),
    **{
        f"pipeline.stage.{stage}_s": ("s", (f"pipeline.stage.{stage}",))
        for stage in ("kb", "classify", "features", "train", "predict", "mine")
    },
    "pipeline.artifact_write_s": ("s", ("pipeline.artifact_write",)),
    "pipeline.artifact_read_s": ("s", ("pipeline.artifact_read",)),
    "trace.overhead_s": ("s", ()),
}


class Tracer:
    """Records spans while installed. One per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: set[str] = set()

    def _wrap(self, name, fn, hook):
        spans, stack, absent = self.spans, self._stack, self.absent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span[4] = hook(args, kwargs, result)
                except (LookupError, TypeError, AttributeError, OSError):
                    # The call's signature or result changed; report the
                    # metric as absent instead of guessing.
                    absent.add(name)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; call after importing ``ttpmine.cli``, which
        imports every module that refers to a target."""
        found: set[str] = set()
        for module_name, attr, name, hook in TARGETS:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            found.add(name)
            traced = self._wrap(name, fn, hook)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "ttpmine" or mod_name.startswith("ttpmine."):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, traced)
        # A span name is present if any of its functions still exists.
        self.absent -= found

    def absent_metrics(self) -> list[str]:
        return sorted(
            metric
            for metric, (_, needs) in LAYER_METRICS.items()
            if set(needs) & self.absent
        )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    A time is the inclusive time of the spans of that name that have no
    ancestor of the same name; a stage time is self time, its duration less
    its children's. ``gbdt.predict_tree_calls`` counts only walks made for
    prediction, not the score updates inside training.
    ``trace.overhead_s`` needs an untraced run and is not computed here.
    """
    ancestors: list[frozenset] = []
    below: dict[int, frozenset] = {-1: frozenset()}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent not in below:
            below[parent] = ancestors[parent] | {spans[parent][0]}
        ancestors.append(below[parent])
        if parent >= 0:
            child_time[parent] += end - start

    time_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    details: dict[str, list] = defaultdict(list)
    predict_walks = 0
    for i, (name, start, end, parent, detail) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        if name not in ancestors[i]:
            time_s[name] += end - start
            details[name].append(detail)
        if name == "gbdt.predict_tree" and "gbdt.predict" in ancestors[i]:
            predict_walks += 1

    def total(name: str, field: int | None = None) -> int:
        return sum(d if field is None else d[field] for d in details[name] if d is not None)

    def share(a: float, b: float) -> float:
        return a / b if b else 0.0

    classified = [d for d in details["ctfidf.classify"] if d is not None]
    out = {
        "attack_kb.parse_s": time_s["attack_kb.parse"],
        "attack_kb.bundle_objects": total("attack_kb.load_bundle"),
        "ctfidf.train_s": time_s["ctfidf.train"],
        "corpus.load_s": time_s["corpus.load"],
        "corpus.load_calls": calls["corpus.load"],
        "corpus.sentences": total("corpus.load"),
        "ctfidf.classify_s": time_s["ctfidf.classify"],
        "ctfidf.classify_passes_per_report": share(len(classified), len(set(classified))),
        "features.build_s": time_s["features.build"],
        "features.rows": total("features.build", 0),
        "features.rows_detected_share": share(
            total("features.build", 1), total("features.build", 0)
        ),
        "features.csv_write_s": time_s["features.csv_write"],
        "features.csv_bytes": total("features.csv_write"),
        "features.csv_read_s": time_s["features.csv_read"],
        "gbdt.train_s": time_s["gbdt.train"],
        "gbdt.fit_tree_s": time_s["gbdt.fit_tree"],
        "gbdt.fit_tree_calls": calls["gbdt.fit_tree"],
        "gbdt.split_s": time_s["gbdt.split"],
        "gbdt.split_calls": calls["gbdt.split"],
        "gbdt.train_rows": total("gbdt.train", 0),
        "gbdt.trees": total("gbdt.train", 1),
        "gbdt.predict_s": time_s["gbdt.predict"],
        "gbdt.predict_rows": total("gbdt.predict"),
        "gbdt.predict_tree_calls": predict_walks,
        "mining.mine_s": time_s["mining.mine"],
        "mining.patterns": total("mining.mine"),
        "pipeline.artifact_write_s": time_s["pipeline.artifact_write"],
        "pipeline.artifact_read_s": time_s["pipeline.artifact_read"],
    }
    for stage in ("kb", "classify", "features", "train", "predict", "mine"):
        out[f"pipeline.stage.{stage}_s"] = self_s[f"pipeline.stage.{stage}"]
    return out
