"""The benchmark's workloads: corpus shapes, splits and training configs.

Loads are sized so that one measured call takes two to four seconds with
the per-row prediction and sort-per-node training of ttpmine 0.1.0, which
lets one run of the benchmark take about ten samples.
Tuple counts are multiples of three, so every seed plants the same number
of relations of each label and the work per call does not depend on the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Shape

# The training config of the `run-train` user path, also used to train the
# model that `apply-long` applies.
RUN_TRAIN_CONFIG = {
    "trees": 30,
    "max_depth": 3,
    "learning_rate": 0.1,
    "negative_downsample_ratio": 20.0,
    "seed": 0,
    "decision_threshold": 0.5,
}


@dataclass(frozen=True)
class Workload:
    bundle: Shape
    # Report splits by name; the name is also the report-id prefix.
    splits: dict[str, Shape]
    # The split whose truth the quality ratios are scored against.
    scored: str


_RUN_TRAIN = Shape(
    techniques=12, actors=8, reports=6, sentences=20, per_report=5,
    marker_density=0.2, patterns=3, support=2,
)

_APPLY_BUNDLE = Shape(
    techniques=4, actors=6, reports=40, sentences=250, per_report=4,
    marker_density=0.2, patterns=3, support=12, singletons=3,
    extra_techniques=500, extra_software=800, extra_uses=6000,
)

_TRAIN_CSV = Shape(
    techniques=6, actors=6, reports=10, sentences=20, per_report=4,
    marker_density=0.2, patterns=3, support=2, singletons=3,
)

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "run-train": Workload(
        bundle=_RUN_TRAIN,
        splits={"r": _RUN_TRAIN},
        scored="r",
    ),
    "apply-long": Workload(
        bundle=_APPLY_BUNDLE,
        splits={
            "t": Shape(
                techniques=4, actors=6, reports=24, sentences=40, per_report=4,
                marker_density=0.2, patterns=3, support=6, singletons=3,
            ),
            "a": _APPLY_BUNDLE,
        },
        scored="a",
    ),
    "train-csv": Workload(
        bundle=_TRAIN_CSV,
        splits={
            "c": _TRAIN_CSV,
            "h": Shape(
                techniques=6, actors=6, reports=6, sentences=20, per_report=4,
                marker_density=0.2, patterns=3, support=2,
            ),
        },
        scored="h",
    ),
}
