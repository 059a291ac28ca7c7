"""Fixed feature-vector layout descriptor.

One layout version covers every pair of every report under a given
configuration; the version string changes exactly when the slot list
does (the bin count is part of it). Slot order:

  default (10)  top-5 sentence scores for tx, then for ty (a row's two
                techniques are always detected in its report)
  f1 (20)       time-signal features, see features.markers
  f2 (13)       adjacency/same-sentence/similarity/coref, see features.sentence
  f3 (10)       discourse-relation counts, see features.discourse
  f4 (9+9*B)    association measures and their one-hot bins

The mirror specification records how a (tx,ty) vector relates to the
(ty,tx) vector for the same report: "swap" slot pairs exchange values,
"equal" slots are unchanged. The adjacency window is lopsided (forward
gaps 0..4 cover spans 1..5, backward -1..-4 cover spans 1..4), so slot
f2.adj_4 has no mirror image and is excluded, as is all of f4 (its
conditional measures are direction-dependent by definition).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .apriori import METRIC_NAMES
from .discourse import DISCOURSE_ORDER, F3_SIZE
from .markers import F1_SIZE
from .sentence import ADJACENCY_GAPS, F2_SIZE

DEFAULT_SIZE = 10
DEFAULT_BINS = 10

_RELATION_SHORT = ("before", "overlap", "concurrent")

FEATURE_GROUPS = ("default", "f1", "f2", "f3", "f4")


@dataclass(frozen=True)
class FeatureLayout:
    bins: int = DEFAULT_BINS

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")

    @property
    def version(self) -> str:
        return f"v1-bins{self.bins}"

    @cached_property
    def names(self) -> tuple[str, ...]:
        out: list[str] = []
        out += [f"default.tx_top{k}" for k in range(1, 6)]
        out += [f"default.ty_top{k}" for k in range(1, 6)]
        for side in ("tx", "ty", "span"):
            out += [f"f1.{side}_{rel}" for rel in _RELATION_SHORT]
        for rel in _RELATION_SHORT:
            out += [f"f1.dir_{rel}_tx_first", f"f1.dir_{rel}_ty_first"]
        out += ["f1.density_tx", "f1.density_ty"]
        out += [f"f1.extent_{rel}" for rel in _RELATION_SHORT]
        out += [f"f2.adj_{d}" for d in ADJACENCY_GAPS]
        out += ["f2.same_sentence", "f2.sim_mean", "f2.sim_max", "f2.coref"]
        out += [f"f3.adj_{rel.value.lower()}" for rel in DISCOURSE_ORDER]
        out += [f"f3.coref_{rel.value.lower()}" for rel in DISCOURSE_ORDER]
        out += [f"f4.{name}" for name in METRIC_NAMES]
        for name in METRIC_NAMES:
            out += [f"f4.{name}_bin{b}" for b in range(self.bins)]
        return tuple(out)

    @property
    def total(self) -> int:
        return self.group_slices["f4"].stop

    @cached_property
    def group_slices(self) -> dict[str, slice]:
        sizes = (DEFAULT_SIZE, F1_SIZE, F2_SIZE, F3_SIZE, 9 + 9 * self.bins)
        bounds = zip(FEATURE_GROUPS, sizes, accumulate(sizes))
        return {group: slice(stop - size, stop) for group, size, stop in bounds}

    def mask(self, groups) -> np.ndarray:
        """Boolean slot mask for a feature-subset configuration; the
        default slots are always included."""
        unknown = set(groups) - set(FEATURE_GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")
        keep = np.zeros(self.total, dtype=bool)
        keep[self.group_slices["default"]] = True
        for group in groups:
            keep[self.group_slices[group]] = True
        return keep

    def index(self, name: str) -> int:
        return self.names.index(name)

    @cached_property
    def mirror_spec(self) -> dict[str, list]:
        """Slot relations between (tx,ty) and (ty,tx) vectors."""
        swap: list[tuple[int, int]] = []
        idx = self.index
        for k in range(1, 6):
            swap.append((idx(f"default.tx_top{k}"), idx(f"default.ty_top{k}")))
        for rel in _RELATION_SHORT:
            swap.append((idx(f"f1.tx_{rel}"), idx(f"f1.ty_{rel}")))
            swap.append(
                (idx(f"f1.dir_{rel}_tx_first"), idx(f"f1.dir_{rel}_ty_first"))
            )
        swap.append((idx("f1.density_tx"), idx("f1.density_ty")))
        # Swapping tx/ty negates the gap convention off by one:
        # d maps to -(d+1), pairing 0<->-1, 1<->-2, 2<->-3, 3<->-4.
        for d in range(0, 4):
            swap.append((idx(f"f2.adj_{d}"), idx(f"f2.adj_{-(d + 1)}")))

        equal = [idx(f"f1.span_{rel}") for rel in _RELATION_SHORT]
        equal += [idx(f"f1.extent_{rel}") for rel in _RELATION_SHORT]
        equal += [
            idx("f2.same_sentence"),
            idx("f2.sim_mean"),
            idx("f2.sim_max"),
            idx("f2.coref"),
        ]
        equal += list(range(*self.group_slices["f3"].indices(self.total)))

        covered = {s for pair in swap for s in pair} | set(equal)
        excluded = [k for k in range(self.total) if k not in covered]
        return {"swap": swap, "equal": equal, "excluded": excluded}

    def descriptor(self) -> dict:
        return {
            "layout_version": self.version,
            "bins": self.bins,
            "total": self.total,
            "slots": list(self.names),
            "groups": {
                g: [s.start, s.stop] for g, s in self.group_slices.items()
            },
            "mirror": {
                "swap": [list(p) for p in self.mirror_spec["swap"]],
                "equal": list(self.mirror_spec["equal"]),
                "excluded": list(self.mirror_spec["excluded"]),
            },
        }
