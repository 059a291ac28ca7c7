"""Fixed feature-vector layout.

One layout, version `LAYOUT_VERSION`, covers every pair of every
report; the version string changes exactly when the slot list does.
It is stated here once: the rows, the features CSV and the relation
model are checked against these constants. Slot order:

  default (10)  top-5 sentence scores for tx, then for ty (a row's two
                techniques are always detected in its report)
  f1 (20)       time-signal features, see features.markers
  f2 (13)       adjacency/same-sentence/similarity/coref, see F2_SIZE
  f3 (10)       discourse-relation counts, see features.discourse
  f4 (9)        association measures, see features.apriori

Version "v1-bins<B>" added a one-hot bin of each f4 measure, 9*B slots
after the nine measures; its files and models no longer load.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .apriori import METRIC_NAMES
from .discourse import DISCOURSE_ORDER, F3_SIZE
from .markers import F1_SIZE

DEFAULT_SIZE = 10

# F2, the sentence-level family. Slots: 0-8 (tx, ty) sentence pairs per
# gap of ADJACENCY_GAPS; 9 shared sentences; 10-11 mean and max cosine
# over (tx, ty) sentence pairs (zero without word vectors); 12 links
# between a tx- and a ty-sentence.
F2_SIZE = 13

# Signed adjacency gaps, slot order. d=0 means the ty-sentence directly
# follows the tx-sentence (j = i+1), d=1 one sentence between (j = i+2);
# d=-1 means the ty-sentence comes directly before the tx-sentence
# (j = i-1), so forward gaps reach 5 sentences and backward gaps 4.
ADJACENCY_GAPS: tuple[int, ...] = (-4, -3, -2, -1, 0, 1, 2, 3, 4)

_RELATION_SHORT = ("before", "overlap", "concurrent")

FEATURE_GROUPS = ("default", "f1", "f2", "f3", "f4")


def _slot_names() -> tuple[str, ...]:
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
    return tuple(out)


LAYOUT_VERSION = "v2"
SLOT_NAMES = _slot_names()
_SIZES = (DEFAULT_SIZE, F1_SIZE, F2_SIZE, F3_SIZE, len(METRIC_NAMES))
GROUP_SLICES = {
    group: slice(stop - size, stop)
    for group, size, stop in zip(FEATURE_GROUPS, _SIZES, accumulate(_SIZES))
}
N_SLOTS = len(SLOT_NAMES)


def group_mask(groups) -> np.ndarray:
    """Boolean slot mask for a feature-subset configuration; the
    default slots are always included."""
    unknown = sorted(set(groups) - set(FEATURE_GROUPS))
    if unknown:
        raise ValueError(
            f"unknown feature groups: {', '.join(unknown)} "
            f"(expected subset of {', '.join(FEATURE_GROUPS)})"
        )
    keep = np.zeros(N_SLOTS, dtype=bool)
    keep[GROUP_SLICES["default"]] = True
    for group in groups:
        keep[GROUP_SLICES[group]] = True
    return keep
