"""Association-rule interestingness measures over the binary usage matrix.

Nine measures per ordered technique pair, computed from the pair's
actor counts, each with a pinned value for its degenerate cases so tree
learners always see finite numbers, plus a per-measure one-hot embedding
over equal-width bins of the clamped range (see `features.builder.f4_table`).
"""

from __future__ import annotations

import math

import numpy as np

METRIC_NAMES: tuple[str, ...] = (
    "support",
    "confidence",
    "pmi",
    "phi",
    "causal_support",
    "jaccard",
    "causal_confidence",
    "conviction",
    "added_value",
)

PMI_FLOOR = -20.0
PMI_CEIL = 20.0
CONVICTION_CAP = 100.0

# Clamp ranges for the equal-width one-hot binning.
METRIC_RANGES: dict[str, tuple[float, float]] = {
    "support": (0.0, 1.0),
    "confidence": (0.0, 1.0),
    "pmi": (PMI_FLOOR, PMI_CEIL),
    "phi": (-1.0, 1.0),
    "causal_support": (0.0, 1.0),
    "jaccard": (0.0, 1.0),
    "causal_confidence": (0.0, 1.0),
    "conviction": (0.0, CONVICTION_CAP),
    "added_value": (-1.0, 1.0),
}


def pair_measures(n: int, cx: int, cy: int, cxy: int) -> np.ndarray:
    """The nine measures of the rule x -> y over `n` actors, `cx` of
    which use x, `cy` use y and `cxy` use both.

    Degenerate rules: zero-denominator conditionals are 0; PMI is 0 when
    P(x)P(y)=0 and -20 when the pair never co-occurs; conviction caps at
    100 when confidence is 1; phi is 0 when any marginal is 0 or 1.
    """
    if n == 0:
        raise ValueError("usage matrix has no rows")

    px = cx / n
    py = cy / n
    pxy = cxy / n
    p_nx_ny = (n - cx - cy + cxy) / n

    support = pxy
    confidence = pxy / px if px > 0 else 0.0

    if px * py == 0.0:
        pmi = 0.0
    elif pxy == 0.0:
        pmi = PMI_FLOOR
    else:
        pmi = math.log2(pxy / (px * py))

    if px in (0.0, 1.0) or py in (0.0, 1.0):
        phi = 0.0
    else:
        phi = (pxy - px * py) / math.sqrt(px * py * (1 - px) * (1 - py))

    causal_support = pxy + p_nx_ny

    denom = px + py - pxy
    jaccard = pxy / denom if denom > 0 else 0.0

    p_nx_given_ny = p_nx_ny / (1 - py) if py < 1.0 else 0.0
    causal_confidence = 0.5 * (confidence + p_nx_given_ny)

    if confidence >= 1.0:
        conviction = CONVICTION_CAP
    else:
        conviction = (1 - py) / (1 - confidence)

    added_value = confidence - py

    return np.array(
        [
            support,
            confidence,
            pmi,
            phi,
            causal_support,
            jaccard,
            causal_confidence,
            conviction,
            added_value,
        ],
        dtype=np.float64,
    )


def bin_measures(raw: np.ndarray, bins: int) -> np.ndarray:
    """The equal-width bin, 0 to `bins - 1`, of each value of a
    `(pairs, 9)` array of measures (`METRIC_NAMES` order) over its
    clamped range. The bin is clamped too: a value at or just below the
    range's end can scale to `bins` (phi 0.9999999999999999 plus 1
    rounds to 2.0), and would else spill into the next measure."""
    lo, hi = np.array([METRIC_RANGES[name] for name in METRIC_NAMES], dtype=np.float64).T
    v = np.minimum(np.maximum(raw, lo), hi)
    return np.minimum(((v - lo) / (hi - lo) * bins).astype(np.intp), bins - 1)
