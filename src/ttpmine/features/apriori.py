"""Association-rule interestingness measures over the binary usage matrix.

Nine measures per ordered technique pair, computed from the pair's
actor counts, each with a pinned value for its degenerate cases so tree
learners always see finite numbers. They are the f4 slots as they are:
the trees search every threshold between distinct values of a column,
so a binned copy of a measure would add no split (see README, "How it
works"). No measured pair has all nine at 0, so all-zero f4 slots mark
a pair that was not measured (`features.builder.FeatureRows.f4_missing`).
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
CONVICTION_CAP = 100.0


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

