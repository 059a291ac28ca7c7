"""Association-measure values, degenerate pinning, and the F4 table,
checked against an independent counting oracle and against the
column-sum reference bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import apriori_oracle, f4_oracle
from ttpmine.attack_kb import UsageMatrix
from ttpmine.corpus import pair_universe
from ttpmine.features.apriori import (
    CONVICTION_CAP,
    METRIC_NAMES,
    PMI_FLOOR,
    pair_measures,
)
from ttpmine.features.builder import f4_table


def _measures(x_bits, y_bits):
    """`pair_measures` of two binary columns, from their counts."""
    x = np.asarray(x_bits, dtype=np.int64)
    y = np.asarray(y_bits, dtype=np.int64)
    return pair_measures(x.size, int(x.sum()), int(y.sum()), int((x * y).sum()))


class TestPairMeasures:
    def test_metric_name_order(self):
        assert METRIC_NAMES == (
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
        assert PMI_FLOOR == -20.0
        assert CONVICTION_CAP == 100.0

    def test_balanced_fixture(self):
        # n=4, nx=ny=2, nxy=1, n_neither=1: every measure lands on a
        # round rational.
        got = _measures(([1, 1, 0, 0]), ([0, 1, 1, 0]))
        expected = [
            0.25,  # support = 1/4
            0.5,  # confidence = (1/4)/(1/2)
            0.0,  # pmi = log2(.25 / (.5*.5))
            0.0,  # phi: pxy == px*py
            0.5,  # causal_support = 1/4 + 1/4
            1 / 3,  # jaccard = .25/.75
            0.5,  # 0.5*(0.5 + 0.25/0.5)
            1.0,  # conviction = .5/.5
            0.0,  # added_value = .5 - .5
        ]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_disjoint_pair_floors_pmi(self):
        got = _measures(([1, 1, 0, 0]), ([0, 0, 1, 1]))
        assert got[0] == 0.0
        assert got[1] == 0.0
        assert got[2] == PMI_FLOOR
        assert got[3] == -1.0  # (0 - .25)/sqrt(.0625)
        assert got[5] == 0.0
        assert got[8] == -0.5

    def test_absent_antecedent_pins_conditionals(self):
        got = _measures(([0, 0, 0]), ([1, 0, 1]))
        assert got[1] == 0.0  # confidence with px = 0
        assert got[2] == 0.0  # pmi with px*py = 0
        assert got[3] == 0.0  # phi with a 0 marginal
        assert got[5] == 0.0
        # p(~x|~y) = (1/3)/(1/3) = 1, so causal_confidence = 0.5.
        assert got[6] == pytest.approx(0.5, abs=1e-12)
        assert got[7] == pytest.approx(1 / 3, abs=1e-12)

    def test_perfect_confidence_caps_conviction(self):
        got = _measures(([1, 0, 0]), ([1, 1, 0]))
        assert got[1] == 1.0
        assert got[7] == CONVICTION_CAP
        assert got[2] == pytest.approx(math.log2(1.5), abs=1e-12)
        assert got[3] == pytest.approx(0.5, abs=1e-12)
        assert got[6] == 1.0  # both halves perfect

    def test_saturated_marginal_pins_phi(self):
        got = _measures(([1, 1]), ([1, 0]))
        assert got[3] == 0.0
        assert got[2] == 0.0  # log2(.5/.5)
        assert got[7] == 1.0

    def test_saturated_consequent(self):
        got = _measures(([1, 0]), ([1, 1]))
        assert got[3] == 0.0
        assert got[7] == CONVICTION_CAP  # confidence 1 via py = 1
        assert got[6] == 0.5  # p(~x|~y) pinned to 0 when py = 1

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            _measures(([]), ([]))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(20260822)
        for _ in range(60):
            n = int(rng.integers(1, 51))
            x = rng.integers(0, 2, size=n)
            y = rng.integers(0, 2, size=n)
            got = _measures(x, y)
            want = apriori_oracle(x, y)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_values_inside_clamp_ranges(self):
        # Each measure's range; PMI's upper end is log2(n) < 20 here.
        ranges = {
            "support": (0.0, 1.0),
            "confidence": (0.0, 1.0),
            "pmi": (PMI_FLOOR, 20.0),
            "phi": (-1.0, 1.0),
            "causal_support": (0.0, 1.0),
            "jaccard": (0.0, 1.0),
            "causal_confidence": (0.0, 1.0),
            "conviction": (0.0, CONVICTION_CAP),
            "added_value": (-1.0, 1.0),
        }
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            got = _measures(rng.integers(0, 2, size=n), rng.integers(0, 2, size=n))
            for k, name in enumerate(METRIC_NAMES):
                lo, hi = ranges[name]
                assert lo <= got[k] <= hi, name


def _matrix():
    return UsageMatrix(
        actors=("G0001", "G0002", "G0003", "G0004"),
        techniques=("T1003", "T1078"),
        cells=np.array([[1, 0], [1, 1], [0, 1], [0, 0]], dtype=np.int8),
    )


def _f4(um, pair):
    """One measured pair's f4 slots from `f4_table`."""
    slots = f4_table(um, [pair])[pair]
    assert slots.shape == (9,) and slots.any()
    return slots


class TestAprioriFeatures:
    def test_slots_are_the_nine_measures(self):
        out = _f4(_matrix(), ("T1003", "T1078"))
        assert out.tobytes() == _measures([1, 1, 0, 0], [0, 1, 1, 0]).tobytes()

    def test_direction_matters(self):
        um = UsageMatrix(
            actors=("G0001", "G0002", "G0003"),
            techniques=("T1003", "T1078"),
            cells=np.array([[1, 1], [0, 1], [0, 0]], dtype=np.int8),
        )
        fwd = _f4(um, ("T1003", "T1078"))
        rev = _f4(um, ("T1078", "T1003"))
        assert fwd[1] == 1.0  # conf(T1003 -> T1078)
        assert rev[1] == 0.5  # conf(T1078 -> T1003)
        assert fwd[0] == rev[0]  # support is symmetric


class TestF4TableReference:
    """The count-table F4 against the column-sum reference in
    `tests/oracles.py`, bit for bit."""

    @pytest.mark.parametrize("actors", [1, 2, 127, 128, 300, 805])
    @pytest.mark.parametrize("seed", [1, 10])
    def test_seeded_matrices(self, actors, seed):
        rng = np.random.default_rng(actors * 31 + seed)
        k = 12
        cells = (rng.random((actors, k)) < rng.uniform(0.05, 0.95, size=k)).astype(np.int8)
        cells[:, 0] = 0  # used by no actor
        cells[:, 1] = 1  # used by every actor
        cells[:, 2] = cells[:, 3]  # two identical columns
        techniques = tuple(f"T{1000 + j}" for j in range(k))
        um = UsageMatrix(actors=tuple(f"G{a:04d}" for a in range(actors)),
                         techniques=techniques, cells=cells)
        # Half of the matrix's techniques, two unknown ids, pairs in any order.
        ids = [*rng.permutation(techniques)[: k // 2 + 3].tolist(), "T9998", "T9999"]
        pairs = pair_universe(ids)
        table = f4_table(um, [pairs[i] for i in rng.permutation(len(pairs))])
        assert set(table) == set(pairs)
        for pair, slots in table.items():
            missing = "T9998" in pair or "T9999" in pair
            # All zero exactly when unmeasured: what `FeatureRows.f4_missing` reads.
            assert slots.any() != missing, pair
            want = np.zeros(9) if missing else f4_oracle(um, pair)
            assert slots.tobytes() == want.tobytes(), pair

    def test_measured_pair_is_never_all_zero(self):
        # Every valid (n <= 12, cx, cy, cxy): the nine measures are finite
        # and not all 0, so all-zero f4 slots mark an unmeasured pair
        # (`FeatureRows.f4_missing`). At cx = 0 and cy = n every other
        # measure is 0 but added value is -1; at cx = n and cy = 0,
        # conviction is 1.
        cases = 0
        for n in range(1, 13):
            for cx in range(n + 1):
                for cy in range(n + 1):
                    for cxy in range(max(0, cx + cy - n), min(cx, cy) + 1):
                        got = pair_measures(n, cx, cy, cxy)
                        assert np.isfinite(got).all(), (n, cx, cy, cxy)
                        assert got.any(), (n, cx, cy, cxy)
                        cases += 1
        assert cases == 1819
        # The rule is tight: here added value alone is not 0.
        assert pair_measures(4, 0, 4, 0).tolist() == [0.0] * 8 + [-1.0]

    def test_counts_past_int8(self):
        # 200 actors all use both techniques: an int8 product would wrap.
        um = UsageMatrix(actors=tuple(f"G{a:04d}" for a in range(200)),
                         techniques=("T1", "T2"), cells=np.ones((200, 2), dtype=np.int8))
        slots = _f4(um, ("T1", "T2"))
        assert slots[0] == 1.0 and slots[1] == 1.0
        assert slots.tobytes() == f4_oracle(um, ("T1", "T2")).tobytes()
