"""Association-measure values, degenerate pinning, binning, and the F4
table, checked against an independent counting oracle and against the
column-sum reference bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import apriori_oracle, bin_oracle, f4_oracle
from ttpmine.attack_kb import UsageMatrix
from ttpmine.corpus import pair_universe
from ttpmine.features.apriori import (
    CONVICTION_CAP,
    METRIC_NAMES,
    METRIC_RANGES,
    PMI_CEIL,
    PMI_FLOOR,
    bin_measures,
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
        assert PMI_CEIL == 20.0
        assert CONVICTION_CAP == 100.0
        assert set(METRIC_RANGES) == set(METRIC_NAMES)

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
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            got = _measures(rng.integers(0, 2, size=n), rng.integers(0, 2, size=n))
            for k, name in enumerate(METRIC_NAMES):
                lo, hi = METRIC_RANGES[name]
                assert lo <= got[k] <= hi, name


def bin_index(value: float, name: str, bins: int) -> int:
    """The bin `bin_measures` gives one measure's value."""
    raw = np.zeros((1, len(METRIC_NAMES)))
    m = METRIC_NAMES.index(name)
    raw[0, m] = value
    return int(bin_measures(raw, bins)[0, m])


class TestBinIndex:
    def test_unit_range_midpoint(self):
        assert bin_index(0.5, "support", 10) == 5

    def test_upper_edge_maps_to_last_bin(self):
        assert bin_index(1.0, "support", 10) == 9
        assert bin_index(100.0, "conviction", 10) == 9

    def test_lower_edge(self):
        assert bin_index(0.0, "support", 10) == 0
        assert bin_index(-1.0, "phi", 10) == 0

    def test_signed_ranges_center(self):
        assert bin_index(0.0, "pmi", 10) == 5
        assert bin_index(0.0, "phi", 10) == 5
        assert bin_index(0.0, "added_value", 10) == 5

    def test_out_of_range_values_clamp(self):
        assert bin_index(250.0, "conviction", 10) == 9
        assert bin_index(-99.0, "pmi", 10) == 0

    def test_conviction_of_one_is_low_bin(self):
        assert bin_index(1.0, "conviction", 10) == 0

    def test_single_bin(self):
        for name in METRIC_NAMES:
            lo, hi = METRIC_RANGES[name]
            assert bin_index(lo, name, 1) == 0
            assert bin_index(hi, name, 1) == 0

    def test_five_bins(self):
        assert bin_index(0.5, "support", 5) == 2
        assert bin_index(0.99, "support", 5) == 4

    def test_value_rounding_up_to_range_end_is_last_bin(self):
        # phi of two techniques used by exactly the same actors: adding 1
        # rounds to 2.0, so the value scales to 10.
        phi = 0.9999999999999999
        assert phi < 1.0 and (phi + 1.0) / 2.0 * 10 == 10.0
        assert bin_index(phi, "phi", 10) == 9
        assert bin_oracle(phi, "phi", 10) == 9

    @pytest.mark.parametrize("bins", [1, 3, 7, 10, 20])
    def test_matches_scalar_oracle(self, bins):
        rng = np.random.default_rng(bins)
        low = np.array([METRIC_RANGES[name][0] for name in METRIC_NAMES])
        high = np.array([METRIC_RANGES[name][1] for name in METRIC_NAMES])
        # Every bin edge and its neighbours, values inside and outside
        # the ranges, and -0.0.
        edges = low + (high - low) * np.arange(bins + 1)[:, None] / bins
        raw = np.vstack([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            low + (high - low) * rng.uniform(-0.5, 1.5, size=(200, len(METRIC_NAMES))),
            np.full((1, len(METRIC_NAMES)), -0.0),
        ])
        got = bin_measures(raw, bins)
        assert ((got >= 0) & (got < bins)).all()
        for row, bins_row in zip(raw.tolist(), got.tolist()):
            assert bins_row == [bin_oracle(v, name, bins) for v, name in zip(row, METRIC_NAMES)]


def _matrix():
    return UsageMatrix(
        actors=("G0001", "G0002", "G0003", "G0004"),
        techniques=("T1003", "T1078"),
        cells=np.array([[1, 0], [1, 1], [0, 1], [0, 0]], dtype=np.int8),
    )


def _f4(um, pair, bins=10):
    """One measured pair's f4 slots from `f4_table`."""
    slots = f4_table(um, [pair], bins)[pair]
    assert np.count_nonzero(slots[9:]) == 9
    return slots


class TestAprioriFeatures:
    def test_layout_and_one_hot(self):
        for bins in (5, 10, 20):
            out = _f4(_matrix(), ("T1003", "T1078"), bins=bins)
            assert out.shape == (9 + 9 * bins,)
            raw = _measures([1, 1, 0, 0], [0, 1, 1, 0])
            np.testing.assert_array_equal(out[:9], raw)
            for m in range(9):
                block = out[9 + m * bins : 9 + (m + 1) * bins]
                assert block.sum() == 1.0

    def test_hot_slot_positions(self):
        out = _f4(_matrix(), ("T1003", "T1078"), bins=10)
        # support 0.25 -> bin 2, confidence 0.5 -> bin 5, pmi 0 -> bin 5.
        assert out[9 + 2] == 1.0
        assert out[9 + 10 + 5] == 1.0
        assert out[9 + 20 + 5] == 1.0

    def test_direction_matters(self):
        um = UsageMatrix(
            actors=("G0001", "G0002", "G0003"),
            techniques=("T1003", "T1078"),
            cells=np.array([[1, 1], [0, 1], [0, 0]], dtype=np.int8),
        )
        fwd = _f4(um, ("T1003", "T1078"), bins=10)
        rev = _f4(um, ("T1078", "T1003"), bins=10)
        assert fwd[1] == 1.0  # conf(T1003 -> T1078)
        assert rev[1] == 0.5  # conf(T1078 -> T1003)
        assert fwd[0] == rev[0]  # support is symmetric


class TestF4TableReference:
    """The count-table F4 against the column-sum reference in
    `tests/oracles.py`, bit for bit."""

    @pytest.mark.parametrize("actors", [1, 2, 127, 128, 300, 805])
    @pytest.mark.parametrize("bins", [1, 10])
    def test_seeded_matrices(self, actors, bins):
        rng = np.random.default_rng(actors * 31 + bins)
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
        table = f4_table(um, [pairs[i] for i in rng.permutation(len(pairs))], bins)
        assert set(table) == set(pairs)
        for pair, slots in table.items():
            missing = "T9998" in pair or "T9999" in pair
            # One hot bin per measure, or none: what `FeatureRows.f4_missing` reads.
            assert np.count_nonzero(slots[9:]) == (0 if missing else 9), pair
            want = np.zeros(9 + 9 * bins) if missing else f4_oracle(um, pair, bins)
            assert slots.tobytes() == want.tobytes(), pair

    def test_one_hot_bin_per_measure_for_all_counts(self):
        # Every (n <= 60, cx, cy, cxy): column X<c> is used by actors
        # 0..c-1 and column Y<s>_<c> by actors s..s+c-1, so the pair
        # (X<cx>, Y<cx-cxy>_<cy>) has those counts.
        bins = 10
        for n in range(1, 61):
            actor = np.arange(n)
            spans = {f"X{c}": (0, c) for c in range(n + 1)}
            spans.update({f"Y{s}_{c}": (s, c) for s in range(n + 1) for c in range(n + 1 - s)})
            cells = np.array([(s <= actor) & (actor < s + c) for s, c in spans.values()])
            um = UsageMatrix(actors=tuple(f"G{a}" for a in range(n)), techniques=tuple(spans),
                             cells=cells.T.astype(np.int8))
            pairs = [
                (f"X{cx}", f"Y{cx - cxy}_{cy}")
                for cx in range(n + 1)
                for cy in range(n + 1)
                for cxy in range(max(0, cx + cy - n), min(cx, cy) + 1)
            ]
            table = f4_table(um, pairs, bins)
            hot = np.array(list(map(table.__getitem__, pairs)))[:, 9:]
            per_measure = hot.reshape(len(pairs), 9, bins).sum(axis=2)
            assert (per_measure == 1.0).all(), n

    def test_counts_past_int8(self):
        # 200 actors all use both techniques: an int8 product would wrap.
        um = UsageMatrix(actors=tuple(f"G{a:04d}" for a in range(200)),
                         techniques=("T1", "T2"), cells=np.ones((200, 2), dtype=np.int8))
        slots = _f4(um, ("T1", "T2"))
        assert slots[0] == 1.0 and slots[1] == 1.0
        assert slots.tobytes() == f4_oracle(um, ("T1", "T2")).tobytes()
