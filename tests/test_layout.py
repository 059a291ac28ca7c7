"""Feature-vector layout: totals, slot names, group slices,
masks, and the mirror specification frozen slot-by-slot."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import mirror_spec
from ttpmine.features.layout import (
    FEATURE_GROUPS, GROUP_SLICES, LAYOUT_VERSION, N_SLOTS, SLOT_NAMES, group_mask
)


class TestTotals:
    def test_totals_per_bin_count(self):
        # 10 + 20 + 13 + 10 + 9: f4 adds its nine measures and no bins.
        widths = [s.stop - s.start for s in GROUP_SLICES.values()]
        assert widths == [10, 20, 13, 10, 9]
        assert N_SLOTS == sum(widths) == 62

    def test_names_cover_every_slot(self):
        assert len(SLOT_NAMES) == N_SLOTS
        assert len(set(SLOT_NAMES)) == N_SLOTS

    def test_invalid_bins(self):
        # The layout has no bin count: f4 is the nine measures alone.
        assert not [name for name in SLOT_NAMES if "_bin" in name]


class TestNamesAndGroups:
    def test_name_spot_checks(self):
        names = SLOT_NAMES
        assert names[0] == "default.tx_top1"
        assert names[5] == "default.ty_top1"
        assert names[10] == "f1.tx_before"
        assert names[30] == "f2.adj_-4"
        assert names[34] == "f2.adj_0"
        assert names[39] == "f2.same_sentence"
        assert names[42] == "f2.coref"
        assert names[43] == "f3.adj_next"
        assert names[53] == "f4.support"
        assert names[61] == "f4.added_value"
        assert len(names) == 62

    def test_index_lookup(self):
        assert SLOT_NAMES.index("f2.adj_0") == 34

    def test_group_slices(self):
        slices = GROUP_SLICES
        assert FEATURE_GROUPS == ("default", "f1", "f2", "f3", "f4")
        assert slices["default"] == slice(0, 10)
        assert slices["f1"] == slice(10, 30)
        assert slices["f2"] == slice(30, 43)
        assert slices["f3"] == slice(43, 53)
        assert slices["f4"] == slice(53, 62)

    def test_group_slices_partition(self):
        covered = np.zeros(N_SLOTS, dtype=int)
        for s in GROUP_SLICES.values():
            covered[s] += 1
        assert (covered == 1).all()

    def test_version_string(self):
        assert LAYOUT_VERSION == "v2"


class TestMask:
    def test_default_always_kept(self):
        mask = group_mask([])
        assert mask[:10].all()
        assert not mask[10:].any()

    def test_single_group(self):
        mask = group_mask(["f2"])
        assert mask[:10].all()
        assert mask[30:43].all()
        assert not mask[10:30].any()
        assert not mask[43:].any()

    def test_all_groups(self):
        assert group_mask(FEATURE_GROUPS).all()

    def test_unknown_group(self):
        with pytest.raises(ValueError, match="unknown feature groups"):
            group_mask(["f9"])


class TestMirrorSpec:
    def test_swap_pairs_exact(self):
        assert mirror_spec()["swap"] == [
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
            (10, 13),  # tx/ty before counts
            (19, 20),  # before direction slots
            (11, 14),
            (21, 22),
            (12, 15),
            (23, 24),
            (25, 26),  # densities
            (34, 33),  # adj 0 <-> -1
            (35, 32),  # adj 1 <-> -2
            (36, 31),  # adj 2 <-> -3
            (37, 30),  # adj 3 <-> -4
        ]

    def test_equal_slots_exact(self):
        expected = [16, 17, 18, 27, 28, 29, 39, 40, 41, 42] + list(range(43, 53))
        assert mirror_spec()["equal"] == expected

    def test_excluded_slots_exact(self):
        expected = [38] + list(range(53, 62))
        assert mirror_spec()["excluded"] == expected

    def test_partition_of_all_slots(self):
        spec = mirror_spec()
        seen: list[int] = []
        for a, b in spec["swap"]:
            seen += [a, b]
        seen += spec["equal"] + spec["excluded"]
        assert sorted(seen) == list(range(N_SLOTS))

    def test_forward_only_adjacency_slot_excluded(self):
        # The gap window is lopsided: adj_4 (span 5 forward) has no
        # backward partner, so mirroring cannot constrain it.
        assert SLOT_NAMES.index("f2.adj_4") == 38
        assert 38 in mirror_spec()["excluded"]
