"""Tests for the uniform-grid spatial index."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import GridIndex, Rect

small_rects = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
)


class TestBasics:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(0)

    def test_len(self):
        idx = GridIndex(16)
        assert len(idx) == 0
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert len(idx) == 1

    def test_query_hit(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert idx.query(Rect(3, 3, 8, 8)) == [(Rect(0, 0, 5, 5), "a")]

    def test_query_miss(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert idx.query(Rect(50, 50, 60, 60)) == []

    def test_query_touching_edge_counts(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert len(idx.query(Rect(5, 0, 9, 5))) == 1

    def test_query_overlapping_excludes_edge_touch(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        assert idx.query_overlapping(Rect(5, 0, 9, 5)) == []

    def test_no_duplicates_for_large_item(self):
        idx = GridIndex(4)
        idx.insert(Rect(0, 0, 40, 40), "big")  # spans many cells
        assert len(idx.query(Rect(0, 0, 40, 40))) == 1

    def test_insertion_order_preserved(self):
        idx = GridIndex(16)
        for k in range(5):
            idx.insert(Rect(k, 0, k + 2, 2), k)
        hits = idx.query(Rect(0, 0, 10, 2))
        assert [item for _, item in hits] == [0, 1, 2, 3, 4]

    def test_extend_and_items(self):
        idx = GridIndex(16)
        pairs = [(Rect(0, 0, 1, 1), "a"), (Rect(5, 5, 6, 6), "b")]
        idx.extend(pairs)
        assert idx.items() == pairs

    def test_query_within_margin(self):
        idx = GridIndex(16)
        idx.insert(Rect(20, 0, 25, 5), "far")
        assert idx.query_within(Rect(0, 0, 5, 5), 10) == []
        assert len(idx.query_within(Rect(0, 0, 5, 5), 15)) == 1

    def test_negative_coordinates(self):
        idx = GridIndex(16)
        idx.insert(Rect(-30, -30, -20, -20), "neg")
        assert len(idx.query(Rect(-25, -25, -22, -22))) == 1


class TestPropertyBased:
    @given(st.lists(small_rects, max_size=20), small_rects)
    def test_query_matches_brute_force(self, rects, probe):
        idx = GridIndex(8)
        for k, r in enumerate(rects):
            idx.insert(r, k)
        expected = [(r, k) for k, r in enumerate(rects) if r.touches(probe)]
        assert idx.query(probe) == expected

    @given(st.lists(small_rects, max_size=20), small_rects)
    def test_query_overlapping_matches_brute_force(self, rects, probe):
        idx = GridIndex(8)
        for k, r in enumerate(rects):
            idx.insert(r, k)
        expected = [(r, k) for k, r in enumerate(rects) if r.overlaps(probe)]
        assert idx.query_overlapping(probe) == expected

    @given(
        st.lists(small_rects, max_size=15),
        small_rects,
        st.integers(min_value=0, max_value=20),
    )
    def test_query_within_matches_brute_force(self, rects, probe, margin):
        idx = GridIndex(8)
        for k, r in enumerate(rects):
            idx.insert(r, k)
        grown = probe.expanded(margin)
        expected = [(r, k) for k, r in enumerate(rects) if r.touches(grown)]
        assert idx.query_within(probe, margin) == expected

    @given(
        st.lists(small_rects, max_size=20),
        st.lists(small_rects, max_size=4),
        st.lists(small_rects, max_size=6),
        small_rects,
    )
    def test_removal_matches_rebuild(self, rects, cuts, added, probe):
        idx = GridIndex(8)
        for k, r in enumerate(rects):
            idx.insert(r, k)
        live = list(enumerate(rects))
        for cut in cuts:
            gone = idx.remove_touching(cut)
            assert gone == [(r, k) for k, r in live if r.touches(cut)]
            live = [(k, r) for k, r in live if not r.touches(cut)]
        for k, r in enumerate(added, start=len(rects)):
            idx.insert(r, k)
            live.append((k, r))
        rebuilt = GridIndex(8)
        rebuilt.extend((r, k) for k, r in live)
        assert len(idx) == len(rebuilt) == len(live)
        assert idx.items() == rebuilt.items()
        assert idx.query(probe) == rebuilt.query(probe)


class TestRemoval:
    def test_remove_touching_returns_and_forgets(self):
        idx = GridIndex(16)
        idx.insert(Rect(0, 0, 5, 5), "a")
        idx.insert(Rect(40, 40, 45, 45), "b")
        assert idx.remove_touching(Rect(5, 5, 6, 6)) == [(Rect(0, 0, 5, 5), "a")]
        assert len(idx) == 1
        assert idx.query(Rect(0, 0, 100, 100)) == [(Rect(40, 40, 45, 45), "b")]
        assert idx.remove_touching(Rect(0, 0, 5, 5)) == []

    def test_many_removals_keep_order(self):
        # enough removals to trigger the reinsertion of live items
        idx = GridIndex(4)
        for k in range(50):
            idx.insert(Rect(k * 10, 0, k * 10 + 5, 5), k)
        for k in range(0, 50, 3):
            idx.remove_touching(Rect(k * 10 + 1, 1, k * 10 + 2, 2))
        for k in range(50, 55):
            idx.insert(Rect(k * 10, 0, k * 10 + 5, 5), k)
        kept = [k for k in range(55) if k >= 50 or k % 3]
        assert [k for _, k in idx.items()] == kept
        assert [k for _, k in idx.query(Rect(0, 0, 1000, 10))] == kept
        assert len(idx) == len(kept)
