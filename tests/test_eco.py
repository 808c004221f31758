"""Tests for the ECO incremental re-fill flow."""

import random

import pytest

from repro.core import DummyFillEngine, FillConfig
from repro.eco import affected_windows, apply_eco
from repro.geometry import Rect
from repro.layout import DrcRules, Layout, WindowGrid

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)


def filled_layout(seed=9):
    rng = random.Random(seed)
    layout = Layout(Rect(0, 0, 1200, 1200), num_layers=2, rules=RULES, name="eco")
    for n in layout.layer_numbers:
        for _ in range(40):
            x, y = rng.randrange(0, 1100), rng.randrange(0, 1150)
            layout.layer(n).add_wire(
                Rect(x, y, min(1200, x + 90), min(1200, y + 30))
            )
    grid = WindowGrid(layout.die, 4, 4)
    DummyFillEngine(FillConfig()).run(layout, grid)
    return layout, grid


class TestAffectedWindows:
    def test_single_window_change(self):
        _, grid = filled_layout()
        affected = affected_windows(grid, {1: [Rect(50, 50, 120, 80)]}, halo=15)
        assert affected == {(0, 0)}

    def test_boundary_change_spreads(self):
        _, grid = filled_layout()
        # A wire at the window boundary (x=300) affects both sides.
        affected = affected_windows(grid, {1: [Rect(295, 50, 305, 80)]}, halo=15)
        assert (0, 0) in affected and (1, 0) in affected

    def test_no_wires_no_windows(self):
        _, grid = filled_layout()
        assert affected_windows(grid, {1: []}, halo=15) == set()


class TestApplyEco:
    def test_wire_committed(self):
        layout, grid = filled_layout()
        before = layout.layer(1).num_wires
        apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        assert layout.layer(1).num_wires == before + 1

    @pytest.mark.parametrize(
        "bad", [Rect(1150, 10, 1300, 40), Rect(300, 300, 300, 340)]
    )
    def test_rejected_change_commits_nothing(self, bad):
        from repro.gdsii import gdsii_bytes

        layout, grid = filled_layout()
        before = gdsii_bytes(layout)
        with pytest.raises(ValueError):
            apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)], 2: [bad]})
        assert gdsii_bytes(layout) == before

    def test_result_is_drc_clean(self):
        layout, grid = filled_layout()
        apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        assert layout.check_drc() == []

    def test_untouched_windows_stable(self):
        layout, grid = filled_layout()
        report = apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        untouched = [
            grid.window(i, j)
            for i in range(grid.cols)
            for j in range(grid.rows)
            if (i, j) not in report.affected_windows
        ]
        reference, ref_grid = filled_layout()
        for layer in layout.layers:
            ref_fills = set(reference.layer(layer.number).fills)
            for win in untouched:
                for fill in layer.fills:
                    if win.contains(fill):
                        assert fill in ref_fills

    def test_rip_up_counts(self):
        layout, grid = filled_layout()
        report = apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        assert report.removed_fills > 0
        assert report.new_fills > 0
        assert report.affected_windows
        assert "ECO:" in report.summary()

    def test_affected_windows_refilled_near_target(self):
        layout, grid = filled_layout()
        from repro.density import metal_density_map

        before = metal_density_map(layout.layer(1), grid)
        report = apply_eco(layout, grid, {1: [Rect(50, 50, 250, 90)]})
        after = metal_density_map(layout.layer(1), grid)
        for (i, j) in report.affected_windows:
            # Refilled windows stay within quantisation of their old
            # density (the new wire itself adds some).
            assert abs(float(after[i, j]) - float(before[i, j])) < 0.15

    def test_escaping_wire_rejected(self):
        layout, grid = filled_layout()
        with pytest.raises(ValueError):
            apply_eco(layout, grid, {1: [Rect(1100, 1100, 1300, 1300)]})

    def test_multi_layer_change(self):
        layout, grid = filled_layout()
        report = apply_eco(
            layout,
            grid,
            {1: [Rect(700, 700, 800, 760)], 2: [Rect(100, 700, 200, 760)]},
        )
        assert report.new_wires == 2
        assert layout.check_drc() == []

    def test_empty_change_noop(self):
        layout, grid = filled_layout()
        fills_before = layout.num_fills
        report = apply_eco(layout, grid, {})
        assert report.removed_fills == 0
        assert report.new_fills == 0
        assert layout.num_fills == fills_before


# ----------------------------------------------------------------------
# Session-cache path: cached analysis/indexes vs the cold rescan path
# ----------------------------------------------------------------------


class TestCachedEco:
    WIRE = {1: [Rect(50, 50, 250, 90)]}
    WIRE2 = {1: [Rect(700, 700, 800, 760)], 2: [Rect(100, 700, 200, 760)]}

    @staticmethod
    def _caches(layout, grid, config):
        from repro.core import build_wire_indexes
        from repro.density.analysis import analyze_layout

        wire_indexes = build_wire_indexes(layout)
        analysis = analyze_layout(
            layout,
            grid,
            window_margin=config.effective_margin(layout.rules.min_spacing),
        )
        return analysis, wire_indexes

    def test_cached_path_byte_identical_to_cold(self):
        from repro.eco import build_fill_indexes
        from repro.gdsii import gdsii_bytes

        config = FillConfig()
        cold, cold_grid = filled_layout()
        apply_eco(cold, cold_grid, self.WIRE, config)

        cached, grid = filled_layout()
        analysis, wire_indexes = self._caches(cached, grid, config)
        report = apply_eco(
            cached,
            grid,
            self.WIRE,
            config,
            analysis=analysis,
            wire_indexes=wire_indexes,
            fill_indexes=build_fill_indexes(cached),
        )
        assert gdsii_bytes(cached) == gdsii_bytes(cold)
        assert report.analysis is not None
        assert report.wire_indexes is wire_indexes

    def test_refreshed_analysis_matches_global_reanalysis(self):
        import numpy as np

        from repro.density.analysis import analyze_layout

        config = FillConfig()
        layout, grid = filled_layout()
        analysis, wire_indexes = self._caches(layout, grid, config)
        report = apply_eco(
            layout,
            grid,
            self.WIRE,
            config,
            analysis=analysis,
            wire_indexes=wire_indexes,
        )
        fresh = analyze_layout(
            layout,
            grid,
            window_margin=config.effective_margin(layout.rules.min_spacing),
        )
        for number, expect in fresh.items():
            got = report.analysis[number]
            assert np.array_equal(got.lower, expect.lower)
            assert np.array_equal(got.upper, expect.upper)
            assert got.fill_regions == expect.fill_regions

    def test_chained_cached_ecos_stay_identical(self):
        from repro.eco import build_fill_indexes
        from repro.gdsii import gdsii_bytes

        config = FillConfig()
        cold, cold_grid = filled_layout()
        apply_eco(cold, cold_grid, self.WIRE, config)
        apply_eco(cold, cold_grid, self.WIRE2, config)

        cached, grid = filled_layout()
        analysis, wire_indexes = self._caches(cached, grid, config)
        first = apply_eco(
            cached,
            grid,
            self.WIRE,
            config,
            analysis=analysis,
            wire_indexes=wire_indexes,
            fill_indexes=build_fill_indexes(cached),
        )
        # second patch runs entirely off the refreshed caches
        apply_eco(
            cached,
            grid,
            self.WIRE2,
            config,
            analysis=first.analysis,
            wire_indexes=first.wire_indexes,
            fill_indexes=first.fill_indexes,
        )
        assert gdsii_bytes(cached) == gdsii_bytes(cold)

    def test_wire_index_extended_in_place(self):
        config = FillConfig()
        layout, grid = filled_layout()
        _, wire_indexes = self._caches(layout, grid, config)
        before = len(wire_indexes[1])
        apply_eco(layout, grid, self.WIRE, config, wire_indexes=wire_indexes)
        assert len(wire_indexes[1]) == before + 1
        assert len(wire_indexes[1]) == layout.layer(1).num_wires

    def test_stale_wire_index_rejected(self):
        config = FillConfig()
        layout, grid = filled_layout()
        _, wire_indexes = self._caches(layout, grid, config)
        layout.layer(1).add_wire(Rect(400, 400, 480, 430))  # index not told
        with pytest.raises(ValueError, match="stale wire index"):
            apply_eco(layout, grid, self.WIRE, config, wire_indexes=wire_indexes)

    def test_fill_index_updated_in_place(self):
        from repro.eco import build_fill_indexes

        config = FillConfig()
        layout, grid = filled_layout()
        fill_indexes = build_fill_indexes(layout)
        report = apply_eco(layout, grid, self.WIRE, config, fill_indexes=fill_indexes)
        assert report.removed_fills > 0 and report.new_fills > 0
        assert report.fill_indexes is fill_indexes
        fresh = build_fill_indexes(layout)
        for number, index in fill_indexes.items():
            assert index.items() == fresh[number].items()

    def test_cold_path_reports_no_fill_index(self):
        layout, grid = filled_layout()
        assert apply_eco(layout, grid, self.WIRE).fill_indexes is None

    def test_stale_fill_index_rejected(self):
        from repro.eco import build_fill_indexes

        config = FillConfig()
        layout, grid = filled_layout()
        fill_indexes = build_fill_indexes(layout)
        layout.layer(1).clear_fills()  # index now lies about the fills
        with pytest.raises(ValueError, match="stale fill index"):
            apply_eco(layout, grid, self.WIRE, config, fill_indexes=fill_indexes)


class TestWiresFromJson:
    def test_parses_string_layer_keys(self):
        from repro.eco import wires_from_json

        wires = wires_from_json({"2": [[0, 0, 10, 10]], "1": [[5, 5, 9, 9]]})
        assert wires == {1: [Rect(5, 5, 9, 9)], 2: [Rect(0, 0, 10, 10)]}

    def test_rejects_non_integer_layer(self):
        from repro.eco import wires_from_json

        with pytest.raises(ValueError, match="not an integer"):
            wires_from_json({"metal1": [[0, 0, 10, 10]]})

    def test_rejects_malformed_rect(self):
        from repro.eco import wires_from_json

        with pytest.raises(ValueError, match="not \\[xl, yl, xh, yh\\]"):
            wires_from_json({"1": [[0, 0, 10]]})

    def test_rejects_non_integer_coords(self):
        from repro.eco import wires_from_json

        with pytest.raises(ValueError):
            wires_from_json({"1": [[0, 0, 10.5, 10]]})
        with pytest.raises(ValueError):
            wires_from_json({"1": [[0, 0, True, 10]]})

    def test_rejects_non_list_payload(self):
        from repro.eco import wires_from_json

        with pytest.raises(ValueError, match="list of rects"):
            wires_from_json({"1": "no"})

    def test_empty_spec_is_empty(self):
        from repro.eco import wires_from_json

        assert wires_from_json({}) == {}


class TestRefreshMetrics:
    """`analysis.refreshed_windows` counts dirtied windows once per
    refresh — however many layers re-read them (the per-layer fan-out
    is `analysis.refreshed_layers`)."""

    @staticmethod
    def _counters(record):
        totals = {}
        for span in record.spans:
            for name, value in span.get("counters", {}).items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def test_multi_layer_eco_counts_windows_once(self):
        from repro import obs

        config = FillConfig()
        layout, grid = filled_layout()
        analysis, wire_indexes = TestCachedEco._caches(layout, grid, config)
        change = {1: [Rect(700, 700, 800, 760)], 2: [Rect(100, 700, 200, 760)]}
        with obs.record_run(label="eco metrics") as rec:
            report = apply_eco(
                layout,
                grid,
                change,
                config,
                analysis=analysis,
                wire_indexes=wire_indexes,
            )
        totals = self._counters(rec.record)
        affected = len(report.affected_windows)
        assert affected > 0
        # Both layers changed, so both re-read the dirtied windows —
        # but the window count must not be doubled by the fan-out.
        assert totals["analysis.refreshed_windows"] == affected
        assert totals["analysis.refreshed_layers"] == 2
