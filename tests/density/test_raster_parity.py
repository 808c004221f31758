"""Production density kernel vs the rect-set oracle: exact equality.

The density layer runs on the raster kernel (:mod:`repro.density.raster`)
and promises *bit identity* with a direct per-window rect-set
computation, not approximation.  These property tests pin that
contract on randomized layouts against :mod:`tests.density.oracle`:
density maps, l/u bounds, fill regions, usable areas, overlay maps,
the incremental refresh and the band-local analysis of the streaming
driver must all match exactly (``np.array_equal``, no tolerances).
"""

import random

import numpy as np
import pytest

from repro.density.analysis import (
    analyze_layer,
    analyze_layout,
    analyze_windows,
    compute_fill_regions,
    fill_density_map,
    metal_density_map,
    overlay_map,
    refresh_analysis,
    usable_fill_area,
    wire_density_map,
)
from repro.density.raster import raster_fill_regions, raster_overlay_map, window_cuts
from repro.geometry import Rect
from repro.layout import BandPlan, DrcRules, Layout, WindowGrid

from . import oracle

RULES = DrcRules(
    min_spacing=10, min_width=10, min_area=200, max_fill_width=100, max_fill_height=100
)

SEEDS = [3, 17, 91, 404]


def random_layout(seed, *, die=1100, layers=3, wires=60, fills=25, odd=False):
    """A randomized multi-layer layout with deliberately uneven shapes.

    ``odd=True`` makes the die dimension indivisible by the grid so the
    last window column/row absorbs the remainder — the case where a
    sloppy cut-line computation would diverge from ``WindowGrid``.
    """
    rng = random.Random(seed)
    if odd:
        die += 7  # prime-ish remainder: last window is wider/taller
    layout = Layout(Rect(0, 0, die, die), num_layers=layers, rules=RULES)
    for n in layout.layer_numbers:
        if n == layers:  # keep the top layer empty on purpose
            continue
        for _ in range(wires):
            x = rng.randrange(0, die - 101)
            y = rng.randrange(0, die - 101)
            w = rng.randrange(1, 100)  # odd widths/heights included
            h = rng.randrange(1, 100)
            layout.layer(n).add_wire(Rect(x, y, x + w, y + h))
        for _ in range(fills):
            x = rng.randrange(0, die - 101)
            y = rng.randrange(0, die - 101)
            w = rng.randrange(10, 100)
            h = rng.randrange(10, 100)
            layout.layer(n).add_fill(Rect(x, y, x + w, y + h))
    grid = WindowGrid(layout.die, 4, 4)
    return layout, grid


class TestWindowCuts:
    @pytest.mark.parametrize("odd", [False, True])
    def test_cuts_match_window_grid(self, odd):
        layout, grid = random_layout(1, odd=odd)
        xs, ys = window_cuts(grid)
        for i in range(grid.cols):
            for j in range(grid.rows):
                win = grid.window(i, j)
                assert (xs[i], ys[j], xs[i + 1], ys[j + 1]) == (
                    win.xl,
                    win.yl,
                    win.xh,
                    win.yh,
                )


class TestDensityMapParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("odd", [False, True])
    def test_maps_bit_identical(self, seed, odd):
        layout, grid = random_layout(seed, odd=odd)
        for n in layout.layer_numbers:
            layer = layout.layer(n)
            cases = (
                (wire_density_map, layer.wires, True),
                (metal_density_map, layer.shapes, True),
                # random fills may overlap: the fill map sums clipped
                # areas with multiplicity, it does not take the union
                (fill_density_map, layer.fills, False),
            )
            for fn, shapes, exact_union in cases:
                expect = oracle.density_map(shapes, grid, exact_union=exact_union)
                assert np.array_equal(fn(layer, grid), expect), (fn.__name__, n)

    def test_empty_layer_zero(self):
        layout, grid = random_layout(2)
        top = layout.layer(max(layout.layer_numbers))
        assert not top.wires and not top.fills
        for fn in (wire_density_map, fill_density_map, metal_density_map):
            assert np.all(fn(top, grid) == 0.0)


def assert_same_density(got, expect):
    assert got.layer_number == expect.layer_number
    assert np.array_equal(got.lower, expect.lower)
    assert np.array_equal(got.upper, expect.upper)
    assert got.fill_regions == expect.fill_regions


class TestAnalyzeParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("margin", [0, 7])
    def test_layer_bounds_and_regions(self, seed, margin):
        layout, grid = random_layout(seed, odd=bool(seed % 2))
        for n in layout.layer_numbers:
            layer = layout.layer(n)
            assert_same_density(
                analyze_layer(layer, grid, RULES, window_margin=margin),
                oracle.analyze_layer(layer, grid, RULES, window_margin=margin),
            )

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_analyze_layout_matches_oracle(self, seed):
        layout, grid = random_layout(seed)
        got = analyze_layout(layout, grid, window_margin=5)
        assert sorted(got) == list(layout.layer_numbers)
        for n in got:
            assert_same_density(
                got[n], oracle.analyze_layer(layout.layer(n), grid, RULES, 5)
            )


class TestBandLocalParity:
    """The streaming driver analyses each band from its halo'd wires only."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bands", [2, 3, 4])
    def test_band_local_analysis_equals_global(self, seed, bands):
        layout, grid = random_layout(seed, odd=bool(seed % 2))
        margin = 5
        # The driver's halo: the widest query reach of any stage, at
        # least the spacing reach the fill regions need.
        halo = RULES.min_spacing + 3
        plan = BandPlan(grid, bands)
        for n in layout.layer_numbers:
            wires = layout.layer(n).wires
            full = analyze_layer(layout.layer(n), grid, RULES, margin)
            for band in range(plan.num_bands):
                band_wires = [w for w in wires if band in plan.bands_touching(w, halo)]
                keys = [(i, j) for i in plan.columns(band) for j in range(grid.rows)]
                lower, upper, regions = analyze_windows(
                    band_wires, grid, RULES, margin, keys
                )
                assert sorted(regions) == keys
                assert regions == raster_fill_regions(
                    band_wires, grid, RULES, margin, keys
                )
                for key in keys:
                    assert lower[key] == full.lower[key], (n, band, key)
                    assert upper[key] == full.upper[key], (n, band, key)
                    assert regions[key] == full.fill_regions[key], (n, band, key)


class TestFillRegionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_regions_canonical_identical(self, seed):
        layout, grid = random_layout(seed, odd=True)
        layer = layout.layer(1)
        got = compute_fill_regions(layer, grid, RULES, window_margin=3)
        # Not just equal areas: the same canonical rect lists in the
        # same order, so candidate tiling downstream is identical.
        assert got == oracle.compute_fill_regions(layer, grid, RULES, window_margin=3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_usable_area_identical(self, seed):
        layout, grid = random_layout(seed)
        layer = layout.layer(2)
        expect = oracle.compute_fill_regions(layer, grid, RULES)
        got = compute_fill_regions(layer, grid, RULES)
        for key in expect:
            assert usable_fill_area(got[key], RULES) == usable_fill_area(
                expect[key], RULES
            )

    def test_margin_larger_than_window_empties_regions(self):
        layout, grid = random_layout(5, die=400)
        # 4x4 over 400 -> 100-dbu windows; a 60-dbu margin leaves
        # nothing (shrunk() underflows to None).
        got = compute_fill_regions(layout.layer(1), grid, RULES, window_margin=60)
        assert got == oracle.compute_fill_regions(
            layout.layer(1), grid, RULES, window_margin=60
        )
        assert all(v == [] for v in got.values())


class TestOverlayParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("odd", [False, True])
    def test_overlay_map_bit_identical(self, seed, odd):
        layout, grid = random_layout(seed, odd=odd)
        numbers = layout.layer_numbers
        for lo, hi in zip(numbers, numbers[1:]):
            expect = oracle.overlay_map(layout.layer(lo), layout.layer(hi), grid)
            got = overlay_map(layout.layer(lo), layout.layer(hi), grid)
            assert np.array_equal(got, expect), (lo, hi)
            assert np.array_equal(
                raster_overlay_map(layout.layer(lo), layout.layer(hi), grid), expect
            )

    def test_empty_side_zero(self):
        layout, grid = random_layout(7)
        top = max(layout.layer_numbers)
        got = overlay_map(layout.layer(top - 1), layout.layer(top), grid)
        expect = oracle.overlay_map(layout.layer(top - 1), layout.layer(top), grid)
        assert np.array_equal(got, expect)


class TestRefreshParity:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_incremental_refresh_matches_fresh_analysis(self, seed):
        layout, grid = random_layout(seed, odd=True)
        margin = 5
        cached = analyze_layout(layout, grid, window_margin=margin)
        rng = random.Random(seed + 1)
        x = rng.randrange(0, layout.die.xh - 200)
        y = rng.randrange(0, layout.die.yh - 200)
        layout.layer(1).add_wire(Rect(x, y, x + 150, y + 40))
        dirty = sorted(grid.windows_touching(Rect(x, y, x + 150, y + 40).expanded(20)))
        refreshed = refresh_analysis(
            layout, grid, cached, dirty, layers=[1], window_margin=margin
        )
        expect = oracle.refresh_analysis(
            layout, grid, cached, dirty, layers=[1], window_margin=margin
        )
        fresh = oracle.analyze_layer(layout.layer(1), grid, RULES, margin)
        assert_same_density(refreshed[1], expect[1])
        assert_same_density(refreshed[1], fresh)
        # untouched layers carried over by identity
        assert refreshed[2] is cached[2]
