"""Rect-set scanline oracle for the density layer.

The production density quantities (:mod:`repro.density.analysis`, on
the raster kernel of :mod:`repro.density.raster`) promise bit identity
with a direct per-window computation over rectangle sets.  This module
is that direct computation: one spatial-index query and one
``RectSet``/``rect_set_subtract`` scanline per window, written for
obviousness rather than speed.  The parity suite
(``test_raster_parity.py``) compares every production function against
it with ``np.array_equal`` and ``==`` — no tolerances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.density.analysis import LayerDensity, usable_fill_area, window_area_map
from repro.geometry import GridIndex, Rect, RectSet, intersection_area, rect_set_subtract
from repro.layout import DrcRules, Layer, Layout, WindowGrid

WindowKey = Tuple[int, int]


def shape_index(shapes: Sequence[Rect], die: Rect) -> GridIndex[int]:
    cell = max(64, min(die.width, die.height) // 16)
    index: GridIndex[int] = GridIndex(cell)
    for k, s in enumerate(shapes):
        index.insert(s, k)
    return index


def area_map(shapes: Sequence[Rect], grid: WindowGrid, *, exact_union: bool) -> np.ndarray:
    """Per-window covered area of ``shapes``.

    ``exact_union=True`` counts each point once however many shapes
    cover it (wires may overlap at connections); ``False`` sums the
    per-shape clipped areas (fills are disjoint by construction).
    """
    areas = np.zeros((grid.cols, grid.rows), dtype=np.int64)
    index = shape_index(shapes, grid.die)
    for i, j, win in grid:
        hits = index.query_overlapping(win)
        if not hits:
            continue
        if exact_union:
            clipped = [r.intersection(win) for r, _ in hits]
            areas[i, j] = RectSet(c for c in clipped if c is not None).area
        else:
            areas[i, j] = sum(r.intersection_area(win) for r, _ in hits)
    return areas


def density_map(shapes: Sequence[Rect], grid: WindowGrid, *, exact_union: bool) -> np.ndarray:
    return area_map(shapes, grid, exact_union=exact_union) / window_area_map(grid)


def analyze_window(
    index: GridIndex[int],
    win: Rect,
    win_area: int,
    rules: DrcRules,
    window_margin: int,
) -> Tuple[float, float, List[Rect]]:
    """``l``, ``u`` and the feasible fill region of one window."""
    hits = index.query_overlapping(win)
    if hits:
        clipped = [r.intersection(win) for r, _ in hits]
        wire_area = RectSet(c for c in clipped if c is not None).area
    else:
        wire_area = 0
    lower = wire_area / win_area
    inner = win.shrunk(window_margin) if window_margin else win
    if inner is None:
        region: List[Rect] = []
    else:
        nearby = index.query_within(inner, rules.min_spacing)
        bloated = [r.expanded(rules.min_spacing) for r, _ in nearby]
        region = rect_set_subtract([inner], bloated)
    upper = min(1.0, lower + usable_fill_area(region, rules) / win_area)
    return lower, upper, region


def analyze_windows(
    wires: Sequence[Rect],
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int,
    keys: Sequence[WindowKey],
) -> Dict[WindowKey, Tuple[float, float, List[Rect]]]:
    """:func:`analyze_window` over ``keys``, indexing ``wires`` once."""
    index = shape_index(wires, grid.die)
    return {
        (i, j): analyze_window(
            index, grid.window(i, j), grid.window_area(i, j), rules, window_margin
        )
        for i, j in keys
    }


def analyze_layer(
    layer: Layer, grid: WindowGrid, rules: DrcRules, window_margin: int = 0
) -> LayerDensity:
    lower = np.zeros((grid.cols, grid.rows), dtype=np.float64)
    upper = np.zeros((grid.cols, grid.rows), dtype=np.float64)
    regions: Dict[WindowKey, List[Rect]] = {}
    keys = [(i, j) for i, j, _ in grid]
    for (i, j), (lo, up, region) in analyze_windows(
        layer.wires, grid, rules, window_margin, keys
    ).items():
        lower[i, j] = lo
        upper[i, j] = up
        regions[(i, j)] = region
    return LayerDensity(layer.number, lower, upper, regions)


def compute_fill_regions(
    layer: Layer, grid: WindowGrid, rules: DrcRules, window_margin: int = 0
) -> Dict[WindowKey, List[Rect]]:
    """Window (inset by ``window_margin``) minus wires bloated by ``sm``."""
    regions: Dict[WindowKey, List[Rect]] = {}
    index = shape_index(layer.wires, grid.die)
    margin = rules.min_spacing
    for i, j, win in grid:
        inner = win.shrunk(window_margin) if window_margin else win
        if inner is None:
            regions[(i, j)] = []
            continue
        nearby = index.query_within(inner, margin)
        bloated = [r.expanded(margin) for r, _ in nearby]
        regions[(i, j)] = rect_set_subtract([inner], bloated)
    return regions


def refresh_analysis(
    layout: Layout,
    grid: WindowGrid,
    cached: Dict[int, LayerDensity],
    windows: Sequence[WindowKey],
    *,
    layers: Optional[Sequence[int]] = None,
    window_margin: int = 0,
) -> Dict[int, LayerDensity]:
    """Recompute ``windows`` of the ``layers`` whose wires changed."""
    keys = sorted(set(windows))
    changed = set(layout.layer_numbers if layers is None else layers)
    out: Dict[int, LayerDensity] = {}
    for n in layout.layer_numbers:
        ld = cached[n]
        if n not in changed or not keys:
            out[n] = ld
            continue
        lower = ld.lower.copy()
        upper = ld.upper.copy()
        regions = dict(ld.fill_regions)
        fresh = analyze_windows(
            layout.layer(n).wires, grid, layout.rules, window_margin, keys
        )
        for (i, j), (lo, up, region) in fresh.items():
            lower[i, j] = lo
            upper[i, j] = up
            regions[(i, j)] = region
        out[n] = LayerDensity(n, lower, upper, regions)
    return out


def overlay_map(lower: Layer, upper: Layer, grid: WindowGrid) -> np.ndarray:
    """Per-window fill-induced overlay between two adjacent layers."""
    pairs = (
        (lower.fills, upper.wires),
        (lower.wires, upper.fills),
        (lower.fills, upper.fills),
    )
    out = np.zeros((grid.cols, grid.rows), dtype=np.int64)
    for shapes_a, shapes_b in pairs:
        if not shapes_a or not shapes_b:
            continue
        index_a = shape_index(shapes_a, grid.die)
        index_b = shape_index(shapes_b, grid.die)
        for i, j, win in grid:
            hits_a = index_a.query_overlapping(win)
            if not hits_a:
                continue
            hits_b = index_b.query_overlapping(win)
            if not hits_b:
                continue
            clipped_a = [r.intersection(win) for r, _ in hits_a]
            clipped_b = [r.intersection(win) for r, _ in hits_b]
            out[i, j] += intersection_area(
                [c for c in clipped_a if c is not None],
                [c for c in clipped_b if c is not None],
            )
    return out
