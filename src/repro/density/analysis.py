"""Density analysis: window density maps, fill regions, density bounds.

This is the "density analysis" phase of the classic two-phase flow the
paper builds on (§1): collect wire density and available fill regions
per window, from which the planner (§3.1) derives per-window density
bounds ``l(i, j)`` (existing wire density) and ``u(i, j)`` (wire density
plus everything the free space could hold).

All maps are numpy arrays of shape ``(cols, rows)`` indexed ``[i, j]``
with ``i`` the column, matching Eqn. (1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..contracts import check_density
from ..geometry import Rect
from ..layout import DrcRules, Layer, Layout, WindowGrid
from .raster import clipped_area_map, raster_area_map, raster_fill_regions, raster_overlay_map

__all__ = [
    "window_area_map",
    "wire_density_map",
    "fill_density_map",
    "metal_density_map",
    "compute_fill_regions",
    "usable_fill_area",
    "LayerDensity",
    "analyze_windows",
    "analyze_layer",
    "analyze_layout",
    "refresh_analysis",
    "overlay_area",
    "overlay_map",
    "fill_overlay_area",
]

WindowKey = Tuple[int, int]


def wire_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Wire density ``d_w(i, j)`` per window — the lower bound l(i, j)."""
    return _to_density(raster_area_map(layer.wires, grid), grid)


def fill_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Dummy-fill density per window.

    Fills are disjoint by construction, so the clipped-area sum of
    :func:`~repro.density.raster.clipped_area_map` is their covered
    area.
    """
    return _to_density(clipped_area_map(layer.fills, grid), grid)


def metal_density_map(layer: Layer, grid: WindowGrid) -> np.ndarray:
    """Total layout density d(i, j): wires plus fills."""
    return _to_density(raster_area_map(layer.shapes, grid), grid)


def window_area_map(grid: WindowGrid) -> np.ndarray:
    """Window areas ``aw(i, j)`` as a ``(cols, rows)`` int64 array.

    The vectorized form of :meth:`WindowGrid.window_area` — the outer
    product of the column widths and row heights (only the last
    column/row can differ, by the division remainder).
    """
    widths = np.asarray(grid.column_widths(), dtype=np.int64)
    heights = np.asarray(grid.row_heights(), dtype=np.int64)
    return np.outer(widths, heights)


def _to_density(areas: np.ndarray, grid: WindowGrid) -> np.ndarray:
    return areas / window_area_map(grid)


def compute_fill_regions(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
) -> Dict[WindowKey, List[Rect]]:
    """Feasible fill region per window: free space at legal spacing.

    The fill region of a window is the window minus every wire bloated
    by the minimum spacing ``sm`` — exactly the space where a fill may
    legally sit.  Returned as disjoint rectangles per window.

    ``window_margin`` additionally insets each window edge; the engine
    passes ``ceil(sm / 2)`` so that fills generated independently in
    adjacent windows still respect the spacing rule across the window
    boundary.
    """
    return raster_fill_regions(layer.wires, grid, rules, window_margin)


def usable_fill_area(region: Sequence[Rect], rules: DrcRules) -> int:
    """Area of the region pieces a legal fill could actually occupy.

    Rectangles narrower than the minimum width in either dimension can
    never host a DRC-clean fill, so the density upper bound must not
    count them.
    """
    return sum(
        r.area
        for r in region
        if r.width >= rules.min_width
        and r.height >= rules.min_width
        and r.area >= rules.min_area
    )


def analyze_windows(
    wires: Sequence[Rect],
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
    keys: Optional[Sequence[WindowKey]] = None,
) -> Tuple[np.ndarray, np.ndarray, Dict[WindowKey, List[Rect]]]:
    """Density bounds and fill regions of a set of windows.

    The single analysis body: ``l`` (wire density), ``u`` (wire
    density plus usable free space) and the feasible fill region of
    every window in ``keys`` (all windows when ``None``), read off
    ``wires``.  The full analysis (:func:`analyze_layer`), the
    incremental refresh (:func:`refresh_analysis`) and the band sweeps
    of the streaming driver all call it, so they cannot drift.  Only
    the ``keys`` entries of the returned ``(cols, rows)`` maps are
    meaningful; ``wires`` need only hold the shapes within spacing
    reach of those windows (a band's halo'd wires, for instance).
    """
    cols = None if keys is None else sorted({i for i, _ in keys})
    aw = window_area_map(grid)
    lower = raster_area_map(wires, grid, cols=cols) / aw
    regions = raster_fill_regions(wires, grid, rules, window_margin, keys=keys)
    usable = np.zeros((grid.cols, grid.rows), dtype=np.int64)
    for (i, j), region in regions.items():
        usable[i, j] = usable_fill_area(region, rules)
    upper = np.minimum(1.0, lower + usable / aw)
    return lower, upper, regions


@dataclass
class LayerDensity:
    """Density-analysis product for one layer.

    ``lower`` is ``l(i, j)`` (wire density) and ``upper`` is ``u(i, j)``
    (wire density plus usable free space) — the bounds that drive target
    density planning (§3.1, Eqn. (5)).
    """

    layer_number: int
    lower: np.ndarray
    upper: np.ndarray
    fill_regions: Dict[Tuple[int, int], List[Rect]]

    @property
    def max_lower(self) -> float:
        """max l(k, n) over all windows — the Case I target (Eqn. (6))."""
        return float(self.lower.max())

    @property
    def min_upper(self) -> float:
        """min u(k, n) over all windows — Case II search ceiling."""
        return float(self.upper.min())

    @property
    def has_constrained_window(self) -> bool:
        """True when some window cannot reach max l(k, n) — Eqn. (7)."""
        return bool((self.upper < self.max_lower - 1e-12).any())


def analyze_layer(
    layer: Layer,
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
) -> LayerDensity:
    """Run density analysis for one layer."""
    lower, upper, regions = analyze_windows(layer.wires, grid, rules, window_margin)
    check_density(lower, name=f"layer {layer.number} lower density l(i,j)")
    check_density(upper, name=f"layer {layer.number} upper density u(i,j)")
    return LayerDensity(layer.number, lower, upper, regions)


@dataclass(frozen=True)
class _AnalysisShared:
    """Read-only inputs every layer of an analysis run shares.

    Built once per :func:`analyze_layout` call and shipped to parallel
    workers once per worker (pool initializer), so the grid and DRC
    rules are pickled exactly once; the layers themselves are the
    shard items.
    """

    grid: WindowGrid
    rules: DrcRules
    window_margin: int


def _analyze_shard(
    shared: _AnalysisShared, layers: Sequence[Layer]
) -> List[LayerDensity]:
    """Worker entry point: density analysis over one shard of layers.

    Raster state never crosses the shard boundary: each worker
    rasterizes its own layers locally, so only the plain
    :class:`_AnalysisShared` inputs and the resulting
    :class:`LayerDensity` values are ever pickled.
    """
    out: List[LayerDensity] = []
    for layer in layers:
        out.append(
            analyze_layer(layer, shared.grid, shared.rules, shared.window_margin)
        )
        obs.metrics.counter("analysis.layers").inc()
    return out


def analyze_layout(
    layout: Layout,
    grid: WindowGrid,
    window_margin: int = 0,
    *,
    workers: int = 1,
    parallel: str = "process",
    sanitize: Optional[bool] = None,
) -> Dict[int, LayerDensity]:
    """Density analysis for every layer of a layout.

    Layers are independent by construction — each window's ``l(i, j)``
    and ``u(i, j)`` read only that layer's wires — so with
    ``workers != 1`` the layer list is sharded contiguously in layer
    order and the shards run on the :mod:`repro.parallel` backend
    named by ``parallel``; per-layer results (and worker
    spans/metrics) merge in shard order, so the returned
    ``{layer_number: LayerDensity}`` dict is bit-identical to the
    serial run for any worker count and backend.  ``workers=0`` means
    one worker per available core.  ``sanitize`` arms the shard
    sanitizer (see :func:`repro.parallel.run_sharded`).
    """
    shared = _AnalysisShared(grid=grid, rules=layout.rules, window_margin=window_margin)
    layers = list(layout.layers)
    from ..parallel import resolve_workers, run_sharded, shard_items

    workers = resolve_workers(workers)
    if workers == 1 or len(layers) <= 1:
        densities = _analyze_shard(shared, layers)
    else:
        shards = shard_items(layers, workers)
        densities = [
            ld
            for shard_densities in run_sharded(
                _analyze_shard,
                shared,
                shards,
                workers=workers,
                backend=parallel,
                label="analysis.shard",
                sanitize=sanitize,
            )
            for ld in shard_densities
        ]
    return {ld.layer_number: ld for ld in densities}


def refresh_analysis(
    layout: Layout,
    grid: WindowGrid,
    cached: Dict[int, LayerDensity],
    windows: Sequence[Tuple[int, int]],
    *,
    layers: Optional[Sequence[int]] = None,
    window_margin: int = 0,
) -> Dict[int, LayerDensity]:
    """Recompute a cached analysis for a subset of windows and layers.

    Density bounds and fill regions read only the layer's *wires*
    (never its fills), so a cached :func:`analyze_layout` result stays
    valid until wires change — and a wire change only perturbs the
    windows within spacing reach of the new geometry.  This is the
    incremental path the ECO flow and the fill service use: pass the
    cached per-layer analysis, the dirtied window keys, and the layer
    numbers whose wires changed; every (layer, window) pair outside
    that set is carried over untouched, so the result is bit-identical
    to a fresh global :func:`analyze_layout` of the updated layout.

    ``window_margin`` must match the value the cached analysis was
    built with (the engine's ``config.effective_margin``).  Input
    ``LayerDensity`` objects are never mutated; refreshed layers get
    fresh arrays and region dicts.
    """
    rules = layout.rules
    keys = sorted(set(windows))
    changed = set(layout.layer_numbers if layers is None else layers)
    out: Dict[int, LayerDensity] = {}
    refreshed_layers = 0
    for n in layout.layer_numbers:
        ld = cached[n]
        if n not in changed or not keys:
            out[n] = ld
            continue
        fresh_lower, fresh_upper, fresh = analyze_windows(
            layout.layer(n).wires, grid, rules, window_margin, keys=keys
        )
        ii, jj = zip(*keys)
        lower = ld.lower.copy()
        upper = ld.upper.copy()
        lower[ii, jj] = fresh_lower[ii, jj]
        upper[ii, jj] = fresh_upper[ii, jj]
        regions = dict(ld.fill_regions)
        regions.update(fresh)
        check_density(lower, name=f"layer {n} lower density l(i,j)")
        check_density(upper, name=f"layer {n} upper density u(i,j)")
        refreshed_layers += 1
        out[n] = LayerDensity(n, lower, upper, regions)
    # One refresh = one count of the dirtied windows, however many
    # layers re-read them; the per-layer fan-out is its own metric.
    if refreshed_layers:
        obs.count("analysis.refreshed_windows", len(keys))
        obs.count("analysis.refreshed_layers", refreshed_layers)
    return out


def overlay_area(lower: Layer, upper: Layer) -> int:
    """Fill-induced overlay between two adjacent layers (§2.1).

    Counts the overlap between each layer's *fills* and the other
    layer's full metal (wires and fills); the fill-fill overlap region
    is common to both terms and must not be double counted.
    """
    from ..geometry import intersection_area

    lo_fills, hi_fills = lower.fills, upper.fills
    fills_vs_wires = intersection_area(lo_fills, upper.wires)
    wires_vs_fills = intersection_area(lower.wires, hi_fills)
    fills_vs_fills = intersection_area(lo_fills, hi_fills)
    return fills_vs_wires + wires_vs_fills + fills_vs_fills


def overlay_map(lower: Layer, upper: Layer, grid: WindowGrid) -> np.ndarray:
    """Per-window fill-induced overlay area between two adjacent layers.

    Splits :func:`overlay_area` over the fixed dissection: each window
    is charged the part of the overlay region it contains.  The grid
    windows partition the die and area is additive over a partition, so
    ``overlay_map(lo, hi, grid).sum() == overlay_area(lo, hi)`` exactly
    — which makes the map usable as an *attribution*: the windows with
    the largest cells are the ones a regressed Overlay* score points
    at.
    """
    return raster_overlay_map(lower, upper, grid)


def fill_overlay_area(layout: Layout) -> Dict[Tuple[int, int], int]:
    """Overlay per adjacent layer pair for a whole layout."""
    out: Dict[Tuple[int, int], int] = {}
    for lo, hi in layout.adjacent_pairs():
        out[(lo.number, hi.number)] = overlay_area(lo, hi)
    return out
