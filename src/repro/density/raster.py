"""Vectorized raster density kernel: the one production density path.

Array implementations of the per-window density quantities, built on
:class:`repro.geometry.Raster` (coordinate-compressed occupancy grids +
integral images); :mod:`repro.density.analysis` exposes them as the
density-analysis API.  The tests keep a direct rect-set scanline
computation of every quantity as the oracle
(``tests/density/oracle.py``) and check bit identity against it.

Why this is exact and not an approximation: the raster grid is the
coordinate grid *induced by the shapes themselves* (plus the window cut
lines), so every shape is a union of whole cells and all sums are
int64.  Floats appear only in the final density divisions, which use
the same operand values (and therefore the same IEEE-754 roundings) as
a per-window computation.

Why it is fast: one die-wide pass per layer replaces thousands of
per-window ``RectSet`` constructions.  To keep memory linear in the
shape count (a single global compressed grid is quadratic: 10k fills
would mean a 20k x 20k cell grid), all passes slice the die into
window-column strips; each strip's grid is small and the per-strip
results land directly in the output map's column.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import IntArray, Raster, Rect
from ..layout import DrcRules, Layer, WindowGrid

__all__ = [
    "window_cuts",
    "raster_area_map",
    "clipped_area_map",
    "raster_fill_regions",
    "raster_overlay_map",
]

_I64 = np.int64

#: shapes per block of the separable clipped-area product
_CHUNK = 4096


def window_cuts(grid: WindowGrid) -> Tuple[List[int], List[int]]:
    """The grid's window boundary coordinates per axis.

    Matches :meth:`WindowGrid.window` exactly: uniform cuts except the
    last column/row, which absorbs the division remainder.
    """
    die = grid.die
    xs = [die.xl + i * grid.window_width for i in range(grid.cols)] + [die.xh]
    ys = [die.yl + j * grid.window_height for j in range(grid.rows)] + [die.yh]
    return xs, ys


def _coords(rects: Sequence[Rect]) -> Tuple[IntArray, IntArray, IntArray, IntArray]:
    n = len(rects)
    x0: IntArray = np.empty(n, dtype=_I64)
    y0: IntArray = np.empty(n, dtype=_I64)
    x1: IntArray = np.empty(n, dtype=_I64)
    y1: IntArray = np.empty(n, dtype=_I64)
    for k, r in enumerate(rects):
        x0[k] = r.xl
        y0[k] = r.yl
        x1[k] = r.xh
        y1[k] = r.yh
    return x0, y0, x1, y1


def raster_area_map(
    shapes: Sequence[Rect],
    grid: WindowGrid,
    *,
    cols: Optional[Sequence[int]] = None,
) -> "np.ndarray":
    """Per-window covered area of ``shapes`` as an int64 map.

    Each point counts once however many shapes cover it (occupancy x
    cell area), so overlapping wires are not double counted.  ``cols``
    restricts the work to a subset of window columns (the incremental
    and band-local paths); other columns stay zero.
    """
    x_cuts, y_cuts = window_cuts(grid)
    out = np.zeros((grid.cols, grid.rows), dtype=_I64)
    if not shapes:
        return out
    x0, y0, x1, y1 = _coords(shapes)
    for i in (range(grid.cols) if cols is None else cols):
        sx0, sx1 = x_cuts[i], x_cuts[i + 1]
        m = (x0 < sx1) & (x1 > sx0)
        if not bool(m.any()):
            continue
        ras = Raster.from_arrays(
            x0[m], y0[m], x1[m], y1[m], extra_x=[sx0, sx1], extra_y=y_cuts
        )
        out[i, :] = ras.covered_window_areas([sx0, sx1], y_cuts)[0]
    return out


def clipped_area_map(shapes: Sequence[Rect], grid: WindowGrid) -> "np.ndarray":
    """Per-window sum of the shapes' clipped areas, as an int64 map.

    Counts multiplicity (a point under two shapes counts twice), which
    equals the covered area for disjoint shapes such as fills.  The
    clipped area of a rect in a window is its x-overlap with the
    window column times its y-overlap with the window row, so the map
    is the separable product ``ox.T @ oy`` of the (shapes x columns)
    and (shapes x rows) overlap matrices — exact int64 arithmetic,
    accumulated over fixed-size chunks of shapes so the transient
    matrices stay small however many shapes there are.
    """
    x_cuts, y_cuts = window_cuts(grid)
    xs = np.asarray(x_cuts, dtype=_I64)
    ys = np.asarray(y_cuts, dtype=_I64)
    x0, y0, x1, y1 = _coords(shapes)
    out = np.zeros((grid.cols, grid.rows), dtype=_I64)
    for k in range(0, len(shapes), _CHUNK):
        part = slice(k, k + _CHUNK)
        out += _overlaps(x0[part], x1[part], xs).T @ _overlaps(y0[part], y1[part], ys)
    return out


def _overlaps(lo: IntArray, hi: IntArray, cuts: IntArray) -> IntArray:
    """(intervals x cells) overlap lengths of ``[lo, hi)`` with the cells
    between consecutive ``cuts``."""
    over: IntArray = np.minimum(hi[:, np.newaxis], cuts[np.newaxis, 1:])
    over -= np.maximum(lo[:, np.newaxis], cuts[np.newaxis, :-1])
    return np.maximum(over, 0, out=over)


def raster_fill_regions(
    wires: Sequence[Rect],
    grid: WindowGrid,
    rules: DrcRules,
    window_margin: int = 0,
    keys: Optional[Sequence[Tuple[int, int]]] = None,
) -> Dict[Tuple[int, int], List[Rect]]:
    """Feasible fill region per window: free space at legal spacing.

    The region of a window is the window (inset by ``window_margin``)
    minus every wire bloated by the minimum spacing.  Obstacles are
    bloated once, as coordinate arithmetic; per window-column strip
    the bloated set is rasterized with the inner-window boundaries as
    cut lines, and each window's region is recovered from the free
    cells as maximal horizontal runs merged vertically — the canonical
    disjoint rect list ``rect_set_subtract([inner], bloated)``
    produces, in the same order.  ``keys`` restricts the output to
    those windows; only wires within spacing reach of them matter.
    """
    margin = rules.min_spacing
    wanted: Dict[int, List[int]] = {}
    for (i, j) in (keys if keys is not None else ((i, j) for i, j, _ in grid)):
        wanted.setdefault(i, []).append(j)
    regions: Dict[Tuple[int, int], List[Rect]] = {}
    wx0, wy0, wx1, wy1 = _coords(wires)
    bx0, by0 = wx0 - margin, wy0 - margin
    bx1, by1 = wx1 + margin, wy1 + margin
    for i, rows in wanted.items():
        inners = {
            j: (grid.window(i, j).shrunk(window_margin) if window_margin else grid.window(i, j))
            for j in rows
        }
        live = {j: inner for j, inner in inners.items() if inner is not None}
        for j in rows:
            regions[(i, j)] = []
        if not live:
            continue
        any_inner = next(iter(live.values()))
        extra_x = [any_inner.xl, any_inner.xh]  # shared by the column
        extra_y = sorted({c for r in live.values() for c in (r.yl, r.yh)})
        m = (bx0 < extra_x[1]) & (bx1 > extra_x[0])
        ras = Raster.from_arrays(bx0[m], by0[m], bx1[m], by1[m], extra_x, extra_y)
        for j, inner in live.items():
            i_lo = int(np.searchsorted(ras.xs, inner.xl))
            i_hi = int(np.searchsorted(ras.xs, inner.xh))
            j_lo = int(np.searchsorted(ras.ys, inner.yl))
            j_hi = int(np.searchsorted(ras.ys, inner.yh))
            regions[(i, j)] = ras.free_rects_in(i_lo, i_hi, j_lo, j_hi)
    return regions


def raster_overlay_map(lower: Layer, upper: Layer, grid: WindowGrid) -> "np.ndarray":
    """Per-window fill-induced overlay area between adjacent layers.

    For each of the three fill-induced pair terms, both rect sets are
    rasterized per window-column strip onto a *shared* edge set (each
    side contributes its clipped coordinates to the other's cut lines),
    so the pairwise intersection is the elementwise AND of the two
    occupancies and the per-window charge is one windowed sum.
    """
    pairs = (
        (lower.fills, upper.wires),
        (lower.wires, upper.fills),
        (lower.fills, upper.fills),
    )
    x_cuts, y_cuts = window_cuts(grid)
    y_cuts_arr = np.asarray(y_cuts, dtype=_I64)
    out = np.zeros((grid.cols, grid.rows), dtype=_I64)
    for shapes_a, shapes_b in pairs:
        if not shapes_a or not shapes_b:
            continue
        ax0, ay0, ax1, ay1 = _coords(shapes_a)
        bx0, by0, bx1, by1 = _coords(shapes_b)
        for i in range(grid.cols):
            sx0, sx1 = x_cuts[i], x_cuts[i + 1]
            ma = (ax0 < sx1) & (ax1 > sx0)
            if not bool(ma.any()):
                continue
            mb = (bx0 < sx1) & (bx1 > sx0)
            if not bool(mb.any()):
                continue
            strip = np.asarray([sx0, sx1], dtype=_I64)
            ex = np.concatenate(
                [
                    strip,
                    np.clip(ax0[ma], sx0, sx1),
                    np.clip(ax1[ma], sx0, sx1),
                    np.clip(bx0[mb], sx0, sx1),
                    np.clip(bx1[mb], sx0, sx1),
                ]
            )
            ey = np.concatenate([y_cuts_arr, ay0[ma], ay1[ma], by0[mb], by1[mb]])
            ras_a = Raster.from_arrays(ax0[ma], ay0[ma], ax1[ma], ay1[ma], ex, ey)
            ras_b = Raster.from_arrays(bx0[mb], by0[mb], bx1[mb], by1[mb], ex, ey)
            both = (ras_a.occupancy() & ras_b.occupancy()).astype(_I64)
            out[i, :] += ras_a.window_sums(both * ras_a.cell_areas(), [sx0, sx1], y_cuts)[0]
    return out
