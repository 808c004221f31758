"""Coordinate-compressed occupancy rasters with exact box sums.

The array core under :mod:`repro.density.raster`: a set of integer
rectangles is rasterized **once** onto the non-uniform grid induced by
its own edge coordinates (plus any caller-supplied cut lines, e.g.
window boundaries).  On that grid every input rectangle is a union of
whole cells, so the raster is *exact* — not an approximation at some
fixed resolution — while every downstream per-window quantity becomes
an array operation:

* multiplicity per cell (``counts``) via a 2-D difference array and two
  cumulative sums,
* union/covered area via the boolean occupancy (``counts > 0``) times
  the cell areas,
* per-window aggregation via 2-D prefix sums (integral images) sampled
  at the window cut lines,
* overlay between two rect sets via elementwise AND of occupancies on a
  shared grid,
* canonical free-region recovery via maximal-run extraction and
  vertical merging, matching the scanline oracle's output rect list.

Everything stays int64; no floating point enters until a caller divides
by window areas, which keeps the raster path bit-compatible with a
rect-set computation on :mod:`repro.geometry.boolean`.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from .rect import Rect

__all__ = ["IntArray", "BoolArray", "Raster", "merge_mask_runs"]

IntArray = np.ndarray[Any, np.dtype[np.int64]]
BoolArray = np.ndarray[Any, np.dtype[np.bool_]]

_I64 = np.int64


def _as_edges(values: Sequence[int]) -> IntArray:
    """Sorted distinct int64 edge coordinates."""
    return np.unique(np.asarray(list(values), dtype=_I64))


def _span(lo: IntArray, hi: IntArray, extra: Sequence[int]) -> Tuple[int, int]:
    """Coordinate span of a raster axis.

    With ``extra`` cut lines the span is *their* extent — shapes are
    clipped to the frame the caller laid out; without, it is the
    shapes' own extent.
    """
    if len(extra):
        return min(extra), max(extra)
    if len(lo):
        return int(np.asarray(lo).min()), int(np.asarray(hi).max())
    return 0, 0


class Raster:
    """Multiplicity raster of a rectangle set on a compressed grid.

    ``xs``/``ys`` are the sorted distinct cut coordinates (cell
    boundaries); cell ``(i, j)`` spans ``[xs[i], xs[i+1]) x
    [ys[j], ys[j+1])`` and ``counts[i, j]`` is the number of input
    rectangles covering it.  Rectangles are clipped to the edge span;
    degenerate rectangles contribute nothing.
    """

    __slots__ = ("xs", "ys", "counts")

    def __init__(self, xs: IntArray, ys: IntArray, counts: IntArray):
        self.xs = xs
        self.ys = ys
        self.counts = counts

    @classmethod
    def from_arrays(
        cls,
        x0: IntArray,
        y0: IntArray,
        x1: IntArray,
        y1: IntArray,
        extra_x: Sequence[int] = (),
        extra_y: Sequence[int] = (),
    ) -> "Raster":
        """Rasterize rectangles given as coordinate arrays.

        Rectangle coordinates are *clipped to the span of the combined
        edge set* before becoming edges themselves, so callers can pass
        ``extra_*`` bounds (e.g. one window-column strip) and shapes
        hanging past them without inflating the grid: only the clipped
        part contributes edges and coverage.
        """
        lo_x, hi_x = _span(x0, x1, extra_x)
        lo_y, hi_y = _span(y0, y1, extra_y)
        cx0 = np.clip(np.asarray(x0, dtype=_I64), lo_x, hi_x)
        cx1 = np.clip(np.asarray(x1, dtype=_I64), lo_x, hi_x)
        cy0 = np.clip(np.asarray(y0, dtype=_I64), lo_y, hi_y)
        cy1 = np.clip(np.asarray(y1, dtype=_I64), lo_y, hi_y)
        keep = (cx1 > cx0) & (cy1 > cy0)
        cx0, cx1, cy0, cy1 = cx0[keep], cx1[keep], cy0[keep], cy1[keep]
        xs = np.unique(np.concatenate([cx0, cx1, np.asarray(list(extra_x), dtype=_I64)]))
        ys = np.unique(np.concatenate([cy0, cy1, np.asarray(list(extra_y), dtype=_I64)]))
        nx = max(0, len(xs) - 1)
        ny = max(0, len(ys) - 1)
        diff: IntArray = np.zeros((nx + 1, ny + 1), dtype=_I64)
        if nx and ny and len(cx0):
            i0 = np.searchsorted(xs, cx0)
            i1 = np.searchsorted(xs, cx1)
            j0 = np.searchsorted(ys, cy0)
            j1 = np.searchsorted(ys, cy1)
            np.add.at(diff, (i0, j0), 1)
            np.add.at(diff, (i1, j0), -1)
            np.add.at(diff, (i0, j1), -1)
            np.add.at(diff, (i1, j1), 1)
            # In place: the difference array becomes the counts, so a
            # strip raster holds one cell-sized array, not three.
            np.cumsum(diff, axis=0, out=diff)
            np.cumsum(diff, axis=1, out=diff)
        return cls(xs, ys, diff[:nx, :ny])

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return int(self.counts.size)

    def cell_widths(self) -> IntArray:
        return np.diff(self.xs)

    def cell_heights(self) -> IntArray:
        return np.diff(self.ys)

    def cell_areas(self) -> IntArray:
        """Outer product of cell widths and heights, int64."""
        return np.outer(self.cell_widths(), self.cell_heights())

    def occupancy(self) -> BoolArray:
        """Boolean covered-per-cell (the union view of the rect set)."""
        return self.counts > 0

    # ------------------------------------------------------------------
    def cut_indices(self, cuts: Sequence[int], *, axis: str = "x") -> IntArray:
        """Edge indices of ``cuts``, which must be existing edges."""
        edges = self.xs if axis == "x" else self.ys
        wanted = np.asarray(list(cuts), dtype=_I64)
        if len(edges) == 0:
            raise ValueError("raster has no edges")
        idx = np.searchsorted(edges, wanted)
        safe = np.minimum(idx, len(edges) - 1)
        if bool((idx >= len(edges)).any()) or bool((edges[safe] != wanted).any()):
            raise ValueError(f"{axis} cuts must be existing raster edge coordinates")
        return idx.astype(_I64)

    def window_sums(
        self, values: IntArray, x_cuts: Sequence[int], y_cuts: Sequence[int]
    ) -> IntArray:
        """Block sums of a per-cell array between consecutive cut lines.

        ``x_cuts``/``y_cuts`` must be strictly increasing existing edge
        coordinates (pass the window boundaries to :meth:`from_arrays`
        as ``extra_*``).  Returns a ``(len(x_cuts)-1, len(y_cuts)-1)``
        int64 array.
        """
        nwx = max(0, len(x_cuts) - 1)
        nwy = max(0, len(y_cuts) - 1)
        if self.num_cells == 0 or nwx == 0 or nwy == 0:
            return np.zeros((nwx, nwy), dtype=_I64)
        xi = self.cut_indices(x_cuts, axis="x")
        yj = self.cut_indices(y_cuts, axis="y")
        return _block_sums(_block_sums(values, xi, axis=0), yj, axis=1)

    def covered_window_areas(self, x_cuts: Sequence[int], y_cuts: Sequence[int]) -> IntArray:
        """Exact union area of the rect set inside each window.

        Reduced one axis at a time — covered widths per window column
        first, then times the cell heights per window row — so the only
        cell-sized temporary is the covered-width array.
        """
        nwx = max(0, len(x_cuts) - 1)
        nwy = max(0, len(y_cuts) - 1)
        if self.num_cells == 0 or nwx == 0 or nwy == 0:
            return np.zeros((nwx, nwy), dtype=_I64)
        xi = self.cut_indices(x_cuts, axis="x")
        yj = self.cut_indices(y_cuts, axis="y")
        widths = np.where(self.occupancy(), self.cell_widths()[:, np.newaxis], 0)
        per_column = _block_sums(widths, xi, axis=0) * self.cell_heights()
        return _block_sums(per_column, yj, axis=1)

    # ------------------------------------------------------------------
    def free_rects_in(self, i_lo: int, i_hi: int, j_lo: int, j_hi: int) -> List[Rect]:
        """Canonical maximal rects of the *uncovered* cells in a block.

        The block is the cell-index range ``[i_lo, i_hi) x
        [j_lo, j_hi)`` (e.g. one window's inner region, whose
        boundaries must be raster edges).  The construction — maximal
        horizontal runs per cell row, then merging vertically adjacent
        runs with identical x-spans — reproduces exactly the canonical
        form produced by the scanline oracle
        (:func:`repro.geometry.boolean.rect_set_subtract`), which is
        invariant under refinement of the slab edges.  Rects are
        returned sorted by ``(xl, yl, xh, yh)``.
        """
        free = ~self.occupancy()[i_lo:i_hi, j_lo:j_hi]
        s, e, r0, r1 = merge_mask_runs(free)
        # Plain-int edge lists: rects sharing an edge share its int.
        xs = self.xs[i_lo : i_hi + 1].tolist()
        ys = self.ys[j_lo : j_hi + 1].tolist()
        rects = [
            Rect(xs[a], ys[b], xs[c], ys[d])
            for a, b, c, d in zip(s.tolist(), r0.tolist(), e.tolist(), r1.tolist())
        ]
        rects.sort()
        return rects


def _block_sums(values: IntArray, cuts: IntArray, *, axis: int) -> IntArray:
    """Sums of ``values`` between consecutive edge indices along ``axis``."""
    if bool((np.diff(cuts) <= 0).any()):
        raise ValueError("cuts must be strictly increasing")
    lo, hi = int(cuts[0]), int(cuts[-1])
    span = values[lo:hi] if axis == 0 else values[:, lo:hi]
    out: IntArray = np.add.reduceat(span, cuts[:-1] - lo, axis=axis)
    return out


def merge_mask_runs(mask: BoolArray) -> Tuple[IntArray, IntArray, IntArray, IntArray]:
    """Maximal-run extraction + vertical merge over a boolean cell mask.

    ``mask[i, j]`` is True where cell ``(i, j)`` (column ``i``, row
    ``j``) belongs to the region.  Returns ``(i0, i1, j0, j1)`` cell
    index arrays of the canonical disjoint rectangles: maximal
    horizontal runs per row, vertically merged whenever consecutive
    rows carry an identical x-span — the same canonical form the
    scanline boolean's vertical merge produces.  Order is unspecified;
    callers sort the materialized rects.
    """
    empty: IntArray = np.zeros(0, dtype=_I64)
    if mask.size == 0 or not bool(mask.any()):
        return empty, empty, empty, empty
    rows = mask.T.astype(np.int8)  # (ny, nx): runs go along axis 1
    ny, nx = rows.shape
    padded: np.ndarray[Any, np.dtype[np.int8]] = np.zeros((ny, nx + 2), dtype=np.int8)
    padded[:, 1:-1] = rows
    d = np.diff(padded, axis=1)
    run_row, run_start = np.nonzero(d == 1)
    _, run_end = np.nonzero(d == -1)
    # np.nonzero is row-major, so starts and ends pair up elementwise
    # per row; run k spans columns [run_start[k], run_end[k]).
    order = np.lexsort((run_row, run_end, run_start))
    s = run_start[order].astype(_I64)
    e = run_end[order].astype(_I64)
    r = run_row[order].astype(_I64)
    new_group = np.ones(len(s), dtype=bool)
    if len(s) > 1:
        new_group[1:] = (s[1:] != s[:-1]) | (e[1:] != e[:-1]) | (r[1:] != r[:-1] + 1)
    firsts = np.flatnonzero(new_group)
    lasts = np.append(firsts[1:], len(s)) - 1
    return s[firsts], e[firsts], r[firsts], r[lasts] + 1
