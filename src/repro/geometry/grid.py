"""Uniform-grid spatial index for rectangles.

Candidate-fill generation and spacing-rule extraction (Eqn. (9g)) need
"which shapes are near this box?" queries over thousands of rectangles
per window.  A uniform bucket grid is the right tool at this scale: the
shapes are small relative to the window, near-uniformly distributed, and
the index is rebuilt per window anyway.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, Iterable, Iterator, List, Set, Tuple, TypeVar

from .rect import Rect

__all__ = ["GridIndex"]

T = TypeVar("T")


class GridIndex(Generic[T]):
    """Buckets rectangles into fixed-size grid cells for range queries.

    Items are arbitrary payloads stored alongside their bounding
    rectangle.  Query results are deduplicated and order-stable (items
    come back in insertion order).  :meth:`remove_touching` takes items
    out again, so an index can follow a changing shape set — a session's
    fills across ECO rip-ups — instead of being rebuilt.
    """

    def __init__(self, cell_size: int):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self._cell = cell_size
        self._buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        self._items: List[Tuple[Rect, T]] = []
        # indices of removed items; their slots stay so indices are stable
        self._removed: Set[int] = set()

    @property
    def cell_size(self) -> int:
        return self._cell

    def __len__(self) -> int:
        """Number of items currently stored (removed items excluded)."""
        return len(self._items) - len(self._removed)

    def _cells(self, rect: Rect) -> Iterator[Tuple[int, int]]:
        cx0 = rect.xl // self._cell
        cx1 = rect.xh // self._cell
        cy0 = rect.yl // self._cell
        cy1 = rect.yh // self._cell
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                yield (cx, cy)

    def insert(self, rect: Rect, item: T) -> int:
        """Store ``item`` under ``rect``; returns the item's index."""
        idx = len(self._items)
        self._items.append((rect, item))
        for cell in self._cells(rect):
            self._buckets[cell].append(idx)
        return idx

    def extend(self, pairs: Iterable[Tuple[Rect, T]]) -> None:
        for rect, item in pairs:
            self.insert(rect, item)

    def _touching(self, region: Rect) -> List[int]:
        """Indices of the items touching ``region``, ascending."""
        seen = set()
        hit_ids: List[int] = []
        for cell in self._cells(region):
            for idx in self._buckets.get(cell, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                if self._items[idx][0].touches(region):
                    hit_ids.append(idx)
        hit_ids.sort()
        return hit_ids

    def query(self, region: Rect) -> List[Tuple[Rect, T]]:
        """All items whose rectangle *touches* ``region`` (closed boxes).

        Results come back in insertion order, which keeps downstream
        candidate selection deterministic.
        """
        return [self._items[idx] for idx in self._touching(region)]

    def remove_touching(self, region: Rect) -> List[Tuple[Rect, T]]:
        """Remove and return every item :meth:`query` would return."""
        out: List[Tuple[Rect, T]] = []
        for idx in self._touching(region):
            entry = self._items[idx]
            for cell in self._cells(entry[0]):
                bucket = self._buckets[cell]
                bucket.remove(idx)
                if not bucket:
                    del self._buckets[cell]
            self._removed.add(idx)
            out.append(entry)
        if 2 * len(self._removed) > len(self._items):
            # Reinsert the live items so removed slots cannot pile up
            # over a long session; insertion order is preserved.
            live = self.items()
            self._items, self._removed = [], set()
            self._buckets = defaultdict(list)
            self.extend(live)
        return out

    def query_overlapping(self, region: Rect) -> List[Tuple[Rect, T]]:
        """All items with positive-area overlap with ``region``."""
        return [(r, it) for r, it in self.query(region) if r.overlaps(region)]

    def query_within(self, region: Rect, margin: int) -> List[Tuple[Rect, T]]:
        """All items within ``margin`` of ``region`` (closed distance).

        This is the neighbour query behind spacing-constraint extraction:
        fill pairs closer than the minimum spacing ``sm`` get a
        differential constraint (Eqn. (13)).
        """
        grown = region.expanded(margin)
        return self.query(grown)

    def items(self) -> List[Tuple[Rect, T]]:
        """All stored (rect, item) pairs in insertion order."""
        removed = self._removed
        return [e for k, e in enumerate(self._items) if k not in removed]
