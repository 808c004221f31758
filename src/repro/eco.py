"""ECO (engineering change order) incremental re-fill.

When a routed design changes after fill — a repaired net, a late buffer
insertion — rerunning fill from scratch churns the whole GDSII and
invalidates downstream signoff on untouched regions.  Production flows
instead patch incrementally:

1. commit the new/modified wires,
2. rip up only the fills the change invalidated (spacing conflicts with
   the new wires) plus everything in the windows the change touched,
3. re-fill exactly those windows, keeping the original target density
   discipline so the patched regions blend into the rest.

:func:`apply_eco` implements that flow on top of the engine's
window-restricted mode.  Everything outside the affected windows is
byte-identical before and after (the stability the tests assert).

For a one-shot call the function rescans the layout; a caller holding a
loaded session (:mod:`repro.service`) instead passes its cached
per-layer density ``analysis``, ``wire_indexes`` and ``fill_indexes``,
and the flow touches only the dirtied windows end to end: rip-up
becomes an index query instead of an all-fills scan, and density
analysis is refreshed per dirtied window via
:func:`repro.density.analysis.refresh_analysis` instead of recomputed
globally.  Both paths produce bit-identical layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, TypeVar

from . import obs
from .core import DummyFillEngine, FillConfig
from .density.analysis import LayerDensity, refresh_analysis
from .density.scoring import ScoreWeights
from .geometry import GridIndex, Rect
from .layout import Layout, WindowGrid

__all__ = [
    "EcoReport",
    "apply_eco",
    "affected_windows",
    "build_fill_indexes",
    "wires_from_json",
]

WindowKey = Tuple[int, int]
T = TypeVar("T")


@dataclass
class EcoReport:
    """Outcome of an incremental re-fill.

    ``analysis``, ``wire_indexes`` and ``fill_indexes`` carry the
    refreshed session caches when the caller supplied cached state —
    valid for the post-ECO layout, ready to be stored back on the
    session.  They are ``None`` on the cold (cache-free) path.
    """

    new_wires: int
    removed_fills: int
    affected_windows: List[WindowKey]
    new_fills: int
    seconds: float
    analysis: Optional[Dict[int, LayerDensity]] = field(default=None, repr=False)
    wire_indexes: Optional[Dict[int, "GridIndex[int]"]] = field(
        default=None, repr=False
    )
    fill_indexes: Optional[Dict[int, "GridIndex[None]"]] = field(
        default=None, repr=False
    )

    def summary(self) -> str:
        return (
            f"ECO: {self.new_wires} new wires -> ripped {self.removed_fills} "
            f"fills in {len(self.affected_windows)} windows, "
            f"re-inserted {self.new_fills} ({self.seconds:.2f}s)"
        )


def affected_windows(
    grid: WindowGrid,
    new_wires: Mapping[int, Sequence[Rect]],
    halo: int,
) -> Set[WindowKey]:
    """Windows whose fill a wire change can invalidate.

    A new wire affects its own windows plus any window within ``halo``
    (spacing rule + sizing trust region) of it — fills just across a
    window boundary may now violate spacing against the wire.
    """
    affected: Set[WindowKey] = set()
    for rects in new_wires.values():
        for rect in rects:
            grown = rect.expanded(halo).intersection(grid.die)
            if grown is None:
                continue
            affected.update(grid.windows_touching(grown))
    return affected


def build_fill_indexes(layout: Layout) -> Dict[int, "GridIndex[None]"]:
    """One spatial index per layer over its *fills*.

    The rip-up stage's counterpart to
    :func:`repro.core.candidates.build_wire_indexes`: lets
    :func:`apply_eco` find the fills touching the affected windows by
    query instead of scanning every fill against every window.  The
    fills are the keys (payloads are ``None``): the rip-up removes
    them from the index and from the layer by value, so a session can
    keep one index across any number of ECOs.
    """
    cell = max(64, min(layout.die.width, layout.die.height) // 16)
    out: Dict[int, GridIndex[None]] = {}
    for layer in layout.layers:
        index: GridIndex[None] = GridIndex(cell)
        index.extend((rect, None) for rect in layer.fills)
        out[layer.number] = index
    return out


def wires_from_json(data: Mapping[str, Any]) -> Dict[int, List[Rect]]:
    """Parse the wire-change spec of an ECO request.

    The wire format of the ``repro eco`` CLI and the service's
    ``eco_delta`` op: layer numbers (as JSON object keys, so strings)
    mapping to ``[xl, yl, xh, yh]`` quadruples::

        {"1": [[100, 100, 400, 140]], "2": [[0, 500, 60, 900]]}
    """
    out: Dict[int, List[Rect]] = {}
    for key in sorted(data, key=str):
        try:
            number = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"layer key {key!r} is not an integer") from None
        entries = data[key]
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"layer {number}: expected a list of rects")
        rects: List[Rect] = []
        for entry in entries:
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 4
                and all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
            ):
                raise ValueError(
                    f"layer {number}: rect {entry!r} is not [xl, yl, xh, yh]"
                )
            rects.append(Rect(entry[0], entry[1], entry[2], entry[3]))
        out[number] = rects
    return out


def _checked_indexes(
    layout: Layout,
    indexes: Dict[int, "GridIndex[T]"],
    *,
    counts: Mapping[int, int],
    what: str,
) -> Dict[int, "GridIndex[T]"]:
    """Validate that cached per-layer indexes match the layout's shapes."""
    for number, expected in counts.items():
        index = indexes.get(number)
        if index is None or len(index) != expected:
            have = "missing" if index is None else f"{len(index)} items"
            raise ValueError(
                f"stale {what} index for layer {number}: {have}, "
                f"layer has {expected}"
            )
    return indexes


def apply_eco(
    layout: Layout,
    grid: WindowGrid,
    new_wires: Mapping[int, Sequence[Rect]],
    config: Optional[FillConfig] = None,
    weights: Optional[ScoreWeights] = None,
    *,
    analysis: Optional[Dict[int, LayerDensity]] = None,
    wire_indexes: Optional[Dict[int, "GridIndex[int]"]] = None,
    fill_indexes: Optional[Dict[int, "GridIndex[None]"]] = None,
) -> EcoReport:
    """Commit ``new_wires`` and incrementally repair the fill.

    ``new_wires`` maps layer numbers to wire rectangles to add.  The
    layout must already be filled (by the engine or any other filler);
    fills outside the affected windows are left untouched.

    The keyword-only cache parameters come from a session holding the
    layout loaded (all three optional, all validated against the
    layout before use):

    * ``analysis`` — the cached global density analysis of the
      pre-ECO layout (built with this config's ``effective_margin``).
      When given, only the affected windows of the changed layers are
      re-analyzed; the engine reuses everything else.
    * ``wire_indexes`` — cached per-layer wire indexes.  Extended *in
      place* with the new wires (matching a rebuild exactly, since
      wire commits append) and passed to candidate generation.
    * ``fill_indexes`` — cached per-layer fill indexes (see
      :func:`build_fill_indexes`) for the rip-up query; built fresh
      when omitted.  Updated *in place*: the ripped-up fills are
      removed and the engine's new fills inserted, so it matches a
      rebuild on the post-ECO layout.

    The returned report carries the refreshed ``analysis``,
    ``wire_indexes`` and ``fill_indexes`` when caches were supplied.
    """
    with obs.span("eco.apply") as sp:
        if config is None:
            config = FillConfig()
        rules = layout.rules
        changed_layers = sorted(n for n, rects in new_wires.items() if rects)
        if wire_indexes is not None:
            _checked_indexes(
                layout,
                wire_indexes,
                counts={n: layout.layer(n).num_wires for n in changed_layers},
                what="wire",
            )
        # Validate every wire before committing any, so a rejected change
        # leaves the layout and the cached indexes untouched.
        for number in sorted(new_wires, key=int):
            layout.layer(number)
            for rect in new_wires[number]:
                if not layout.die.contains(rect):
                    raise ValueError(f"new wire {rect} escapes the die")
                if rect.is_degenerate:
                    raise ValueError(f"degenerate wire rectangle {rect}")
        num_new = 0
        for number in sorted(new_wires, key=int):
            rects = new_wires[number]
            layer = layout.layer(number)
            if wire_indexes is not None and rects:
                index = wire_indexes[number]
                for k, rect in enumerate(rects, start=layer.num_wires):
                    index.insert(rect, k)
            layer.add_wires(rects)
            num_new += len(rects)

        halo = rules.min_spacing + config.effective_margin(rules.min_spacing)
        affected = affected_windows(grid, new_wires, halo)
        sp.count("eco.affected_windows", len(affected))
        sp.count("eco.changed_layers", len(changed_layers))

        # Rip up every fill whose footprint touches an affected window —
        # located by index query, not an all-fills × all-windows scan.
        # Equal fills share a footprint, hence a fate, so removing the
        # doomed ones by value is exact.
        removed = 0
        if affected:
            with obs.span("eco.ripup"):
                if fill_indexes is None:
                    indexes = build_fill_indexes(layout)
                else:
                    indexes = _checked_indexes(
                        layout,
                        fill_indexes,
                        counts={
                            layer.number: layer.num_fills
                            for layer in layout.layers
                        },
                        what="fill",
                    )
                affected_rects = [grid.window(i, j) for i, j in sorted(affected)]
                for layer in layout.layers:
                    index = indexes[layer.number]
                    doomed: Set[Rect] = set()
                    for win in affected_rects:
                        doomed.update(r for r, _ in index.remove_touching(win))
                    if doomed:
                        removed += layer.filter_fills(lambda f: f not in doomed)
        sp.count("eco.removed_fills", removed)

        # Re-analyze only what the wires dirtied (with a cache), then
        # re-fill only the affected windows; planning stays global so
        # the patch matches the surrounding density discipline.
        refreshed: Optional[Dict[int, LayerDensity]] = None
        if analysis is not None:
            with obs.span("eco.refresh"):
                refreshed = refresh_analysis(
                    layout,
                    grid,
                    analysis,
                    sorted(affected),
                    layers=changed_layers,
                    window_margin=config.effective_margin(rules.min_spacing),
                )
        new_fills = 0
        if affected:
            engine = DummyFillEngine(config, weights)
            report = engine.run(
                layout,
                grid,
                windows=sorted(affected),
                analysis=refreshed,
                wire_indexes=wire_indexes,
            )
            new_fills = report.num_fills
            if fill_indexes is not None:
                # The engine appends: each layer's new fills follow the
                # kept ones the index still holds.
                for layer in layout.layers:
                    index = fill_indexes[layer.number]
                    added = layer.fills[len(index):]
                    index.extend((r, None) for r in added)
    return EcoReport(
        new_wires=num_new,
        removed_fills=removed,
        affected_windows=sorted(affected),
        new_fills=new_fills,
        seconds=sp.seconds,
        analysis=refreshed,
        wire_indexes=wire_indexes,
        fill_indexes=fill_indexes,
    )
