"""Out-of-core streaming fill: bounded-memory end-to-end flow.

The in-memory engine (:mod:`repro.core.engine`) loads the whole layout,
so peak RSS grows with die size.  This driver runs the same Fig. 3 flow
without ever materialising the layout: shapes stream from the GDSII
record iterator (:mod:`repro.gdsii.stream`) into per-band spill files
(:mod:`repro.layout.spill`), every engine stage sweeps the bands one at
a time with only one band's geometry resident, and the output streams
through the incremental writers (:class:`~repro.gdsii.GdsiiStreamWriter`
/ :class:`~repro.oasis.OasisStreamWriter`).

Output parity is exact, not approximate: each stage reuses the
in-memory engine's own bodies on band-local wires.  Density analysis
runs the raster kernel restricted to the band's window columns
(:func:`repro.density.analysis.analyze_windows`, and
:func:`repro.density.raster.raster_fill_regions` for the candidate
sweep's fill regions); candidate generation and sizing run
:func:`repro.core.candidates._generate_shard` and
:func:`repro.core.sizing._size_shard` on band-local wire indexes; the
second planning round is the engine's own
:func:`repro.core.engine.replan_targets`.  Band-local answers equal
global ones: bands carry a routing halo equal to the widest query
reach (every wire within reach of a band window is in the band, and
the raster passes only ever look at one window-column strip), and
band-local insertion order is the input order restricted to the band.
Windows are visited in grid order (bands are contiguous column
ranges), so the streamed GDSII and OASIS bytes equal the in-memory
path's bytes at any worker count.

The one deliberate divergence is DRC: violations are checked per band
(owned fills against band wires), which sees every fill-to-wire pair
but not fill-to-fill pairs whose owners land in different bands.  The
window-margin construction keeps independently generated fills legal
across window (hence band) boundaries, so the streamed check is only
blind to pre-existing cross-band fill conflicts in the *input*.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    BinaryIO,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from .. import obs
from ..contracts import check_density, check_drc_params, check_rect
from ..density.analysis import LayerDensity, analyze_windows, window_area_map
from ..density.raster import clipped_area_map, raster_fill_regions
from ..density.scoring import ScoreWeights
from ..gdsii import (
    DIE_LAYER,
    FILL_DATATYPE,
    WIRE_DATATYPE,
    GdsiiStreamReader,
    GdsiiStreamWriter,
)
from ..geometry import GridIndex, Rect, bounding_box
from ..layout import (
    BandPlan,
    DrcRules,
    DrcViolation,
    LayerSpool,
    ShapeSpill,
    WindowGrid,
    check_fills,
)
from ..netflow import release_solver_caches
from ..oasis import OasisStreamWriter
from .candidates import _SharedState, _WindowTask, _generate_shard
from .config import FillConfig
from .engine import replan_targets
from .planner import DensityPlan, PlannerObjective, plan_targets
from .sizing import SizingStats, _SharedSizing, _SizingTask, _size_shard

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "StreamReport",
    "resolve_bands",
    "stream_fill",
]

WindowKey = Tuple[int, int]

#: default spill budget when neither the call nor the config names one
DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024

#: rough resident footprint of one shape across index + task state —
#: deliberately pessimistic so the band estimate errs toward more,
#: smaller bands rather than blowing the budget
_BYTES_PER_SHAPE = 512

#: resident cost of one *buffered* (not yet flushed) spill record: the
#: packed bytes object plus its list slot dwarf the 24-byte payload
_BYTES_PER_BUFFERED_RECORD = 128

_FORMATS = ("gdsii", "oasis")

#: kept fills per block of the bucket pass's clipped-area accumulation
_AREA_CHUNK = 4096


def _accumulate_area(
    area: Dict[int, np.ndarray], n: int, fills: List[Rect], grid: WindowGrid
) -> None:
    """Add the per-window clipped area of ``fills`` to layer ``n``'s map
    and empty the list."""
    if fills:
        part = clipped_area_map(fills, grid)
        if n in area:
            area[n] += part
        else:
            area[n] = part
        fills.clear()


def _flush_records(memory_budget: Optional[int]) -> int:
    """Spool buffer length honouring the byte budget.

    The spools default to flushing every 4096 records, which on small
    budgets would keep more geometry resident in write buffers than the
    bands themselves hold; scale the buffer down so all spools together
    stay a small fraction of the budget.
    """
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    return max(16, min(4096, budget // (16 * _BYTES_PER_BUFFERED_RECORD)))


@dataclass
class StreamReport:
    """Everything the streaming driver learned during one run."""

    num_wires: int
    kept_fills: int
    removed_fills: int
    num_candidates: int
    num_fills: int
    bands: int
    bytes_spilled: int
    chunks: int
    bytes_written: int
    initial_plan: Optional[DensityPlan]
    final_plan: Optional[DensityPlan]
    sizing: SizingStats
    violations: List[DrcViolation] = field(default_factory=list)
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def summary(self) -> str:
        stages = ", ".join(
            f"{name}={secs:.2f}s" for name, secs in self.stage_seconds.items()
        )
        return (
            f"fills={self.num_fills} (from {self.num_candidates} candidates), "
            f"kept={self.kept_fills}, removed={self.removed_fills}, "
            f"bands={self.bands}, spilled {self.bytes_spilled} bytes "
            f"in {self.chunks} chunks; {stages}"
        )


def resolve_bands(
    num_shapes: int,
    cols: int,
    memory_budget: Optional[int] = None,
    bands: Optional[int] = None,
) -> int:
    """Number of window-column bands for a run.

    An explicit ``bands`` wins (clamped to the column count — a band is
    at least one window column).  Otherwise the count is sized so one
    band's estimated resident footprint
    (``num_shapes x _BYTES_PER_SHAPE / bands``) fits the byte budget.
    """
    if cols < 1:
        raise ValueError("grid must have at least one column")
    if bands is not None:
        if bands < 1:
            raise ValueError("bands must be at least 1")
        return min(bands, cols)
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    if budget < 1:
        raise ValueError("memory budget must be a positive byte count")
    estimated = max(1, num_shapes) * _BYTES_PER_SHAPE
    return max(1, min(cols, -(-estimated // budget)))


def _band_wires(
    spill: ShapeSpill, band: int, numbers: Sequence[int]
) -> Dict[int, List[Rect]]:
    """The band's wires per layer, in spill (= input) order."""
    per: Dict[int, List[Rect]] = {n: [] for n in numbers}
    for layer, _datatype, rect in spill.read(band):
        per[layer].append(rect)
    return per


def _band_indexes(
    per: Mapping[int, List[Rect]], die: Rect
) -> Dict[int, GridIndex[int]]:
    """Band-local per-layer wire indexes.

    Same cell size and insertion order as the global indexes the
    in-memory stages build, so every in-band query returns the same
    hits in the same order.
    """
    cell = max(64, min(die.width, die.height) // 16)
    out: Dict[int, GridIndex[int]] = {}
    for n, rects in per.items():
        index: GridIndex[int] = GridIndex(cell)
        for k, rect in enumerate(rects):
            index.insert(rect, k)
        out[n] = index
    return out


def _band_window_keys(
    plan: BandPlan, band: int, affected: Optional[Set[WindowKey]]
) -> Iterator[WindowKey]:
    """The band's window keys in grid order, restricted to ``affected``."""
    for i in plan.columns(band):
        for j in range(plan.grid.rows):
            key = (i, j)
            if affected is not None and key not in affected:
                continue
            yield key


def stream_fill(
    source: Union[str, "os.PathLike[str]", bytes, bytearray, BinaryIO],
    output: Union[str, "os.PathLike[str]", BinaryIO],
    rules: DrcRules,
    *,
    cols: int,
    rows: int,
    config: Optional[FillConfig] = None,
    objective: Optional[PlannerObjective] = None,
    weights: Optional[ScoreWeights] = None,
    memory_budget: Optional[int] = None,
    bands: Optional[int] = None,
    eco_wires: Optional[Mapping[int, Sequence[Rect]]] = None,
    output_format: str = "gdsii",
    include_wires: bool = True,
    work_dir: Optional[str] = None,
) -> StreamReport:
    """Run the full fill flow out-of-core; bounded peak memory.

    ``source`` is a GDSII path, byte string or binary stream;
    ``output`` a path or binary stream for the filled layout in
    ``output_format`` (``"gdsii"`` or ``"oasis"``).  ``cols``/``rows``
    give the window dissection (the die comes from the stream, so the
    grid cannot be built by the caller).  ``memory_budget`` (bytes) or
    an explicit ``bands`` count controls how many window-column bands
    the die is swept in; each sweep keeps only one band's geometry
    resident.  ``eco_wires`` switches to the incremental ECO mode:
    the wires are committed, fills in dirtied windows are ripped up,
    and only those windows are re-filled — mirroring
    :func:`repro.eco.apply_eco` byte for byte.

    Note the OASIS writer buffers one (layer, datatype) group at a
    time for repetition extraction, so only the GDSII format is fully
    streaming on the output side.
    """
    if config is None:
        config = FillConfig()
    if output_format not in _FORMATS:
        raise ValueError(f"output_format must be one of {_FORMATS}")
    if objective is None:
        objective = (
            PlannerObjective.from_score_weights(weights)
            if weights is not None
            else PlannerObjective()
        )
    rules = check_drc_params(rules, name="rules")
    if memory_budget is None:
        memory_budget = config.memory_budget

    workdir = work_dir if work_dir is not None else tempfile.mkdtemp(
        prefix="repro-stream-"
    )
    if work_dir is not None:
        os.makedirs(workdir, exist_ok=True)
    try:
        with obs.span("stream.run") as run_span:
            report = _stream_fill(
                source,
                output,
                rules,
                cols=cols,
                rows=rows,
                config=config,
                objective=objective,
                memory_budget=memory_budget,
                bands=bands,
                eco_wires=eco_wires,
                output_format=output_format,
                include_wires=include_wires,
                workdir=workdir,
            )
        report.stage_seconds = {c.name: c.seconds for c in run_span.children}
        return report
    finally:
        if work_dir is None:
            shutil.rmtree(workdir, ignore_errors=True)


def _stream_fill(
    source: Union[str, "os.PathLike[str]", bytes, bytearray, BinaryIO],
    output: Union[str, "os.PathLike[str]", BinaryIO],
    rules: DrcRules,
    *,
    cols: int,
    rows: int,
    config: FillConfig,
    objective: PlannerObjective,
    memory_budget: Optional[int],
    bands: Optional[int],
    eco_wires: Optional[Mapping[int, Sequence[Rect]]],
    output_format: str,
    include_wires: bool,
    workdir: str,
) -> StreamReport:
    flush = _flush_records(memory_budget)
    # ------------------------------------------------------------------
    # Pass 1 — scan: die, layer count, per-layer spools in input order.
    with obs.span("scan"):
        spool = LayerSpool(workdir, "shapes", flush_records=flush)
        die_rects: List[Rect] = []
        everything: List[Rect] = []  # only grown via bounding_box; O(1)
        max_layer = 0
        num_shapes = 0
        num_wires = 0
        with GdsiiStreamReader(source) as reader:
            for layer, datatype, rect in reader.shapes():
                num_shapes += 1
                box = bounding_box(everything + [rect])
                everything = [box] if box is not None else []
                if layer == DIE_LAYER:
                    if datatype == WIRE_DATATYPE:
                        die_rects.append(rect)
                    continue
                max_layer = max(max_layer, layer)
                if datatype in (WIRE_DATATYPE, FILL_DATATYPE):
                    spool.add(layer, datatype, rect)
                    if datatype == WIRE_DATATYPE:
                        num_wires += 1

        if die_rects:
            die = die_rects[0]
            if len(die_rects) > 1:
                box = bounding_box(die_rects)
                assert box is not None
                die = box
                obs.events.emit(
                    "gdsii.multiple_die_outlines",
                    level="warning",
                    count=len(die_rects),
                    die=str(die),
                )
        else:
            box = bounding_box(everything)
            if box is None:
                raise ValueError("GDSII stream contains no geometry")
            die = box
        num_layers = max_layer if max_layer else 1
        numbers = tuple(range(1, num_layers + 1))
        grid = WindowGrid(die, cols, rows)

        # ECO mode: commit the new wires (append to the wire spools in
        # sorted layer order, exactly as apply_eco commits them) and
        # work out which windows they dirty.
        affected: Optional[Set[WindowKey]] = None
        if eco_wires is not None:
            from ..eco import affected_windows

            for number in sorted(eco_wires, key=int):
                if number not in numbers:
                    raise KeyError(
                        f"layer {number} not in layout (has {list(numbers)})"
                    )
                for rect in eco_wires[number]:
                    if not die.contains(rect):
                        raise ValueError(f"new wire {rect} escapes the die")
                    spool.add(number, WIRE_DATATYPE, rect)
                    num_wires += 1
            eco_halo = rules.min_spacing + config.effective_margin(
                rules.min_spacing
            )
            affected = affected_windows(grid, eco_wires, eco_halo)
        spool.finish()
        obs.count("stream.shapes", num_shapes)

    # Re-fill runs unless this is an ECO whose wires dirty nothing.
    run_pipeline = eco_wires is None or bool(affected)
    rip_up = eco_wires is not None and bool(affected)

    num_bands = resolve_bands(num_shapes, grid.cols, memory_budget, bands)
    plan = BandPlan(grid, num_bands)
    obs.count("stream.bands", plan.num_bands)

    # The widest query reach of any stage: candidate generation looks
    # ``min_spacing`` around a window, sizing ``min_spacing + step``.
    halo = rules.min_spacing + config.effective_step(
        rules.max_fill_width, rules.max_fill_height
    )
    margin = config.effective_margin(rules.min_spacing)

    # ------------------------------------------------------------------
    # Pass 2 — bucket: route wires into halo'd band chunks; decide each
    # input fill's fate (ECO rip-up) and accumulate kept-fill area.
    with obs.span("bucket"):
        wires_spill = ShapeSpill(plan, workdir, "wires", flush_records=flush)
        owned_spill = ShapeSpill(
            plan, workdir, "ownedfills", flush_records=flush
        )
        kept_spool = LayerSpool(workdir, "kept", flush_records=flush)
        kept_area: Dict[int, np.ndarray] = {}
        kept_fills = 0
        removed_fills = 0
        pending: List[Rect] = []
        for n in numbers:
            for rect in spool.read(n, WIRE_DATATYPE):
                wires_spill.route(n, WIRE_DATATYPE, rect, halo)
            for rect in spool.read(n, FILL_DATATYPE):
                if rip_up:
                    assert affected is not None
                    # expanded(1) turns the rip-up's closed-box window
                    # touch into the positive overlap windows_touching
                    # tests — identical on integer coordinates.
                    doomed = any(
                        key in affected
                        for key in grid.windows_touching(rect.expanded(1))
                    )
                    if doomed:
                        removed_fills += 1
                        continue
                kept_spool.add(n, FILL_DATATYPE, rect)
                owned_spill.add(
                    plan.band_of_x(rect.xl), n, FILL_DATATYPE, rect
                )
                kept_fills += 1
                pending.append(rect)
                if len(pending) == _AREA_CHUNK:
                    _accumulate_area(kept_area, n, pending, grid)
            _accumulate_area(kept_area, n, pending, grid)
        wires_spill.finish()
        owned_spill.finish()
        kept_spool.finish()

    initial_plan: Optional[DensityPlan] = None
    final_plan: Optional[DensityPlan] = None
    total_sizing = SizingStats()
    num_candidates = 0
    num_fills = 0
    new_spools: List[LayerSpool] = []
    workers = config.effective_workers()

    if run_pipeline:
        # --------------------------------------------------------------
        # Sweep A — density analysis, band by band into global maps.
        with obs.span("analysis"):
            lower = {
                n: np.zeros((grid.cols, grid.rows), dtype=np.float64)
                for n in numbers
            }
            upper = {
                n: np.zeros((grid.cols, grid.rows), dtype=np.float64)
                for n in numbers
            }
            for band in range(plan.num_bands):
                band_wires = _band_wires(wires_spill, band, numbers)
                cols = plan.columns(band)
                keys = list(_band_window_keys(plan, band, None))
                for n in numbers:
                    lo, up, _ = analyze_windows(
                        band_wires[n], grid, rules, margin, keys
                    )
                    lower[n][cols.start : cols.stop] = lo[cols.start : cols.stop]
                    upper[n][cols.start : cols.stop] = up[cols.start : cols.stop]
            for n in numbers:
                check_density(
                    lower[n], name=f"layer {n} lower density l(i,j)"
                )
                check_density(
                    upper[n], name=f"layer {n} upper density u(i,j)"
                )
            analysis = {
                n: LayerDensity(n, lower[n], upper[n], {}) for n in numbers
            }
            obs.count("engine.layers", len(analysis))
            obs.count("engine.windows", grid.num_windows)

        with obs.span("planning"):
            initial_plan = plan_targets(
                analysis, objective, td_step=config.td_step
            )

        # --------------------------------------------------------------
        # Sweep B — candidate generation (Alg. 1) per band; candidate
        # area feeds the replan, the candidates themselves spill to
        # disk until the sizing sweep needs them.
        with obs.span("candidates"):
            cand_area = {
                n: np.zeros((grid.cols, grid.rows), dtype=np.float64)
                for n in numbers
            }
            cand_paths: List[str] = []
            windows_selected = 0
            for band in range(plan.num_bands):
                band_wires = _band_wires(wires_spill, band, numbers)
                shared = _SharedState(
                    rules=rules,
                    config=config,
                    numbers=numbers,
                    num_layers=num_layers,
                    wire_indexes=_band_indexes(band_wires, die),
                )
                keys = list(_band_window_keys(plan, band, affected))
                band_regions = {
                    n: raster_fill_regions(band_wires[n], grid, rules, margin, keys)
                    for n in numbers
                }
                tasks = [
                    _WindowTask(
                        key=(i, j),
                        window=grid.window(i, j),
                        area=grid.window_area(i, j),
                        regions={n: band_regions[n][(i, j)] for n in numbers},
                        wire_density={n: float(lower[n][i, j]) for n in numbers},
                        targets={
                            n: float(initial_plan.target(n)[i, j]) for n in numbers
                        },
                    )
                    for i, j in keys
                ]
                windows_selected += len(tasks)
                if workers == 1 or len(tasks) <= 1:
                    pairs = _generate_shard(shared, tasks)
                else:
                    from ..parallel import run_sharded, shard_items

                    shards = shard_items(tasks, workers)
                    pairs = [
                        pair
                        for shard_pairs in run_sharded(
                            _generate_shard,
                            shared,
                            shards,
                            workers=workers,
                            backend=config.parallel,
                            label="candidates.shard",
                            sanitize=config.sanitize,
                        )
                        for pair in shard_pairs
                    ]
                band_cands = dict(pairs)
                for (i, j), per_layer in band_cands.items():
                    for n, rects in per_layer.items():
                        cand_area[n][i, j] = float(
                            sum(r.area for r in rects)
                        )
                        num_candidates += len(rects)
                path = os.path.join(workdir, f"cands-band{band:04d}.pkl")
                with open(path, "wb") as handle:
                    pickle.dump(
                        band_cands, handle, protocol=pickle.HIGHEST_PROTOCOL
                    )
                cand_paths.append(path)
            obs.count("candidates.windows_selected", windows_selected)
            obs.count("engine.candidates", num_candidates)

        # --------------------------------------------------------------
        # Replanning — the engine's second planning round; kept fill
        # counts as deliverable density in untouched windows.
        with obs.span("replanning"):
            warea = window_area_map(grid)
            final_plan, per_layer_target = replan_targets(
                grid,
                analysis,
                cand_area,
                {
                    n: kept_area[n] / warea if n in kept_area else 0.0
                    for n in numbers
                },
                objective,
                td_step=config.td_step,
            )

        # --------------------------------------------------------------
        # Sweep C — sizing per band; new fills spill per band per layer
        # in grid order, which is exactly the insertion order of the
        # in-memory engine.
        with obs.span("sizing"):
            sizing_margin = halo
            for band in range(plan.num_bands):
                with open(cand_paths[band], "rb") as handle:
                    band_cands = pickle.load(handle)
                indexes = _band_indexes(
                    _band_wires(wires_spill, band, numbers), die
                )
                shared_sizing = _SharedSizing(
                    rules=rules,
                    config=config,
                    margin=sizing_margin,
                    layer_numbers=numbers,
                    wire_indexes=indexes,
                )
                sizing_tasks: List[_SizingTask] = []
                for key in _band_window_keys(plan, band, None):
                    cands = band_cands.get(key, {})
                    if not any(cands.values()):
                        continue
                    i, j = key
                    sizing_tasks.append(
                        _SizingTask(
                            key=key,
                            window=grid.window(i, j),
                            candidates=cands,
                            targets={
                                n: float(per_layer_target[n][i, j])
                                for n in numbers
                            },
                        )
                    )
                if workers == 1 or len(sizing_tasks) <= 1:
                    triples = _size_shard(shared_sizing, sizing_tasks)
                else:
                    from ..parallel import run_sharded, shard_items

                    shards = shard_items(sizing_tasks, workers)
                    triples = [
                        triple
                        for shard_triples in run_sharded(
                            _size_shard,
                            shared_sizing,
                            shards,
                            workers=workers,
                            backend=config.parallel,
                            label="sizing.shard",
                            sanitize=config.sanitize,
                        )
                        for triple in shard_triples
                    ]
                sized_by_key: Dict[WindowKey, Dict[int, List[Rect]]] = {}
                for key, sized, stats in triples:
                    sized_by_key[key] = sized
                    total_sizing.merge(stats)
                band_spool = LayerSpool(
                    workdir, f"new-band{band:04d}", flush_records=flush
                )
                for key in _band_window_keys(plan, band, None):
                    sized = sized_by_key.get(key)
                    if not sized:
                        continue
                    for n, rects in sized.items():
                        for rect in rects:
                            band_spool.add(
                                n,
                                FILL_DATATYPE,
                                check_rect(
                                    rect, name=f"fill on layer {n}"
                                ),
                            )
                        num_fills += len(rects)
                band_spool.finish()
                new_spools.append(band_spool)
                release_solver_caches()
            obs.metrics.counter("sizing.dropped_fills").inc(
                total_sizing.dropped_fills
            )
            obs.count("engine.lp_solves", total_sizing.lp_solves)
            obs.count("engine.dropped_fills", total_sizing.dropped_fills)
            obs.count("engine.fills", num_fills)

    # ------------------------------------------------------------------
    # DRC — per band: every fill the band owns against the band's wires.
    with obs.span("drc"):
        violations: List[DrcViolation] = []
        for band in range(plan.num_bands):
            band_wires = _band_wires(wires_spill, band, numbers)
            owned: Dict[int, List[Rect]] = {n: [] for n in numbers}
            for n, _datatype, rect in owned_spill.read(band):
                owned[n].append(rect)
            for n in numbers:
                fills = owned[n]
                if new_spools:
                    fills = fills + list(
                        new_spools[band].read(n, FILL_DATATYPE)
                    )
                if not fills:
                    continue
                violations.extend(
                    check_fills(fills, band_wires[n], rules)
                )

    # ------------------------------------------------------------------
    # Write — stream the filled layout out: die outline, then per layer
    # wires (input order, ECO wires appended), kept fills (input
    # order), new fills (grid order via ascending bands).
    with obs.span("io.write"):
        own_stream = isinstance(output, (str, os.PathLike))
        stream: BinaryIO = (
            open(output, "wb") if own_stream else output  # type: ignore[arg-type]
        )
        try:
            # Both writers take (layer, datatype) shape groups; the die
            # outline is a group of one.
            writer: Union[GdsiiStreamWriter, OasisStreamWriter] = (
                GdsiiStreamWriter(stream)
                if output_format == "gdsii"
                else OasisStreamWriter(stream)
            )
            writer.rectangles(DIE_LAYER, WIRE_DATATYPE, [die])
            for n in numbers:
                if include_wires:
                    writer.rectangles(
                        n, WIRE_DATATYPE, spool.read(n, WIRE_DATATYPE)
                    )
                writer.rectangles(
                    n,
                    FILL_DATATYPE,
                    chain(
                        kept_spool.read(n, FILL_DATATYPE),
                        *(
                            band_spool.read(n, FILL_DATATYPE)
                            for band_spool in new_spools
                        ),
                    ),
                )
            bytes_written = writer.close()
        finally:
            if own_stream:
                stream.close()

    bytes_spilled = (
        spool.bytes_spilled
        + wires_spill.bytes_spilled
        + owned_spill.bytes_spilled
        + kept_spool.bytes_spilled
        + sum(s.bytes_spilled for s in new_spools)
    )
    chunks = (
        spool.chunks
        + wires_spill.chunks
        + owned_spill.chunks
        + kept_spool.chunks
        + sum(s.chunks for s in new_spools)
    )
    obs.metrics.counter("stream.bytes_spilled").inc(bytes_spilled)
    obs.metrics.counter("stream.chunks").inc(chunks)

    return StreamReport(
        num_wires=num_wires,
        kept_fills=kept_fills,
        removed_fills=removed_fills,
        num_candidates=num_candidates,
        num_fills=num_fills,
        bands=plan.num_bands,
        bytes_spilled=bytes_spilled,
        chunks=chunks,
        bytes_written=bytes_written,
        initial_plan=initial_plan,
        final_plan=final_plan,
        sizing=total_sizing,
        violations=violations,
    )
