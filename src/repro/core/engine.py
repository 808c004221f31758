"""End-to-end dummy fill insertion engine (paper Fig. 3).

Runs the full flow on a layout:

1. **density analysis** — wire densities, feasible fill regions and
   density bounds per window (§2.2, §3.1 preliminaries),
2. **density planning** — per-layer target density td (§3.1),
3. **candidate fill generation** — Alg. 1 (§3.2),
4. **density planning, second round** — re-plan against what the
   candidates can actually deliver ("another round of density planning
   is performed due to the inconsistency between candidate fills and
   initial plans"),
5. **dummy fill insertion** — shrink candidates to final sizes via the
   alternating LP / dual-MCF relaxation (§3.3) and commit them to the
   layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..contracts import check_drc_params, check_rect
from ..density.analysis import LayerDensity, analyze_layout, window_area_map
from ..density.scoring import ScoreWeights
from ..geometry import GridIndex
from ..layout import Layout, WindowGrid
from .candidates import candidate_area_maps, generate_candidates
from .config import FillConfig
from .planner import DensityPlan, PlannerObjective, plan_targets
from .sizing import SizingStats, size_fills

__all__ = ["FillReport", "DummyFillEngine", "insert_fills", "replan_targets"]

logger = logging.getLogger(__name__)

WindowKey = Tuple[int, int]


@dataclass
class FillReport:
    """Everything the engine learned while filling a layout."""

    initial_plan: DensityPlan
    final_plan: DensityPlan
    num_candidates: int
    num_fills: int
    sizing: SizingStats
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
            f"LP solves={self.sizing.lp_solves}, dropped={self.sizing.dropped_fills}; "
            f"{stages}"
        )


class DummyFillEngine:
    """The high-performance fill insertion framework of the paper.

    Construct with a :class:`~repro.core.config.FillConfig` (and
    optionally the benchmark's :class:`~repro.density.ScoreWeights`,
    which tune the density planner's objective), then call :meth:`run`
    on a layout.  The engine mutates the layout by adding fills and
    returns a :class:`FillReport`.
    """

    def __init__(
        self,
        config: Optional[FillConfig] = None,
        weights: Optional[ScoreWeights] = None,
    ):
        self.config = config if config is not None else FillConfig()
        self.objective = (
            PlannerObjective.from_score_weights(weights)
            if weights is not None
            else PlannerObjective()
        )

    def run(
        self,
        layout: Layout,
        grid: WindowGrid,
        windows: Optional[Sequence[WindowKey]] = None,
        *,
        analysis: Optional[Mapping[int, LayerDensity]] = None,
        wire_indexes: Optional[Mapping[int, "GridIndex[int]"]] = None,
    ) -> FillReport:
        """Execute the Fig. 3 flow; fills are committed to ``layout``.

        ``windows`` restricts candidate generation, sizing and
        insertion to the given window keys while density analysis and
        target planning stay global — the incremental mode the ECO
        flow (:mod:`repro.eco`) uses to re-fill only changed windows.

        ``analysis`` supplies a precomputed global density analysis
        (one that matches the layout's wires and this config's
        ``effective_margin``) and skips the analysis stage entirely;
        ``wire_indexes`` supplies prebuilt per-layer wire indexes for
        candidate generation.  Both are the session-reuse hooks of
        :mod:`repro.service` — with valid caches the output is
        bit-identical to a cold run.
        """
        config = self.config
        check_drc_params(layout.rules, name="layout.rules")
        collector = obs.profile.active_collector()

        with obs.span("engine.run") as run_span:
            if collector is not None:
                run_span.annotate(profile_period_ms=collector.period_ms)
            with obs.span("analysis") as analysis_span:
                if analysis is None:
                    margin = config.effective_margin(layout.rules.min_spacing)
                    analysis = analyze_layout(
                        layout,
                        grid,
                        window_margin=margin,
                        workers=config.effective_workers(),
                        parallel=config.parallel,
                        sanitize=config.sanitize,
                    )
                else:
                    analysis_span.annotate(reused=True)
                obs.count("engine.layers", len(analysis))
                obs.count("engine.windows", grid.num_windows)

            with obs.span("planning"):
                initial_plan = plan_targets(
                    analysis, self.objective, td_step=config.td_step
                )
            logger.info(
                "planned targets: %s",
                {n: round(p.td, 3) for n, p in initial_plan.layers.items()},
            )

            with obs.span("candidates"):
                candidates = generate_candidates(
                    layout,
                    grid,
                    initial_plan,
                    analysis,
                    config,
                    windows=windows,
                    wire_indexes=dict(wire_indexes) if wire_indexes else None,
                )
                num_candidates = sum(
                    len(rects)
                    for per_layer in candidates.values()
                    for rects in per_layer.values()
                )
                obs.count("engine.candidates", num_candidates)

            with obs.span("replanning"):
                final_plan, target_areas = replan_targets(
                    grid,
                    analysis,
                    candidate_area_maps(candidates, grid, layout.layer_numbers),
                    _existing_fill_density(layout, grid),
                    self.objective,
                    td_step=config.td_step,
                )
                targets = {
                    (i, j): {n: float(target_areas[n][i, j]) for n in analysis}
                    for i, j, _ in grid
                }

            logger.info("generated %d candidate fills", num_candidates)

            with obs.span("sizing"):
                sized, stats = size_fills(layout, grid, candidates, targets, config)
                obs.count("engine.lp_solves", stats.lp_solves)
                obs.count("engine.dropped_fills", stats.dropped_fills)
            logger.info(
                "sizing: %d LP solves, %d fills dropped",
                stats.lp_solves,
                stats.dropped_fills,
            )

            with obs.span("insertion"):
                num_fills = 0
                for per_layer in sized.values():
                    for layer_number, rects in per_layer.items():
                        layout.layer(layer_number).add_fills(
                            check_rect(r, name=f"fill on layer {layer_number}")
                            for r in rects
                        )
                        num_fills += len(rects)
                obs.count("engine.fills", num_fills)

        if collector is not None:
            # CPU attribution next to the wall time: how many profiler
            # samples landed inside each stage (incl. shard workers)
            per_stage = collector.stage_sample_counts("engine.run")
            for child in run_span.children:
                child.annotate(profile_samples=per_stage.get(child.name, 0))

        return FillReport(
            initial_plan=initial_plan,
            final_plan=final_plan,
            num_candidates=num_candidates,
            num_fills=num_fills,
            sizing=stats,
            stage_seconds={c.name: c.seconds for c in run_span.children},
        )

    # ------------------------------------------------------------------
    def run_streaming(
        self,
        source,
        output,
        rules,
        *,
        cols: int,
        rows: int,
        memory_budget: Optional[int] = None,
        bands: Optional[int] = None,
        eco_wires=None,
        output_format: str = "gdsii",
        include_wires: bool = True,
        work_dir: Optional[str] = None,
    ):
        """Run the flow out-of-core on a GDSII stream (bounded memory).

        The streaming counterpart of :meth:`run`: ``source`` is a
        GDSII path/bytes/stream rather than a loaded layout, the die
        is swept in window-column bands sized to ``memory_budget``
        (or an explicit ``bands`` count), and the filled layout is
        written straight to ``output``.  Output bytes are identical
        to loading the layout, calling :meth:`run` and serialising —
        see :func:`repro.core.stream.stream_fill` for the contract.
        """
        from .stream import stream_fill

        return stream_fill(
            source,
            output,
            rules,
            cols=cols,
            rows=rows,
            config=self.config,
            objective=self.objective,
            memory_budget=memory_budget,
            bands=bands,
            eco_wires=eco_wires,
            output_format=output_format,
            include_wires=include_wires,
            work_dir=work_dir,
        )


def _existing_fill_density(
    layout: Layout, grid: WindowGrid
) -> Dict[int, Union[np.ndarray, float]]:
    """Density of the fill already committed to each layer."""
    from ..density.analysis import fill_density_map

    return {
        n: fill_density_map(layout.layer(n), grid) if layout.layer(n).num_fills else 0.0
        for n in layout.layer_numbers
    }


def replan_targets(
    grid: WindowGrid,
    analysis: Mapping[int, LayerDensity],
    candidate_area: Mapping[int, np.ndarray],
    existing_fill: Mapping[int, Union[np.ndarray, float]],
    objective: PlannerObjective,
    *,
    td_step: float,
) -> Tuple[DensityPlan, Dict[int, np.ndarray]]:
    """Second planning round with candidate-limited upper bounds.

    A window can deliver its candidates (``candidate_area``, per-layer
    area maps) *plus* any fill already committed to it
    (``existing_fill``, per-layer density maps, or ``0.0`` for a layer
    without fill) — the latter matters in the window-restricted (ECO)
    mode, where untouched windows carry their existing fill and must
    not read as zero-capacity, which would drag the re-planned target
    below the surrounding density.

    Returns the re-planned targets and, per layer, the fill area to
    keep in each window: ``max(0, dt − l) · aw`` of Eqn. (9b), which
    the sizing stage consumes.  Both the in-memory engine and the
    streaming driver call this, so their plans cannot drift.
    """
    area = window_area_map(grid)
    window_area = area.astype(np.float64)
    updated: Dict[int, LayerDensity] = {}
    for n, ld in analysis.items():
        upper = np.minimum(
            1.0, ld.lower + existing_fill[n] + candidate_area[n] / window_area
        )
        updated[n] = LayerDensity(
            layer_number=n,
            lower=ld.lower,
            upper=upper,
            fill_regions=ld.fill_regions,
        )
    plan = plan_targets(updated, objective, td_step=td_step)
    targets = {
        n: np.maximum(0.0, plan.target(n) - ld.lower) * area
        for n, ld in analysis.items()
    }
    return plan, targets


def insert_fills(
    layout: Layout,
    grid: WindowGrid,
    config: Optional[FillConfig] = None,
    weights: Optional[ScoreWeights] = None,
) -> FillReport:
    """One-call convenience API: fill ``layout`` in place."""
    return DummyFillEngine(config, weights).run(layout, grid)
