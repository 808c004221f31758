"""The four benchmark workloads: their inputs and fixed program settings.

Each workload has one fixed layout, given to the program as GDSII
bytes; on ``eco-session`` the ``--seed`` drives the stream of
single-wire ECO requests.  Each workload also fixes how the program is
driven.  The program only ever sees those inputs; the generator specs,
window grids and calibrated score weights stay on the benchmark side.

Shared by ``run.py`` (input generation, verification, scoring) and
``measure.py`` (the timed workload process).  Importing this module
needs ``repro`` on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import repro.density.scoring as scoring
from repro.bench.generator import LayoutSpec, generate_layout
from repro.bench.suite import SUITE_SPECS, calibrate_weights
from repro.density.raster import raster_overlay_map
from repro.density.scoring import ScoreWeights, score_layout
from repro.gdsii import file_size_mb
from repro.layout import DrcRules, Layout, WindowGrid

__all__ = [
    "ECO_QUALITY_REQUEST",
    "ECO_WIRES",
    "SETUP_REPEATS",
    "STREAM_BANDS",
    "STREAM_WORKERS",
    "WORKLOADS",
    "Workload",
    "eco_wires",
    "quality",
    "rules_mapping",
]

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: band count and pool size of ``stream-w2`` (the box has 2 cores)
STREAM_BANDS = 4
STREAM_WORKERS = 2
#: ECO requests generated per seed; a run stops at the clock long before
ECO_WIRES = 2000
#: ``eco-session`` scores the GDSII returned by this request (1-based),
#: so its quality depends on the seed only, not on how many requests
#: fit in the run
ECO_QUALITY_REQUEST = 10


@dataclass(frozen=True)
class Workload:
    """One workload: which layout, which grid, how it is driven."""

    name: str
    #: ``"fill"`` (in-memory engine), ``"stream"`` or ``"eco"``
    kind: str
    #: the suite entry whose rules and score betas are used
    suite: str
    windows: Tuple[int, int]
    #: layout spec overrides applied to the suite spec, seed included
    overrides: Tuple[Tuple[str, object], ...] = ()

    def spec(self) -> LayoutSpec:
        base = SUITE_SPECS[self.suite][0]
        return dataclasses.replace(base, name=self.name, **dict(self.overrides))

    @property
    def rules(self) -> DrcRules:
        return SUITE_SPECS[self.suite][0].rules

    def layout(self) -> Layout:
        return generate_layout(self.spec())

    def grid(self, layout: Layout) -> WindowGrid:
        return WindowGrid(layout.die, *self.windows)

    def weights(self, layout: Layout) -> ScoreWeights:
        """Suite-calibrated Eqn. (3) weights for the unfilled layout."""
        _, _, runtime_beta, memory_beta = SUITE_SPECS[self.suite]
        return calibrate_weights(
            layout, self.grid(layout), runtime_beta, memory_beta
        )


#: suite ``m`` at a quarter of its area: die 6000 with 12x12 windows of
#: 500 DBU, the suite's window size, and the wire, bus and macro counts
#: scaled with the area.  A full suite ``m`` fill takes 9-11 s on a
#: 2-vCPU guest, longer than one run; at this size a run times several
#: warm fills after its warm-up.  The layout is the suite seed's: over
#: generator seeds 1-10 its quality spreads by 8 % (IQR/median), close
#: to the metric's bound, which would swamp the program's own changes.
_M_QUARTER = (
    ("die_size", 6000),
    ("num_cell_rects", 1050),
    ("num_bus_bundles", 5),
    ("num_macros", 2),
    ("cold_windows", 1),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Paper Table 3 setting with small windows: sizing/netflow do
        # about half the work, candidates about a fifth, planning ~0.
        Workload("contest-m", "fill", "m", (12, 12), overrides=_M_QUARTER),
        # 4x4 windows of 1250 DBU with no macros and no hotspot stripes,
        # so every window takes planner Case I and the Case-I sort key
        # (geometry.intersection_area over the shared region) dominates
        # candidate generation.  The ROADMAP's `--die 16000 --wires
        # 2000` recipe does not reproduce this: at seed 2014 it spends
        # only 2.6 s of 8 s in candidates.  Case I plans one target for
        # the whole die from its densest window, so across generator
        # seeds the fill volume of a die this small swings widely; the
        # layout stays the suite seed's.
        Workload(
            "large-window",
            "fill",
            "m",
            (4, 4),
            overrides=(
                ("die_size", 5000),
                ("num_cell_rects", 425),
                ("num_bus_bundles", 2),
                ("bus_wires_per_bundle", 8),
                ("num_macros", 0),
                ("hotspot_columns", ()),
                ("cold_windows", 1),
            ),
        ),
        # Small writes into a filled layout: each request dirties 1-2
        # windows, yet global replanning and the full GDSII rewrite
        # dominate.  Unlike the fill workloads it keeps the solver
        # cache warm between operations, as session users do.  The
        # session holds the suite `b` layout itself.
        Workload("eco-session", "eco", "b", (16, 16)),
        # The only workload through gdsii.stream, layout.spill and the
        # process-pool executor (a new pool per stage and band); same
        # layout as contest-m.
        Workload("stream-w2", "stream", "m", (12, 12), overrides=_M_QUARTER),
    )
}


def eco_wires(seed: int, die_size: int, count: int = ECO_WIRES) -> List[Dict[str, list]]:
    """The seeded ECO request stream: one new wire per request.

    Wires follow the generator's standard-cell shape on each layer's
    preferred direction and always lie inside the die.  Each entry is
    the ``wires`` payload of one ``eco_delta`` request.
    """
    rng = random.Random(seed * 7919 + 17)
    out: List[Dict[str, list]] = []
    for _ in range(count):
        layer = rng.randint(1, 3)
        if layer % 2 == 1:
            w, h = rng.randrange(60, 400), rng.randrange(16, 60)
        else:
            w, h = rng.randrange(16, 60), rng.randrange(60, 400)
        x = rng.randrange(0, die_size - w)
        y = rng.randrange(0, die_size - h)
        out.append({str(layer): [[x, y, x + w, y + h]]})
    return out


def rules_mapping(rules: DrcRules) -> Dict[str, int]:
    """The ``open_session`` rules payload for a suite rule deck."""
    if rules.max_fill_width != rules.max_fill_height:
        raise ValueError("the service takes one max_fill edge for both axes")
    return {
        "min_spacing": rules.min_spacing,
        "min_width": rules.min_width,
        "min_area": rules.min_area,
        "max_fill": rules.max_fill_width,
    }


def quality(layout: Layout, grid: WindowGrid, weights: ScoreWeights, size_bytes: int) -> float:
    """Eqn. (3) quality of a filled layout, as ``score_layout`` scores it.

    While scoring, the overlay term is summed from the raster overlay
    map, which equals the rect-set overlay exactly but takes about a
    second instead of tens of seconds on a 20k-fill layout.
    """

    def raster_fill_overlay(filled: Layout) -> Dict[Tuple[int, int], int]:
        return {
            (lo.number, hi.number): int(raster_overlay_map(lo, hi, grid).sum())
            for lo, hi in filled.adjacent_pairs()
        }

    original = scoring.fill_overlay_area
    scoring.fill_overlay_area = raster_fill_overlay
    try:
        card = score_layout(layout, grid, weights, file_size=file_size_mb(size_bytes))
    finally:
        scoring.fill_overlay_area = original
    return card.quality
