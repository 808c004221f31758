"""Service acceptance tests: CLI-path byte-equality and incrementality.

The issue's bar: a batch of >= 8 mixed requests against one session must
produce byte-identical GDSII to fresh one-shot engine invocations on the
same inputs, at one worker and at four, and ``eco_delta`` must provably
re-process only the windows its wire change dirtied (asserted via the
per-request span counters in a run record).
"""

import random

import pytest

from repro import obs
from repro.core import DummyFillEngine, FillConfig
from repro.eco import apply_eco, build_fill_indexes, wires_from_json
from repro.gdsii import gdsii_bytes, layout_from_gdsii
from repro.geometry import Rect
from repro.layout import WindowGrid
from repro.service import FillService, ServiceClient

from .conftest import CONFIG_MAPPING, RULES, RULES_MAPPING

ECO_1 = {"1": [[50, 50, 250, 90]]}
ECO_2 = {"1": [[700, 700, 800, 760]], "2": [[100, 700, 200, 760]]}


def _reference_chain(gds_bytes):
    """The serial one-shot path: fill, then two cold ECOs, no caches."""
    config = FillConfig.from_mapping(CONFIG_MAPPING)
    layout = layout_from_gdsii(gds_bytes, RULES)
    grid = WindowGrid(layout.die, 4, 4)
    DummyFillEngine(config).run(layout, grid)
    fill_gds = gdsii_bytes(layout)
    apply_eco(
        layout, grid, {1: [Rect(50, 50, 250, 90)]}, config
    )
    eco1_gds = gdsii_bytes(layout)
    apply_eco(
        layout,
        grid,
        {1: [Rect(700, 700, 800, 760)], 2: [Rect(100, 700, 200, 760)]},
        config,
    )
    eco2_gds = gdsii_bytes(layout)
    return fill_gds, eco1_gds, eco2_gds


@pytest.mark.parametrize("workers", [1, 4])
def test_mixed_batch_matches_serial_cli_path(gds_bytes, workers):
    fill_ref, eco1_ref, eco2_ref = _reference_chain(gds_bytes)

    with FillService(workers=workers, queue_size=32) as svc:
        client = ServiceClient(svc)
        sid = client.request(
            "open_session",
            gds=gds_bytes,
            windows=4,
            rules=RULES_MAPPING,
            config=CONFIG_MAPPING,
        )["session"]
        responses = client.batch(
            [
                {"op": "fill", "session": sid},
                {"op": "score", "session": sid},
                {"op": "drc_audit", "session": sid},
                {"op": "eco_delta", "session": sid, "wires": ECO_1},
                {"op": "score", "session": sid},
                {"op": "drc_audit", "session": sid},
                {"op": "eco_delta", "session": sid, "wires": ECO_2},
                {"op": "drc_audit", "session": sid},
            ]
        )

    assert len(responses) == 8
    assert all(r["ok"] for r in responses)
    results = [r["result"] for r in responses]

    assert results[0]["gds"] == fill_ref
    assert results[3]["gds"] == eco1_ref
    assert results[6]["gds"] == eco2_ref
    # DRC stays clean through the whole chain
    assert results[2]["count"] == 0
    assert results[5]["count"] == 0
    assert results[7]["count"] == 0
    # scores moved (the ECO changed the layout) but both computed fine
    assert results[1]["scores"]["score"] > 0
    assert results[4]["scores"]["score"] > 0


def _request_span_counters(record, op):
    """Summed counters of the subtree under the op's request span."""
    spans = record.spans
    start = next(
        i
        for i, s in enumerate(spans)
        if s["name"] == "service.request" and s.get("attrs", {}).get("op") == op
    )
    totals = {}
    for span in spans[start + 1 :]:
        if span.get("depth", 0) == 0:
            break
        for name, value in span.get("counters", {}).items():
            totals[name] = totals.get(name, 0.0) + value
    for name, value in spans[start].get("counters", {}).items():
        totals[name] = totals.get(name, 0.0) + value
    return totals


def test_eco_delta_reprocesses_only_dirtied_windows(gds_bytes):
    with obs.record_run(label="eco incrementality") as rec:
        with FillService(workers=1) as svc:
            client = ServiceClient(svc)
            sid = client.request(
                "open_session",
                gds=gds_bytes,
                windows=4,
                rules=RULES_MAPPING,
                config=CONFIG_MAPPING,
            )["session"]
            client.request("fill", session=sid)
            eco = client.request("eco_delta", session=sid, wires=ECO_1)

    record = rec.record
    fill_counters = _request_span_counters(record, "fill")
    eco_counters = _request_span_counters(record, "eco_delta")

    affected = eco["affected_windows"]
    assert 0 < affected < 16  # the change did not dirty the whole grid

    # candidate generation only visited the dirtied windows
    assert fill_counters["candidates.windows_selected"] > affected
    assert eco_counters["candidates.windows_selected"] <= affected * 2
    assert (
        eco_counters["candidates.windows_selected"]
        < fill_counters["candidates.windows_selected"]
    )

    # the cached analysis was refreshed per window, not recomputed:
    # only the one changed layer's dirtied windows were touched
    assert eco_counters["analysis.refreshed_windows"] == affected
    assert eco_counters["eco.affected_windows"] == affected

    # and the fill request reused the session's analysis outright
    fill_span = next(
        s
        for s in record.spans
        if s["name"] == "service.request" and s["attrs"]["op"] == "fill"
    )
    spans_after = record.spans[record.spans.index(fill_span) + 1 :]
    analysis_spans = [
        s
        for s in spans_after
        if s["name"] == "analysis" and s.get("attrs", {}).get("reused")
    ]
    assert analysis_spans, "fill did not reuse the session's cached analysis"


def _eco_stream(count, seed=5):
    """``count`` seeded wire changes (one or two layers each) in the die."""
    rng = random.Random(seed)
    stream = []
    for _ in range(count):
        change = {}
        for layer in rng.sample([1, 2], rng.choice([1, 2])):
            x, y = rng.randrange(0, 1100), rng.randrange(0, 1150)
            change[str(layer)] = [[x, y, x + rng.randrange(20, 100), y + 30]]
        stream.append(change)
    return stream


def test_chained_eco_deltas_match_cold_runs_and_keep_the_fill_index(gds_bytes):
    """Every request of a chain on one session equals the cold one-shot
    ``apply_eco`` of the same change, byte for byte, and the session's
    fill index, kept in place across the chain, answers every query as
    a fresh build over the post-request layout does."""
    stream = _eco_stream(6)
    config = FillConfig.from_mapping(CONFIG_MAPPING)
    cold = layout_from_gdsii(gds_bytes, RULES)
    grid = WindowGrid(cold.die, 4, 4)
    DummyFillEngine(config).run(cold, grid)

    with FillService(workers=1) as svc:
        client = ServiceClient(svc)
        sid = client.request(
            "open_session",
            gds=gds_bytes,
            windows=4,
            rules=RULES_MAPPING,
            config=CONFIG_MAPPING,
        )["session"]
        client.request("fill", session=sid)
        session = svc.store.get(sid)
        kept = None
        for change in stream:
            result = client.request("eco_delta", session=sid, wires=change)
            apply_eco(cold, grid, wires_from_json(change), config)
            assert result["gds"] == gdsii_bytes(cold)

            indexes = session.fill_indexes
            assert kept is None or indexes is kept  # updated, not rebuilt
            kept = indexes
            fresh = build_fill_indexes(session.layout)
            probes = [grid.window(i, j) for i, j, _ in grid]
            probes += [Rect(x, x, x + 150, x + 90) for x in range(0, 1100, 70)]
            for number, index in indexes.items():
                assert len(index) == len(fresh[number])
                assert index.items() == fresh[number].items()
                for probe in probes:
                    assert index.query(probe) == fresh[number].query(probe)
