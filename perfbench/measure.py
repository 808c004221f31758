"""The workload process: times one workload closed-loop for N seconds.

Started by ``run.py`` as its own process, so ``ru_maxrss`` and
``RUSAGE_CHILDREN`` describe the program (and its pool workers) and not
the benchmark's input generation or verification.  Reads its inputs
from the work directory (``input.gds``, ``eco.json``), writes
``result.json`` and the outputs ``run.py`` verifies::

    python3 perfbench/measure.py --workload contest-m --work DIR \\
        --seconds 12 --trace 0

The first operation is a warm-up: it is verified but left out of the
latency and CPU figures.  Before and after every operation the process
times the reference workload of ``calibrate.py``; each operation's
record carries ``ref_s``, the mean of the two samples around it, so
``run.py`` can report its times at the reference host speed.  With
``--trace 1`` the timed operations alternate between untraced and
traced (per-layer probes installed); the per-layer metrics come from
the traced ones and ``trace.overhead_pct`` from the difference of
their times at the reference host speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

_t0 = time.perf_counter()
import repro  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import repro.gdsii  # noqa: E402
import repro.core  # noqa: E402
from repro.core import DummyFillEngine, FillConfig  # noqa: E402
from repro.netflow import release_solver_caches  # noqa: E402
from repro.service import FillService, ServiceClient  # noqa: E402

import calibrate  # noqa: E402
from probes import Probe, layer_metrics, shape_check  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_REPEATS,
    STREAM_BANDS,
    STREAM_WORKERS,
    WORKLOADS,
    Workload,
    rules_mapping,
)

#: timed operations after the warm-up (of each kind in a traced run)
MIN_TIMED = 2


def _cpu_s() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _rss_mb() -> List[float]:
    """Peak RSS so far of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return [own.ru_maxrss / 1024.0, kids.ru_maxrss / 1024.0]


def _timed_loop(
    seconds: float, op: Callable[[int], Dict[str, Any]], probe: Optional[Probe]
) -> List[Dict[str, Any]]:
    """Run ``op`` once as a warm-up, then back to back for ``seconds``.

    One caller, each operation starting when the previous one returns.
    Operation 0 is the process's first, cold call into the program: it
    is verified like the others but not timed into the figures
    (``warmup``), and its record carries the peak RSS through set-up
    and that operation (``rss_mb``), which does not depend on how many
    operations fit.  After it, at least :data:`MIN_TIMED` operations
    run; with a probe they alternate untraced and traced, at least
    :data:`MIN_TIMED` of each.  A calibration sample precedes the first
    operation and follows every operation; each record gets the mean of
    the two samples around it as ``ref_s``.  The host's speed changes
    within seconds, so the samples stay next to the operation they
    scale.
    """
    records: List[Dict[str, Any]] = []
    least = MIN_TIMED if probe is None else 2 * MIN_TIMED
    start = 0.0
    k = 0
    ref_s = calibrate.sample()
    while True:
        traced = probe is not None and k > 0 and k % 2 == 0
        gc.collect()
        if traced:
            assert probe is not None
            probe.install()
            probe.mark()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            record = op(k)
            record["ok"] = True
        except Exception as exc:  # counted as a failed operation
            record = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        record["wall_s"] = time.perf_counter() - t0
        record.setdefault("latency_s", record["wall_s"])
        record["cpu_s"] = _cpu_s() - cpu0
        record["traced"] = traced
        record["warmup"] = k == 0
        if traced:
            assert probe is not None
            probe.collect()
            probe.uninstall()
        records.append(record)
        if k == 0:
            # before the calibration sample, so it covers the program only
            record["rss_mb"] = _rss_mb()
        after_s = calibrate.sample()
        record["ref_s"], ref_s = (ref_s + after_s) / 2, after_s
        if k == 0:
            start = time.perf_counter()
        elif k >= least and time.perf_counter() - start >= seconds:
            return records
        k += 1


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fill_workload(wl: Workload, data: bytes, work: Path, seconds: float, probe: Optional[Probe]) -> Dict[str, Any]:
    """contest-m / large-window: read, fill, DRC and write in memory."""
    setup_ref = calibrate.sample()
    t0 = time.perf_counter()
    config = FillConfig()
    engine = DummyFillEngine(config)
    setup = time.perf_counter() - t0
    outputs: Dict[str, bytes] = {}

    def op(k: int) -> Dict[str, Any]:
        release_solver_caches()
        layout = repro.gdsii.layout_from_gdsii(data, wl.rules)
        engine.run(layout, wl.grid(layout))
        violations = layout.check_drc()
        out = repro.gdsii.gdsii_bytes(layout)
        digest = _digest(out)
        outputs.setdefault(digest, out)
        return {"sha256": digest, "drc": len(violations)}

    records = _timed_loop(seconds, op, probe)
    return {
        "records": records,
        "program_setup_s": [setup],
        "setup_ref_s": [setup_ref],
        "outputs": outputs,
    }


def _stream_workload(wl: Workload, data: bytes, work: Path, seconds: float, probe: Optional[Probe]) -> Dict[str, Any]:
    """stream-w2: out-of-core fill with a 2-worker process pool."""
    setup_ref = calibrate.sample()
    t0 = time.perf_counter()
    config = FillConfig(workers=STREAM_WORKERS)
    setup = time.perf_counter() - t0
    outputs: Dict[str, bytes] = {}

    def op(k: int) -> Dict[str, Any]:
        release_solver_caches()
        sink = io.BytesIO()
        report = repro.core.stream_fill(
            data, sink, wl.rules, cols=wl.windows[0], rows=wl.windows[1],
            config=config, bands=STREAM_BANDS,
        )
        out = sink.getvalue()
        digest = _digest(out)
        outputs.setdefault(digest, out)
        return {"sha256": digest, "drc": len(report.violations)}

    records = _timed_loop(seconds, op, probe)
    return {
        "records": records,
        "program_setup_s": [setup],
        "setup_ref_s": [setup_ref],
        "outputs": outputs,
    }


def _eco_workload(wl: Workload, data: bytes, work: Path, seconds: float, probe: Optional[Probe]) -> Dict[str, Any]:
    """eco-session: one service session, a stream of single-wire ECOs."""
    wires = json.loads((work / "eco.json").read_text())
    setup_s: List[float] = []
    setup_ref_s: List[float] = []
    fill_s: List[float] = []
    outputs: Dict[str, bytes] = {}
    service: Optional[FillService] = None
    if probe is not None:
        probe.bind()
    after_s = calibrate.sample()
    for k in range(SETUP_REPEATS):
        if service is not None:
            service.stop()
        before_s = after_s
        t0 = time.perf_counter()
        service = FillService(workers=1).start()
        client = ServiceClient(service)
        session = client.request(
            "open_session", gds=data, rules=rules_mapping(wl.rules), windows=wl.windows[0]
        )["session"]
        t1 = time.perf_counter()
        filled = client.request("fill", session=session)
        t2 = time.perf_counter()
        after_s = calibrate.sample()
        setup_s.append(t2 - t0)
        setup_ref_s.append((before_s + after_s) / 2)
        fill_s.append(t2 - t1)
    assert service is not None
    outputs["fill"] = filled["gds"]

    def op(k: int) -> Dict[str, Any]:
        t0 = time.perf_counter()
        result = client.request("eco_delta", session=session, wires=wires[k % len(wires)])
        latency = time.perf_counter() - t0
        name = f"eco-{k + 1:05d}.gds"
        (work / name).write_bytes(result["gds"])
        return {"latency_s": latency, "file": name}

    try:
        records = _timed_loop(seconds, op, probe)
        audit = client.request("drc_audit", session=session)["count"]
    finally:
        service.stop()
    return {
        "records": records,
        "program_setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "service_fill_s": fill_s,
        "outputs": outputs,
        "drc_audit": audit,
    }


RUNNERS = {"fill": _fill_workload, "stream": _stream_workload, "eco": _eco_workload}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    data = (args.work / "input.gds").read_bytes()
    probe = Probe() if args.trace else None

    out = RUNNERS[wl.kind](wl, data, args.work, args.seconds, probe)

    peak_mb, worker_mb = out["records"][0]["rss_mb"]
    result: Dict[str, Any] = {
        "records": out["records"],
        "import_s": IMPORT_S,
        "program_setup_s": out["program_setup_s"],
        "setup_ref_s": out["setup_ref_s"],
        "service_fill_s": out.get("service_fill_s", []),
        "drc_audit": out.get("drc_audit"),
        "peak_rss_mb": peak_mb,
        "worker_rss_mb": worker_mb,
        "outputs": {},
    }
    for key, blob in out["outputs"].items():
        name = f"out-{key[:16]}.gds"
        (args.work / name).write_bytes(blob)
        result["outputs"][key] = name
    if probe is not None:
        untraced = [
            r["latency_s"] / r["ref_s"] for r in out["records"]
            if r["ok"] and not r["traced"] and not r["warmup"]
        ]
        traced = [r["latency_s"] / r["ref_s"] for r in out["records"] if r["ok"] and r["traced"]]
        overhead = 0.0
        if untraced and traced:
            overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        layers = layer_metrics(probe, worker_rss_mb=result["worker_rss_mb"], overhead_pct=overhead)
        ok, message = shape_check(wl.name, probe, layers)
        result["layers"] = layers
        result["shape"] = {"ok": ok, "message": message}
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
