"""Repository benchmark: one workload, one seed, end-to-end or per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload contest-m --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``contest-m``,
``large-window``, ``eco-session`` and ``stream-w2``; ``--workload all``
runs the four in turn and exits with the worst status.  For one
workload this script

1. generates the workload's inputs (the GDSII bytes of its fixed
   layout, plus the ECO wire stream of ``--seed`` for ``eco-session``)
   into a work directory inside the checkout,
2. times ``import repro`` in fresh interpreters (part of ``setup_s``),
3. starts ``measure.py`` as the workload process, which imports and
   sets the program up, runs one untimed warm-up operation, then runs
   the workload closed-loop for ``--seconds`` (at least two timed
   operations; two untraced and two traced in a traced run),
4. verifies every output outside the timed region (0 DRC violations,
   fills inside the die, ``stream-w2`` byte-identical to the in-memory
   serial fill, every ECO response parses at the record level and the
   final audit is clean) and scores the output's Eqn. (3) quality,
5. prints a readable report (raw wall times and the host factor
   included) and, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics of
   ``probes.py`` with ``--trace 1``.

End-to-end operation times, and the program's own set-up time, are
reported at the reference host speed: each is scaled by
``calibrate.REFERENCE_S`` over the reference workload's wall time
measured next to it (see ``calibrate.py``), so the host's drifting
speed does not show as a change of the program.  ``import repro`` is
mostly loading compiled extension modules, which the reference does not
track, so its time stays as measured.

A failed check prints ``"correct": false`` and exits 1; without the
program's sources (``src/repro``) it exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
#: leaves time for verification inside a three-minute run
MEASURE_TIMEOUT_S = 120

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
)

#: end-to-end metric name -> unit (the ``--trace 0`` JSON)
END_TO_END = {
    "ref_latency_p50_ms": "ms",
    "ref_cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "tree_rss_mb": "MB",
    "quality": "score",
    "output_bytes": "bytes",
    "setup_s": "s",
}


def _import_seconds(repeats: int) -> List[float]:
    """``import repro`` wall time in fresh interpreters."""
    out = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _measure(workload: str, work: Path, seconds: float, trace: int) -> Dict[str, Any]:
    tmp = work / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp))
    done = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--workload", workload,
         "--work", str(work), "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, timeout=MEASURE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads((work / "result.json").read_text())


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Verdict:
    """Failed operations and failed whole-run checks, with reasons."""

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failed_ops: set = set()
        self.problems: List[str] = []

    def fail_op(self, k: int, why: str) -> None:
        self.failed_ops.add(k)
        self.problems.append(f"operation {k + 1}: {why}")

    def fail(self, why: str) -> None:
        self.problems.append(why)

    @property
    def correct(self) -> bool:
        return not self.problems


def _fills_outside_die(layout: Any) -> int:
    return sum(
        1 for layer in layout.layers for f in layer.fills if not layout.die.contains(f)
    )


def _records_ok(blob: bytes) -> bool:
    """Record-level parse: framing intact, HEADER first, ENDLIB last."""
    from repro.gdsii.records import RecordType, iter_records

    kinds = [rec_type for rec_type, _, _ in iter_records(blob)]
    return bool(kinds) and kinds[0] == RecordType.HEADER and kinds[-1] == RecordType.ENDLIB


def _verify(wl: Any, data: bytes, work: Path, result: Dict[str, Any]) -> Tuple[Verdict, bytes, Any]:
    """Check every output; return the verdict and the output to score,
    as bytes and as a parsed layout."""
    from repro.core import DummyFillEngine, FillConfig
    from repro.gdsii import gdsii_bytes, layout_from_gdsii
    from workloads import ECO_QUALITY_REQUEST

    records = result["records"]
    verdict = Verdict(len(records))
    for k, rec in enumerate(records):
        if not rec["ok"]:
            verdict.fail_op(k, rec["error"])
    ok = [(k, rec) for k, rec in enumerate(records) if rec["ok"]]
    outputs = {key: (work / name).read_bytes() for key, name in result["outputs"].items()}
    layouts: Dict[str, Any] = {}
    #: output key -> the operations that returned it; a failed output
    #: check fails those operations (the initial ECO fill is set-up)
    producers: Dict[str, List[int]] = defaultdict(list)
    for k, rec in ok:
        if "sha256" in rec:
            producers[rec["sha256"]].append(k)

    if wl.kind == "eco":
        if result["drc_audit"] != 0:
            verdict.fail(f"final drc_audit reports {result['drc_audit']} violations")
        for k, rec in ok:
            try:
                parsed = _records_ok((work / rec["file"]).read_bytes())
            except ValueError as exc:
                parsed = False
                verdict.fail_op(k, f"returned GDSII does not parse: {exc}")
            else:
                if not parsed:
                    verdict.fail_op(k, "returned GDSII lacks HEADER or ENDLIB")
        if ok:
            last, nth = ok[-1], ok[min(ECO_QUALITY_REQUEST, len(ok)) - 1]
            outputs["final ECO response"] = (work / last[1]["file"]).read_bytes()
            producers["final ECO response"].append(last[0])
            scored = f"ECO response {nth[0] + 1}"
            outputs[scored] = (work / nth[1]["file"]).read_bytes()
            producers[scored].append(nth[0])
        else:
            scored = "fill"
    elif wl.kind == "stream":
        reference = layout_from_gdsii(data, wl.rules)
        DummyFillEngine(FillConfig()).run(reference, wl.grid(reference))
        expected = gdsii_bytes(reference)
        scored = next((key for key, blob in outputs.items() if blob == expected), None)
        for k, rec in ok:
            if rec["sha256"] != scored:
                verdict.fail_op(k, "streamed output differs from the in-memory serial fill")
        if scored is not None:
            layouts[scored] = reference
        # only the matching output is worth checking further
        outputs = {scored: expected} if scored is not None else {}
    else:
        scored = ok[0][1]["sha256"] if ok else None
        for k, rec in ok:
            if rec["sha256"] != scored:
                verdict.fail_op(k, "output differs from the first fill of the run")

    for k, rec in ok:
        if rec.get("drc"):
            verdict.fail_op(k, f"{rec['drc']} DRC violations")

    def fail_output(key: str, why: str) -> None:
        for k in producers[key]:
            verdict.fail_op(k, why)
        if not producers[key]:
            verdict.fail(f"output {key}: {why}")

    for key, blob in outputs.items():
        try:
            layout = layouts.get(key) or layout_from_gdsii(blob, wl.rules)
        except ValueError as exc:
            fail_output(key, f"output does not parse: {exc}")
            continue
        layouts[key] = layout
        outside = _fills_outside_die(layout)
        if outside:
            fail_output(key, f"{outside} fills outside the die")
        if wl.kind == "stream":
            violations = len(layout.check_drc())
            if violations:
                fail_output(key, f"{violations} DRC violations")
    if scored not in layouts:
        verdict.fail("no verified output to score")
        return verdict, b"", None
    return verdict, outputs[scored], layouts[scored]


def _report_line(name: str, value: float, unit: str, n: Any) -> str:
    return f"  {name:<22} {value:>14.4f} {unit:<8} n={n}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from calibrate import REFERENCE_S
    from probes import LAYER_METRICS
    from repro.gdsii import gdsii_bytes
    from workloads import SETUP_REPEATS, WORKLOADS, eco_wires, quality

    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        return max(main(["--workload", name, *rest]) for name in WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    work = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        layout = wl.layout()
        data = gdsii_bytes(layout)
        (work / "input.gds").write_bytes(data)
        if wl.kind == "eco":
            wires = eco_wires(args.seed, layout.die.width)
            (work / "eco.json").write_text(json.dumps(wires))
        grid = wl.grid(layout)
        weights = wl.weights(layout)
        del layout

        imports = _import_seconds(SETUP_REPEATS - 1)
        result = _measure(wl.name, work, args.seconds, args.trace)
        imports.append(result["import_s"])
        verdict, scored, scored_layout = _verify(wl, data, work, result)
        score = quality(scored_layout, grid, weights, len(scored)) if scored else 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    records = [r for r in result["records"] if r["ok"]]
    warmup = [r for r in records if r["warmup"]]
    untraced = [r for r in records if not r["traced"] and not r["warmup"]]
    latency = [r["latency_s"] for r in untraced]
    cpu = [r["cpu_s"] for r in untraced]
    scale = [REFERENCE_S / r["ref_s"] for r in untraced]
    ref_latency = [t * f for t, f in zip(latency, scale)]
    ref_cpu = [t * f for t, f in zip(cpu, scale)]
    program_setup = [
        REFERENCE_S / ref * t for t, ref in zip(result["program_setup_s"], result["setup_ref_s"])
    ]
    setup = statistics.median(imports) + statistics.median(program_setup)
    shape = result.get("shape")
    if shape is not None and not shape["ok"]:
        verdict.fail(f"workload shape: {shape['message']}")

    print(f"workload {wl.name} seed {args.seed}: {len(result['records'])} operations (1 warm-up), trace={args.trace}")
    if warmup:
        print(_report_line("warmup_s (untimed)", warmup[0]["latency_s"], "s", 1))
    if latency:
        if wl.kind == "eco":
            print(_report_line("eco_p50_ms", 1000 * statistics.median(latency), "ms", len(latency)))
            print(_report_line("eco_p90_ms", 1000 * _p90(latency), "ms", len(latency)))
            print(_report_line("eco_cpu_ms", 1000 * statistics.median(cpu), "ms", len(cpu)))
            print(_report_line("fill_s (service)", statistics.median(result["service_fill_s"]), "s", len(result["service_fill_s"])))
        else:
            print(_report_line("fill_s", statistics.median(latency), "s", len(latency)))
            print(_report_line("fill_cpu_s", statistics.median(cpu), "s", len(cpu)))
        print(_report_line("host_factor", statistics.median(scale), "x", len(scale)))
        print(_report_line("ref_latency_p50_ms", 1000 * statistics.median(ref_latency), "ms", len(ref_latency)))
        print(_report_line("ref_latency_p90_ms", 1000 * _p90(ref_latency), "ms", len(ref_latency)))
        print(_report_line("ref_cpu_per_op_s", statistics.median(ref_cpu), "s", len(ref_cpu)))
    print(_report_line("peak_rss_mb", result["peak_rss_mb"], "MB", 1))
    print(_report_line("worker_rss_mb", result["worker_rss_mb"], "MB", 1))
    print(_report_line("quality", score, "score", 1))
    print(_report_line("output_bytes", len(scored), "bytes", 1))
    print(_report_line("setup_s", setup, "s", SETUP_REPEATS))
    print(_report_line("error_rate", len(verdict.failed_ops) / max(1, verdict.attempted), "ratio", verdict.attempted))
    if shape is not None:
        print(f"  shape {'ok' if shape['ok'] else 'FAILED'}: {shape['message']}")
    for problem in verdict.problems:
        print(f"  FAILED: {problem}")
    print(f"  correct: {verdict.correct}")

    if args.trace:
        layers = result["layers"]
        for name, (unit, _, moves) in LAYER_METRICS.items():
            print(f"  {name:<36} {layers[name]:>14.4f} {unit:<6} moves {moves}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, _, _) in LAYER_METRICS.items()}
    else:
        values = {
            "ref_latency_p50_ms": 1000 * statistics.median(ref_latency) if latency else 0.0,
            "ref_cpu_per_op_s": statistics.median(ref_cpu) if cpu else 0.0,
            "peak_rss_mb": result["peak_rss_mb"],
            "tree_rss_mb": result["peak_rss_mb"] + result["worker_rss_mb"],
            "quality": score,
            "output_bytes": float(len(scored)),
            "setup_s": setup,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": len(verdict.failed_ops),
        "metrics": metrics,
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
