"""frameparse benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload parse-greedy --seed 3 --seconds 12 --trace 0

Workloads: train, parse-greedy, parse-beam5, corpus (see workloads.py).
Set-up (input generation, the corpus shape check, model loading and an
untimed warm-up) runs ``workload.setups`` times and ``setup_s`` is its
median.  The timed loop then runs until ``--seconds`` have passed and the
workload's minimum operation count is reached.

With ``--trace 0`` the last line of output holds the end-to-end metrics
named in BENCHMARK.json.  The line before it holds the same figures under
workload-specific names, plus the output quality (exact match or loss),
the uncalibrated throughput and the machine-speed scale.  All timings are
scaled by calibration.py's reference kernel, measured next to each window
of work (each lap, for set-up and for a corpus pass).

With ``--trace 1`` the run alternates untraced and traced passes over a
fixed set of units until ``--seconds`` have passed.  It checks that both
give bit-identical outputs, and reports per span name the calls and self
milliseconds of one traced pass (the median over passes), the decode
counters, and ``trace_overhead_pct``.  The spans of the last traced pass
are written to ``.perfbench_out/<workload>.spans.tsv``.
"""

from __future__ import annotations

import os

# One thread: BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.calibration import Calibration, LapTimer, NoCalibration  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
# Timings are calibrated per window of at least this much timed work, and
# throughput is the median of the windows' rates.
WINDOW_SECONDS = 0.5


def _import_package():
    if not (SRC / "frameparse" / "__init__.py").is_file():
        raise SystemExit(f"frameparse sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import frameparse

    if Path(frameparse.__file__).resolve().parent != (SRC / "frameparse").resolve():
        raise SystemExit(f"frameparse imported from {frameparse.__file__}, not from {SRC}")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def set_up(workload, seed: int, workdir: Path) -> float:
    durations = []
    for _ in range(workload.setups):
        timer = LapTimer(workload.calibration)
        workload.setup(seed, workdir, timer)
        timer.lap()
        durations.append(timer.scaled_ns / 1e9)
    return statistics.median(durations)


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops: int, check) -> None:
        self.attempted += ops
        self.failed += check.failed
        if check.problems and len(self.problems) < 5:
            self.problems.extend(check.problems)

    def run_checked(self, run, check, k: int):
        """Run and check one unit; an exception fails the unit's ops."""
        try:
            unit = run(k)
        except Exception:  # the benchmark keeps running and reports it
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None, None
        result = check(k, unit.output)
        self.add(unit.ops, result)
        return unit, result


def measure(workload, seconds: float, setup_s: float) -> tuple:
    calibration = workload.calibration if workload.calibrated else NoCalibration()
    tally = Tally()
    latencies, rates, raw_rates, scales, quality = [], [], [], [], []
    window = []

    def close_window():
        scale = calibration.factor()
        ops = sum(unit.ops for unit in window)
        raw_s = sum(unit.raw_busy_ns for unit in window) / 1e9
        busy_s = sum(unit.busy_ns for unit in window) * scale / 1e9
        raw_rates.append(ops / raw_s)
        rates.append(ops / busy_s)
        scales.append(busy_s / raw_s)
        latencies.extend(ns * scale for unit in window for ns in unit.latencies_ns)
        window.clear()

    start = perf_counter()
    k = 0
    while True:
        unit, result = tally.run_checked(workload.run_unit, workload.check_unit, k)
        k += 1
        if unit is not None:
            window.append(unit)
            quality.extend(result.quality)
            if sum(u.busy_ns for u in window) >= WINDOW_SECONDS * 1e9:
                close_window()
        done = tally.attempted >= workload.min_ops
        if done and perf_counter() - start >= seconds:
            break
        if tally.failed > 100:  # a broken program: stop early, the result says so
            break
    if window:
        close_window()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = [ns / 1e6 for ns in latencies]
    throughput = statistics.median(rates) if rates else float("nan")
    p50 = percentile(ms, 50) if ms else float("nan")
    tail = percentile(ms, workload.tail_pct) if ms else float("nan")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "throughput_per_s": metric(throughput, "1/s"),
        "latency_p50_ms": metric(p50, "ms"),
        "latency_tail_ms": metric(tail, "ms"),
    }
    prefix = workload.prefix
    detail = {
        f"{prefix}_{workload.unit_name}_per_s": metric(throughput, "1/s"),
        f"{prefix}_latency_p50_ms": metric(p50, "ms"),
        f"{prefix}_latency_p{workload.tail_pct}_ms": metric(tail, "ms"),
        f"{prefix}_latency_samples": metric(len(ms), "count"),
        f"{prefix}_raw_{workload.unit_name}_per_s": metric(
            statistics.median(raw_rates) if raw_rates else float("nan"), "1/s"),
        "machine_speed_scale": metric(statistics.median(scales) if scales else float("nan"), ""),
    }
    if workload.quality_ops:
        samples = quality[: workload.quality_ops]
        value = statistics.fmean(samples) if samples else float("nan")
        if len(samples) < workload.quality_ops:
            tally.problems.append("fewer operations than the quality window")
        elif workload.quality_floor is not None and not value >= workload.quality_floor:
            tally.problems.append(f"{workload.quality_name} {value} below {workload.quality_floor}")
        detail[f"{prefix}_{workload.quality_name}"] = metric(value, workload.quality_unit)
    return tally, metrics, detail


def trace(workload, seconds: float) -> tuple:
    from perfbench.tracer import SPAN_NAMES, Tracer
    from frameparse.transitions import oracle

    calibration = workload.calibration  # a traced pass is short enough for one scale
    tracer = Tracer()
    tally = Tally()
    untraced_s, traced_s, summaries = [], [], []
    start = perf_counter()
    while True:
        timings = []
        outputs = []
        for traced in (False, True):
            workload.reset()
            tracer.reset()
            runs = []
            calibration.factor()  # start the interval here
            begin = perf_counter()
            if traced:
                with tracer.installed():
                    for k in range(workload.trace_units):
                        tracer.request_id = k
                        runs.append(workload.trace_unit(k))
            else:
                for k in range(workload.trace_units):
                    runs.append(workload.trace_unit(k))
            scale = calibration.factor()
            timings.append((perf_counter() - begin) * scale)
            for k, unit in enumerate(runs):
                tally.add(unit.ops, workload.check_trace_unit(k, unit.output))
            outputs.append([unit.output for unit in runs])
        if outputs[0] != outputs[1]:
            tally.problems.append("traced outputs differ from untraced outputs")
            tally.failed += 1
        untraced_s.append(timings[0])
        traced_s.append(timings[1])
        summary = tracer.summary()
        for span in summary.values():
            span["self_ms"] *= scale
        summaries.append(summary)
        if len(summaries) >= 2 and perf_counter() - start >= seconds:
            break
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{workload.name}.spans.tsv")

    metrics = {}
    for name in SPAN_NAMES:
        calls = {s[name]["calls"] for s in summaries}
        if len(calls) != 1:
            tally.problems.append(f"{name}: call count differs between traced passes")
        metrics[f"{name}.calls"] = metric(summaries[-1][name]["calls"], "count")
        metrics[f"{name}.self_ms"] = metric(
            statistics.median(s[name]["self_ms"] for s in summaries), "ms")
    last = summaries[-1]
    steps = winner = 0.0
    if workload.name.startswith("parse-"):
        utterances = workload.trace_units
        steps = last["rnng.encode_state"]["calls"] / utterances
        best_lengths = sum(len(oracle(out[0][0])) for out in outputs[1])
        winner = best_lengths / last["rnng.advance"]["calls"]
    metrics["rnng.decode_steps_per_utt"] = metric(steps, "count")
    metrics["rnng.beam.winner_steps_per_advance"] = metric(winner, "ratio")
    overhead = 100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0)
    metrics["trace_overhead_pct"] = metric(overhead, "%")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_package()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](Calibration())
    workdir = OUT_DIR / args.workload
    setup_s = set_up(workload, args.seed, workdir)
    if args.trace:
        tally, metrics = trace(workload, args.seconds)
    else:
        tally, metrics, detail = measure(workload, args.seconds, setup_s)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
