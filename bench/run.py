"""Benchmark of the littlewood toolkit: one workload, one seed, one process.

    python3 bench/run.py --workload {certify,cartan,cone-report,scan}
                         --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``, single-threaded.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report with the output digest.  See ``README.md`` in
this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from speed import CALIBRATION_REF_S, calibrate, speed_factor  # noqa: E402
from tracer import PER_LAYER_METRICS, Tracer  # noqa: E402
from workloads import TMP_DIR, WORKLOADS, pass_rng  # noqa: E402

SETUP_PROBES = 5  # measured set-up processes per run, after one warm-up
MIN_PASSES = 3  # timed passes per run, even past --seconds
MIN_TRACED = 2  # (untraced, traced) pass pairs per traced run


class Tally:
    """Ops attempted and failed, and the digest of pass 0's output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None

    def record(self, workload, lw, index, inputs, prepared, output) -> None:
        outcome = workload.check(lw, inputs, prepared, output)
        self.attempted += outcome.ops
        self.failed += outcome.failed
        if index == 0:
            digest = hashlib.sha256(outcome.text.encode()).hexdigest()
            if self.digest not in (None, digest):
                self.failed += outcome.ops  # a repeat of pass 0 must give the same output
            self.digest = self.digest or digest


def measure_setup(workload, seed: int, probes: int = SETUP_PROBES) -> list[float]:
    """Set-up time of fresh interpreters on pass 0's numbers; the first
    process is a warm-up (bytecode compilation, file cache) and not kept."""
    specs = json.dumps(workload.specs(workload.inputs(pass_rng(seed, workload.name, 0))))
    times = []
    for i in range(probes + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), specs],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_pass(workload, lw, seed: int, index: int, tally: Tally, tracer: Tracer | None = None) -> float:
    """One pass: prepare, run (timed, traced when a tracer is given),
    check.  Returns the run time; an exception fails the pass's ops."""
    inputs = workload.inputs(pass_rng(seed, workload.name, index))
    prepared = workload.prepare(lw, inputs)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with tracer.span() if tracer is not None else contextlib.nullcontext():
            output = workload.run(lw, prepared)
    except Exception:
        traceback.print_exc()
        output = None
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if output is None:
        tally.attempted += workload.ops(inputs)
        tally.failed += workload.ops(inputs)
    else:
        tally.record(workload, lw, index, inputs, prepared, output)
    return elapsed


def timed_run(workload, seed: int, seconds: float, probes: int = SETUP_PROBES) -> tuple[dict, Tally, list[str]]:
    """Measure set-up, then run passes 0, 1, ... with tracing off until
    ``seconds`` have passed; return the end-to-end metrics."""
    setup = measure_setup(workload, seed, probes)
    import littlewood as lw

    tally = Tally()
    runs: list[float] = []
    calibrations = [calibrate()]
    t_end = time.perf_counter() + seconds
    while len(runs) < MIN_PASSES or time.perf_counter() < t_end:
        runs.append(run_pass(workload, lw, seed, len(runs), tally))
        calibrations.append(calibrate())
    speed = speed_factor(statistics.median(calibrations))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(runs) * speed, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_ratio": (1 - tally.failed / tally.attempted, "1"),
    }
    report = [
        f"setup_s      {metrics['setup_s'][0]:.4f} s   (median of {len(setup)} fresh interpreters: "
        + " ".join(f"{t:.3f}" for t in setup) + ")",
        f"run_s        {metrics['run_s'][0]:.4f} s   (median of {len(runs)} passes, wall-clock: "
        + " ".join(f"{t:.3f}" for t in runs) + f"; x {speed:.4f} for the calibration median "
        f"{statistics.median(calibrations) * 1000:.2f} ms, reference {CALIBRATION_REF_S * 1000:.0f} ms)",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MiB",
        f"ok_ratio     {metrics['ok_ratio'][0]:.6f}   (fail_ratio {tally.failed}/{tally.attempted})",
    ]
    return metrics, tally, report


def traced_run(workload, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    """Trace set-up once, warm pass 0 up untraced, then alternate untraced
    and traced runs of pass 0 until ``seconds`` have passed.  Counts are
    from warm caches and repeat exactly; times are medians."""
    import littlewood as lw
    from setup_probe import ready_numbers

    setup_tracer = Tracer()
    specs = workload.specs(workload.inputs(pass_rng(seed, workload.name, 0)))
    setup_tracer.install()
    try:
        with setup_tracer.span():
            ready_numbers(lw, specs)
    finally:
        setup_tracer.uninstall()

    tally = Tally()
    run_pass(workload, lw, seed, 0, tally)
    untraced: list[float] = []
    tracers: list[Tracer] = []
    t_end = time.perf_counter() + seconds
    while len(tracers) < MIN_TRACED or time.perf_counter() < t_end:
        untraced.append(run_pass(workload, lw, seed, 0, tally))
        tracers.append(Tracer())
        run_pass(workload, lw, seed, 0, tally, tracers[-1])

    per_pass = [t.metrics() for t in tracers]
    for m in per_pass:
        m["numspec.self_s"] += setup_tracer.layer_self_s("numspec")
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.overhead_ratio"] = values["trace.run_s"] / statistics.median(untraced)
    # one more op: the self times of every traced phase add up to its time
    closure = max(t.closure_error() / t.root_s for t in tracers + [setup_tracer])
    tally.attempted += 1
    tally.failed += closure > 1e-6
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_METRICS}
    report = [
        f"traced runs of pass 0: {len(tracers)}; untraced run_s median "
        f"{statistics.median(untraced):.4f} s; overhead {values['trace.overhead_ratio']:.3f}x; "
        f"self-time closure error {closure:.2e} of the traced run_s",
        "spans with the largest self time (last traced run):",
        *tracers[-1].table(),
        "per-layer metrics:",
        *(f"  {name:<40} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
    ]
    return metrics, tally, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "littlewood" / "__init__.py").is_file():
        print(f"error: no littlewood sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the cone-report CSV path is relative to the checkout root
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            metrics, tally, report = traced_run(workload, args.seed, args.seconds)
        else:
            metrics, tally, report = timed_run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} ops, {tally.failed} failed")
    print(f"output digest (pass 0) sha256:{tally.digest}")
    print("\n".join(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
