"""trapspec benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 14 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics, their times
scaled by the speed probe (see :class:`Clock`); with ``--trace 1`` a separate
traced run reports the per-layer metrics.  The program is always taken from
``src/`` of the checkout this file sits in.  Human-readable lines come first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 3
PROBE_LOOPS = 40_000
PROBE_INTERVAL_S = 0.05
# Seconds per probe loop on the machine the benchmark was defined on; scaled
# timings are in seconds of that machine.
PROBE_REFERENCE_S = 4e-8


def refusal() -> str | None:
    """Why this checkout cannot give a valid number, or None."""
    if not (SRC / "trapspec" / "cli.py").is_file():
        return f"no trapspec source tree at {SRC}"
    scale = os.environ.get("TRAPSPEC_TOL_SCALE")
    if scale is not None:
        try:
            loosened = float(scale) != 1.0
        except ValueError:
            loosened = True
        if loosened:
            return f"TRAPSPEC_TOL_SCALE={scale!r}: tolerances must be the shipped ones"
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tol_scale": os.environ.get("TRAPSPEC_TOL_SCALE", "1"),
        "platform": platform.platform(),
    }


def probe() -> float:
    """Seconds per iteration of a fixed pure-Python float loop."""
    x = 0.0
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        x = x * 0.5 + 1.0
    return (time.perf_counter() - start) / PROBE_LOOPS


class Clock:
    """Times ops and the host's speed while they run.

    On the two-vCPU virtual machine (Xeon, 2.1 GHz) the benchmark was defined
    on, speed drifted by tens of percent within a minute, for every process
    alike (a fresh import took 0.59 s in one window and 0.94 s in another).
    A pure-Python probe on the same CPU as the ops tracks that drift, so each
    op's time is also reported scaled to a CPU on which one probe loop takes
    ``PROBE_REFERENCE_S``: the op's seconds times the reference over the
    median probe time around and during the op.

    The probe runs before and after every op.  For ops in this process, a
    timer signal also runs it every ``PROBE_INTERVAL_S`` during the op.  It
    does not while a child process runs, because the two would share the
    one CPU and the probe would read the child's load as a slow host.
    """

    def __init__(self, sample_during: bool):
        self.samples = [probe()]
        self.sample_during = sample_during
        if sample_during:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def close(self) -> None:
        if self.sample_during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def time(self, call):
        """Run ``call``; return its result, its seconds and its scaled seconds."""
        first = len(self.samples) - 1  # the latest sample before the op
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        self.samples.append(probe())
        speed = statistics.median(self.samples[first:])
        return result, seconds, seconds * PROBE_REFERENCE_S / speed


def setup_seconds(env: dict) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing ``trapspec.cli`` (raw and scaled seconds);
    the first, untimed one compiles the bytecode cache."""
    subprocess.run([sys.executable, "-c", "import trapspec.cli"], env=env, check=True,
                   timeout=120)
    clock, raw, scaled = Clock(sample_during=False), [], []
    try:
        for _ in range(SETUP_REPEATS):
            _, seconds, norm = clock.time(lambda: subprocess.run(
                [sys.executable, "-c", "import trapspec.cli"], env=env, check=True, timeout=120))
            raw.append(seconds)
            scaled.append(norm)
    finally:
        clock.close()
    return raw, scaled


def measure(ops, runner, seconds: float, sample_during: bool, tracer=None) -> dict:
    """Whole passes over ``ops`` until their scaled time reaches ``seconds``
    (at least one pass), so that the number of passes, and the samples behind
    each percentile, do not change when the host slows down.  A pass's time
    is the sum of its ops' times, probes excluded.  Outputs are checked after
    each pass, outside the timed region."""
    from checks import CheckFailed

    run = {"passes": [], "scaled_passes": [], "latencies": [], "scaled": [],
           "failures": [], "records": 0, "attempted": 0}
    while True:
        timed = []
        clock = Clock(sample_during)
        try:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = run["attempted"] + i
                timed.append(clock.time(lambda: runner(op)))
        finally:
            clock.close()
        run["passes"].append(sum(t[1] for t in timed))
        run["scaled_passes"].append(sum(t[2] for t in timed))
        for op, (outcome, raw, scaled) in zip(ops, timed):
            run["attempted"] += 1
            run["latencies"].append(raw)
            run["scaled"].append(scaled)
            try:
                run["records"] += op.check(op, outcome)
            except CheckFailed as exc:
                run["failures"].append((op, str(exc)))
        if sum(run["scaled_passes"]) >= seconds:
            return run


def report(workload: str, seed: int, run: dict, metrics: dict, notes: dict) -> dict:
    """Print the human-readable lines and return the JSON result."""
    unexpected = [(op, why) for op, why in run["failures"] if not op.known_defect]
    print(f"workload {workload}, seed {seed}")
    for key, value in machine_record().items():
        print(f"  machine.{key} = {value}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  fail_frac = {len(run['failures'])}/{run['attempted']}")
    for op, why in run["failures"]:
        tag = "known defect" if op.known_defect else "FAILED"
        print(f"  {tag}: {' '.join(op.argv)[:100]} -> {why}")
    return {
        "correct": not unexpected,
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def untraced(wl, ops, env: dict, work: Path, seconds: float) -> tuple[dict, dict, dict]:
    from checks import percentile
    from workloads import run_subprocess

    setup_raw, setup = setup_seconds(env)
    if wl.in_process:
        runner = wl.runner
    else:
        runner = lambda op: run_subprocess(op, env, work)  # noqa: E731
    for op in wl.warm_up(ops):
        runner(op)
    run = measure(ops, runner, seconds, wl.in_process)
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    lat = run["scaled"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(run["scaled_passes"]), "s"),
        "op_p50_s": (percentile(lat, 0.5), "s"),
        "op_p90_s": (percentile(lat, 0.9), "s"),
        "rows_per_s": (run["records"] / sum(run["scaled_passes"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"n={len(setup)}, unscaled {statistics.median(setup_raw):.4g} s",
        "pass_s": f"n={len(run['passes'])}, unscaled {statistics.median(run['passes']):.4g} s",
        "op_p50_s": f"n={len(lat)}, unscaled {percentile(run['latencies'], 0.5):.4g} s",
        "op_p90_s": f"n={len(lat)}, unscaled {percentile(run['latencies'], 0.9):.4g} s",
        "rows_per_s": f"{run['records']} records",
    }
    return run, metrics, notes


def traced(wl, ops, env: dict, seconds: float, workload: str) -> tuple[dict, dict, dict]:
    """One untraced pass of the in-process runner, then traced passes; their
    difference is the tracing overhead.  Span metrics are unscaled totals per
    traced pass.  The probe runs only between ops, so that it adds nothing to
    any span."""
    from tracing import Tracer, import_metrics, layer_metric_names

    imports = import_metrics(env)
    for op in wl.warm_up(ops):
        wl.runner(op)
    plain = measure(ops, wl.runner, 0.0, False)
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        run = measure(ops, lambda op: wl.runner(op, tracer), seconds, False, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload}.csv", t0)
    passes = len(run["passes"])
    values = {name: value / passes for name, value in tracer.layer_metrics().items()}
    # Scaled like the end-to-end times, so that the host's drift between the
    # untraced and the traced passes does not swamp the overhead.
    traced_pass = statistics.median(run["scaled_passes"])
    untraced_pass = plain["scaled_passes"][0]
    values.update(imports)
    values.update({"trace.pass_s": traced_pass, "trace.untraced_pass_s": untraced_pass,
                   "trace.overhead_s": traced_pass - untraced_pass})
    metrics = {name: (values[name], unit) for name, unit in layer_metric_names()}
    run["attempted"] += plain["attempted"]
    run["failures"] += plain["failures"]
    return run, metrics, {"trace.pass_s": f"n={passes}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The names are spelled out because importing workloads loads numpy,
    # which has to wait for the CPU pin below.
    parser.add_argument("--workload", required=True,
                        choices=("verify-all", "cli-session", "bulk-tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    why = refusal()
    if why:
        print(f"perfbench: refusing to run: {why}", file=sys.stderr)
        return 2
    # One CPU for this process and every child, set before numpy loads: on a
    # two-vCPU Xeon, numpy's and scipy's OpenBLAS thread pools made a fresh
    # import of trapspec.cli slower and far noisier (median 0.95 s, against
    # 0.57 s pinned).
    # CPU 0 takes most interrupts, so the highest-numbered CPU is used.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import trapspec.cli  # noqa: F401  (the in-process workloads and the tracer need it)

    if not Path(trapspec.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: trapspec imported from {trapspec.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, subprocess_env

    wl = WORKLOADS[args.workload]
    env = subprocess_env(SRC)
    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = wl.build_ops(random.Random(args.seed), work)
        if args.trace:
            run, metrics, notes = traced(wl, ops, env, args.seconds, args.workload)
        else:
            run, metrics, notes = untraced(wl, ops, env, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args.workload, args.seed, run, metrics, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
