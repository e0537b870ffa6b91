"""Reproduce a baseline: every workload untraced and traced, one table.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py [--seed 1] [--out perfbench/_out/baseline.json]

Each run is a separate ``perfbench/run.py`` process, one at a time, for the
``run_seconds`` that ``BENCHMARK.json`` sets.  The table lists every
end-to-end metric with its unit per workload, the tracing overhead (traced
minus untraced pass time of the same in-process passes) and the largest self
times per traced pass.  The JSON file holds the machine record and every
metric of every run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import machine_record  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "_out" / "baseline.json"))
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    doc = {"machine": machine_record(), "seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run_once(workload, args.seed, seconds, 0)
        traced = run_once(workload, args.seed, seconds, 1)
        doc["workloads"][workload] = {"untraced": plain, "traced": traced}
        print(f"{workload}: correct={plain['correct']} "
              f"fail_frac={plain['failed']}/{plain['attempted']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:12s} {m['value']:12.6g} {m['unit']}")
        layers = traced["metrics"]
        print(f"  tracing overhead {layers['trace.overhead_s']['value']:.3f} s on an "
              f"untraced in-process pass of {layers['trace.untraced_pass_s']['value']:.3f} s")
        print(f"  import trapspec.cli {layers['import.trapspec_cli_ms']['value']:.0f} ms; "
              f"numerov.solve_eigen calls per pass "
              f"{layers['numerov.solve_eigen.calls']['value']:.0f}")
        selfs = sorted(((m["value"], name) for name, m in layers.items()
                        if name.endswith(".self_s")), reverse=True)
        for value, name in selfs[:4]:
            print(f"  self {name:42s} {value:9.3f} s")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
