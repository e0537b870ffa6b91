"""Traced runs: spans around the calls into each trapspec module.

Tracing is installed only in a traced run.  It replaces each wrapped public
function at every module that holds a reference to it (the defining module
and every ``from .x import f`` site), so calls made inside the package are
seen too.  Spans (name, start, end, parent, op id) are kept in memory and
written out when the run ends.  A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import re
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from checks import percentile

COMMANDS = ("scales", "field-map", "isotropy", "spectrum", "wavefunction", "susy",
            "defect", "shells", "verify")
SUITES = ("spectrum", "susy", "pauli-gap", "nodes", "combinatorics", "isotropy",
          "field-oracle", "defect", "planar", "orthonormality")
CLOSED_FORMS = ("oscillator3d.radial_wavefunction_3d", "planar.paul_wavefunctions",
                "planar.penning_wavefunction", "susy.partner_wavefunction",
                "defect.defect_wavefunction", "defect.recover_partner")
IMPORTS = {  # metric -> module whose cumulative import time it reports
    "import.trapspec_cli_ms": "trapspec.cli",
    "import.numpy_ms": "numpy",
    "import.scipy_integrate_ms": "scipy.integrate",
    "import.scipy_optimize_ms": "scipy.optimize",
}


def _stat_unit(stat: str) -> str:
    return "s" if stat in ("self_s", "s", "pass_s", "untraced_pass_s", "overhead_s") else "count"


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [(name, "ms") for name in IMPORTS] + [("import.trapspec_self_ms", "ms")]
    stats = [f"cli.{c}.{s}" for c in COMMANDS for s in ("calls", "self_s")]
    stats += ["config.load_config.calls", "config.load_config.self_s"]
    stats += [f"verification.{suite}.s" for suite in SUITES]
    stats += [f"numerov.solve_eigen.{s}" for s in ("calls", "self_s", "sweeps", "widenings")]
    stats += [f"numerov.overlap.{s}" for s in ("calls", "self_s", "integrand_evals")]
    stats += [f"special.{f}.{s}" for f in ("laguerre_gen", "hermite")
              for s in ("calls", "elements", "self_s")]
    stats += ["fields.biot_savart_field.calls", "fields.biot_savart_field.self_s",
              "fields.series.points", "fields.series.self_s",
              "fields.top_time_average_numeric.calls", "fields.top_time_average_numeric.self_s"]
    stats += ["exports.csv_text.rows", "exports.csv_text.self_s",
              "exports.json_text.calls", "exports.json_text.self_s",
              "exports.write_text_atomic.bytes", "exports.write_text_atomic.self_s"]
    stats += [f"{f}.{s}" for f in CLOSED_FORMS for s in ("calls", "self_s")]
    stats += ["trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s", "trace.spans"]
    return names + [(name, _stat_unit(name.rsplit(".", 1)[1])) for name in stats]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, func, name, before=None, after=None):
        """``func`` inside a span; ``before`` may rewrite the arguments and
        ``after`` reads the result, both outside the span's interval."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if before is not None:
                args, kwargs = before(span_name, args, kwargs)
            idx = self._open(span_name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(span_name, result)
            return result

        return traced

    # ---- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every trapspec module that references it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "trapspec" or n.startswith("trapspec.")]
        for module_name, attr, wrapper in _targets(self):
            original = getattr(sys.modules[module_name], attr)
            wrapped = wrapper(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # ---- results ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        covered = np.zeros(n)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {self.names[i]: (int(calls[i]), float(total[i]), float(own[i])) for i in range(k)}

    def layer_metrics(self) -> dict[str, float]:
        totals = self.totals()
        values = {}
        for name, _ in layer_metric_names():
            if name.startswith(("import.", "trace.")):
                continue
            span, stat = name.rsplit(".", 1)
            calls, total, own = totals.get(span, (0, 0.0, 0.0))
            values[name] = {"calls": calls, "s": total, "self_s": own}.get(
                stat, self.counters.get(name, 0))
        values["trace.spans"] = len(self.start)
        return values

    def write(self, path: Path, t0: float) -> None:
        """Spans as CSV, times in seconds from ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op_id[i]}\n")


def _size(value) -> int:
    return int(np.size(value))


def _targets(tracer: Tracer):
    """(defining module, function name, wrapper factory) for every layer."""
    count = tracer.count

    def plain(name):
        return lambda f: tracer.wrap(f, name)

    def counting(name, key, measure):
        def before(span, args, kwargs):
            count(f"{span}.{key}", measure(args, kwargs))
            return args, kwargs
        return lambda f: tracer.wrap(f, name, before=before)

    def solve_after(span, result):
        diag = result.diagnostics
        count(f"{span}.sweeps",
              diag.get("count_evaluations", 0) + diag.get("mismatch_evaluations", 0))
        count(f"{span}.widenings", diag.get("widenings", 0))

    def overlap_before(span, args, kwargs):
        # Each integrand evaluation calls the first function once.
        f = args[0]
        key = f"{span}.integrand_evals"

        def counted(x):
            count(key, 1)
            return f(x)
        return (counted, *args[1:]), kwargs

    def suite_name(args, kwargs):
        return f"verification.{args[0] if args else kwargs['name']}"

    def rows(args, kwargs):
        return len(args[1]) if len(args) > 1 else len(kwargs["rows"])

    yield "trapspec.config", "load_config", plain("config.load_config")
    yield "trapspec.verification", "run_suite", plain(suite_name)
    yield ("trapspec.numerov", "solve_eigen",
           lambda f: tracer.wrap(f, "numerov.solve_eigen", after=solve_after))
    yield ("trapspec.numerov", "overlap",
           lambda f: tracer.wrap(f, "numerov.overlap", before=overlap_before))
    yield ("trapspec.special", "laguerre_gen",
           counting("special.laguerre_gen", "elements", lambda a, k: _size(a[2])))
    yield ("trapspec.special", "hermite",
           counting("special.hermite", "elements", lambda a, k: _size(a[1])))
    yield "trapspec.fields", "biot_savart_field", plain("fields.biot_savart_field")
    yield ("trapspec.fields", "ip_field_cartesian",
           counting("fields.series", "points", lambda a, k: _size(np.broadcast(*a[1:4]))))
    yield ("trapspec.fields", "top_field_series",
           counting("fields.series", "points", lambda a, k: _size(np.broadcast(*a[1:5]))))
    yield ("trapspec.fields", "top_time_average_numeric",
           plain("fields.top_time_average_numeric"))
    yield "trapspec.exports", "csv_text", counting("exports.csv_text", "rows", rows)
    yield "trapspec.exports", "json_text", plain("exports.json_text")
    # Output text is ASCII, so its length is its size in bytes.
    yield ("trapspec.exports", "write_text_atomic",
           counting("exports.write_text_atomic", "bytes", lambda a, k: len(a[1])))
    for qualified in CLOSED_FORMS:
        module, attr = qualified.split(".")
        yield f"trapspec.{module}", attr, plain(qualified)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Per-layer import metrics (ms) from ``python -X importtime`` output."""
    self_us, cumulative_us = {}, {}
    for match in _IMPORT_LINE.finditer(stderr):
        own, cum, module = int(match[1]), int(match[2]), match[3]
        self_us[module] = own
        cumulative_us[module] = cum
    metrics = {name: cumulative_us.get(module, 0) / 1000.0 for name, module in IMPORTS.items()}
    metrics["import.trapspec_self_ms"] = sum(
        us for module, us in self_us.items()
        if module == "trapspec" or module.startswith("trapspec.")) / 1000.0
    return metrics


def import_metrics(env: dict) -> dict[str, float]:
    """Median of three fresh interpreters importing ``trapspec.cli``."""
    runs = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import trapspec.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {name: percentile([r[name] for r in runs], 0.5) for name in runs[0]}
