"""Tests of the benchmark itself: output checkers, the percentile rule, the
metric list and the refusals.  They run no workload and take well under a
second.  Run with ``python -m pytest perfbench``."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    CheckFailed,
    brute_paul_count,
    brute_shell_capacity,
    check_exit,
    parse_csv,
    parse_json,
    percentile,
    planar_level_count,
)
from tracing import Tracer, layer_metric_names, parse_importtime  # noqa: E402
from workloads import (  # noqa: E402
    Op,
    Outcome,
    check_error,
    check_out_to_missing_dir,
    check_wavefunction,
)


def outcome(code=0, stdout="", stderr=""):
    return Outcome(code, stdout, stderr)


# ---- percentile rule --------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    assert percentile(values, 0.5) == 5.5
    assert percentile(values, 0.9) == pytest.approx(9.1)
    assert percentile(values, 0.0) == 1 and percentile(values, 1.0) == 10


def test_percentile_ignores_input_order_and_handles_one_sample():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([7.0], 0.9) == 7.0


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# ---- output checkers ----------------------------------------------------------

WAVE = "r_over_r0,W_times_sqrt_r0\n"


def wave_op(points, normalized=True):
    return Op("wavefunction", ("wavefunction",), check_wavefunction,
              {"points": points, "normalized": normalized})


def test_nan_row_is_a_failure():
    text = WAVE + "0,0\n1,nan\n2,0\n"
    with pytest.raises(CheckFailed, match="non-finite"):
        check_wavefunction(wave_op(3, normalized=False), outcome(stdout=text))


def test_inf_cell_and_short_row_are_failures():
    with pytest.raises(CheckFailed):
        parse_csv("a,b\n1,inf\n")
    with pytest.raises(CheckFailed, match="width"):
        parse_csv("a,b\n1\n")


def test_finite_normalized_table_passes():
    xs = [i * 0.01 for i in range(1201)]
    rows = [(x, math.sqrt(2.0) * math.pi ** -0.25 * math.exp(-0.5 * x * x)) for x in xs]
    text = WAVE + "".join(f"{x!r},{f!r}\n" for x, f in rows)
    assert check_wavefunction(wave_op(len(rows)), outcome(stdout=text)) == len(rows)


def test_unnormalized_table_is_a_failure():
    text = WAVE + "0,1\n1,1\n2,1\n"
    with pytest.raises(CheckFailed, match="integrates"):
        check_wavefunction(wave_op(3), outcome(stdout=text))


def test_wrong_exit_code_is_a_failure():
    op = Op("spectrum", ("spectrum",), check_error, {"exit": 3})
    with pytest.raises(CheckFailed, match="exit code 0"):
        check_error(op, outcome(0, "N,L\n"))
    assert check_error(op, outcome(3, stderr="validation error: anisotropic\n")) == 0


def test_error_exit_needs_one_typed_line():
    with pytest.raises(CheckFailed, match="one line"):
        check_exit(2, 2, "Traceback (most recent call last):\n  ...\nValueError: x\n")
    with pytest.raises(CheckFailed, match="one line"):
        check_exit(2, 2, "validation error: wrong prefix\n")
    check_exit(2, 2, "config error: cannot read config file\n")


def test_traceback_on_unwritable_out_is_a_failure():
    op = Op("spectrum", ("spectrum",), check_out_to_missing_dir,
            {"config": "ip", "max_n": 8, "max_k": 3}, out="/nonexistent/x.csv")
    with pytest.raises(CheckFailed, match="not a documented"):
        check_out_to_missing_dir(op, outcome(1, stderr="Traceback ...\nFileNotFoundError\n"))
    assert check_out_to_missing_dir(op, outcome(2, stderr="config error: cannot write\n")) == 0


def test_json_checker_rejects_nan_tokens():
    with pytest.raises(CheckFailed, match="non-finite"):
        parse_json('{"a": [1.0, NaN]}')
    assert parse_json('{"a": [1.0, 2]}') == {"a": [1.0, 2]}


def test_brute_force_counts_match_closed_forms():
    for n in range(8):
        assert brute_shell_capacity(n) == (n + 1) * (n + 2) * (n + 3) // 6
    # Paul counts printed by `trapspec shells --trap paul` for 0..3 shells.
    assert [brute_paul_count(e) for e in range(2, 6)] == [2, 6, 14, 26]
    assert planar_level_count(1, 0) == 3


# ---- speed scaling --------------------------------------------------------------


def test_scaled_time_uses_the_probes_around_the_op():
    import run

    clock = run.Clock(sample_during=False)
    _, seconds, scaled = clock.time(lambda: sum(range(10000)))
    assert len(clock.samples) == 2
    expected = seconds * run.PROBE_REFERENCE_S / (0.5 * sum(clock.samples))
    assert scaled == pytest.approx(expected)


# ---- tracing ------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.names, tracer._ids = ["outer", "inner"], {"outer": 0, "inner": 1}
    for nid, start, end, parent in ((0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 7.0, 0)):
        tracer.name_id.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op_id.append(0)
    totals = tracer.totals()
    assert totals["outer"] == (1, 10.0, 5.0)
    assert totals["inner"] == (2, 5.0, 5.0)


def test_importtime_parsing():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1000 |       2000 |   numpy\n"
        "import time:       300 |        300 |     trapspec.special\n"
        "import time:       500 |       9000 | trapspec.cli\n"
    )
    metrics = parse_importtime(stderr)
    assert metrics["import.numpy_ms"] == 2.0
    assert metrics["import.trapspec_cli_ms"] == 9.0
    assert metrics["import.trapspec_self_ms"] == 0.8
    assert metrics["import.scipy_integrate_ms"] == 0.0


def test_benchmark_json_lists_the_metrics_the_run_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layer_metric_names()
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "pass_s", "op_p50_s", "op_p90_s", "rows_per_s", "peak_rss_mb"]


# ---- refusals -----------------------------------------------------------------


def run_bench(tmp_path, env_extra=None):
    env = dict(os.environ, **(env_extra or {}))
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-all", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


def test_refuses_loosened_tolerances(tmp_path):
    proc = run_bench(tmp_path, {"TRAPSPEC_TOL_SCALE": "10"})
    assert proc.returncode != 0 and proc.stdout == ""
    assert "TRAPSPEC_TOL_SCALE" in proc.stderr


def test_refuses_without_the_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "checks.py", "workloads.py", "tracing.py"):
        (bench / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "bulk-tables", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "source tree" in proc.stderr
