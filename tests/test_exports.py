"""Tests for table/document builders and deterministic serialization."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspec import cli
from trapspec.exports import (
    csv_text,
    defect_model_doc,
    eigen_diagnostics_doc,
    fmt17,
    json_text,
    susy_report_doc,
    write_text_atomic,
)
from trapspec.oscillator3d import OscillatorScales

FIELD_MAP_HEADER = ("x_m", "y_m", "z_m", "t_s", "Bx_T", "By_T", "Bz_T")
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def reference_csv(header, rows) -> str:
    """The per-cell formatter csv_text replaced: each cell decides its own format."""

    def cell(value):
        if isinstance(value, bool):
            raise TypeError("boolean cells are ambiguous; use 0/1 integers")
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return fmt17(value)

    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def cli_stdout(tmp_path, capsys, monkeypatch, *argv):
    """Run one command on the reference configs of the golden file."""
    for name, doc in json.loads(GOLDEN.read_text())["configs"].items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


class TestFmt17:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200):
            assert float(fmt17(x)) == x

    def test_shortest_form(self):
        assert fmt17(0.5) == "0.5"
        assert fmt17(1.0) == "1"

    def test_numpy_scalar(self):
        assert float(fmt17(np.float64(1 / 3))) == 1 / 3


class TestCsvText:
    def test_ints_bare_floats_17g(self):
        text = csv_text(("a", "b"), [3], [0.1])
        assert text == "a,b\n3,0.10000000000000001\n"

    def test_trailing_newline(self):
        assert csv_text(("x",), [1, 2]).endswith("2\n")

    def test_bool_cell_rejected(self):
        with pytest.raises(TypeError, match="boolean"):
            csv_text(("x",), [True])
        with pytest.raises(TypeError, match="boolean"):
            csv_text(("k", "x"), [1], np.array([False]))

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="column 'b' has 1 values"):
            csv_text(("a", "b"), [1, 3], [2])
        with pytest.raises(ValueError, match="3 columns for a header of 2"):
            csv_text(("a", "b"), [1], [2], [3])

    def test_python_and_numpy_cells_print_alike(self):
        # Every column type must print as fmt17 (floats) or bare (integers)
        # would print its elements.
        values = [0.1, -0.0, 1e-300, 2.0**60, 1 / 3, math.inf, math.nan]
        lines = csv_text(
            ("a", "b", "c", "d", "e"),
            values, np.array(values), np.array(values, dtype=np.float32),
            [7] * len(values), np.full(len(values), -7, dtype=np.int64),
        ).splitlines()[1:]
        for line, v in zip(lines, values):
            assert line == f"{fmt17(v)},{fmt17(v)},{fmt17(np.float32(v))},7,-7"

    def test_parse_back(self):
        ks = range(5)
        lines = csv_text(("k", "v"), ks, [k * math.pi for k in ks]).splitlines()
        assert lines[0] == "k,v"
        for line, k in zip(lines[1:], ks):
            sk, sv = line.split(",")
            assert int(sk) == k
            assert float(sv) == k * math.pi

    def test_no_rows(self):
        assert csv_text(("a", "b"), [], np.zeros(0)) == "a,b\n"

    _SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300, 5e-324,
                2.0**60, 2.0**53 + 2, 1.7976931348623157e308]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_per_cell_reference(self, data):
        n = data.draw(st.integers(0, 12), label="rows")
        floats = st.one_of(st.sampled_from(self._SPECIAL), st.floats(width=64))
        kinds = {
            "int": lambda: data.draw(st.lists(
                st.one_of(st.sampled_from([0, -1, 2**60, -(2**62)]),
                          st.integers(-(2**63), 2**63 - 1)), min_size=n, max_size=n)),
            "int64": lambda: np.array(data.draw(st.lists(
                st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)), dtype=np.int64),
            "float": lambda: data.draw(st.lists(floats, min_size=n, max_size=n)),
            "float64": lambda: np.array(data.draw(st.lists(floats, min_size=n, max_size=n))),
            "float32": lambda: np.array(
                data.draw(st.lists(st.one_of(st.sampled_from(self._SPECIAL[:7]),
                                             st.floats(width=32)), min_size=n, max_size=n)),
                dtype=np.float32),
        }
        names = data.draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6),
                          label="columns")
        columns = [kinds[name]() for name in names]
        header = tuple(f"{name}{i}" for i, name in enumerate(names))
        assert csv_text(header, *columns) == reference_csv(header, list(zip(*columns)))


class TestJsonText:
    def test_sorted_and_deterministic(self):
        doc = {"z": 1, "a": [0.1, 2], "m": {"q": 1 / 3}}
        text = json_text(doc)
        assert text == json_text(dict(reversed(list(doc.items()))))
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["m"]["q"] == 1 / 3

    def test_float_precision_preserved(self):
        parsed = json.loads(json_text({"v": 0.1 + 0.2}))
        assert parsed["v"] == 0.1 + 0.2

    def test_numpy_values_coerced(self):
        parsed = json.loads(
            json_text({"a": np.arange(3), "b": np.float64(2.5), "n": np.int64(4)})
        )
        assert parsed == {"a": [0, 1, 2], "b": 2.5, "n": 4}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            json_text({"v": float("nan")})
        with pytest.raises(ValueError):
            json_text({"v": [1.0, float("inf")]})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            json_text({"v": object()})


class TestWriteTextAtomic:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.csv"
        write_text_atomic(str(path), "first\n")
        assert path.read_text() == "first\n"
        write_text_atomic(str(path), "second\n")
        assert path.read_text() == "second\n"

    def test_no_temp_debris(self, tmp_path):
        path = tmp_path / "out.csv"
        write_text_atomic(str(path), "data\n")
        assert os.listdir(tmp_path) == ["out.csv"]


class TestFieldMapTable:
    def test_header_and_rows(self, tmp_path, capsys, monkeypatch):
        text = cli_stdout(tmp_path, capsys, monkeypatch,
                          "field-map", "--config", "ip.json", "--points", "2")
        lines = text.splitlines()
        assert lines[0] == ",".join(FIELD_MAP_HEADER)
        assert len(lines) == 9
        x, y, z = [0.0, 0.001], [0.0, 0.0], [0.001, 0.0]
        bx, by, bz = [0.0, 1e-5], [0.0, 0.0], [1e-4, 0.0]
        lines = csv_text(FIELD_MAP_HEADER, x, y, z, np.zeros(2), bx, by, bz).splitlines()
        assert len(lines) == 3
        assert [float(v) for v in lines[1].split(",")] == [
            0.0, 0.0, 0.001, 0.0, 0.0, 0.0, 1e-4,
        ]

    def test_shape_mismatch(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError):
            csv_text(FIELD_MAP_HEADER, *pts.T, np.zeros(2), *np.zeros((3, 3)).T)
        with pytest.raises(ValueError):
            csv_text(FIELD_MAP_HEADER, *pts.T, np.zeros(3), *np.zeros((3, 2)).T)


class TestSpectrumTables:
    def test_3d_header(self, tmp_path, capsys, monkeypatch):
        text = cli_stdout(tmp_path, capsys, monkeypatch,
                          "spectrum", "--config", "ip.json", "--max-n", "1")
        lines = text.splitlines()
        assert lines[0] == "N,L,degeneracy,E_joules,E_over_hbar_omega0"
        assert len(lines) == 3
        assert lines[2].split(",")[2] == "3"

    def test_planar_header(self, tmp_path, capsys, monkeypatch):
        text = cli_stdout(tmp_path, capsys, monkeypatch,
                          "spectrum", "--config", "paul.json", "--max-n", "0", "--max-k", "0")
        lines = text.splitlines()
        assert lines[0] == "N,M,K,E_joules"
        assert len(lines) == 2


class TestWavefunctionTable:
    def test_columns(self):
        r = np.linspace(0.1, 1.0, 4)
        w = r**2
        lines = csv_text(("r_m", "W"), r, w).splitlines()
        assert lines[0] == "r_m,W"
        assert len(lines) == 5
        assert float(lines[3].split(",")[1]) == w[2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="column 'W' has 4 values; column 'r' has 3"):
            csv_text(("r", "W"), np.zeros(3), np.zeros(4))

    def test_array_columns_print_as_their_elements(self):
        r = np.geomspace(1e-9, 40.0, 50)
        w = np.sin(r) * np.exp(-r)
        k = np.arange(50)
        want = reference_csv(("r", "W", "k"), list(zip(r, w, k)))
        assert csv_text(("r", "W", "k"), r, w, k) == want


class TestDocBuilders:
    def test_susy_report_keeps_removed_level(self):
        doc = susy_report_doc(
            l_angular=1,
            sequence_index=2,
            removed_level=1,
            radii=np.array([0.5, 1.0]),
            plus_samples=np.array([1.0, 2.0]),
            minus_samples=np.array([3.0, 4.0]),
            spectrum_rows=[(1, 2.5, None), (3, 4.5, 6.5)],
        )
        assert doc["L"] == 1
        assert doc["removed_level"] == 1
        assert doc["potential_samples"][1] == {"r": 1.0, "plus": 2.0, "minus": 4.0}
        assert doc["spectrum"][0] == {"level": 1, "plus": 2.5, "minus": None}
        assert "null" in json_text(doc)

    def test_defect_model_doc(self):
        scales = OscillatorScales(mass=1.0, omega0=2.0, energy_offset=0.5, hbar=1.0)
        doc = defect_model_doc(
            scales, l_angular=1, iterations=1, selector=0, delta=0.3,
            spectrum_rows=[(0, 3.2), (1, 5.2)],
        )
        assert doc["trap_scales"]["omega0"] == 2.0
        assert doc["trap_scales"]["hbar"] == 1.0
        assert doc["delta"] == 0.3
        assert doc["spectrum"][1] == {"level": 1, "energy": 5.2}
        json_text(doc)

    def test_defect_model_doc_without_spectrum(self):
        scales = OscillatorScales(mass=1.0, omega0=2.0)
        doc = defect_model_doc(scales, 0, 0, 0, 0.0)
        assert "spectrum" not in doc

    def test_eigen_diagnostics_drops_samples(self):
        from trapspec.numerov import RadialProblem, solve_eigen

        problem = RadialProblem(
            potential=lambda r: 0.5 * r * r,
            centrifugal=0.0,
            mass=1.0,
            r_min=1e-6,
            r_max=12.0,
            n_points=2000,
        )
        result = solve_eigen(problem, node_target=0)
        doc = eigen_diagnostics_doc(result)
        assert doc["node_count"] == 0
        assert doc["n_points"] == 2000
        # Radii are regenerated from a uniform log mesh, so the endpoints
        # match the requested bounds only to round-off.
        assert doc["r_min"] == pytest.approx(1e-6, rel=1e-12)
        assert doc["r_max"] == pytest.approx(12.0, rel=1e-12)
        assert "boundary_samples" not in doc["diagnostics"]
        assert "bracket_history_tail" in doc["diagnostics"]
        json_text(doc)
