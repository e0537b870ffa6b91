"""Tests for table/document builders and deterministic serialization."""

import json
import math
import os

import numpy as np
import pytest

from trapspec.exports import (
    FIELD_MAP_HEADER,
    csv_text,
    defect_model_doc,
    eigen_diagnostics_doc,
    field_map_table,
    fmt17,
    json_text,
    spectrum_table_3d,
    spectrum_table_planar,
    susy_report_doc,
    wavefunction_table,
    write_text_atomic,
)
from trapspec.oscillator3d import OscillatorScales


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
        text = csv_text(("a", "b"), [(3, 0.1)])
        assert text == "a,b\n3,0.10000000000000001\n"

    def test_trailing_newline(self):
        assert csv_text(("x",), [(1,), (2,)]).endswith("2\n")

    def test_bool_cell_rejected(self):
        with pytest.raises(TypeError, match="boolean"):
            csv_text(("x",), [(True,)])

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), [(1, 2), (3,)])

    def test_python_and_numpy_cells_print_alike(self):
        # Python floats take a fast path; every cell type must print as
        # fmt17 (floats) or bare (integers) would print it.
        values = [0.1, -0.0, 1e-300, 2.0**60, 1 / 3, math.inf, math.nan]
        rows = [(v, np.float64(v), np.float32(v), 7, np.int64(-7)) for v in values]
        lines = csv_text(("a", "b", "c", "d", "e"), rows).splitlines()[1:]
        for line, (v, _, f32, _, _) in zip(lines, rows):
            assert line == f"{fmt17(v)},{fmt17(v)},{fmt17(f32)},7,-7"

    def test_parse_back(self):
        rows = [(k, k * math.pi) for k in range(5)]
        lines = csv_text(("k", "v"), rows).splitlines()
        assert lines[0] == "k,v"
        for line, (k, v) in zip(lines[1:], rows):
            sk, sv = line.split(",")
            assert int(sk) == k
            assert float(sv) == v


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
    def test_header_and_rows(self):
        pts = np.array([[0.0, 0.0, 0.001], [0.001, 0.0, 0.0]])
        t = np.zeros(2)
        field = np.array([[0.0, 0.0, 1e-4], [1e-5, 0.0, 0.0]])
        text = field_map_table(pts, t, field)
        lines = text.splitlines()
        assert lines[0] == ",".join(FIELD_MAP_HEADER)
        assert FIELD_MAP_HEADER == ("x_m", "y_m", "z_m", "t_s", "Bx_T", "By_T", "Bz_T")
        assert len(lines) == 3
        assert [float(v) for v in lines[1].split(",")] == [
            0.0, 0.0, 0.001, 0.0, 0.0, 0.0, 1e-4,
        ]

    def test_shape_mismatch(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError):
            field_map_table(pts, np.zeros(2), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            field_map_table(pts, np.zeros(3), np.zeros((3, 2)))


class TestSpectrumTables:
    def test_3d_header(self):
        text = spectrum_table_3d([(0, 0, 1, 1.5e-30, 1.5), (1, 1, 3, 2.5e-30, 2.5)])
        lines = text.splitlines()
        assert lines[0] == "N,L,degeneracy,E_joules,E_over_hbar_omega0"
        assert lines[2].split(",")[2] == "3"

    def test_planar_header(self):
        text = spectrum_table_planar([(0, 0, 0, 1.0e-28)])
        lines = text.splitlines()
        assert lines[0] == "N,M,K,E_joules"
        assert len(lines) == 2


class TestWavefunctionTable:
    def test_columns(self):
        r = np.linspace(0.1, 1.0, 4)
        w = r**2
        lines = wavefunction_table("r_m", ("W",), r, (w,)).splitlines()
        assert lines[0] == "r_m,W"
        assert len(lines) == 5
        assert float(lines[3].split(",")[1]) == w[2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="abscissa length"):
            wavefunction_table("r", ("W",), np.zeros(3), (np.zeros(4),))

    def test_array_columns_print_as_their_elements(self):
        r = np.geomspace(1e-9, 40.0, 50)
        w = np.sin(r) * np.exp(-r)
        k = np.arange(50)
        want = csv_text(("r", "W", "k"), [(a, b, c) for a, b, c in zip(r, w, k)])
        assert wavefunction_table("r", ("W", "k"), r, (w, k)) == want


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
