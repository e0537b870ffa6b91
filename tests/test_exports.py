"""Tests for table and JSON text and deterministic serialization."""

import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspec import cli, exports
from trapspec.errors import DomainError
from trapspec.exports import csv_text, fmt17, json_text, write_text_atomic

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
        values = [0.1, -0.0, 1e-300, 2.0**60, 1 / 3, 5e-324, -1.5]
        lines = csv_text(
            ("a", "b", "c", "d", "e"),
            values, np.array(values), np.array(values, dtype=np.float32),
            [7] * len(values), np.full(len(values), -7, dtype=np.int64),
        ).splitlines()[1:]
        for line, v in zip(lines, values):
            assert line == f"{fmt17(v)},{fmt17(v)},{fmt17(np.float32(v))},7,-7"

    @pytest.mark.parametrize("value, text", [(math.nan, "nan"), (math.inf, "inf"),
                                             (-math.inf, "-inf")])
    @pytest.mark.parametrize("column", [list, np.array, lambda v: np.array(v, dtype=np.float32),
                                        lambda v: np.array(v, dtype=object)])
    def test_non_finite_cell_raises(self, column, value, text):
        # The first non-finite cell in row order is named, by its column and
        # its 1-based row, wherever in the block it sits.
        rows = exports._BLOCK_ROWS + 5
        a, b = [0.5] * rows, [0.25] * rows
        a[rows - 2] = b[rows - 3] = value
        with pytest.raises(DomainError, match=rf"^non-finite value {text} in column 'b', "
                                              rf"row {rows - 2} of {rows}$"):
            csv_text(("k", "a", "b"), np.arange(rows), column(a), column(b))

    def test_object_cell_holding_a_tuple_rejected(self):
        # A cell is one value: a tuple in an object column is not unpacked
        # into the format's arguments.
        cells = np.empty(1, dtype=object)
        cells[0] = (0.5,)
        with pytest.raises(TypeError):
            csv_text(("v",), cells)

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

    _SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 2.0**60, 2.0**53 + 2,
                1.7976931348623157e308, 1e-6, 9.99e16]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_per_cell_reference(self, data):
        n = data.draw(st.integers(0, 12), label="rows")
        floats = st.one_of(st.sampled_from(self._SPECIAL),
                           st.floats(width=64, allow_nan=False, allow_infinity=False))
        kinds = {
            "int": lambda: data.draw(st.lists(
                st.one_of(st.sampled_from([0, -1, 2**60, -(2**62)]),
                          st.integers(-(2**63), 2**63 - 1)), min_size=n, max_size=n)),
            "int64": lambda: np.array(data.draw(st.lists(
                st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)), dtype=np.int64),
            "uint64": lambda: np.array(data.draw(st.lists(
                st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
                min_size=n, max_size=n)), dtype=np.uint64),
            "object": lambda: np.array(data.draw(st.lists(floats, min_size=n, max_size=n)),
                                       dtype=object),
            "float": lambda: data.draw(st.lists(floats, min_size=n, max_size=n)),
            "float64": lambda: np.array(data.draw(st.lists(floats, min_size=n, max_size=n))),
            "float32": lambda: np.array(
                data.draw(st.lists(st.one_of(st.sampled_from(self._SPECIAL[:5]),
                                             st.floats(width=32, allow_nan=False,
                                                       allow_infinity=False)),
                                   min_size=n, max_size=n)),
                dtype=np.float32),
        }
        names = data.draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6),
                          label="columns")
        columns = [kinds[name]() for name in names]
        header = tuple(f"{name}{i}" for i, name in enumerate(names))
        assert csv_text(header, *columns) == reference_csv(header, list(zip(*columns)))


def finite_doubles(bits):
    """The finite doubles among raw 64-bit patterns."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


class TestExactCells:
    """Whole-column cells against the per-cell ``%.17g`` reference, byte for byte."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=np.float64)
        assert csv_text(("v", "w"), values, -values) == reference_csv(
            ("v", "w"), [(v, -v) for v in values.tolist()])

    _EDGES = [0, 1, 2**63, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**64 - 1)),
                    min_size=1, max_size=64))
    def test_bit_patterns(self, bits):
        self.check(finite_doubles(bits))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0x3EA, 0x438),
                              st.integers(0, 2**52 - 1)), min_size=1, max_size=64))
    def test_bit_patterns_near_the_window(self, fields):
        # Exponents 2^-21 .. 2^57, the vectorized window and a step beyond it.
        self.check(finite_doubles([s << 63 | e << 52 | m for s, e, m in fields]))

    def test_powers_of_ten_and_window_edges(self):
        anchors = [float(f"1e{k}") for k in range(-7, 18)] + [9.99e16, 2.0**53, 2.0**56]
        values = [np.nextafter(a, direction) for a in anchors for direction in (0.0, np.inf)]
        values += [np.nextafter(np.nextafter(a, 0.0), 0.0) for a in anchors]
        self.check(anchors + values)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_half_even_ties(self, data):
        # v = m / 2^(d+1) with m odd makes v * 10^d an odd multiple of 1/2:
        # the 17-digit mantissa of v in [10^(16-d), 10^(17-d)) is a tie.
        d = data.draw(st.integers(1, 22), label="d")
        decade = Fraction(10) ** (16 - d), Fraction(10) ** (17 - d)
        low = math.ceil(decade[0] * 2 ** (d + 1))
        high = min(2**53, decade[1] * 2 ** (d + 1))
        m = data.draw(st.integers(low // 2, math.ceil(high) // 2 - 1), label="m") * 2 + 1
        v = math.ldexp(m, -(d + 1))
        assert decade[0] <= Fraction(v) < decade[1]
        assert (Fraction(v) * 10**d).denominator == 2
        self.check([v])

    @pytest.mark.parametrize("error", [-2.0, -1.0, 1.0, 2.0])
    def test_a_wrong_exponent_estimate_costs_only_speed(self, monkeypatch, error):
        # Off by one, the estimate is stepped; off by two, the cell goes to
        # the per-cell formatter.  Either way it prints exactly.  (Significands
        # below 9 keep a mantissa two digits too long within int64.)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
        rng = np.random.default_rng(5)
        signs = rng.choice([-1.0, 1.0], 200)
        self.check(signs * rng.uniform(1.0, 9.0, 200) * 10.0 ** rng.integers(-5, 17, 200))

    def test_a_tie_rounds_to_even(self):
        assert csv_text(("v",), np.array([1234567890123456.75, 1234567890123456.25])) == (
            "v\n1234567890123456.8\n1234567890123456.2\n")

    @pytest.mark.parametrize("rows", [0, 1, exports._BLOCK_ROWS - 1, exports._BLOCK_ROWS,
                                      exports._BLOCK_ROWS + 1])
    def test_row_counts_around_a_block(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-12, 20, rows)
        x[::7] = 0.0
        columns = (x, rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64, endpoint=True),
                   x.astype(np.float32), x.astype(object), np.arange(rows, dtype=np.uint64))
        header = ("x", "k", "f", "o", "u")
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
        # A DomainError, so the CLI exits 3 with one line; still a ValueError.
        with pytest.raises(DomainError, match="not JSON compliant: nan"):
            json_text({"v": float("nan")})
        with pytest.raises(DomainError, match="not JSON compliant: inf"):
            json_text({"v": [1.0, float("inf")]})
        with pytest.raises(ValueError):
            json_text({"v": -math.inf})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            json_text({"v": object()})

    def test_non_string_key_rejected(self):
        for doc in ({1: 2.0}, {"a": 1.0, 2: 3.0}, [{1: 2.0}, {1: 3.0}]):
            with pytest.raises(TypeError):
                json_text(doc)


def reference_json(doc) -> str:
    """The standard library's writer, which json_text must match byte for byte."""

    def plain(value):
        if isinstance(value, (np.generic, np.ndarray)):
            return value.tolist()
        raise TypeError(f"cannot export {type(value).__name__} value {value!r}")

    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=plain) + "\n"


_KEYS = st.one_of(  # non-ASCII, quotes, '%' and control characters too
    st.sampled_from(["r", "plus", "%s", "50%", "\u00e9", '"q"', "\n", ""]), st.text(max_size=6))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FINITE, st.text(max_size=8),
    _FINITE.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.booleans().map(np.bool_),
    st.lists(_FINITE, max_size=4).map(np.array),
    st.lists(st.integers(-5, 5), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
)


@st.composite
def _records(draw):
    """A list of flat records: mostly one key set of floats, sometimes not."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({k: _FINITE for k in keys}), min_size=1,
                         max_size=6))
    spoil = draw(st.sampled_from(["none", "none", "drop key", "add key", "int value",
                                  "numpy value", "None value"]))
    if spoil != "none":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        key = draw(st.sampled_from(keys))
        if spoil == "drop key":
            del row[key]
        elif spoil == "add key":
            row[draw(_KEYS) + "+"] = 1.0
        else:
            row[key] = {"int value": 3, "numpy value": np.float64(0.5),
                        "None value": None}[spoil]
    return rows


_DOCS = st.recursive(
    st.one_of(_SCALARS, _records()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=12,
)


class TestJsonTextMatchesJsonDumps:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_DOCS)
    def test_documents(self, doc):
        assert json_text(doc) == reference_json(doc)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_non_finite_raises_as_json_dumps_does(self, data):
        rows = data.draw(_records(), label="records")
        bad = data.draw(st.sampled_from([math.nan, -math.inf, math.inf, np.float64("nan")]))
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        row[data.draw(st.sampled_from(sorted(row) or ["v"]))] = bad
        doc = data.draw(st.sampled_from([rows, {"samples": rows}, [rows, 1.0]]))
        with pytest.raises(ValueError) as expected:
            reference_json(doc)
        with pytest.raises(ValueError) as got:
            json_text(doc)
        assert str(got.value) == str(expected.value)

    def test_only_flat_float_records_go_by_columns(self):
        rows = [{"r": 0.5 * i, "plus": 1.0 / (i + 1), "minus": -2.0**-i} for i in range(40)]
        assert exports._float_records(rows, "\n    ") is not None
        for spoiled in ([*rows, {"r": 1.0}], [*rows, {**rows[0], "r": 1}],
                        [*rows, {**rows[0], "r": math.nan}], [*rows, [1.0]], [{}]):
            assert exports._float_records(spoiled, "\n    ") is None
        doc = {
            "L": 0,
            "potential_samples": [{"r": 0.1, "plus": 1.0, "minus": 3.0},
                                  {"r": 0.2, "plus": 2.0, "minus": 4.0}],
            "spectrum": [{"level": 0, "plus": 1.5, "minus": None}],
        }
        assert json_text(doc) == reference_json(doc)


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

