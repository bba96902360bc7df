"""Deterministic CSV rendering and atomic file emission."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ptbound.errors import TableFormatError
from ptbound.tableio import ColumnTable, format_cell, render_csv, write_csv, write_text


class TestFormatCell:
    def test_string_passes_verbatim(self):
        # Published digits must survive untouched.
        assert format_cell("-2.01518700249") == "-2.01518700249"
        assert format_cell("") == ""

    def test_bool_renders_as_bit(self):
        assert format_cell(True) == "1"
        assert format_cell(False) == "0"

    def test_int(self):
        assert format_cell(42) == "42"
        assert format_cell(-7) == "-7"

    def test_float_eleven_significant_digits(self):
        assert format_cell(1.5) == "1.5000000000e+00"
        assert format_cell(-2.015187002220854) == "-2.0151870022e+00"
        assert format_cell(0.0) == "0.0000000000e+00"
        assert format_cell(6.25e-31) == "6.2500000000e-31"

    def test_nan_and_inf_render(self):
        assert format_cell(math.nan) == "nan"
        assert format_cell(math.inf) == "inf"

    def test_structural_characters_rejected(self):
        with pytest.raises(TableFormatError):
            format_cell("a,b")
        with pytest.raises(TableFormatError):
            format_cell("a\nb")
        with pytest.raises(TableFormatError):
            format_cell("a\rb")

    def test_unsupported_type(self):
        with pytest.raises(TableFormatError):
            format_cell(None)
        with pytest.raises(TableFormatError):
            format_cell([1, 2])


class TestRenderCsv:
    def test_layout(self):
        text = render_csv(["a", "b"], [[1, 2.0], ["x", True]])
        assert text == "a,b\n1,2.0000000000e+00\nx,1\n"

    def test_deterministic(self):
        header = ["q", "v"]
        rows = [["r", 0.1], ["s", -3.4e8]]
        assert render_csv(header, rows) == render_csv(header, rows)

    def test_row_width_enforced(self):
        with pytest.raises(TableFormatError, match="header has 2"):
            render_csv(["a", "b"], [[1]])

    def test_header_only(self):
        assert render_csv(["a"], []) == "a\n"


CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.booleans(), st.integers(),
    st.text(st.characters(blacklist_characters=",\n\r")),
)


class TestRenderInline:
    @given(st.integers(1, 6).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width))
    ))
    def test_equals_format_cell_per_cell(self, rows):
        # render_csv formats float cells inline; every cell must read as
        # format_cell renders it.
        header = [f"c{i}" for i in range(len(rows[0]))] if rows else ["c0"]
        expected = "".join(",".join(map(format_cell, row)) + "\n" for row in [header, *rows])
        assert render_csv(header, rows) == expected


def column_cells(values) -> list[str]:
    """Each float of a 1-d array as a one-column ColumnTable renders it."""
    x = np.asarray(values, dtype=np.float64)
    return render_csv(["x"], ColumnTable(x.reshape(-1, 1))).split("\n")[1:-1]


def expected_cells(values) -> list[str]:
    return [format_cell(float(v)) for v in values]


_MAX = sys.float_info.max
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
            _MAX, -_MAX, 1e-12, 9.9999999999e-13, 1e33, 9.99999999995e32]


class TestColumnFormatter:
    """The vectorized float formatter against format_cell(float(x)), byte
    for byte, on and around every case its fast path must hand back."""

    @given(st.lists(st.floats(), max_size=80))
    @example(_SPECIAL)
    def test_property(self, values):
        assert column_cells(values) == expected_cells(values)

    def test_near_ties(self):
        # (k + 1/2 +- j 2^-20) 10^(e-10): the digit after the eleventh is a
        # 5 followed by nearly all 0s or all 9s, at every fast-path exponent.
        rng = np.random.default_rng(30)
        k = rng.integers(10**10, 10**11, 120).astype(np.float64)
        values = []
        for e in range(-12, 13):
            for j in range(-3, 4):
                scaled = k + 0.5 + j * 2.0**-20
                values.append(scaled / 10.0 ** (10 - e) if e < 10 else scaled * 10.0 ** (e - 10))
        values = np.concatenate(values)
        values = np.concatenate([values, -values])
        assert column_cells(values) == expected_cells(values)

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-30, 31)])
        values = np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
        )
        values = np.concatenate([values, -values])
        assert column_cells(values) == expected_cells(values)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(3121)
        magnitudes = rng.standard_normal(60_000) * 10.0 ** rng.uniform(-16, 36, 60_000)
        bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([magnitudes, bits])
        assert column_cells(values) == expected_cells(values)


ROWS = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=n, max_size=n),
        st.lists(st.text(st.characters(blacklist_characters=",\n\r")), min_size=n, max_size=n),
    )
)


class TestColumnTable:
    """A ColumnTable renders as its rows do, the row path's bytes and errors."""

    @given(ROWS, st.booleans())
    @example(([[1.0, -2.5, math.nan]], ["\u00c5ngstr\u00f6m"]), True)
    @example(([[1.0, -2.5, 0.0], [3.0, 4.0, 5.0]], ["a\x00b", "c"]), True)
    @example(([[1.0, 2.0, 3.0]], [""]), True)
    def test_equals_row_path(self, data, with_labels):
        values, labels = data
        table = ColumnTable(np.array(values).reshape(-1, 3), labels if with_labels else None)
        header = ["m", "a", "b", "c"][not with_labels:]
        assert len(table) == len(values)
        expected = "".join(",".join(map(format_cell, row)) + "\n" for row in [header, *table])
        assert render_csv(header, table) == expected == render_csv(header, list(table))

    def test_width_mismatch_is_the_row_error(self):
        with pytest.raises(TableFormatError, match="row has 3 cells, header has 2"):
            render_csv(["a", "b"], ColumnTable(np.ones((2, 2)), ["x", "y"]))
        assert render_csv(["a"], ColumnTable(np.ones((0, 2)))) == "a\n"

    def test_bad_label_is_the_row_error(self):
        with pytest.raises(TableFormatError, match="corrupt"):
            render_csv(["m", "v"], ColumnTable(np.ones((2, 1)), ["ok", "a,b"]))

    def test_unencodable_label_fails_in_write(self, tmp_path):
        table = ColumnTable(np.ones((1, 1)), ["X\udc80"])
        assert render_csv(["m", "v"], table) == "m,v\nX\udc80,1.0000000000e+00\n"
        with pytest.raises(TableFormatError, match="UTF-8"):
            write_csv(tmp_path / "t.csv", ["m", "v"], table)
        assert list(tmp_path.iterdir()) == []

    def test_labels_other_than_text_take_the_row_path(self):
        # 1, 1.0 and True are one dict key; each label renders as its own cell
        table = ColumnTable(np.full((3, 1), 0.5), [1, 1.0, True])
        assert render_csv(["m", "v"], table) == (
            "m,v\n1,5.0000000000e-01\n1.0000000000e+00,5.0000000000e-01\n1,5.0000000000e-01\n"
        )

    def test_shape_checked(self):
        with pytest.raises(TableFormatError, match="2-d"):
            ColumnTable(np.ones(3))
        with pytest.raises(TableFormatError, match="2 labels for 3 rows"):
            ColumnTable(np.ones((3, 1)), ["a", "b"])


class TestWriteCsv:
    def test_writes_lf_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2]])
        data = path.read_bytes()
        assert data == b"a,b\n1,2\n"
        assert not (tmp_path / "t.csv.partial").exists()

    def test_byte_identical_rewrites(self, tmp_path):
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        rows = [["I2", 0, 0, -2.015187002220854, "-2.01518700249"]]
        header = ["m", "n", "l", "e", "ref"]
        write_csv(p1, header, rows)
        write_csv(p2, header, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_render_failure_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(TableFormatError):
            write_csv(path, ["a"], [[1], [2, 3]])
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_write_failure_removes_partial(self, tmp_path, monkeypatch):
        # Force the failure after the temp file exists.
        import ptbound.tableio as tableio

        def boom(fd):
            raise OSError("disk full")

        monkeypatch.setattr(tableio.os, "fsync", boom)
        path = tmp_path / "t.csv"
        with pytest.raises(OSError):
            write_csv(path, ["a"], [[1]])
        assert not path.exists()
        assert not (tmp_path / "t.csv.partial").exists()

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [[1]])
        write_csv(path, ["a"], [[2]])
        assert path.read_bytes() == b"a\n2\n"


class TestWriteText:
    def test_writes_utf8_bytes_as_given(self, tmp_path):
        path = tmp_path / "r.txt"
        write_text(path, "\u00c5ngstr\u00f6m\nline")
        assert path.read_bytes() == "\u00c5ngstr\u00f6m\nline".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["r.txt"]

    def test_unencodable_text_creates_no_file(self, tmp_path):
        with pytest.raises(TableFormatError):
            write_text(tmp_path / "r.txt", "X\udc80")
        assert list(tmp_path.iterdir()) == []
