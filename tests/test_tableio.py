"""Deterministic CSV rendering and atomic file emission."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptbound.errors import TableFormatError
from ptbound.tableio import format_cell, render_csv, write_csv, write_text


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
