"""Deterministic CSV emission.

Identical inputs must produce identical bytes: floats are rendered with
a fixed 11-significant-digit exponent format, line endings are LF, the
header row is mandatory, and files are written atomically
(write-to-temp then rename) so a failure never leaves a partial output
behind.

A table comes as rows of cells, or as a ColumnTable: a float64 block
with an optional leading text column.  A ColumnTable's floats are
formatted all at once, each cell's text the ``f"{x:.10e}"`` of
format_cell, byte for byte.  The formatter scales |x| by 10^p with
p = 10 - floor(log10 |x|), clipped to |p| <= 22 so that the double 10^p
is exact.  That is one rounding, so the scaled value s lies within
2^-17 (half an ulp below 2^37) of |x| 10^p.  Unless s is within 2^-16
of a half-integer, s and |x| 10^p round half-even to the same integer
D, and where 1e10 <= s and D < 1e11 the digits of D with exponent
10 - p are the exact decimal rounding, whatever log10 returned.  Every
other cell takes the f-string, one at a time: zero, -0.0, inf and nan,
near-ties, and |x| outside [1e-12, 1e33) or where log10 rounded across
a power of ten.  On the benchmark's artifacts tables that is about 1%
of the cells, nearly all below 1e-12.  The sign has a byte of its own
and the exponent three, NUL where unused; the NULs are deleted from the
table's joined buffer in one pass.  A text cell holding a NUL, or one
that UTF-8 cannot encode, sends the table through the row path
instead, so its bytes and its errors are the row path's.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import TableFormatError

__all__ = ["ColumnTable", "format_cell", "render_csv", "write_csv", "write_text"]

Cell = str | int | float


class ColumnTable:
    """A table by columns: a 2-d float64 block, one row per table row, after
    an optional leading column of text labels, one per row.

    Its len() is its row count, and iterating it gives its rows as lists
    of cells, the same table as the row form.
    """

    def __init__(self, values: np.ndarray, labels: Sequence[str] | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.labels = labels
        if self.values.ndim != 2:
            raise TableFormatError(f"column block must be 2-d, got {self.values.ndim}-d")
        if labels is not None and len(labels) != len(self.values):
            raise TableFormatError(f"{len(labels)} labels for {len(self.values)} rows")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        rows = self.values.tolist()
        if self.labels is None:
            return iter(rows)
        return ([label, *row] for label, row in zip(self.labels, rows))


def format_cell(value: Cell) -> str:
    """Fixed-width deterministic rendering of one cell.

    Strings pass through verbatim (callers use this for published
    values whose digits must survive untouched); bools and ints print
    as integers; floats get exactly 11 significant digits.
    """
    if isinstance(value, float):  # its text never holds a "," or a newline
        return f"{value:.10e}"
    if isinstance(value, str):
        text = value
    elif isinstance(value, bool):
        text = str(int(value))
    elif isinstance(value, int):
        text = str(value)
    else:
        raise TableFormatError(f"unsupported cell type {type(value).__name__}")
    if "," in text or "\n" in text or "\r" in text:
        raise TableFormatError(f"cell {text!r} would corrupt the CSV structure")
    return text


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Cell]] | ColumnTable) -> str:
    """CSV text: header then rows, LF line endings, trailing newline.

    A ColumnTable's floats are formatted as one array (see the module
    docstring); its text is the row form's, byte for byte.
    """
    head = ",".join(format_cell(h) for h in header)
    width = len(header)
    if isinstance(rows, ColumnTable):
        body = _render_columns(rows, width)
        if body is not None:
            return f"{head}\n{body}"
    lines = [head]
    for row in rows:
        # format_cell's float rendering inline: most cells are floats
        cells = [f"{c:.10e}" if type(c) is float else format_cell(c) for c in row]
        if len(cells) != width:
            raise TableFormatError(
                f"row has {len(cells)} cells, header has {width}"
            )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# A ColumnTable row is its label, NUL-padded to an even byte count, then
# _WORDS uint16 words per float cell, then "\n" and a NUL.  A cell is
# ",", the sign (NUL if positive), the leading digit and ".", ten digits,
# "e" and the exponent's sign, and three exponent digits (the third NUL
# on the fast path) and a NUL.  Tables index by j = p + 22, p = 10 - e.
_WORDS = 10
_P = range(-22, 23)
_UP = np.array([float(10**p) if p > 0 else 1.0 for p in _P])
_DOWN = np.array([float(10**-p) if p < 0 else 1.0 for p in _P])
_NEAR_TIE = 2.0**-16


def _words(texts) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("ascii"), np.uint16)


_SIGN = _words([",\0", ",-"])
_LEAD = _words([f"{d}." for d in range(10)])
_PAIRS = _words([f"{i:02d}" for i in range(100)])
_EXP_SIGN = _words(["e+" if p <= 10 else "e-" for p in _P])
_EXP_DIGITS = _words([f"{abs(10 - p):02d}" for p in _P])
_NEWLINE = _words(["\n\0"])[0]


def _render_columns(table: ColumnTable, width: int) -> str | None:
    """The rows of a ColumnTable as CSV text, or None where the row path
    must render it: a width that does not match the header's, or a label
    that is not a str, holds a NUL or cannot be encoded as UTF-8."""
    values, labels = table.values, table.labels
    rows, floats = values.shape
    if floats + (labels is not None) != width:
        return None
    lead = 0
    if labels is not None:
        encoded = dict.fromkeys(labels)
        for label in encoded:
            if type(label) is not str or "\0" in format_cell(label):
                return None
            try:
                encoded[label] = label.encode("utf-8")
            except UnicodeEncodeError:
                return None
        lead = (max(map(len, encoded.values()), default=0) + 1) // 2 * 2
    out = np.empty((rows, lead + 2 * _WORDS * floats + 2), np.uint8)
    if labels is not None:
        padded = np.array([encoded[label] for label in labels], f"S{lead or 1}")
        out[:, :lead] = padded.view(np.uint8).reshape(rows, lead or 1)[:, :lead]
    words = out.view(np.uint16)
    _format_cells(values, words[:, lead // 2 : -1].reshape(rows, floats, _WORDS))
    words[:, -1] = _NEWLINE
    if labels is None:
        out[:, 0] = 0  # the first cell's ","
    return out.tobytes().translate(None, b"\0").decode("utf-8")


def _format_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write each cell of x (rows, k) into out (rows, k, _WORDS) uint16."""
    a = np.abs(x)
    fast = np.isfinite(a) & (a > 0.0)
    a = np.where(fast, a, 1.0)
    # j = p + 22 for p = 10 - floor(log10 a), clipped to |p| <= 22.  Where
    # that p is not the exponent's, by the clip or by log10's rounding,
    # s < 1e10 or D >= 1e11, and the cell takes the f-string.
    j = np.clip(32.0 - np.floor(np.log10(a)), 0, len(_P) - 1).astype(np.intp)
    s = a * _UP[j] / _DOWN[j]  # one of the two factors is 1
    d = np.rint(s)
    fast &= (s >= 1e10) & (d < 1e11) & (np.abs(s - np.floor(s) - 0.5) > _NEAR_TIE)
    q = np.where(fast, d, 1e10).astype(np.int64)
    for w in (6, 5, 4, 3, 2):
        q2 = q // 100
        out[..., w] = _PAIRS[q - 100 * q2]
        q = q2
    out[..., 1] = _LEAD[q]
    out[..., 0] = _SIGN[(x < 0.0).view(np.int8)]
    out[..., 7] = _EXP_SIGN[j]
    out[..., 8] = _EXP_DIGITS[j]
    out[..., 9] = 0
    slow = np.nonzero(~fast)
    if slow[0].size:
        text = b"".join(b"," + f"{v:.10e}".encode().ljust(19, b"\0") for v in x[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint16).reshape(-1, _WORDS)


def write_text(path: str | Path, text: str) -> None:
    """Atomically write text as UTF-8, line endings as given.

    The text is encoded before anything touches the filesystem, so an
    unencodable character creates no file; the temp file is removed on
    any later failure.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise TableFormatError(f"{path}: text cannot be encoded as UTF-8: {exc}") from exc
    target = Path(path)
    tmp = target.with_name(target.name + ".partial")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Cell]] | ColumnTable
) -> None:
    """Atomically write a CSV file, fully rendered before it is written."""
    write_text(path, render_csv(header, rows))
