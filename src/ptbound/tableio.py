"""Deterministic CSV emission.

Identical inputs must produce identical bytes: floats are rendered with
a fixed 11-significant-digit exponent format, line endings are LF, the
header row is mandatory, and files are written atomically
(write-to-temp then rename) so a failure never leaves a partial output
behind.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

from .errors import TableFormatError

__all__ = ["format_cell", "render_csv", "write_csv", "write_text"]

Cell = str | int | float


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


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """CSV text: header then rows, LF line endings, trailing newline."""
    lines = [",".join(format_cell(h) for h in header)]
    width = len(header)
    for row in rows:
        # format_cell's float rendering inline: most cells are floats
        cells = [f"{c:.10e}" if type(c) is float else format_cell(c) for c in row]
        if len(cells) != width:
            raise TableFormatError(
                f"row has {len(cells)} cells, header has {width}"
            )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Cell]]) -> None:
    """Atomically write a CSV file, fully rendered before it is written."""
    write_text(path, render_csv(header, rows))
