"""The CSV row and cell grammar both readers share, and the one writer behind every table."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError

# rows formed per write: bounds the Python objects alive at once, whatever N is
_CHUNK_ROWS = 65_536


def data_rows(path: str | Path, width: int) -> Iterator[tuple[int, list[str]]]:
    """(1-based line, cells) of each data row after the header line, blank and
    all-empty rows skipped; a row of another width than ``width`` is an error. Errors
    name the row, not the file: the caller locates them."""
    with open(path, newline="") as handle:
        handle.readline()
        for lineno, row in enumerate(csv.reader(handle), start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise InputError(f"row {lineno}: expected {width} columns, got {len(row)}")
            yield lineno, row


def scan_table(path: str | Path, width: int) -> np.ndarray:
    """The ``data_rows`` of ``path`` as an (N, width) float table; a cell is any number
    ``float()`` reads. The first bad cell is named as ``row N: non-numeric value '...'``."""
    cells: list[float] = []
    for lineno, row in data_rows(path, width):
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                raise InputError(f"row {lineno}: non-numeric value {cell!r}") from None
    return np.array(cells, dtype=float).reshape(-1, width)


def write_csv(path: str | Path, columns: Mapping[str, Sequence]) -> None:
    """Write ``columns`` (name -> array, range or list, all of one length; the names are
    the header) to ``path`` in an existing directory, ``_CHUNK_ROWS`` rows at a time.
    Cells go through ``np.asarray(chunk).tolist()``, so floats print as repr."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        n_rows = len(next(iter(columns.values())))
        for start in range(0, n_rows, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            writer.writerows(zip(*(np.asarray(column[chunk]).tolist() for column in columns.values())))
