"""The CSV row grammar both readers share, and the one writer behind every table."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .errors import ScenarioParseError

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
                raise ScenarioParseError(f"row {lineno}: expected {width} columns, got {len(row)}")
            yield lineno, row


def write_csv(target: str | Path | IO[str], columns: Mapping[str, Sequence]) -> None:
    """Write ``columns`` (name -> array, range or list, all of one length; the names are
    the header) to a path in an existing directory or an open handle, ``_CHUNK_ROWS`` rows
    at a time. Cells go through ``np.asarray(chunk).tolist()``, so floats print as repr."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="") as handle:
            return write_csv(handle, columns)
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(columns)
    n_rows = len(next(iter(columns.values())))
    for start in range(0, n_rows, _CHUNK_ROWS):
        chunk = slice(start, start + _CHUNK_ROWS)
        writer.writerows(zip(*(np.asarray(column[chunk]).tolist() for column in columns.values())))
