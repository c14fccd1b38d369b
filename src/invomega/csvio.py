"""The CSV row grammar both readers share, and the one writer behind every table."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .errors import ScenarioParseError, decoding


def data_rows(path: str | Path, width: int) -> Iterator[tuple[int, list[str]]]:
    """(1-based line, cells) of each data row after the header line, blank and
    all-empty rows skipped; a row of another width than ``width`` is an error."""
    with decoding(path), open(path, newline="") as handle:
        handle.readline()
        for lineno, row in enumerate(csv.reader(handle), start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise ScenarioParseError(
                    f"{path}: row {lineno}: expected {width} columns, got {len(row)}"
                )
            yield lineno, row


def write_csv(target: str | Path | IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write to a path (creating its directory) or an open handle; floats print as repr,
    so pass Python floats, not numpy scalars."""
    if isinstance(target, (str, Path)):
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", newline="") as handle:
            return write_csv(handle, header, rows)
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
