"""The one CSV writer behind every table the package writes."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO, Iterable, Sequence


def write_csv(target: str | Path | IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write to a path or an open handle; floats print as repr, so pass Python floats, not numpy scalars."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="") as handle:
            return write_csv(handle, header, rows)
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
