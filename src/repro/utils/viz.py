"""Text tables and CSV report helpers."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["write_csv", "format_table"]


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence]) -> Path:
    """Write rows to a CSV file, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


def format_table(header: Sequence[str], rows: Iterable[Sequence],
                 float_fmt: str = "{:.4g}") -> str:
    """Format rows as a fixed-width text table (paper-style report)."""
    str_rows = []
    for row in rows:
        str_rows.append([
            float_fmt.format(v) if isinstance(v, float) else str(v) for v in row])
    widths = [len(h) for h in header]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [" | ".join(h.ljust(w) for h, w in zip(header, widths)), sep]
    for row in str_rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
