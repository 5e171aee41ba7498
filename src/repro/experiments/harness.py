"""Table container, text formatting, and traced runs for experiments."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..obs import Recorder, recording, write_jsonl

__all__ = ["Table", "format_table", "traced_run"]


@contextmanager
def traced_run(trace_path: str | Path | None = None):
    """Attach a :class:`repro.obs.Recorder` to everything run in the block.

    Installs a fresh recorder process-wide (every instrumented pipeline
    picks it up without explicit plumbing) and yields it; on exit the
    event stream is archived as JSON lines to *trace_path* (if given) —
    the natural place is next to the experiment's tables/CSV output.
    The trace is archived even when the block raises.
    """
    rec = Recorder()
    try:
        with recording(rec):
            yield rec
    finally:
        if trace_path is not None:
            write_jsonl(rec, trace_path)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as an aligned monospace table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


@dataclass
class Table:
    """One regenerated artifact: title, columns, rows, free-form notes."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row) -> None:
        """Append a row (must match the header arity)."""
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table {self.title!r} has {len(self.headers)} columns"
            )
        self.rows.append(list(row))

    def note(self, text: str) -> None:
        """Attach a free-form caveat printed under the table."""
        self.notes.append(text)

    def render(self) -> str:
        """Full text rendering: title, aligned rows, notes."""
        out = [f"== {self.title} ==", format_table(self.headers, self.rows)]
        out.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(out)

    def show(self) -> None:
        """Print the rendered table to stdout."""
        print(self.render())

    def to_csv(self, path: str | Path) -> None:
        """Write the table (headers + rows) as CSV."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.headers)
            writer.writerows(self.rows)

    def column(self, name: str) -> list:
        """Extract one column by header name."""
        try:
            i = self.headers.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in {self.headers}") from None
        return [row[i] for row in self.rows]
