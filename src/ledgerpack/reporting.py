"""Byte-stable report rendering: CSV or line-delimited JSON.

Every report is a list of dict rows sharing one field order, and the
first row's keys are its columns.  Floats are rounded per field so the
same input always renders the same bytes.
"""

from __future__ import annotations

import csv
import io
import sys


def render_rows(rows, fmt: str = "csv", float_digits: dict | None = None) -> str:
    digits = float_digits or {}
    fieldnames = list(rows[0]) if rows else []
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            out = []
            for name in fieldnames:
                value = row.get(name, "")
                if isinstance(value, float):
                    value = f"{value:.{digits.get(name, 6)}f}"
                out.append(value)
            writer.writerow(out)
        return buf.getvalue()
    if fmt == "ldjson":
        import json  # only here, so a CSV report never loads it

        lines = []
        for row in rows:
            item = {}
            for name in fieldnames:
                value = row.get(name, None)
                if isinstance(value, float):
                    value = round(value, digits.get(name, 6))
                item[name] = value
            lines.append(json.dumps(item))
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown report format {fmt!r}")


def write_output(text: str, output: str | None) -> None:
    """Send a rendered report to stdout, or to a file when asked."""
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
