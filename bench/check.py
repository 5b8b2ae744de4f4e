"""Cell-by-cell comparison of a command's reports with stored references.

Only `.txt` and `.csv` reports are compared; `run_meta.json` (wall clock)
and `effective_config.json` are not reports.  A line splits into cells at
commas and whitespace, and a `key=value` cell into its key and its value.
Cells that both parse as numbers must agree to a relative RTOL; all other
cells must match exactly.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

RTOL = 1e-9
REPORT_SUFFIXES = (".txt", ".csv")
_SPLIT = re.compile(r"[,\s]")


def cells(line):
    out = []
    for cell in _SPLIT.split(line):
        out.extend(cell.split("=", 1))
    return out


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def cells_match(ref, got):
    if ref == got:
        return True
    a, b = _number(ref), _number(got)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def compare_text(ref, got):
    """First mismatch as a message, or None when the reports agree."""
    ref_lines, got_lines = ref.splitlines(), got.splitlines()
    if len(ref_lines) != len(got_lines):
        return f"{len(got_lines)} lines, reference has {len(ref_lines)}"
    for i, (rl, gl) in enumerate(zip(ref_lines, got_lines), 1):
        rc, gc = cells(rl), cells(gl)
        if len(rc) != len(gc):
            return f"line {i}: {len(gc)} cells, reference has {len(rc)}"
        for r, g in zip(rc, gc):
            if not cells_match(r, g):
                return f"line {i}: {g!r} differs from reference {r!r}"
    return None


def report_files(directory):
    return sorted(p.name for p in Path(directory).iterdir()
                  if p.suffix in REPORT_SUFFIXES)


def compare_dir(out_dir, ref_dir):
    """Mismatch messages between a command's output and its reference."""
    want, have = report_files(ref_dir), report_files(out_dir)
    if want != have:
        return [f"report files {have}, reference has {want}"]
    problems = []
    for name in want:
        msg = compare_text((Path(ref_dir) / name).read_text(),
                           (Path(out_dir) / name).read_text())
        if msg:
            problems.append(f"{name}: {msg}")
    return problems
