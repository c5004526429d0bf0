"""Plain-text and CSV emission shared by the verification pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np


def fmt(x) -> str:
    """Bit-stable float formatting (17 significant digits round-trips binary64)."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass
class Check:
    """One verified condition: pass/fail plus the observed margin or residual."""

    name: str
    passed: bool
    observed: float
    tolerance: Optional[float] = None
    detail: str = ""


@dataclass
class CheckReport:
    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            tol = f" tol={fmt(c.tolerance)}" if c.tolerance is not None else ""
            detail = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"  [{status}] {c.name}: observed={fmt(c.observed)}{tol}{detail}")
        return "\n".join(lines)


def check_columns(sections: Sequence[CheckReport]) -> dict[str, list]:
    """The CSV columns of the checks of ``sections``, one row per check."""
    checks = [(s.title, c) for s in sections for c in s.checks]
    return {
        "report": [title for title, _ in checks],
        "check": [c.name for _, c in checks],
        "passed": [int(c.passed) for _, c in checks],
        "observed": [c.observed for _, c in checks],
        "tolerance": ["" if c.tolerance is None else c.tolerance for _, c in checks],
        "detail": [c.detail for _, c in checks],
    }


def _quoted(cell: str) -> str:
    """``cell`` as a CSV field: wrapped in double quotes, its own quotes
    doubled, if it holds a comma, a double quote or a newline."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _column(column) -> tuple[str, list]:
    """The conversion and the values of one column: a float array is
    formatted ``%.17g`` from its ``tolist()`` (no float field needs quotes),
    anything else value by value with :func:`fmt`, then quoted, and
    substituted ``%s``."""
    if isinstance(column, np.ndarray) and column.dtype == float:
        return "%.17g", column.tolist()
    return "%s", [_quoted(fmt(v)) for v in column]


def write_csv(path, columns: Mapping[str, Sequence]) -> None:
    """Deterministic CSV writer; floats printed with 17 significant digits.

    ``columns`` maps each field name, in order, to its column of values;
    every column has one value per row.  Fields are quoted by the rule of
    ``csv.writer`` with a newline line terminator (see CSV_SCHEMAS.md), and
    a row whose only field is empty is written ``""``.  Each row is
    formatted from one ``%`` template, and the text is written in one call.
    """
    fields = [_column(col) for col in columns.values()]
    line = ",".join(spec for spec, _ in fields).__mod__
    rows = [",".join(map(_quoted, columns)),
            *map(line, zip(*(values for _, values in fields), strict=True))]
    del fields                          # freed before the join: a lower peak
    if len(columns) == 1:
        rows = [row or '""' for row in rows]
    rows.append("")                     # the last row's line terminator
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(rows))
