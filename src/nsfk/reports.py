"""Plain-text and CSV emission shared by the verification pipelines."""

from __future__ import annotations

import csv
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


def _cells(column) -> list[str]:
    """The formatted values of one column: a float array in one pass over
    its ``tolist()``, anything else value by value with :func:`fmt`."""
    if isinstance(column, np.ndarray) and column.dtype == float:
        return list(map("{:.17g}".format, column.tolist()))
    return list(map(fmt, column))


def write_csv(path, columns: Mapping[str, Sequence]) -> None:
    """Deterministic CSV writer; floats printed with 17 significant digits.

    ``columns`` maps each field name, in order, to its column of values;
    every column has one value per row.
    """
    cells = [_cells(col) for col in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        writer.writerows(zip(*cells, strict=True))
