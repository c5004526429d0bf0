"""Plain-text and CSV emission shared by the verification pipelines."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Optional


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

    def rows(self) -> list[dict]:
        return [
            {
                "report": self.title,
                "check": c.name,
                "passed": int(c.passed),
                "observed": c.observed,
                "tolerance": "" if c.tolerance is None else c.tolerance,
                "detail": c.detail,
            }
            for c in self.checks
        ]


def write_csv(path, fieldnames: Iterable[str], rows: Iterable[dict]) -> None:
    """Deterministic CSV writer; floats printed with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        fieldnames = list(fieldnames)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([fmt(row[k]) for k in fieldnames])
