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


def _mirror_half(columns: Sequence) -> int:
    """n // 2 if the table of ``columns`` is mirrored, else 0.

    A mirrored table has a row count n >= 2 and only 1-D float64 columns.
    An odd n has a middle row whose first column holds the bits of +0.0;
    the halves are the n // 2 rows on either side of it (of the middle of
    the table, for an even n).  The first column's second half is finite
    and > 0, and its first half is that half reversed with the sign bit
    set; every other column's first half is its second half reversed; both
    bit for bit.
    """
    if not columns or not all(isinstance(c, np.ndarray) and c.dtype == float
                              and c.ndim == 1 for c in columns):
        return 0
    n = columns[0].size
    half = n // 2
    if n < 2 or any(c.size != n for c in columns):
        return 0
    if n % 2 and columns[0][half:half + 1].view(np.int64)[0] != 0:
        return 0                        # a middle xi that is not +0.0
    x = columns[0][n - half:]
    if not (np.isfinite(x).all() and (x > 0).all()):
        return 0
    # the bits of each first half against those its mirror gives
    mirrors = [-x, *(c[n - half:] for c in columns[1:])]
    if all(np.array_equal(c[:half].view(np.int64), m[::-1].view(np.int64))
           for c, m in zip(columns, mirrors)):
        return half
    return 0


def write_csv(path, columns: Mapping[str, Sequence]) -> None:
    """Deterministic CSV writer; floats printed with 17 significant digits.

    ``columns`` maps each field name, in order, to its column of values;
    every column has one value per row.  Fields are quoted by the rule of
    ``csv.writer`` with a newline line terminator (see CSV_SCHEMAS.md), and
    a row whose only field is empty is written ``""``.  Each row is
    formatted from one ``%`` template, and the text is written in one call.

    Only the rows from the middle down of a mirrored table (see
    :func:`_mirror_half`), such as ``sigma.csv`` and ``eigen_tracks.csv``
    on their sign-mirrored grids, are formatted: the rows above the middle
    are the rows below it in reverse order, each prefixed ``-``, since
    ``'%.17g' % -x == '-' + '%.17g' % x`` for a finite x > 0.  An odd
    table's middle row (xi = +0.0) is formatted once and not mirrored.
    """
    cols = list(columns.values())
    half = _mirror_half(cols)
    fields = [_column(col[half:] if half else col) for col in cols]
    line = ",".join(spec for spec, _ in fields).__mod__
    body = list(map(line, zip(*(values for _, values in fields), strict=True)))
    del fields                          # freed before the join: a lower peak
    mirrored = ["-" + row for row in reversed(body[-half:])] if half else []
    rows = [",".join(map(_quoted, columns)), *mirrored, *body]
    if len(columns) == 1:
        rows = [row or '""' for row in rows]
    rows.append("")                     # the last row's line terminator
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(rows))
