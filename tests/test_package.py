import importlib
import pkgutil
from pathlib import Path

import pytest

import nsfk
from nsfk import cli
from nsfk.nonlinear_solver import LEDGER_COLUMNS

MODULES = sorted(info.name for info in pkgutil.iter_modules(nsfk.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from nsfk.<module> import *`
    module = importlib.import_module(f"nsfk.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def table_names(doc: str, heading: str) -> set:
    """The first cells of the table rows under the ``## heading`` of ``doc``."""
    section = doc.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
    return {line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("|")}


def test_csv_schemas_document_every_column(tmp_path):
    # every ledger column and every summary.csv field has a row in the
    # schema document's tables
    doc = (ROOT / "CSV_SCHEMAS.md").read_text()
    cli.Report("verify-thermo", "0" * 64, 0).write(tmp_path, quiet=True)
    summary = (tmp_path / "summary.csv").read_text().splitlines()[0].split(",")
    assert set(summary) - table_names(doc, "summary.csv") == set()
    assert set(LEDGER_COLUMNS) - table_names(doc, "ledger.csv") == set()


def test_readme_layout_lists_every_module():
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("```")[1]
    listed = {line.split()[0] for line in layout.splitlines() if line.startswith("  ")}
    assert {f"{name}.py" for name in MODULES} - listed == set()
