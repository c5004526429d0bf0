import csv
import math

import numpy as np
import pytest

from nsfk.reports import Check, CheckReport, _mirror_half, check_columns, write_csv
from oracles import csv_module_write_csv


# a mirrored table: the first column's first half is its second half
# reversed and negated, every other column's first half its second half
# reversed, bit for bit
MIRRORED = {
    "xi": np.array([-2.5, -1.0, -1e-300, 1e-300, 1.0, 2.5]),
    "sigma": np.array([-0.1, 1.0 / 3.0, -0.0, -0.0, 1.0 / 3.0, -0.1]),
    "bound": np.array([math.nan, math.inf, 5e-324, 5e-324, math.inf, math.nan]),
    "x, y": np.array([1e300, -math.inf, 0.0, 0.0, -math.inf, 1e300]),
}


# an odd mirrored table: the same halves about a middle row whose xi is
# +0.0; the middle row's other cells are free
ODD_MIRRORED = {
    "xi": np.array([-2.5, -1.0, -1e-300, 0.0, 1e-300, 1.0, 2.5]),
    "sigma": np.array([-0.1, 1.0 / 3.0, -0.0, math.nan, -0.0, 1.0 / 3.0, -0.1]),
    "bound": np.array([math.nan, math.inf, 5e-324, -0.0, 5e-324, math.inf, math.nan]),
    "x, y": np.array([1e300, -math.inf, 0.0, 7.0, 0.0, -math.inf, 1e300]),
}


def near_mirror(column, row, value, table=MIRRORED):
    """``table`` with one cell replaced: no longer a mirrored table."""
    columns = {name: c.copy() for name, c in table.items()}
    list(columns.values())[column][row] = value
    return columns


def both_writers(tmp_path, columns):
    """The bytes of ``write_csv`` and of the ``csv``-module oracle."""
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_csv(ours, columns)
    csv_module_write_csv(oracle, columns)
    return ours.read_bytes(), oracle.read_bytes()


class TestWriteCsv:
    def test_columns_give_the_bytes_of_per_row_formatting(self, tmp_path):
        # a float array column is formatted in one pass, a mixed column
        # value by value; both give what the csv module writes
        columns = {
            "x": np.array([0.1, -0.0, math.nan, 1e300, 1.0 / 3.0, 2.0]),
            "n": [1, 2, 3, 4, 5, 6],
            "observed": [1.5, -0.0, math.nan, 7, True, 2.5e-17],
            "tolerance": ["", 1e-10, "", 0.0, "", 3],
            "detail": ['a, "b"', "", "plain", 'say "hi"', ",", "x\ny"],
        }
        got, want = both_writers(tmp_path, columns)
        assert got == want
        assert b'"a, ""b"""' in got
        assert b"\n-0,2,-0," in got
        assert b"\nnan,3,nan,,plain\n" in got
        with open(tmp_path / "ours.csv", newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [r["detail"] for r in back] == columns["detail"]
        assert [float(r["x"]) for r in back][4] == 1.0 / 3.0

    @pytest.mark.parametrize("columns", [
        # every character the quoting rule looks at, alone and mixed; \r
        # and other whitespace stay unquoted
        {"cell": [",", '"', "\n", "\r", "", " ", "\t", 'a,"b"\r\nc', "''", '""']},
        {"a": ["", ""], "b": ["", ""]},
        {"int": [0, -3, 10 ** 20], "bool": [True, False, True],
         "none": [None, None, None]},
        {"float": np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                            np.finfo(float).max]),
         "list": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0]},
        # an object column mixing floats with "", as check_columns' tolerance
        {"mixed": np.array([1e-10, "", 0.5, "", -0.0], dtype=object),
         "n": [1, 2, 3, 4, 5]},
        # one column: a row whose only field is empty is quoted, so that
        # it is not an empty line
        {"only": ["", "x", ""]},
        {"": [1.0, 2.0]},
        {"": np.array([1.5])},
        {"head, er": [1], 'q"uote': [2], "new\nline": [3]},
        {"no rows": []},
        {"x": np.array([], dtype=float), "y": []},
        {},
        MIRRORED,
        {"xi": MIRRORED["xi"]},
        ODD_MIRRORED,
        {"xi": ODD_MIRRORED["xi"]},
        {"xi": np.array([-1.0, 0.0, 1.0]), "y": np.array([2.0, -0.0, 2.0])},
    ], ids=["special", "empty", "int-bool-none", "nonfinite", "object",
            "one-column", "empty-header", "empty-header-float", "header",
            "no-rows", "no-rows-float", "no-columns", "mirrored",
            "mirrored-one-column", "odd-mirrored", "odd-mirrored-one-column",
            "odd-mirrored-three-rows"])
    def test_matches_the_csv_module(self, tmp_path, columns):
        got, want = both_writers(tmp_path, columns)
        assert got == want

    def test_mirrored_tables_format_half_their_rows(self):
        assert _mirror_half(list(MIRRORED.values())) == 3
        assert _mirror_half([MIRRORED["xi"]]) == 3
        # a 2-d column is no table the writer takes
        assert _mirror_half([MIRRORED["xi"][:, None]]) == 0
        # an odd table formats its middle row and the rows below it
        assert _mirror_half(list(ODD_MIRRORED.values())) == 3
        assert _mirror_half([ODD_MIRRORED["xi"]]) == 3
        assert _mirror_half([np.array([-1.0, 0.0, 1.0])]) == 1

    def test_odd_table_mirrors_the_rows_below_its_middle(self, tmp_path):
        write_csv(tmp_path / "t.csv", ODD_MIRRORED)
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert rows[4] == "0,nan,-0,7"
        assert rows[1:4] == ["-" + row for row in reversed(rows[5:])]

    @pytest.mark.parametrize("columns", [
        near_mirror(0, 1, np.nextafter(-1e-300, 0.0)),
        near_mirror(0, 2, -np.nextafter(2.5, 3.0)),
        near_mirror(1, 4, np.nextafter(-0.0, 1.0)),
        near_mirror(2, 0, -1.0),
        near_mirror(3, 5, math.nan),
        {**MIRRORED, "xi": np.array([-2.5, -1.0, math.nan, math.nan, 1.0, 2.5])},
        {**MIRRORED, "xi": np.array([-2.5, -1.0, -0.0, 0.0, 1.0, 2.5])},
        {**MIRRORED, "xi": np.array([-2.5, -1.0, 0.0, 0.0, 1.0, 2.5])},
        {**MIRRORED, "xi": np.array([-2.5, -1.0, -0.0, -0.0, 1.0, 2.5])},
        {**MIRRORED, "xi": np.array([-math.inf, -1.0, -0.5, 0.5, 1.0, math.inf])},
        {name: c[1:] for name, c in MIRRORED.items()},
        {**MIRRORED, "s": ["a", "b", "c", "c", "b", "a"]},
        {**MIRRORED, "s": np.array(["a", "b", "c", "c", "b", "a"])},
        {"xi": MIRRORED["xi"].astype(np.float32)},
        {"xi": np.array([2.0, 2.0])},
        {},
        near_mirror(0, 3, -0.0, ODD_MIRRORED),
        near_mirror(0, 3, 5e-324, ODD_MIRRORED),
        near_mirror(0, 3, math.nan, ODD_MIRRORED),
        near_mirror(0, 1, np.nextafter(-1.0, 0.0), ODD_MIRRORED),
        near_mirror(1, 0, 0.1, ODD_MIRRORED),
        near_mirror(2, 6, 0.0, ODD_MIRRORED),
        near_mirror(3, 4, -0.0, ODD_MIRRORED),
        {"xi": np.array([0.0])},
        {"xi": np.array([-1.0, 0.0, 2.0])},
    ], ids=["bit-off-first", "bit-off-first-positive", "bit-off-column",
            "sign-off-column", "nan-off-column", "nan-first", "zero-first",
            "plus-zero-first", "minus-zero-first", "inf-first", "odd-rows",
            "str-list-column", "str-array-column", "float32",
            "unsigned", "no-columns", "odd-minus-zero-middle",
            "odd-nonzero-middle", "odd-nan-middle", "odd-bit-off-first",
            "odd-cell-off-first-row", "odd-cell-off-last-row",
            "odd-sign-off-column", "one-zero-row", "odd-unequal-halves"])
    def test_near_mirrors_take_the_row_by_row_path(self, tmp_path, columns):
        assert _mirror_half(list(columns.values())) == 0
        got, want = both_writers(tmp_path, columns)
        assert got == want

    @pytest.mark.parametrize("columns", [
        {"%": ["%", "%s", "%(x)s", "%%"],
         "%s": np.array([math.nan, math.inf, -math.inf, -0.0]),
         "%(x)s": np.arange(4),
         "%%": [1, -2, 3, 10 ** 20]},
        {"%(x)s%%": ["%", "", "%%s", "a,%s"]},
    ], ids=["percent", "percent-one-column"])
    def test_percent_signs_are_cells_not_conversions(self, tmp_path, columns):
        # each row is formatted from one % template: the names and cells
        # holding % are substituted into it, never read as part of it
        got, want = both_writers(tmp_path, columns)
        assert got == want
        assert got.splitlines()[1] in (b"%,nan,0,1", b"%")

    def test_unequal_columns_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {"a": [1, 2], "b": [1]})

    def test_check_columns_follow_the_sections(self):
        a = CheckReport("a", [Check("one", True, 0.5, 1e-3, "d, e"),
                              Check("two", False, np.float64(2.0))])
        b = CheckReport("b", [Check("three", True, 1)])
        cols = check_columns([a, b])
        assert cols == {"report": ["a", "a", "b"], "check": ["one", "two", "three"],
                        "passed": [1, 0, 1], "observed": [0.5, 2.0, 1],
                        "tolerance": [1e-3, "", ""], "detail": ["d, e", "", ""]}
