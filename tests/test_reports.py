import csv
import io
import math

import numpy as np

from nsfk.reports import Check, CheckReport, check_columns, fmt, write_csv


def rows_oracle(columns):
    """The CSV text of ``columns`` written row by row, each value with ``fmt``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    for row in zip(*columns.values()):
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode()


class TestWriteCsv:
    def test_columns_give_the_bytes_of_per_row_formatting(self, tmp_path):
        # a float array column is formatted in one pass, a mixed column
        # value by value; both give what formatting each row gives
        columns = {
            "x": np.array([0.1, -0.0, math.nan, 1e300, 1.0 / 3.0, 2.0]),
            "n": [1, 2, 3, 4, 5, 6],
            "observed": [1.5, -0.0, math.nan, 7, True, 2.5e-17],
            "tolerance": ["", 1e-10, "", 0.0, "", 3],
            "detail": ['a, "b"', "", "plain", 'say "hi"', ",", "x\ny"],
        }
        path = tmp_path / "t.csv"
        write_csv(path, columns)
        got = path.read_bytes()
        assert got == rows_oracle(columns)
        assert b'"a, ""b"""' in got
        assert b"\n-0,2,-0," in got
        assert b"\nnan,3,nan,,plain\n" in got
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [r["detail"] for r in back] == columns["detail"]
        assert [float(r["x"]) for r in back][4] == 1.0 / 3.0

    def test_check_columns_follow_the_sections(self):
        a = CheckReport("a", [Check("one", True, 0.5, 1e-3, "d, e"),
                              Check("two", False, np.float64(2.0))])
        b = CheckReport("b", [Check("three", True, 1)])
        cols = check_columns([a, b])
        assert cols == {"report": ["a", "a", "b"], "check": ["one", "two", "three"],
                        "passed": [1, 0, 1], "observed": [0.5, 2.0, 1],
                        "tolerance": [1e-3, "", ""], "detail": ["d, e", "", ""]}
