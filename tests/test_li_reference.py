"""eval_li against 30-digit references: every row of data/li_reference.txt.

data/make_li_reference.py wrote the table with mpmath; this test reads it
without mpmath.  Each row's check is exact: value, bound and reference
become Fractions, and |value - reference| + 2*err <= bound is compared in
squares, err being the row's own bound on its reference.  It runs at the
default head and at the shortest cap, max_inner_terms = 2*ord(x) + 1,
where the tail's j-series carries the most weight.
"""
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from tornheim import EvalConfig, RootOfUnity, eval_li

DATA = Path(__file__).with_name("data")


def _load_script():
    spec = importlib.util.spec_from_file_location("make_li_reference", DATA / "make_li_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _root(text: str) -> RootOfUnity:
    k, n = text.split("/")
    return RootOfUnity(int(k), int(n))


def _rows() -> list[list[str]]:
    lines = (DATA / "li_reference.txt").read_text(encoding="utf-8").splitlines()
    return [line.split() for line in lines if line and not line.startswith("#")]


ROWS = _rows()


def test_table_rows_are_the_script_shapes():
    shapes = [(int(s), int(t), x, y) for s, t, x, y, *_ in ROWS]
    assert shapes == list(_load_script().SHAPES)


def test_table_covers_every_pinned_li_shape():
    pins = (DATA / "eval_pins.txt").read_text(encoding="utf-8").splitlines()
    pinned = {tuple(line.split()[1:5]) for line in pins if line.startswith("li ")}
    assert pinned <= {tuple(row[:4]) for row in ROWS}


@pytest.mark.parametrize("row", ROWS, ids=[f"Li[{r[0]},{r[1]}]({r[2]},{r[3]})" for r in ROWS])
def test_value_within_bound_of_reference(row):
    s, t, x, y = int(row[0]), int(row[1]), _root(row[2]), _root(row[3])
    ref_re, ref_im, err = map(Fraction, row[4:])
    for cap in (EvalConfig().max_inner_terms, 2 * x.order + 1):
        v = eval_li(s, t, x, y, EvalConfig(max_inner_terms=cap))
        slack = Fraction(v.error_bound) - 2 * err
        d_re = Fraction(v.value.real) - ref_re
        d_im = Fraction(v.value.imag) - ref_im
        assert slack >= 0 and d_re**2 + d_im**2 <= slack**2, (cap, v, float(d_re), float(d_im))
