"""Bit-exact pins of the Li layer: every value and bound in data/eval_pins.txt.

The data was written by data/make_eval_pins.py.  Work that only speeds the
Li layer up (caching, table lookups, vectorised loops) must reproduce each
repr exactly, whether the caches are cold or warm.
"""
from pathlib import Path

import pytest

from tornheim import EvalConfig, MTIndex, RootOfUnity, decompose, eval_decomposition, eval_li

PINS = Path(__file__).with_name("data") / "eval_pins.txt"


def _root(text: str) -> RootOfUnity:
    k, n = text.split("/")
    return RootOfUnity(int(k), int(n))


def _cases() -> list[list[str]]:
    lines = PINS.read_text(encoding="utf-8").splitlines()
    return [line.split() for line in lines if line and not line.startswith("#")]


def _evaluate(fields: list[str]):
    kind, a, b, *rest = fields
    if kind == "li":
        x, y, tol, cap = rest[:4]
        cfg = EvalConfig(tolerance=float(tol), max_inner_terms=int(cap))
        return eval_li(int(a), int(b), _root(x), _root(y), cfg)
    c, alpha, beta, tol, cap = rest[:5]
    cfg = EvalConfig(tolerance=float(tol), max_inner_terms=int(cap))
    return eval_decomposition(decompose(MTIndex(int(a), int(b), int(c)), _root(alpha), _root(beta)), cfg)


def test_pin_table_covers_orders_weights_and_the_tolerance_miss():
    cases = _cases()
    assert len(cases) >= 30
    orders = {_root(f[3]).order for f in cases if f[0] == "li"}
    assert set(range(1, 25)) <= orders
    assert max(int(f[1]) + int(f[2]) for f in cases if f[0] == "li") == 20
    assert any(f[:4] == ["mt", "10", "10", "10"] for f in cases)


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_values_and_bounds_match_pins_bit_for_bit(cold):
    mismatches = []
    for fields in _cases():
        if cold:
            eval_li.cache_clear()
        v = _evaluate(fields)
        got = (repr(v.value), repr(v.error_bound))
        if got != tuple(fields[-2:]):
            mismatches.append((" ".join(fields[:-2]), got, tuple(fields[-2:])))
    assert not mismatches
