"""Bit-exact pins of the Li layer: every value and bound in data/eval_pins.txt.

The data was written by data/make_eval_pins.py.  Work that only speeds the
Li layer up (caching, table lookups, vectorised loops) must reproduce each
repr exactly, whether the caches are cold or warm.
"""
import os
import subprocess
import sys
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


# Oracle values of MT(2,1,2) at cutoff 3000 checked at every SIMD level:
# alpha of orders 1, 3, 4 and 8 times beta of eight orders up to 12.  The
# pair (i, e^{2 pi i/3}) moved by one ulp when beta weighted the rows with
# numpy's complex *.
SWEEP_ALPHA_ORDERS = (1, 3, 4, 8)
SWEEP_BETA_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)

# Prints a hash of numpy's own complex * on fixed data, then every pin, one
# oracle value and the oracle sweep, one line each.
_BITS = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_eval_pins import SWEEP_ALPHA_ORDERS, SWEEP_BETA_ORDERS, _cases, _evaluate
from tornheim import EvalConfig, MTIndex, RootOfUnity, eval_mt_direct
from tornheim.oracle import oracle_rows

z = np.random.default_rng(0).standard_normal((4, 4096))
print(hashlib.sha256(((z[0] + 1j * z[1]) * (z[2] + 1j * z[3])).tobytes()).hexdigest())
for fields in _cases():
    v = _evaluate(fields)
    print(repr(v.value), repr(v.error_bound))
v = eval_mt_direct(MTIndex(1, 2, 3), RootOfUnity(1, 4), RootOfUnity(1, 3), EvalConfig(oracle_cutoff=12000))
print(repr(v.value), repr(v.error_bound))
idx, cfg = MTIndex(2, 1, 2), EvalConfig(oracle_cutoff=3000)
for a in SWEEP_ALPHA_ORDERS:
    rows = oracle_rows(idx, RootOfUnity(1, a), cfg)
    for b in SWEEP_BETA_ORDERS:
        v = eval_mt_direct(idx, RootOfUnity(1, a), RootOfUnity(1, b), cfg, rows=rows)
        print(repr(v.value), repr(v.error_bound))
"""


def _bits_at(features: str | None) -> subprocess.Popen:
    unset = ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    if features:
        env["NPY_ENABLE_CPU_FEATURES"] = features
    script = [sys.executable, "-c", _BITS, str(Path(__file__).parent)]
    return subprocess.Popen(script, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_pins_and_oracle_have_the_same_bits_at_every_simd_level():
    # numpy picks its SIMD loops at import; X86_V2 leaves out AVX2, FMA and
    # AVX-512.  The sentinel shows that the two levels really run different
    # complex loops, so equal pins and oracle values mean neither the Li
    # layer nor the oracle's beta weighting depends on them.
    default, baseline = _bits_at(None), _bits_at("X86_V2")
    try:
        (out, err), (baseline_out, baseline_err) = (p.communicate(timeout=300) for p in (default, baseline))
    finally:
        default.kill()
        baseline.kill()
    assert default.returncode == 0, err
    if baseline.returncode != 0:
        pytest.skip(f"numpy refused NPY_ENABLE_CPU_FEATURES=X86_V2: {baseline_err.strip()[-200:]}")
    sentinel, *bits = out.splitlines()
    baseline_sentinel, *baseline_bits = baseline_out.splitlines()
    if sentinel == baseline_sentinel:
        pytest.skip(
            "numpy's complex * rounds alike at X86_V2 and the default level"
            " (older numpy feature names, or a CPU without FMA)"
        )
    assert len(bits) == len(_cases()) + 1 + len(SWEEP_ALPHA_ORDERS) * len(SWEEP_BETA_ORDERS)
    assert bits == baseline_bits
