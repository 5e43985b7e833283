"""Write eval_pins.txt: exact reprs of eval_li and eval_decomposition results.

    PYTHONPATH=src python3 tests/data/make_eval_pins.py

Each data line holds one case and what the evaluator returned for it:

    li s t x y tolerance max_inner_terms value bound
    mt p q r alpha beta tolerance max_inner_terms value bound

Roots are "k/N"; value and bound are Python reprs.  tests/test_eval_pins.py
recomputes every line and requires the same reprs, so any change to the
arithmetic of the Li layer that moves a single bit shows up there.
Regenerate only for a change that is meant to alter values or bounds.
"""
from __future__ import annotations

import math
from pathlib import Path

from tornheim import EvalConfig, MTIndex, RootOfUnity, decompose, eval_decomposition, eval_li

OUT = Path(__file__).with_name("eval_pins.txt")
Y_ORDERS = (1, 2, 3, 4, 6, 8, 12, 5, 7, 24)


def primitive(n: int, near: int) -> RootOfUnity:
    """A root of order exactly n, with exponent the first unit mod n from near."""
    if n == 1:
        return RootOfUnity(0, 1)
    k = near % n
    while math.gcd(k, n) != 1:
        k = (k + 1) % n
    return RootOfUnity(k, n)


def li_cases() -> list[tuple]:
    """One Li[s,t](x,y) per root order 1..24 of x, weights 3..20, plus extremes."""
    tols = (1e-10, 1e-10, 1e-13, 1e-6)
    out = []
    for n in range(1, 25):
        w = 3 + (7 * n) % 18
        s = 2 + n % (w - 2)
        x = primitive(n, n // 2)
        y = primitive(Y_ORDERS[n % len(Y_ORDERS)], 3 * n)
        out.append((s, w - s, x, y, tols[n % 4], 200000))
    one = RootOfUnity(0, 1)
    out.append((2, 1, one, one, 1e-13, 200000))
    out.append((2, 1, one, one, 1e-13, 16))
    out.append((19, 1, RootOfUnity(5, 24), RootOfUnity(7, 12), 1e-10, 200000))
    return out


def mt_cases() -> list[tuple]:
    """Decompositions: R(2,1,2), the MT(10,10,10) tolerance miss, mixed colors."""
    return [
        ((2, 1, 2), RootOfUnity(1, 2), RootOfUnity(0, 1), 1e-10),
        ((10, 10, 10), RootOfUnity(1, 2), RootOfUnity(0, 1), 1e-10),
        ((3, 4, 5), RootOfUnity(1, 4), RootOfUnity(1, 3), 1e-10),
        ((1, 2, 17), RootOfUnity(5, 24), RootOfUnity(7, 12), 1e-10),
        ((0, 3, 2), RootOfUnity(1, 8), RootOfUnity(5, 6), 1e-12),
        ((6, 0, 4), RootOfUnity(2, 5), RootOfUnity(3, 7), 1e-10),
    ]


def main() -> None:
    lines = [
        "# Exact eval_li / eval_decomposition results; see make_eval_pins.py.",
        "# li s t x y tolerance max_inner_terms value bound",
        "# mt p q r alpha beta tolerance max_inner_terms value bound",
    ]
    for s, t, x, y, tol, cap in li_cases():
        cfg = EvalConfig(tolerance=tol, max_inner_terms=cap)
        v = eval_li(s, t, x, y, cfg)
        lines.append(
            f"li {s} {t} {x.as_fraction_str()} {y.as_fraction_str()} {tol!r} {cap}"
            f" {v.value!r} {v.error_bound!r}"
        )
    for (p, q, r), a, b, tol in mt_cases():
        cfg = EvalConfig(tolerance=tol)
        v = eval_decomposition(decompose(MTIndex(p, q, r), a, b), cfg)
        lines.append(
            f"mt {p} {q} {r} {a.as_fraction_str()} {b.as_fraction_str()} {tol!r}"
            f" {cfg.max_inner_terms} {v.value!r} {v.error_bound!r}"
        )
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
