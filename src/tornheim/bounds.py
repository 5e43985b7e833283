"""Values with rigorous absolute error bounds, and the rest both evaluation paths share.

A ValueWithError is a complex double plus an absolute bound that covers all
series truncation rigorously; float roundoff is covered by conservative
machine-epsilon allowances proportional to the accumulated absolute mass of
the summed terms (so the bounds stay honest under cutoff doubling).  Both
paths return them: the decomposition's Li layer (li.py) and the direct-sum
oracle (oracle.py) that checks it.  This module holds the only names both
reach, the config and the limits on root order and cutoff among them, so
neither path imports the other.

Finished values combine by two rules only (u = eps/2, no over/underflow).
ValueWithError.combine, sum c*v over rational c, adds sum |c|*e_v plus
4*eps*mass, mass = sum |c|*|v|: each c*v is within 2u of exact and fsum
rounds their sum once, so roundoff stays below 3u*mass.  a*b adds
|a|*e_b + |b|*e_a + e_a*e_b plus 2*eps*|ab| = 4u*|ab|, above the
sqrt(5)*u*|ab| worst case of a complex product (Brent, Percival,
Zimmermann, Math. Comp. 76 (2007)).
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass
from math import fsum
from numbers import Rational

import numpy as np

from .algebra import RootOfUnity

_EPS = 2.220446049250313e-16

# Largest oracle_cutoff accepted: the oracle's scratch memory grows as
# O(cutoff) and its time as O(cutoff^2).
MAX_ORACLE_CUTOFF = 2**20

# Largest root order accepted by tail_sum, eval_li (for x, y and x*y),
# eval_mt_direct and oracle_rows, each of which refuses a larger one before
# building anything sized by the order: their root-power tables, Hurwitz
# rows and residue loops all have one entry per residue class mod the order.
MAX_ROOT_ORDER = 2**16


def _check_root_orders(caller: str, **roots: RootOfUnity) -> None:
    for name, root in roots.items():
        if root.order > MAX_ROOT_ORDER:
            raise ValueError(f"{caller}: {name} = {root} has order {root.order} > MAX_ROOT_ORDER = 2**16")


def _coefficient(c: Rational) -> float:
    """c rounded to a double; a c beyond the double range is a ValueError."""
    try:
        return float(c)
    except OverflowError:
        raise ValueError(
            "ValueWithError.combine: a coefficient is beyond the double range (|c| < 2**1024 required)"
        ) from None


@dataclass(frozen=True, init=False)
class ValueWithError:
    """A complex double plus a rigorous absolute error bound.

    The constructor coerces value to complex and error_bound to float,
    refuses a value that is not finite or a bound that is not finite and
    nonnegative, and sets each field once, so ==, hash, repr,
    dataclasses.replace and pickling are those of the plain frozen
    dataclass, and a value costs less to build: every Li value,
    combination and oracle result is one.  It sets them with
    object.__setattr__, not through the instance dict as LiTerm does:
    reading __dict__ would give every value a dict of its own, about 250
    bytes instead of 96 on CPython 3.11, and the Li memo keeps thousands.
    With LiTerm's and Decomposition's, this constructor saves 5% of the
    grid's latency_p50 and 7% of an eval pass (tests/data/ablations.txt,
    row constructors).
    """

    value: complex
    error_bound: float

    def __init__(self, value: complex, error_bound: float) -> None:
        v, b = complex(value), float(error_bound)
        if not cmath.isfinite(v):
            raise ValueError("value must be finite")
        if not 0.0 <= b < math.inf:
            raise ValueError("error bound must be finite and nonnegative")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "error_bound", b)

    @classmethod
    def combine(cls, parts: Iterable[tuple[Rational, ValueWithError]]) -> ValueWithError:
        """sum c*v over (rational c, v) pairs, fsum-combined in their order.

        Each c is rounded to a double first, as c*v would round it.  A c
        beyond the double range is a ValueError, and so is a sum that
        overflows it although every c*v is finite.
        """
        re, im, eb = [], [], []
        mass = 0.0
        for c, v in parts:
            c = _coefficient(c)
            z, a = v.value, abs(c)
            re.append(c * z.real)
            im.append(c * z.imag)
            eb.append(a * v.error_bound)
            mass += a * abs(z)
        try:
            return cls(complex(fsum(re), fsum(im)), fsum(eb) + 4.0 * _EPS * mass)
        except OverflowError:
            raise ValueError("ValueWithError.combine: the sum is beyond the double range") from None

    def __mul__(self, other: ValueWithError) -> ValueWithError:
        if not isinstance(other, ValueWithError):
            return NotImplemented
        a, b, ea, eb = self.value, other.value, self.error_bound, other.error_bound
        ab = a * b
        return ValueWithError(ab, abs(a) * eb + abs(b) * ea + ea * eb + 2.0 * _EPS * abs(ab))


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs, validated at construction.  tolerance is the
    caller's target for a bound; no evaluator reads it."""

    tolerance: float = 1e-10
    oracle_cutoff: int = 20000
    max_inner_terms: int = 200000

    def __post_init__(self) -> None:
        if not (1e-13 <= self.tolerance):
            raise ValueError("tolerance must be >= 1e-13 (double precision floor)")
        if not isinstance(self.oracle_cutoff, int) or self.oracle_cutoff < 1:
            raise ValueError("oracle_cutoff must be a positive integer")
        if self.oracle_cutoff > MAX_ORACLE_CUTOFF:
            raise ValueError(f"oracle_cutoff must be <= 2**20 = {MAX_ORACLE_CUTOFF}")
        if not isinstance(self.max_inner_terms, int) or self.max_inner_terms < 1:
            raise ValueError("max_inner_terms must be a positive integer")


DEFAULT_CONFIG = EvalConfig()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def pi_const() -> ValueWithError:
    return ValueWithError(complex(math.pi, 0.0), 1.3e-16)
