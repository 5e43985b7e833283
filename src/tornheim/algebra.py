"""Exact arithmetic foundation: roots of unity and degenerate binomials.

Roots of unity are kept as exact modular exponents (never as floating
complex numbers) so that decompositions stay exact symbols; conversion to
a complex double happens only at evaluation time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, init=False, eq=False)
class RootOfUnity:
    """The root of unity exp(2*pi*i * exponent/order), stored canonically.

    The stored pair is always reduced: 0 <= exponent < order and
    gcd(exponent, order) == 1, so two instances compare equal exactly when
    they are the same point on the unit circle.  The value 1 is (0, 1).

    The hash, that of the stored pair, is computed once at construction:
    roots key every memo of the evaluator.  It is not a field, so repr sees
    the pair alone, and a pickle carries the pair and rebuilds the root
    through the constructor.  == compares the hashes first and then the
    pair, without building tuples.  The pair and the hash are slots, set
    with object.__setattr__: a root has no instance dict, which takes a
    root from about 350 to about 160 bytes on CPython 3.11.
    """

    __slots__ = ("exponent", "order", "_hash")

    exponent: int
    order: int

    def __init__(self, exponent: int, order: int) -> None:
        if not isinstance(exponent, int) or not isinstance(order, int):
            raise TypeError("exponent and order must be integers")
        if order < 1:
            raise ValueError("order must be a positive integer")
        e = exponent % order
        g = math.gcd(e, order)
        e, n = e // g, order // g
        object.__setattr__(self, "exponent", e)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "_hash", hash((e, n)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RootOfUnity:
            return NotImplemented
        return self._hash == other._hash and self.exponent == other.exponent and self.order == other.order

    def __reduce__(self):
        return (RootOfUnity, (self.exponent, self.order))

    @classmethod
    def parse(cls, text: str) -> "RootOfUnity":
        """Parse "k/N" (meaning exp(2*pi*i*k/N)); also accepts 1, -1, i, -i."""
        t = text.strip()
        shorthand = {"1": (0, 1), "-1": (1, 2), "i": (1, 4), "-i": (3, 4)}
        if t in shorthand:
            return cls(*shorthand[t])
        if "/" in t:
            num, _, den = t.partition("/")
            try:
                return cls(int(num), int(den))
            except ValueError as exc:
                raise ValueError(f"invalid root of unity {text!r}: {exc}") from None
        raise ValueError(f'invalid root of unity {text!r}: expected "k/N", 1, -1, i or -i')

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.exponent, self.order)

    def conjugate(self) -> "RootOfUnity":
        """The inverse; a real root (order 1 or 2) is its own conjugate."""
        return self if self.order <= 2 else self.inverse()

    def value(self) -> complex:
        return root_value(self)

    def as_fraction_str(self) -> str:
        return f"{self.exponent}/{self.order}"

    def sort_key(self) -> tuple[int, int]:
        return (self.order, self.exponent)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return root_mul(self, other)

    def __pow__(self, n: int) -> "RootOfUnity":
        return RootOfUnity(self.exponent * n, self.order)

    def __str__(self) -> str:
        if self.order == 1:
            return "1"
        if self.order == 2:
            return "-1"
        return self.as_fraction_str()


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)


def root_mul(a: RootOfUnity, b: RootOfUnity) -> RootOfUnity:
    """Product of two roots of unity (addition of angles mod 1)."""
    return RootOfUnity(a.exponent * b.order + b.exponent * a.order, a.order * b.order)


def root_inv(a: RootOfUnity) -> RootOfUnity:
    """Inverse root: root_mul(a, root_inv(a)) == ONE."""
    return a.inverse()


def root_value(a: RootOfUnity) -> complex:
    """exp(2*pi*i*k/N) in double precision.

    Axis points come out exact, and conjugate roots produce exactly
    conjugate doubles (the upper half plane mirrors the lower); both
    properties are relied on by the evaluator's root-power tables.
    """
    e, n = a.exponent, a.order
    if e == 0:
        return complex(1.0, 0.0)
    if 2 * e == n:
        return complex(-1.0, 0.0)
    if 4 * e == n:
        return complex(0.0, 1.0)
    if 4 * e == 3 * n:
        return complex(0.0, -1.0)
    if 2 * e > n:
        return root_value(RootOfUnity(n - e, n)).conjugate()
    theta = 2.0 * math.pi * e / n
    return complex(math.cos(theta), math.sin(theta))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient via the falling factorial n(n-1)...(n-k+1)/k!.

    Consequences needed by the series decomposition's boundary cases:
    binomial(-1, 0) == 1 (empty product) and binomial(m, k) == 0 whenever
    0 <= m < k (the falling factorial crosses zero).  Exact arbitrary
    precision integers throughout, so overflow cannot occur.

    The row n == -1 is only defined at k == 0; other k would produce a
    signed value and are rejected.
    """
    if not isinstance(n, int) or not isinstance(k, int):
        raise TypeError("binomial arguments must be integers")
    if k < 0:
        raise ValueError("binomial requires k >= 0")
    if n < -1:
        raise ValueError("binomial requires n >= -1")
    if n == -1:
        if k == 0:
            return 1
        raise ValueError("binomial(-1, k) is defined only for k = 0")
    return math.comb(n, k)
