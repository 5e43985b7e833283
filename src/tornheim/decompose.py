"""Exact decomposition of colored Tornheim double series.

The colored double series

    T(p,q,r; a,b) = sum_{m,n>=1} a^n b^(m+n) / (m^p n^q (m+n)^r)

rewrites, through the partial-fraction identity for 1/(x^p y^q), as an
integer combination of double polylogarithm values

    Li[s,t](x,y) = sum_{m>n>=1} x^m y^n / (m^s n^t),

namely

    T(p,q,r; a,b) = sum_{i=0}^{p-1} C(q+i-1, i) * Li[r+q+i, p-i](a*b, 1/a)
                  + sum_{j=0}^{q-1} C(p+j-1, j) * Li[r+p+j, q-j](b, a).

Subscript convention: the first subscript and the first argument of Li
belong to the outer summation index m.  (Some of the multiple-zeta-value
literature attaches them to the inner index instead; everything here,
including the bar notation below, follows the outer-first convention.)

Both sums are the partial-fraction identity for 1/(x^p y^q) at x = m,
y = n: a term c/(x^e (x+y)^f) becomes c*Li[r+f, e](a*b, 1/a) and a term
c/(y^e (x+y)^f) becomes c*Li[r+f, e](b, a).  partial_fraction is the one
place the identity is coded, and decompose the one place its terms become
Li terms.  The p = 0 and q = 0 boundary cases flow through them too: the
falling-factorial binomial convention makes every term but one vanish,
collapsing the sum to the single term the index substitution M = m+n gives
directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import MINUS_ONE, ONE, RootOfUnity, binomial, root_inv, root_mul


# Why MTIndex refuses p+r <= 1 or q+r <= 1 (p+q+r > 2 then follows).  Some
# colored series outside these conditions converge (MT(1,1,0; -1, i) =
# |log(1-i)|^2), but neither the Li layer (s = 1) nor the oracle's tail bound
# reaches them yet.
_UNCOLORED = "the uncolored series' absolute-convergence condition, applied whatever the colors"

# partial_fraction refuses p + q above this before computing any binomial.
# Its p+q coefficients C(q+i-1, i) and C(p+j-1, j) grow like 2^(p+q): at
# (2048, 2048) the largest has about 1230 digits and the expansion takes
# about 2 s; at (8000, 8000) it takes about a minute, and its coefficients
# pass Python's 4300-digit limit on converting an integer to a string.
MAX_PARTIAL_FRACTION_TERMS = 2**12


@dataclass(frozen=True)
class MTIndex:
    """Exponent triple (p,q,r) of a Tornheim series, convergence-checked.

    The conditions p+r > 1, q+r > 1 and p+q+r > 2 are those under which the
    uncolored series converges absolutely.  They are applied whatever the
    colors, and each refusal says so.  The third follows from p+q > 0 and
    the other two: r = 0 needs p, q >= 2, r = 1 needs p, q >= 1, and r >= 2
    adds p+q >= 1.
    """

    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        for name in ("p", "q", "r"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer")
        if self.p + self.q <= 0:
            raise ValueError("p+q>0 required")
        if self.p + self.r <= 1:
            raise ValueError(f"p+r>1 required: {_UNCOLORED}")
        if self.q + self.r <= 1:
            raise ValueError(f"q+r>1 required: {_UNCOLORED}")

    @property
    def weight(self) -> int:
        return self.p + self.q + self.r

    def __str__(self) -> str:
        return f"({self.p},{self.q},{self.r})"


@dataclass(frozen=True)
class PartialFractionTerm:
    """One term of the 1/(x^p y^q) expansion: coefficient / (v^e (x+y)^f).

    Exactly one of x_exp, y_exp is nonzero; it records which variable
    carries the power that is not on (x+y).
    """

    coefficient: int
    x_exp: int
    y_exp: int
    sum_exp: int

    def evaluate(self, x: float, y: float) -> float:
        return self.coefficient / (x**self.x_exp * y**self.y_exp * (x + y) ** self.sum_exp)


@lru_cache(maxsize=None, typed=True)
def partial_fraction(p: int, q: int) -> tuple[PartialFractionTerm, ...]:
    """Expand 1/(x^p y^q) into terms in x-or-y times (x+y) powers.

    1/(x^p y^q) = sum_{i<p} C(q+i-1,i) / (x^(p-i) (x+y)^(q+i))
                + sum_{j<q} C(p+j-1,j) / (y^(q-j) (x+y)^(p+j))

    valid for integers p, q >= 0 with p+q > 0 and reals x, y with
    x+y != 0.  C is the falling-factorial binomial, and terms whose
    coefficient vanishes are dropped: p+q terms when p, q >= 1, and the
    single term 1/y^q (p = 0) or 1/x^p (q = 0) otherwise.  The terms are
    computed once per (p, q), and every call returns the memo's tuple of
    frozen terms: the memo grows by one entry of at most p+q terms per
    distinct (p, q).  It is typed, so 2.0 for 2 is refused, not served.  A
    p+q above MAX_PARTIAL_FRACTION_TERMS = 2**12 is a ValueError, raised
    before any binomial is computed.
    """
    if not isinstance(p, int) or not isinstance(q, int) or p < 0 or q < 0 or p + q == 0:
        raise ValueError("partial_fraction requires integers p, q >= 0 with p+q > 0")
    if p + q > MAX_PARTIAL_FRACTION_TERMS:
        raise ValueError(
            f"partial_fraction: p+q = {p + q} is above MAX_PARTIAL_FRACTION_TERMS = 2**12;"
            " its binomial coefficients grow like 2^(p+q)"
        )
    terms = [PartialFractionTerm(binomial(q + i - 1, i), p - i, 0, q + i) for i in range(p)]
    terms += [PartialFractionTerm(binomial(p + j - 1, j), 0, q - j, p + j) for j in range(q)]
    return tuple(t for t in terms if t.coefficient)


@dataclass(frozen=True, init=False)
class LiTerm:
    """coefficient * Li[s,t](x, y) with s on the outer index.

    The constructor refuses a coefficient below 1, s below 2 or t below 1,
    or any of them not an int, and writes the fields into the instance
    dict in one step: ==, hash, repr, dataclasses.replace and pickling are
    those of the plain frozen dataclass.  Reading __dict__ gives each term a dict of its own, about
    130 bytes more; terms are built per decomposition and seldom kept.
    It saves time as ValueWithError's does (tests/data/ablations.txt, row
    constructors).
    """

    coefficient: int
    s: int
    t: int
    x: RootOfUnity
    y: RootOfUnity

    def __init__(self, coefficient: int, s: int, t: int, x: RootOfUnity, y: RootOfUnity) -> None:
        if not isinstance(coefficient, int) or coefficient < 1:
            raise ValueError("coefficient must be a positive integer")
        if not isinstance(s, int) or s < 2:
            raise ValueError("outer exponent s must be an integer >= 2")
        if not isinstance(t, int) or t < 1:
            raise ValueError("inner exponent t must be a positive integer")
        self.__dict__.update(coefficient=coefficient, s=s, t=t, x=x, y=y)

    @property
    def weight(self) -> int:
        return self.s + self.t

    def key(self) -> tuple:
        return (self.s, self.t, self.x, self.y)

    def text(self) -> str:
        body = f"Li[{self.s},{self.t}]({self.x},{self.y})"
        return body if self.coefficient == 1 else f"{self.coefficient}*{body}"

    def record(self) -> dict:
        return {
            "coeff": self.coefficient,
            "s": self.s,
            "t": self.t,
            "x": self.x.as_fraction_str(),
            "y": self.y.as_fraction_str(),
        }


def _record_int(rec: dict, key: str) -> int:
    """rec[key] as an int; a number with a fractional part, or not finite,
    is a ValueError rather than truncated to another term."""
    v = rec[key]
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"term record: {key} = {v!r} is not an integer")
    return int(v)


def term_from_record(rec: dict) -> LiTerm:
    """The LiTerm of a record as LiTerm.record writes it."""
    return LiTerm(
        _record_int(rec, "coeff"),
        _record_int(rec, "s"),
        _record_int(rec, "t"),
        RootOfUnity.parse(rec["x"]),
        RootOfUnity.parse(rec["y"]),
    )


@dataclass(frozen=True, init=False)
class Decomposition:
    """An exact identity: the series at (index, alpha, beta) equals the terms.

    The constructor refuses a term whose s + t is not the index's weight
    and two terms with one key (s, t, x, y), and writes the fields into the
    instance dict in one step, as LiTerm's does (tests/data/ablations.txt,
    row constructors).
    """

    index: MTIndex
    alpha: RootOfUnity
    beta: RootOfUnity
    terms: tuple[LiTerm, ...]

    def __init__(self, index: MTIndex, alpha: RootOfUnity, beta: RootOfUnity, terms: tuple[LiTerm, ...]) -> None:
        w = index.weight
        seen = set()
        for term in terms:
            if term.s + term.t != w:
                raise ValueError(f"term {term.text()} breaks weight {w} conservation")
            k = (term.s, term.t, term.x, term.y)
            if k in seen:
                raise ValueError(f"duplicate term key {k}; terms must be merged")
            seen.add(k)
        self.__dict__.update(index=index, alpha=alpha, beta=beta, terms=terms)

    def coefficient_sum(self) -> int:
        return sum(t.coefficient for t in self.terms)

    def to_text(self) -> str:
        return " + ".join(t.text() for t in self.terms)

    def to_records(self) -> list[dict]:
        return [t.record() for t in self.terms]


def decompose(index: MTIndex, alpha: RootOfUnity, beta: RootOfUnity) -> Decomposition:
    """Exact rewrite of the colored double series into Li terms.

    Each partial_fraction(p, q) term, in its order, becomes one Li term:
    c/(x^e (x+y)^f) becomes c*Li[r+f, e](alpha*beta, 1/alpha) and
    c/(y^e (x+y)^f) becomes c*Li[r+f, e](beta, alpha).  Terms with
    identical (s, t, x, y) are merged by summing coefficients; the first
    occurrence fixes the display position.  Each LiTerm is built once,
    after the merge, and the partial fractions come from partial_fraction's
    memo, so a call computes no binomial that an earlier call with the same
    (p, q) computed.
    """
    ab, ai = root_mul(alpha, beta), root_inv(alpha)
    merged: dict[tuple, int] = {}
    for pf in partial_fraction(index.p, index.q):
        s = index.r + pf.sum_exp
        key = (s, pf.x_exp, ab, ai) if pf.x_exp else (s, pf.y_exp, beta, alpha)
        merged[key] = merged.get(key, 0) + pf.coefficient
    return Decomposition(index, alpha, beta, tuple(LiTerm(c, *key) for key, c in merged.items()))


@dataclass(frozen=True)
class EulerTerm:
    """coefficient * zeta(s-or-sbar, t-or-tbar), the level-2 bar notation.

    zeta(sbar, tbar) = sum_{m>n>=1} (-1)^(m+n) / (m^s n^t)   <- Li(-1,-1)
    zeta(sbar, t)    = sum_{m>n>=1} (-1)^m     / (m^s n^t)   <- Li(-1, 1)
    zeta(s, tbar)    = sum_{m>n>=1} (-1)^n     / (m^s n^t)   <- Li( 1,-1)
    """

    coefficient: int
    s: int
    t: int
    s_bar: bool
    t_bar: bool

    def __post_init__(self) -> None:
        if not isinstance(self.coefficient, int) or self.coefficient < 1:
            raise ValueError("coefficient must be a positive integer")
        if self.s < 2 or self.t < 1:
            raise ValueError("need s >= 2 and t >= 1")

    @classmethod
    def from_li(cls, term: LiTerm) -> "EulerTerm":
        for root in (term.x, term.y):
            if root.order > 2:
                raise ValueError(
                    f"argument {root} has order {root.order} > 2; "
                    "bar notation requires arguments in {1, -1}"
                )
        return cls(term.coefficient, term.s, term.t, term.x.order == 2, term.y.order == 2)

    @classmethod
    def from_signed(cls, coefficient: int, a: int, b: int) -> "EulerTerm":
        """coefficient * z(a, b), a negative entry being a barred one."""
        return cls(coefficient, abs(a), abs(b), a < 0, b < 0)

    def signed(self) -> tuple[int, int]:
        """(s, t) with each barred entry negated: the z(a, b) notation."""
        return (-self.s if self.s_bar else self.s, -self.t if self.t_bar else self.t)

    def key(self) -> tuple:
        return (self.s, self.t, self.s_bar, self.t_bar)

    def z_text(self) -> str:
        a, b = self.signed()
        body = f"z({a},{b})"
        return body if self.coefficient == 1 else f"{self.coefficient}*{body}"

    def pretty(self) -> str:
        a = f"{self.s}̄" if self.s_bar else f"{self.s}"
        b = f"{self.t}̄" if self.t_bar else f"{self.t}"
        body = f"ζ({a},{b})"
        return body if self.coefficient == 1 else f"{self.coefficient}*{body}"


def to_level2(decomposition: Decomposition) -> list[EulerTerm]:
    """Map a decomposition whose arguments are all +-1 to bar notation."""
    return [EulerTerm.from_li(t) for t in decomposition.terms]


def r_decomposition(p: int, q: int, r: int) -> list[EulerTerm]:
    """Expansion of R(p,q,r) = sum (-1)^n / (m^p n^q (m+n)^r)."""
    return to_level2(decompose(MTIndex(p, q, r), MINUS_ONE, ONE))


def s_decomposition(p: int, q: int, r: int) -> list[EulerTerm]:
    """Expansion of S(p,q,r) = sum (-1)^(m+n) / (m^p n^q (m+n)^r)."""
    return to_level2(decompose(MTIndex(p, q, r), ONE, MINUS_ONE))
