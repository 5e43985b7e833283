"""Numerical evaluation with rigorous absolute error bounds.

Every value returned here is a ValueWithError whose bound covers all series
truncation rigorously; float roundoff is covered by conservative
machine-epsilon allowances proportional to the accumulated absolute mass of
the summed terms (so the bounds stay honest under cutoff doubling).

Summation machinery, bottom up:

* hurwitz_tail(s, w): H(s,w) = sum_{j>=0} 1/(j+w)^s by a directly summed
  head plus the Euler-Maclaurin correction

      H(s,A) ~ A^(1-s)/(s-1) + A^(-s)/2 + sum_l B_{2l}/(2l)! (s)_{2l-1} A^(1-s-2l)

  started at A = w + J with J large enough that the first omitted Bernoulli
  term is below 1e-16 relative.  (j+w)^(-s) is completely monotone, so the
  remainder is bounded by that first omitted term, which enters the bound.
  This is the one route for every s.

* tail_sum(s, x, n): T = sum_{m>n} x^m/m^s for an Nth root of unity x
  collapses over residue classes of m mod N to

      T = x^n N^(-s) sum_{c=1..N} x^c H(s, (n+c)/N),

  a finite combination of Hurwitz tails.  The row H(s, (n+c)/N), c = 1..N,
  depends on the root's order N but not on its exponent, so it is memoised
  per (s, N, n, order) and every root of order N weights the same row by
  its own phases.

* eval_li(s, t, x, y): sum_{n<=n0} y^n n^(-t) T(s,x,n) is summed directly
  (T for every n from one tail_sum at n0 plus a reverse running sum).  The
  remainder sum_{n>n0} collapses the same way: substituting the
  Euler-Maclaurin expansion of H into T and re-expanding (n+c)^(-sigma)
  binomially around n turns it into a rapidly convergent combination of
  higher-weight single tails sum_{n>n0} (xy)^n n^(-omega), i.e. tail_sum
  again.  Plain truncation of the n-sum would need ~1e10 terms for the
  hardest weight-3 shapes at 1e-10; this route needs a few hundred.  The
  head needs n0 > 2*ord(x) for the re-expansion to converge, so eval_li
  rejects a max_inner_terms below 2*ord(x)+1.  Which terms that
  re-expansion runs, with their real weights and stopping majorants,
  depends on (s, t, ord x, n0) but not on the colors: it is built once
  per such key as a schedule of arrays, and each call runs it on its own
  rungs and phases.  Head and tail multiply complex rows only in
  _weighted_sums, on real and imaginary rows of doubles, so every Li value
  and bound has the same bits at every SIMD level numpy dispatches to;
  tests/data/li_reference.txt checks them against 30 digits.  The
  evaluation itself, _li_batch, runs any number of shapes (s, t) that
  share (x, y, n0) in one array pass, a row per shape, and gives each
  the bits it has alone; one shape is the batch of one.

* Memos under eval_li, which only skip recomputation (every value and
  bound is bit for bit what the uncached arithmetic gives): the Hurwitz
  rows above; tail_sum's own values, the head's T(s, x, n0) and the ladder
  rungs tail_sum(omega, xy, n0), each shared by every shape and color pair
  with that key, every call still made through the module name; the n^-e
  tables; the root powers, the layer's one root-power rule, a table per
  (root, n) whose column j is root^j (tail_sum and the tail read x^c at
  column c of _root_powers(x, ord x + 1), the head reads _root_powers(.,
  n0 + 1) backwards); and the tail schedules per (s, t, ord x, n0).
  eval_li's own memo (_LiMemo) is keyed on (s, t, x, y, n0), n0 being the
  only config field a value reads.  A decomposition's terms come in two
  color groups, Li(alpha*beta, conj alpha) and Li(beta, alpha);
  eval_decomposition passes its term tuple to each eval_li call as the
  call's batch, and a miss evaluates its key with every uncached shape of
  its group in that batch, in term order, in one _li_batch and stores
  every value the batch computes.  No module-level state is set for
  this: a call without a batch is a batch of one.  A key whose conjugate
  key is stored is served the stored value's exact conjugate, unless that
  value has a zero part.  eval_li.cache_clear() empties all of them (only
  the Euler-Maclaurin coefficients stay).  eval_li.cache_info() counts
  values, not calls: its misses are the Li values computed, one head
  tail_sum call each, and its hits the eval_li calls that returned a
  value, beyond them.  hurwitz_tail stays uncached.  Memory grows with
  the distinct inputs: per distinct key, order floats for a row, n0 for a
  power table, n for a root-power table, one entry per tail_sum call or
  Li value, and 1 float and 2 small integers per j-series term of a
  schedule.  One pass of the benchmark's eval workload holds about 1.3 MB
  of schedule arrays (1246 schedules, 126k terms) and 0.2 MB of root
  powers.
  tail_sum, eval_li, eval_mt_direct and oracle_rows reject roots of order
  above MAX_ROOT_ORDER = 2**16 before building anything sized by the
  order.

* eval_mt_direct: the independent ground truth.  A plain diagonal-major
  truncated double sum of the defining series, with a color-independent
  integral-comparison tail bound.  The diagonal sums over n, with the k^-r
  table and the bound, are one OracleRows (oracle_rows): they do not
  depend on beta, so a sweep builds them once per (index, alpha).  The
  k^-r-weighted rows summed per residue class c = k mod ord beta, the class
  sums S_c, depend on beta only through its order, so the rows keep them
  per ord beta, and each call only combines them with its own phases
  beta^c (eval_mt_direct).  alpha^n depends only on n mod ord alpha, so for
  ord alpha <= _MAX_CLASS_ORDER = 16 the rows are real combinations of the
  class rows C_c(k) = sum_{n = c mod ord alpha} (k-n)^-p n^-q.  The m^-p
  of each residue class of m form a sliding window of their own, so one
  pass over these windows, cutoff^2/2 multiply-adds whatever the order,
  gives every class row, and OracleRows.recolor to another root of the
  same order contracts nothing; to a root of another order it is a fresh
  oracle_rows.  A higher order contracts the plain window against
  phase-weighted columns instead.  No index arrays are built and scratch
  memory is O(cutoff), at most about 40*cutoff doubles.  What the rows
  keep for beta is O(cutoff) per order of beta too: per order n, the class
  sums, at most 2*min(n, cutoff+1) doubles, on each rows object alone; a
  recolor shares only read-only arrays and the bound.
  The oracle builds its phases root^j, for alpha and beta alike, by one
  rule (_phases: root_value(root**j)) and reads none of the Li layer's
  memos.  After the class rows it multiplies and adds only reals, so its
  values, like the Li layer's, have the same bits at every SIMD level.

Finished values combine by two rules only (u = eps/2, no over/underflow).
ValueWithError.combine, sum c*v over rational c, adds sum |c|*e_v plus
4*eps*mass, mass = sum |c|*|v|: each c*v is within 2u of exact and fsum
rounds their sum once, so roundoff stays below 3u*mass.  a*b adds
|a|*e_b + |b|*e_a + e_a*e_b plus 2*eps*|ab| = 4u*|ab|, above the
sqrt(5)*u*|ab| worst case of a complex product (Brent, Percival,
Zimmermann, Math. Comp. 76 (2007)).

Summation: math.fsum (exactly rounded) combines the scalar series
(hurwitz_tail's head, tail_sum's residue row, ValueWithError.combine) and
the oracle's beta-weighted class sums.  The Li layer's head and tail rows
are added by one aligned pairwise tree per batch (_weighted_sums):
elementwise adds of columns 2i and 2i+1, an order fixed by the column
alone.  It errs by at most gamma_ceil(log2 n) times a row's mass, which
stays inside _li_batch's allowances (_li_head, _li_tail).  The oracle
sums the terms of a diagonal's alpha class with numpy's own einsum loop,
never BLAS, in an unspecified order that is fixed for a given cutoff and
numpy build, the classes of a diagonal in the order of c, and the
diagonals of each residue class mod ord beta one after the other in k
order (np.bincount), so its results are deterministic and do not change with
the BLAS thread count or the number of CPUs.  A contraction of at least
_PARALLEL_FLOOR = 2**21 multiply-adds (cutoff 20000, not the grid's 1000)
shares its blocks of _BLOCK = 64 diagonals, one size for every order,
among one worker thread per CPU the process may use, each taking the
next block from a queue (_contract), but each block is still one einsum
call on the same operands, so the split moves no bit.  Any summation of
n terms errs by at most gamma_(n-1) times their absolute sum (Higham,
Accuracy and Stability of Numerical Algorithms, 4.2); eval_mt_direct
derives from that that the roundoff allowance eps*(cutoff+64)*mass covers
these orders.
"""
from __future__ import annotations

import math
import os
import threading
from collections import namedtuple
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import fsum
from numbers import Rational

import numpy as np

from .algebra import ONE, RootOfUnity, root_mul, root_value
from .decompose import Decomposition, LiTerm, MTIndex

_EPS = 2.220446049250313e-16
_TINY = math.ulp(0.0)  # the smallest positive double, 5e-324

# B_2..B_16 drive the Euler-Maclaurin corrections (order up to 16); B_18
# only ever feeds the first-omitted-term remainder bound.
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
}

# Euler-Maclaurin orders of eval_li: the head's tail_sum and the outer
# tail's expansion depth use _HEAD_ORDER; the acceleration ladder's
# internal tails run at the highest stable order.
_HEAD_ORDER = 8
_LADDER_ORDER = 16

# Window rows per block of every oracle contraction (_contract), every
# residue at once.  The rows have the same bits at any block size; a
# shorter block wastes less of the zero triangle above its diagonal.  Of
# 32, 64, 128 and 256, 64 was fastest or within 3% of it for orders 2-16
# at cutoffs 1000 and 20000 on a 2-vCPU x86-64 VM, and at order 1 as fast
# as 256 (64 vs 67 ms at cutoff 20000).
_BLOCK = 64

# Multiply-adds below which _contract runs on the calling thread alone.  A
# class pass is about cutoff^2/2 of them whatever the order, an above-cap
# pass 3*cutoff^2/2.  On a 2-vCPU x86-64 VM, two threads took oracle_rows
# 1.6-1.9x as long as one at cutoff 1000, 1.05-1.09x at 2000 (just under
# 2**21), 0.92-1.01x at 2500, 0.8-0.9x at 3000 and 0.6-0.7x at 20000.
# 2**21 keeps the grid's cutoff 1000 and the verify grid's 2000 serial and
# splits the cutoff-20000 oracle.
_PARALLEL_FLOOR = 2**21

# Highest alpha order whose oracle rows come from residue classes: its
# class rows take order*(cutoff-1) doubles.
_MAX_CLASS_ORDER = 16

# Largest oracle_cutoff accepted: the oracle's scratch memory grows as
# O(cutoff) and its time as O(cutoff^2).
MAX_ORACLE_CUTOFF = 2**20

# Largest root order accepted by tail_sum, eval_li, eval_mt_direct and
# oracle_rows: their root-power tables, Hurwitz rows and residue loops all
# have one entry per residue class mod the order.
MAX_ROOT_ORDER = 2**16


def _check_root_orders(caller: str, **roots: RootOfUnity) -> None:
    for name, root in roots.items():
        if root.order > MAX_ROOT_ORDER:
            raise ValueError(
                f"{caller}: {name} = {root} has order {root.order} > MAX_ROOT_ORDER = 2**16"
            )


def _coefficient(c: Rational) -> float:
    """c rounded to a double; a c beyond the double range is a ValueError."""
    try:
        return float(c)
    except OverflowError:
        raise ValueError(
            "ValueWithError.combine: a coefficient is beyond the double range (|c| < 2**1024 required)"
        ) from None


@dataclass(frozen=True)
class ValueWithError:
    """A complex double plus a rigorous absolute error bound."""

    value: complex
    error_bound: float

    def __post_init__(self) -> None:
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        b = float(self.error_bound)
        object.__setattr__(self, "error_bound", b)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("value must be finite")
        if not math.isfinite(b) or b < 0.0:
            raise ValueError("error bound must be finite and nonnegative")

    @classmethod
    def combine(cls, parts: Iterable[tuple[Rational, ValueWithError]]) -> ValueWithError:
        """sum c*v over (rational c, v) pairs, fsum-combined in their order.

        Each c is rounded to a double first, as c*v would round it.  A c
        beyond the double range is a ValueError.
        """
        re, im, eb = [], [], []
        mass = 0.0
        for c, v in parts:
            c = _coefficient(c)
            re.append(c * v.value.real)
            im.append(c * v.value.imag)
            eb.append(abs(c) * v.error_bound)
            mass += abs(c) * abs(v.value)
        return cls(complex(fsum(re), fsum(im)), fsum(eb) + 4.0 * _EPS * mass)

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


def _rising(s: int, k: int) -> int:
    return math.prod(range(s, s + k))


@lru_cache(maxsize=None)
def _em_params(s: int, half_order: int) -> tuple[tuple[float, ...], float, float]:
    """(correction coefficients, remainder coefficient, minimal EM start A)."""
    betas = tuple(
        float(_BERNOULLI[2 * l] * _rising(s, 2 * l - 1) / math.factorial(2 * l))
        for l in range(1, half_order + 1)
    )
    bhat = float(
        abs(_BERNOULLI[2 * half_order + 2])
        * _rising(s, 2 * half_order + 1)
        / math.factorial(2 * half_order + 2)
    )
    # First omitted term <= 1e-16 * leading term A^(1-s)/(s-1).
    a_min = (bhat * (s - 1) / 1e-16) ** (1.0 / (2 * half_order + 2))
    return betas, bhat, max(4.0, a_min)


def hurwitz_tail(s: int, w: float, order: int = 8) -> tuple[float, float]:
    """H(s, w) = sum_{j>=0} (j+w)^(-s) with its truncation bound.

    The terms below the Euler-Maclaurin start a_min are summed directly and
    the expansion of the given order, the int 8 or 16 (any other, 8.0
    included, is a ValueError), runs from there.  The bound carries one
    smallest subnormal, 5e-324, so it stays above the error where H
    underflows to 0.0.  A direct term
    beyond the double range (w far below 1 at large s) is a ValueError.
    """
    if not isinstance(s, int) or s < 2:
        raise ValueError("hurwitz_tail requires integer s >= 2")
    if not (w > 0.0):
        raise ValueError("hurwitz_tail requires w > 0")
    if not isinstance(order, int) or order not in (_HEAD_ORDER, _LADDER_ORDER):
        raise ValueError(f"Euler-Maclaurin order {order!r} is not {_HEAD_ORDER} or {_LADDER_ORDER}")
    betas, bhat, a_min = _em_params(s, order // 2)
    extra = int(max(0.0, math.ceil(a_min - w)))
    # Terms from w + j >= 1.01 * 2^(1080/s) on are below 2^-1080: they round to 0.0 and change no fsum.
    nonzero = range(min(extra, math.ceil(1.01 * 2.0 ** (1080 / s) - w)))
    try:
        head = fsum((w + j) ** -s for j in nonzero) if extra else 0.0
    except OverflowError:
        raise ValueError(f"hurwitz_tail: (w+j)^-s at s = {s}, w = {w!r} overflows the double range") from None
    a = w + extra
    tail = a ** (1 - s) / (s - 1) + 0.5 * a**-s
    for i, beta in enumerate(betas):
        tail += beta * a ** -(s + 2 * i + 1)
    bound = bhat * a ** -(s + 2 * len(betas) + 1)
    return head + tail, bound + 4.0 * _EPS * (head + abs(tail)) + _TINY


@lru_cache(maxsize=None, typed=True)
def _hurwitz_row(s: int, nn: int, n: int, order: int) -> tuple[tuple[float, ...], float, float]:
    """H(s, (n+c)/nn) for c = 1..nn, with their summed bounds and summed |H|.

    Every root of order nn shares this row; only the phases that weight it
    in tail_sum depend on the root's exponent.  The memo is typed, so an
    order of 8.0 reaches hurwitz_tail's refusal instead of the row of 8.
    """
    row = []
    bound = 0.0
    mass = 0.0
    for c in range(1, nn + 1):
        hz, hb = hurwitz_tail(s, (n + c) / nn, order)
        row.append(hz)
        bound += hb
        mass += abs(hz)
    return tuple(row), bound, mass


@lru_cache(maxsize=None, typed=True)
def tail_sum(s: int, x: RootOfUnity, n: int, order: int = 8) -> ValueWithError:
    """T(s,x,n) = sum_{m>n} x^m / m^s via residue-class Hurwitz tails.

    Memoised for eval_li's head T(s, x, n0) and ladder rungs T(omega, xy,
    n0), which repeat across shapes and colors.  The memo is typed, so an
    argument equal to a valid one but of another type (3.0 for 3) is still
    refused, not served.
    """
    _check_root_orders("tail_sum", x=x)
    if not isinstance(s, int) or s < 2:
        raise ValueError("tail_sum requires integer s >= 2")
    if not isinstance(n, int) or n < 0:
        raise ValueError("tail_sum requires integer n >= 0")
    nn = x.order
    scale = float(nn) ** -s
    row, bound, mass = _hurwitz_row(s, nn, n, order)
    xr, xi = _root_powers(x, nn + 1).tolist()
    re = [xr[c] * hz for c, hz in enumerate(row, 1)]
    im = [xi[c] * hz for c, hz in enumerate(row, 1)]
    value = complex(xr[n % nn], xi[n % nn]) * complex(fsum(re), fsum(im)) * scale
    return ValueWithError(value, scale * (bound + 8.0 * _EPS * mass))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _inv_powers(e: int, n0: int) -> np.ndarray:
    """float(n) ** -e for n = n0, n0-1, ..., 1: the head's order of n."""
    return _read_only(np.array([float(n) ** -e for n in range(n0, 0, -1)]))


@lru_cache(maxsize=None)
def _root_powers(root: RootOfUnity, n: int) -> np.ndarray:
    """Rows real and imaginary part of root^j for j = 0..n-1.

    The Li layer's only root-power table: tail_sum and the tail read
    columns j <= order, the head reads the table backwards.
    """
    powers = np.array([root_value(root**j) for j in range(min(root.order, n))])[np.arange(n) % root.order]
    return _read_only(np.array([powers.real, powers.imag]))


def _weighted_sums(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> list[tuple[complex, float]]:
    """Row by row, sum_k w_k*a_k*b_k by an aligned pairwise tree, and its mass sum_k |w_k*a_k*b_k|.

    The Li layer's one complex product: a and b are complex rows given as
    (real, imaginary) stacks of doubles, broadcast against the rows of the
    real array w, and each term is ((ar*br - ai*bi)*w, (ar*bi + ai*br)*w).
    A row of n terms may be followed by exact zeros, as padding is.  The
    mass accumulates along each row in order.  The sums pad the 2 x K x L
    array of terms (w is K x L) with +0.0 to the width P = 2^ceil(log2 L)
    and halve it ceil(log2 L) times, each step adding the columns 2i and
    2i+1 into column i.  Every step is an elementwise add of two
    doubles, so no numpy reduction order is relied on, and a row's blocks
    of 2^k aligned columns do not depend on K or P: past its first
    2^ceil(log2 n) columns the tree adds only exact zeros.  Real ufuncs,
    np.hypot and np.add.accumulate round the same at every SIMD level
    numpy dispatches to and whatever the shape, so a row has the bits it
    has alone, up to the sign of a zero part; numpy's complex * and abs do
    not (with numpy 2.4.6 on AVX-512, 44% of 200k random products differ
    between NPY_ENABLE_CPU_FEATURES=X86_V2 and the default level).
    Negating a part's terms negates every add, so conjugate inputs give
    exactly conjugate sums.

    The summation error, which _li_head, _li_tail and _li_batch cite
    (u = eps/2, gamma_k = k*u/(1-k*u), no over/underflow): a term of a row
    of n passes through ceil(log2 n) additions that are not exact, so each
    part errs by at most gamma_ceil(log2 n) times its absolute sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 4.2), and by the
    triangle inequality in R^2, as eval_mt_direct argues, the row's sum
    errs by at most gamma_ceil(log2 n) * mass.  mass, itself rounded, is
    within gamma_(n+1) of the exact sum of the terms' moduli (np.hypot
    within an ulp, then n-1 additions), a second-order change for every n
    the layer sums (n < 2^30).
    """
    p = a[:, None] * b[None]  # p[i, j] = a_i * b_j
    rows, cols = w.shape
    width = 1 << (cols - 1).bit_length()
    terms = np.empty((2, rows, width))
    terms[..., cols:] = 0.0
    re, im = terms[..., :cols]
    np.subtract(p[0, 0], p[1, 1], out=re)
    np.add(p[0, 1], p[1, 0], out=im)
    terms[..., :cols] *= w
    masses = np.add.accumulate(np.hypot(re, im), axis=-1)[:, -1].tolist()
    while width > 1:
        terms = terms[..., 0::2] + terms[..., 1::2]
        width //= 2
    sums_re, sums_im = terms[..., 0].tolist()
    return [(complex(x, y), mass) for x, y, mass in zip(sums_re, sums_im, masses)]


def _li_head(
    t_n0: list[complex], shapes: list[tuple[int, int]], x: RootOfUnity, y: RootOfUnity, n0: int
) -> list[tuple[complex, float]]:
    """sum_{n<=n0} y^n n^(-t) T(s,x,n) and its absolute mass per (s, t) of shapes.

    t_n0 holds T(s,x,n0) per shape.  T(s,x,n) for n < n0 comes from one
    sequential reverse running sum over n = n0..1 per shape, the rows of a
    len(shapes) x n0 array.  The results are bit for bit those of the
    scalar loop ``g = y**n * T * n**-t; T += x**n * n**-s`` with the terms g
    added by _weighted_sums' aligned pairwise tree, up to the sign of a zero
    part, which np.hypot and the tree's +0.0 padding drop.  That tree errs
    by at most gamma_ceil(log2 n0)*mass (_weighted_sums); eval_li's n0 is
    at most 16*MAX_ROOT_ORDER = 2^20, and gamma_20 < 21u is inside the
    16*eps*mass = 32u*mass that _li_batch allows the head's summation.
    """
    xp, yp = _root_powers(x, n0 + 1)[:, :0:-1], _root_powers(y, n0 + 1)[:, :0:-1]
    fs = np.array([_inv_powers(s, n0) for s, _ in shapes])
    ft = np.array([_inv_powers(t, n0) for _, t in shapes])
    tn = np.empty((2, len(shapes), n0))  # real and imaginary part of T(s,x,n), a row per shape
    tn[:, :, 0] = [[v.real for v in t_n0], [v.imag for v in t_n0]]
    np.multiply(xp[:, None, :-1], fs[:, :-1], out=tn[:, :, 1:])
    tn = np.add.accumulate(tn, axis=-1)
    return _weighted_sums(yp[:, None], tn, ft)


@lru_cache(maxsize=None)
def _tail_schedule(s: int, t: int, nx: int, n0: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The tail's j-series for a root x of order nx, without its colors.

    Expanding T's Hurwitz pieces asymptotically, then (n+c)^(-sigma)
    binomially around n, lands every term on a single tail of weight
    omega = t + sigma + j in the combined color z = x*y.  Which (sigma, c,
    j) terms run, their real weights and the geometric majorant that stops
    each series depend on (s, t, ord x, n0) only, so the loop below runs
    once per key and records, in loop order: the rungs omega it reads,
    sorted; the weights w = (-1)^j*pref*c^j*C(sigma+j-1, j) of x^c times
    the rung value, whose moduli weight the rungs' bounds; and an index
    block, of the narrowest unsigned type that holds ord x and the highest
    rung, with rows omega and c (the column of x^c in _root_powers).

    Each stopping majorant rides as one more entry on a sentinel rung
    (omega 0, c = 0) with value 0 and bound 1.0: its weight is the
    majorant, and its zero term adds an exact zero to the sum and to the
    running mass.
    """
    half = _HEAD_ORDER // 2
    betas, _, _ = _em_params(s, half)
    sigmas = [(s - 1, 1.0 / (s - 1)), (s, 0.5)]
    sigmas += [(s + 2 * l - 1, betas[l - 1]) for l in range(1, half + 1)]
    rungs, pos, weights = [], [], []  # omega 0 is the sentinel
    nf = float(n0)
    for sigma, coef in sigmas:
        pref = coef * float(nx) ** (sigma - s)
        apref = abs(pref)
        for c in range(1, nx + 1):
            c_n0 = c / nf
            cj = 1  # c^j, exact
            binom = 1  # C(sigma+j-1, j), exact
            signed_pref = pref  # (-1)^j * pref
            j = 0
            while True:
                rungs.append(t + sigma + j)
                pos.append(c)
                weights.append(signed_pref * float(cj * binom))
                j += 1
                binom = binom * (sigma + j - 1) // j
                cj *= c
                signed_pref = -signed_pref
                # Geometric majorant on the rest of the j-series; the term
                # ratio (sigma+j)/(j+1) * c/n0 decreases in j.
                omega = t + sigma + j
                lam_cap = float(cj) * nf ** (1 - omega)  # c^j * bound scale, kept paired
                if lam_cap == 0.0:
                    # Stops without a majorant, so no bound covers the
                    # rest, and the rest need not be below the subnormal
                    # floor: nf**(1-omega) underflows on its own.  At the
                    # shortest cap (n0 = 2*ord x + 1) the dropped majorant
                    # reaches about 1e-22.6 (s = 2, ord x = 2**16) and the
                    # term ratio 1.05 (s = 120, ord x = 12).  At the default
                    # head only weights s + t of about 140 and up stop here,
                    # with majorants of about 1e-298 and below.
                    break
                major = apref * float(binom) * lam_cap / (omega - 1)
                ratio = (sigma + j) / (j + 1) * c_n0
                if ratio < 0.5 and major / (1.0 - ratio) < 1e-18:
                    rungs.append(0)
                    pos.append(0)
                    weights.append(major / (1.0 - ratio))
                    break
                if j > 2000:
                    raise RuntimeError("binomial re-expansion failed to converge")
    where = np.array([rungs, pos], dtype=np.min_scalar_type(max(nx, max(rungs))))
    return tuple(sorted(set(rungs) - {0})), _read_only(np.array(weights)), _read_only(where)


def _li_tail(
    shapes: list[tuple[int, int]], x: RootOfUnity, y: RootOfUnity, n0: int, bounds: list[float]
) -> list[tuple[complex, float, float]]:
    """Per (s, t) of shapes: the tail sum_{n>n0}, its mass, and bound plus its increments.

    Runs each _tail_schedule(s, t, ord x, n0) on the rungs lam of z = x*y
    and the phases x^c: the schedules are the rows of one array, padded
    with zero weights on the sentinel, and the rung table is taken by
    omega.  The terms are w*(x^c*lam) by _weighted_sums, each row summing
    its own schedule, and the bound increments |w|*(bound of lam)
    accumulate in loop order after the shape's bound from bounds; the
    padding adds exact zeros to both.  _li_batch's 32*eps*mass = 64u*mass
    covers the terms' roundoff (u = eps/2): w = (+-pref)*fl(c^j*C(sigma+j-1,
    j)) is within 6u of exact whatever j (the integer rounds once, pref's
    coef, pow and product 4u, the last product u), x^c within 12u (theta =
    2*pi*e/n within 3u*pi, cos and sin within an ulp), and the product's
    three roundings per part within sqrt(2)*3u.  So a term errs by at most
    23u of its modulus, and a row of L entries adds gamma_ceil(log2 L)*mass
    (_weighted_sums): 23u + gamma_k(1 + 23u) stays below 64u for every
    k <= 40, and a schedule holds at most 6*2^16*2002 < 2^30 entries (6
    sigmas, ord x <= 2^16 classes, at most 2001 terms and a sentinel each).
    """
    schedules = [_tail_schedule(s, t, x.order, n0) for s, t in shapes]
    z = root_mul(x, y)
    # Real part, imaginary part and bound of each rung, by omega; omega 0 is
    # the sentinel.
    lam = [(0.0, 0.0, 1.0)] * (max(omegas[-1] for omegas, _, _ in schedules) + 1)
    for omega in set().union(*(omegas for omegas, _, _ in schedules)):
        v = tail_sum(omega, z, n0, _LADDER_ORDER)
        lam[omega] = v.value.real, v.value.imag, v.error_bound
    lam = np.array(lam).T
    sizes = [len(w) for _, w, _ in schedules]
    w = np.zeros((len(shapes), max(sizes)))
    where = np.zeros((2, len(shapes), max(sizes)), dtype=np.intp)
    for i, (_, wi, wherei) in enumerate(schedules):
        w[i, : sizes[i]] = wi
        where[:, i, : sizes[i]] = wherei
    lam = lam.take(where[0], axis=1)
    sums = _weighted_sums(_root_powers(x, x.order + 1).take(where[1], axis=1), lam[:2], w)
    incs = np.empty((len(shapes), max(sizes) + 1))  # the bound so far, then the increments
    incs[:, 0] = bounds
    np.multiply(np.abs(w), lam[2], out=incs[:, 1:])
    totals = np.add.accumulate(incs, axis=-1)[:, -1].tolist()
    return [(value, mass, total) for (value, mass), total in zip(sums, totals)]


def _li_batch(shapes: list[tuple[int, int]], x: RootOfUnity, y: RootOfUnity, n0: int) -> list[tuple[complex, float]]:
    """Li[s,t](x,y) and its bound for every (s, t) of shapes, head length n0.

    One array pass for the whole batch, head (_li_head) and tail
    (_li_tail), with one head tail_sum call per shape.  No row mixes with
    another, so every value and bound is bit for bit that of the batch of
    its shape alone.

    The roundoff allowances (u = eps/2): (bound of T(s,x,n0) +
    8*eps*1.645)*hsum carries T's error at every n, the running sum's
    roundoff included, weighted by sum n^-t; 16*eps*mass_head = 32u*mass_head
    the head's summation (_li_head, from _weighted_sums); 32*eps*mass_tail =
    64u*mass_tail the tail's terms and their summation (_li_tail, from
    _weighted_sums); and 32*eps*(mass_head + |value|) the head's terms and
    the final addition head + tail.  A head term y^n*T*n^-t errs by at most
    20u of its modulus: y^n within 12u, as x^c in _li_tail, n^-t within an
    ulp, the product's three roundings per part within sqrt(2)*3u and the
    product by n^-t within u.
    """
    half = _HEAD_ORDER // 2

    # Head: sum_{n<=n0} y^n n^(-t) T(s,x,n), T by reverse running sum.
    t_at_n0 = [tail_sum(s, x, n0, _HEAD_ORDER) for s, _ in shapes]
    heads = _li_head([v.value for v in t_at_n0], shapes, x, y, n0)
    bounds = []
    for (s, t), tv, (_, mass_head) in zip(shapes, t_at_n0, heads):
        # sum_{n<=n0} n^(-t) weights the per-n T error (EM bound plus the
        # running-sum roundoff, itself at most eps * sum |x^m m^-s|).
        hsum = 1.0 + math.log(n0) if t == 1 else 1.6449340668482266
        bounds.append((tv.error_bound + 8.0 * _EPS * 1.645) * hsum + 16.0 * _EPS * mass_head)

    out = []
    for (s, t), (head, mass_head), (tail, mass_tail, bound) in zip(
        shapes, heads, _li_tail(shapes, x, y, n0, bounds)
    ):
        # Remainder of the asymptotic expansion of H inside T, summed over n>n0.
        _, bhat, _ = _em_params(s, half)
        e = t + s + 2 * half
        bound += float(x.order) ** (2 * half + 2) * bhat * float(n0) ** -e / e

        value = head + tail
        bound += 32.0 * _EPS * (mass_head + mass_tail + abs(value))
        out.append((value, bound))
    return out


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _LiMemo:
    """eval_li's memo: finished values keyed on (s, t, x, y, n0), n0 being
    the one part of the config a value reads.

    A miss runs one _li_batch for its key and the shapes (s', t') of the
    call's batch (eval_li's argument: a decomposition's own terms, or
    nothing) with the same colors (x, y) that are not known yet, taken in
    term order.  Every value the batch computes is stored, and computed
    counts them: one head tail_sum call each, inside the eval_li span of
    the miss.  calls counts the calls that returned a value.  info() reads
    computed as the misses and the other calls as the hits, so hits +
    misses = calls once every term of a batch has been asked for, as
    eval_decomposition asks for all its terms before it combines them.  A
    call that raises counts as neither.

    A key whose conjugate (s, t, conj x, conj y, n0) is stored is served
    as the conjugate of that value with its bound, when both of the
    value's parts are nonzero.  That is what evaluating the key gives:
    root_value makes the phases of conjugate roots exactly conjugate, so
    every product and sum of the head, the ladder rungs and the tail has
    the same real part and the negated imaginary part, and np.hypot and
    abs the same moduli.  Only the sign of a zero part can differ, so a
    value with a zero part is not mirrored; its conjugate is computed.

    Every value served is right under any interleaving of threads, and a
    batch holds only shapes of its own call's terms; the counts assume one
    caller at a time, as the benchmark and the command line make their
    calls.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.values: dict[tuple, ValueWithError] = {}
        self.calls = self.computed = 0

    def info(self) -> _CacheInfo:
        return _CacheInfo(self.calls - self.computed, self.computed, None, len(self.values))

    def _mirror(self, s: int, t: int, xc: RootOfUnity, yc: RootOfUnity, n0: int) -> ValueWithError | None:
        """The conjugate of the stored value of (s, t, xc, yc, n0), if it may serve."""
        v = self.values.get((s, t, xc, yc, n0))
        if v is None or v.value.real == 0.0 or v.value.imag == 0.0:
            return None
        return ValueWithError(v.value.conjugate(), v.error_bound)

    def get(self, s: int, t: int, x: RootOfUnity, y: RootOfUnity, n0: int, batch: tuple[LiTerm, ...]) -> ValueWithError:
        key = (s, t, x, y, n0)
        v = self.values.get(key)
        if v is None:
            xc, yc = x.conjugate(), y.conjugate()
            v = self._mirror(s, t, xc, yc, n0)
            if v is not None:
                self.values[key] = v
            else:
                shapes = [(s, t)] + [
                    (u.s, u.t)
                    for u in batch
                    if (u.x, u.y) == (x, y)
                    and (u.s, u.t) != (s, t)
                    and (u.s, u.t, x, y, n0) not in self.values
                    and self._mirror(u.s, u.t, xc, yc, n0) is None
                ]
                for (si, ti), (value, bound) in zip(shapes, _li_batch(shapes, x, y, n0)):
                    self.values[si, ti, x, y, n0] = ValueWithError(value, bound)
                self.computed += len(shapes)
                v = self.values[key]
        self.calls += 1
        return v


_li_memo = _LiMemo()


def _head_length(x: RootOfUnity, cfg: EvalConfig = DEFAULT_CONFIG) -> int:
    """eval_li's head length n0 = min(max_inner_terms, max(128, 16*ord x))."""
    return min(cfg.max_inner_terms, max(128, 16 * x.order))


def eval_li(
    s: int, t: int, x: RootOfUnity, y: RootOfUnity, cfg: EvalConfig = DEFAULT_CONFIG, *, batch: tuple[LiTerm, ...] = ()
) -> ValueWithError:
    """Li[s,t](x,y) = sum_{m>n>=1} x^m y^n / (m^s n^t); the caller checks the bound.

    One pass, head length n0 = min(max_inner_terms, max(128, 16*ord x))
    (_head_length): a longer head cannot lower the bound.  Its truncation
    parts are already negligible (the j-series stops once its majorant is
    below 1e-18; the head tail and the expansion remainder are
    Euler-Maclaurin terms of relative size about 1e-16), and the roundoff
    allowance 8*eps*1.645*hsum + 16*eps*mass_head + 32*eps*mass does not
    fall as n0 grows (for t = 1, hsum = 1 + log n0 rises).

    batch, a decomposition's terms (eval_decomposition passes d.terms),
    lets a miss compute the uncached terms of its colors (x, y) with it in
    one _li_batch, in term order, and store them all (_LiMemo).  It moves
    no bit of any value or bound; without it a miss computes its key alone.

    A max_inner_terms below 2*ord(x)+1 is a ValueError: the tail's binomial
    re-expansion needs a head longer than twice the order of x.  So is a
    root x or y of order above MAX_ROOT_ORDER.
    """
    if not isinstance(s, int) or s < 2:
        raise ValueError("eval_li requires integer s >= 2")
    if not isinstance(t, int) or t < 1:
        raise ValueError("eval_li requires integer t >= 1")
    _check_root_orders("eval_li", x=x, y=y)
    if cfg.max_inner_terms < 2 * x.order + 1:
        raise ValueError(
            f"max_inner_terms = {cfg.max_inner_terms} is below 2*order+1 = {2 * x.order + 1}"
            f" for a root x of order {x.order}; the tail expansion needs n0 > 2*order"
        )
    return _li_memo.get(s, t, x, y, _head_length(x, cfg), batch)


_LI_MEMOS = (_hurwitz_row, tail_sum, _inv_powers, _root_powers, _tail_schedule)


def _clear_li_caches() -> None:
    """Empty eval_li's memo together with every private memo under it."""
    _li_memo.clear()
    for memo in _LI_MEMOS:
        memo.cache_clear()


eval_li.cache_info = _li_memo.info
eval_li.cache_clear = _clear_li_caches


def _neg_int_pow(base: np.ndarray, e: int) -> np.ndarray:
    """base^(-e) for integer e >= 0 by binary exponentiation (fast path)."""
    if e == 0:
        return np.ones_like(base)
    b = 1.0 / base
    out = None
    while e:
        if e & 1:
            out = b.copy() if out is None else out * b
        e >>= 1
        if e:
            b = b * b
    return out


def oracle_tail_bound(p: int, q: int, r: int, cutoff: int) -> float:
    """Upper bound on sum_{m+n>cutoff} 1/(m^p n^q (m+n)^r).

    Splitting each anti-diagonal k at k/2 gives

        A(k) = sum_{m+n=k} 1/(m^p n^q)
             <= (2/k)^q psi_p(k/2) + (2/k)^p psi_q(k/2)

    with psi_e(M) = sum_{m<=M} m^(-e) bounded by M, 1+log M, or zeta(2)
    for e = 0, 1, >=2; summing A(k)/k^r over k > cutoff by integral
    comparison yields the closed forms below.  Valid (denominators
    positive) for every convergent index triple; color-independent.

    2^b times a power of the cutoff K is formed as math.ldexp, so p and q
    may pass 1023.  A bound beyond the double range, which only K = 1 gives
    (2^max(p,q) from p or q >= 1024), is a ValueError.  From K = 2 on,
    2^b K^(1-w) <= 2^(1-r) (w = b + r), but the power of K can underflow
    before ldexp scales it, and the piece then comes out 0.0 or low.  That
    leaves the oracle's total honest.  It needs K^(w-1) > 2^1022, and then
    the sum the piece bounds, sum_{k>K} (2/k)^b psi_e(k/2) k^-r, is at most
    (2/(K+1))^(w-1) (1 + (K+1)/(w-2)) < 2^-580 times 2^-r, the k = 2 term
    of the mass.  That is far below the slack of at least 35u*mass that the
    roundoff allowance eps*(cutoff+64)*mass keeps (eval_mt_direct), as long
    as 2^-r is a normal double, the allowance's own no-underflow premise.
    """
    kk = float(cutoff)

    def piece(e: int, b: int) -> float:
        w = b + r
        if e == 0:
            return math.ldexp(kk ** (2.0 - w), b - 1) / (w - 2.0)
        if e == 1:
            return math.ldexp(kk ** (1.0 - w), b) * ((1.0 + math.log(kk / 2.0)) / (w - 1.0) + (w - 1.0) ** -2.0)
        return 1.6449340668482266 * math.ldexp(kk ** (1.0 - w), b) / (w - 1.0)

    try:
        bound = piece(p, q) + piece(q, p)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(
            f"oracle tail bound of MT({p},{q},{r}) at cutoff {cutoff} is beyond the double range:"
            " at cutoff 1 it grows as 2**max(p, q); use a cutoff >= 2"
        )
    return bound


def _cpu_count() -> int:
    """The number of CPUs the OS lets this process run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _contract(windows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """out[r, c, i] = sum_j windows[r, i, j] * cols[c, j], every window against every column.

    Each block of _BLOCK rows i is contracted by numpy's einsum loop,
    without BLAS: every entry is one dot product over j, in an unspecified
    order that is fixed for a given length and numpy build.  A block reads
    j up to its last row, so it adds exact zeros past row i's diagonal, and
    the rows have the same bits at blocks 32, 64 and 256.  Every row the
    oracle sums passes through here.

    The blocks are taken one at a time from a queue, longest first.  Below
    _PARALLEL_FLOOR multiply-adds the calling thread takes them all; from
    it on, W = min(_cpu_count(), number of blocks) workers share the
    queue: the calling thread and W - 1 threads of a pool made for this
    call.  A worker that gets less CPU takes fewer blocks instead of
    holding up the call with a fixed share, and the last blocks are the
    shortest.  Each block is still one einsum call on the same operands
    writing its own slice of out, so out has the same bits at every W,
    whichever thread runs each block.
    """
    size = cols.shape[1]
    out = np.empty((len(windows), len(cols), size))
    starts = range(0, size, _BLOCK)
    pending = iter(starts[::-1])
    lock = threading.Lock()

    def share() -> None:
        while True:
            with lock:
                i0 = next(pending, None)
            if i0 is None:
                return
            i1 = min(i0 + _BLOCK, size)
            out[:, :, i0:i1] = np.einsum("rij,cj->rci", windows[:, i0:i1, :i1], cols[:, :i1])

    serial = len(windows) * len(cols) * size * size // 2 < _PARALLEL_FLOOR
    workers = 1 if serial else min(_cpu_count(), len(starts))
    if workers == 1:
        share()
        return out
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(share) for _ in range(1, workers)]
        share()
        for future in futures:
            future.result()
    return out


def _windows(a: np.ndarray, order: int, length: int) -> np.ndarray:
    """One sliding window of the m^-p table a per residue rho = 1..order of m.

    windows[rho-1, s, i] = a[rho-1 + (s-i)*order] = (rho + (s-i)*order)^-p
    for i <= s, else 0: a read-only view of an order x (2*length) array.
    """
    z = np.zeros((order, 2 * length))
    z[:, :length] = a[: order * length].reshape(length, order).T[:, ::-1]
    step = z.strides[1]
    start = max(length - 1, 0) * step
    return _read_only(np.ndarray((order, length, length), z.dtype, z, start, (z.strides[0], -step, step)))


def _class_rows(a: np.ndarray, b: np.ndarray, order: int, size: int) -> np.ndarray:
    """C_c(k) = sum_{n = c mod order, n < k} (k-n)^-p n^-q: row c-1, column k-2.

    With m = rho + t*order and n = c + i*order (rho, c = 1..order), the
    terms of class c on diagonal k = rho + c + s*order are a convolution of
    two subsequences, so the window of residue rho, ceil(size/order) long,
    contracted against the columns (c + i*order)^-q of every class gives
    each entry C_c(k) as one dot product, and every term is in exactly one.
    Together that is size^2/2 multiply-adds whatever the order.  Order 1
    is the plain window against n^-q.
    """
    length = -(-size // order)
    cols = np.ascontiguousarray(b[: order * length].reshape(length, order).T)
    out = _contract(_windows(a, order, length), cols)
    # out[rho-1, c-1, s] belongs on diagonal k-2 = (c-1) + s*order + (rho-1).
    # A view whose row stride is one element longer than the buffer's starts
    # row c-1 at column c-1, so one copy puts every entry in place.  Columns
    # past size hold diagonals beyond the cutoff.
    width = size + 2 * order
    buf = np.zeros((order, width))
    step = buf.strides[1]
    skewed = np.ndarray((order, length, order), buf.dtype, buf, 0, ((width + 1) * step, order * step, step))
    skewed[...] = out.transpose(1, 2, 0)
    return buf[:, :size]


def _phases(root: RootOfUnity, count: int) -> list[complex]:
    """root^c = root_value(root**c) for c = 0..count-1, the oracle's one
    phase rule for alpha and beta alike: it reads no Li-layer memo."""
    return [root_value(root**c) for c in range(count)]


def _combine(classes: np.ndarray, alpha: RootOfUnity) -> np.ndarray:
    """The rows re, im, mod: sum_c Re(alpha^c)*C_c, sum_c Im(alpha^c)*C_c and
    sum_c C_c, c = 1..ord alpha, a real product per class added in the
    order of c."""
    phases = np.array(_phases(alpha, len(classes) + 1)[1:])
    weights = np.array([phases.real, phases.imag, np.ones(len(phases))])
    rows = weights[:, :1] * classes[0]
    for c in range(1, len(classes)):
        rows += weights[:, c : c + 1] * classes[c]
    return rows


@dataclass(frozen=True, eq=False)
class OracleRows:
    """The beta-free part of eval_mt_direct for one (index, alpha, cutoff).

    re, im and mod are read-only rows of cutoff-1 entries: entry k-2 is the
    sum over n of diagonal k = m+n of the real part, the imaginary part and
    the modulus of alpha^n / (m^p n^q).  For ord alpha <= _MAX_CLASS_ORDER
    they come from classes, the read-only ord alpha x (cutoff-1) class rows
    C_c(k) = sum_{n = c mod ord alpha, n < k} (k-n)^-p n^-q, c = 1..ord
    alpha (_class_rows): alpha^n = alpha^c is constant on a class, so
    re = sum_c Re(alpha^c)*C_c, im = sum_c Im(alpha^c)*C_c and
    mod = sum_c C_c, real products added in the order of c (_combine).
    Order 1 is one contraction of the plain window: re and mod are its row,
    im is +0.0.  Above _MAX_CLASS_ORDER the class rows would take more than
    16*(cutoff-1) doubles, so there classes is None and the plain window is
    contracted against alpha^n*n^-q, its real and imaginary parts, and
    n^-q instead.  kf is the k^-r table (k = 2..cutoff); bound is the tail
    bound plus eps*(cutoff+64)*mass, mass = sum_k mod[k-2] * k^-r, the
    order's own mod.

    For eval_mt_direct the rows also keep, in sums, their class sums S_c
    per order n of beta (class_sums), computed the first time an order is
    read: they do not depend on beta's exponent.  That is O(cutoff) per
    order, it is not a memo of the Li layer, and each rows object, a
    recolor too, has its own.  Threads sharing the rows may each compute
    an entry once, with the same bits.
    """

    index: MTIndex
    cutoff: int
    alpha: RootOfUnity
    re: np.ndarray
    im: np.ndarray
    mod: np.ndarray
    kf: np.ndarray
    bound: float
    classes: np.ndarray | None
    sums: dict = field(default_factory=dict, init=False, repr=False)

    def class_sums(self, n: int) -> tuple[list[float], list[float]]:
        """The real and imaginary S_c, c = k mod n: the k^-r-weighted re and
        im rows summed per class in the order of k (np.bincount), at most
        min(n, cutoff+1) each.  Computed once per (rows, n), kept in sums."""
        got = self.sums.get(n)
        if got is None:
            classes = np.arange(2, self.cutoff + 1) % n
            got = self.sums[n] = tuple(
                np.bincount(classes, weights=row * self.kf).tolist() for row in (self.re, self.im)
            )
        return got

    def recolor(self, alpha: RootOfUnity) -> OracleRows:
        """The rows of alpha.  A root of the same order recombines the
        stored class rows, contracts nothing and shares the read-only
        classes, mod and kf and the bound; any other is a fresh
        oracle_rows(index, alpha) at this cutoff.  Either way the bits are
        those of a fresh oracle_rows."""
        _check_root_orders("OracleRows.recolor", alpha=alpha)
        if alpha == self.alpha:
            return self
        if alpha.order != self.alpha.order or self.classes is None:
            return oracle_rows(self.index, alpha, EvalConfig(oracle_cutoff=self.cutoff))
        re, im, _ = _combine(self.classes, alpha)
        return replace(self, alpha=alpha, re=_read_only(re), im=_read_only(im))


def oracle_rows(index: MTIndex, alpha: RootOfUnity, cfg: EvalConfig = DEFAULT_CONFIG) -> OracleRows:
    """The oracle's diagonal sums over n, its k^-r table and its bound.

    Builds the m^-p and n^-q tables (m, n = 1..cutoff+_MAX_CLASS_ORDER-1)
    and the rows of alpha in one pass over the window.  Scratch memory is
    O(cutoff), about (2*ord alpha + 5)*cutoff doubles up to the class cap
    and 17*cutoff above it, and time O(cutoff^2).  A pass of
    _PARALLEL_FLOOR = 2**21 multiply-adds or more (from cutoff about 2050,
    or 1180 above the cap) runs on min(CPUs the process may use, blocks)
    threads for the length of the call (_contract); the rows have the same
    bits at every count.
    """
    _check_root_orders("oracle_rows", alpha=alpha)
    cut = cfg.oracle_cutoff
    size, order = cut - 1, alpha.order
    ns = np.arange(1, cut + _MAX_CLASS_ORDER, dtype=np.float64)
    a, b = (_neg_int_pow(ns, e) for e in (index.p, index.q))
    kf = _read_only(_neg_int_pow(np.arange(2, cut + 1, dtype=np.float64), index.r))
    if order > _MAX_CLASS_ORDER:
        classes = None
        # alpha^n, n = 1..cutoff-1
        phase = np.array(_phases(alpha, min(order, size + 1)))[np.arange(1, size + 1) % order]
        col = b[:size]
        rows = _contract(_windows(a, 1, size), np.array([phase.real * col, phase.imag * col, col]))[0]
    else:
        classes = _read_only(_class_rows(a, b, order, size))
        rows = _combine(classes, alpha)
    re, im, mod = (_read_only(row) for row in rows)
    mass = fsum((mod * kf).tolist())
    bound = oracle_tail_bound(index.p, index.q, index.r, cut) + _EPS * (cut + 64.0) * mass
    return OracleRows(index, cut, alpha, re, im, mod, kf, bound, classes)


def eval_mt_direct(
    index: MTIndex,
    alpha: RootOfUnity,
    beta: RootOfUnity,
    cfg: EvalConfig = DEFAULT_CONFIG,
    rows: OracleRows | None = None,
) -> ValueWithError:
    """Ground-truth oracle: truncated double sum of the defining series.

    Sums all (m, n) with m+n <= cfg.oracle_cutoff, one anti-diagonal
    k = m+n at a time: the diagonal's sum over n comes from
    oracle_rows(index, alpha, cfg), built here when rows is None, and is
    weighted by k^-r and by beta^k = beta^c, c = k mod ord beta.  The
    weighted real and imaginary rows are summed per class c, sequentially
    in the order of k (np.bincount); the at most min(ord beta, cutoff+1)
    class sums S_c are then combined with the real products of
    beta^c = root_value(beta**c), each part in one fsum:
    Re = sum_c Re(beta^c)*Re(S_c) - Im(beta^c)*Im(S_c), Im likewise.  Only
    real products and additions of doubles occur after the rows, so the
    value has the same bits at every SIMD level numpy dispatches to.

    A sweep over beta may pass the rows of its (index, alpha) to every
    call: the value and bound are bit for bit those of the call without
    them.  The rows then compute the class sums once per order of beta
    (OracleRows.class_sums), so a call whose order the rows have seen
    builds only its own phases (_phases) and combination, and what the
    rows keep stays O(cutoff) per order.  Rows built for another index,
    alpha or cutoff are a ValueError naming the field.

    The bound, the rows' own, is the color-independent absolute tail plus
    eps*(cutoff+64)*mass = 2u*(cutoff+64)*mass, mass = sum_k (modulus row
    k) * k^-r, the modulus row of alpha's order.  It covers the roundoff
    (u = eps/2, gamma_n = n*u/(1-n*u), Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1 and 4.2; no over/underflow).  Error bounds on a complex quantity below are on its
    modulus; one on a pair of real sums follows from the componentwise
    bounds gamma*sum|Re| and gamma*sum|Im| by the triangle inequality in
    R^2, which bounds it by gamma times the sum of the terms' moduli.

    * Terms.  m^-p, n^-q and k^-r come from binary powering, at most 21
      roundings each for an exponent below 2048 (a larger one underflows
      for m >= 2); alpha^n from root_value is within 13u of the root (its
      theta = 2*pi*e/n <= pi carries 3 roundings, which move the point
      along the circle by at most 3*pi*u, and cos and sin are each within
      an ulp, 2u).  Three products follow: m^-p*n^-q, the product by the
      phase and the product by k^-r.  Up to the class cap the phase
      multiplies each class sum once instead of each term once; that
      rounding errs by at most u times the class's absolute sum, so it is
      still at most one rounding per term.  That is at most 79u relative
      to each term, so 79u*mass.
    * Within a diagonal.  Diagonal k has k-1 nonzero terms; the zero
      entries of a window row add exactly.  Up to the cap, einsum sums
      each class (a residue window row dotted with a class column) and
      the phase-weighted class sums are added in the order of c; above
      it, einsum sums the plain window row.  Either way a term passes
      through at most k-2 additions (n_c - 1 in its class of n_c terms,
      then one per other nonempty class), and any summation tree of that
      depth errs by at most gamma_(k-2) times the terms' absolute sum, so
      gamma_(cutoff-2)*mass over all diagonals.
    * Class sums.  Class c holds at most ceil((cutoff-1)/ord beta)
      diagonals, added from 0.0 one at a time: at most
      gamma_ceil((cutoff-1)/ord beta) times their absolute sum, so that
      times mass over all classes; the worst case is ord beta = 1, one
      class of cutoff-1 diagonals, gamma_(cutoff-1)*mass.
    * beta^c and the combination.  beta^c is within 13u of the root; the
      real products round once each, at most sqrt(2)*u*|S_c| for the pair
      of parts, and each fsum rounds once: at most 16u times
      sum_c |S_c| <= (1 + gamma_cutoff)*mass.

    Together, to first order, (2*cutoff + 92)*u*mass; the second-order
    terms (the 1/(1-n*u) of each gamma, the rounding of mass itself and of
    the rows it bounds) are below u*mass for cutoff <= MAX_ORACLE_CUTOFF,
    so the total stays within the allowance (2*cutoff + 128)*u*mass.
    """
    _check_root_orders("eval_mt_direct", alpha=alpha, beta=beta)
    cut = cfg.oracle_cutoff
    if rows is None:
        rows = oracle_rows(index, alpha, cfg)
    for field, want in (("index", index), ("alpha", alpha), ("cutoff", cut)):
        got = getattr(rows, field)
        if got != want:
            raise ValueError(f"eval_mt_direct: rows were built for {field} {got}, not {want}")
    sr, si = rows.class_sums(beta.order)
    phases = _phases(beta, len(sr))
    re = fsum([b.real * x for b, x in zip(phases, sr)] + [-b.imag * y for b, y in zip(phases, si)])
    im = fsum([b.real * y for b, y in zip(phases, si)] + [b.imag * x for b, x in zip(phases, sr)])
    return ValueWithError(complex(re, im), rows.bound)


def eval_decomposition(d: Decomposition, cfg: EvalConfig = DEFAULT_CONFIG) -> ValueWithError:
    """Evaluate a decomposition term by term, combining in its term order.

    A coefficient beyond the double range is refused first, before any Li
    value is computed.  Then one eval_li call per term, each handed d.terms
    as its batch, all made before any term is combined: the first miss of
    a color group (x, y) computes every uncached term of the group in one
    batch, in term order, and every value the batch computes is asked for
    even when combine then raises.
    """
    for u in d.terms:
        _coefficient(u.coefficient)
    values = [eval_li(u.s, u.t, u.x, u.y, cfg, batch=d.terms) for u in d.terms]
    return ValueWithError.combine((u.coefficient, v) for u, v in zip(d.terms, values))


def zeta_const(s: int) -> ValueWithError:
    """zeta(s) for integer s >= 2."""
    return tail_sum(s, ONE, 0)


def pi_const() -> ValueWithError:
    return ValueWithError(complex(math.pi, 0.0), 1.3e-16)
