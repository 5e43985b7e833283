"""The decomposition's Li layer: Hurwitz tails, tail_sum, eval_li, eval_decomposition.

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
  this: a call without a batch is a batch of one.  A key asked for whose
  conjugate key is stored is served the stored value's exact conjugate,
  unless that value has a zero part; the shapes a batch adds are computed
  whatever is stored for their conjugates.  eval_li.cache_clear() empties
  all of them (only the Euler-Maclaurin coefficients stay).
  eval_li.cache_info() counts values, not calls: its misses are the Li
  values computed, one head tail_sum call each, and its hits the eval_li
  calls that returned a value, beyond them.  hurwitz_tail stays uncached.  Memory grows with
  the distinct inputs: per distinct key, order floats for a row, n0 for a
  power table, n for a root-power table, one entry per tail_sum call or
  Li value, and 1 float and 2 small integers per j-series term of a
  schedule.  One pass of the benchmark's eval workload holds about 1.3 MB
  of schedule arrays (1246 schedules, 126k terms) and 0.2 MB of root
  powers.  A batch's scratch is O(its schedules): its rung table holds
  only the rungs it reads, however high their omega, so Li[3*10**7, 1]
  takes milliseconds and a few MB.  An Euler-Maclaurin set-up beyond the
  double range (_em_params, from s of about 1.04e17) is a ValueError.

Summation: math.fsum (exactly rounded) combines the scalar series
(hurwitz_tail's head, tail_sum's residue row).  The head and tail rows are
added by one aligned pairwise tree per batch (_weighted_sums): elementwise
adds of columns 2i and 2i+1, an order fixed by the column alone.  It errs
by at most gamma_ceil(log2 n) times a row's mass, which stays inside
_li_batch's allowances (_li_head, _li_tail).
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import fsum

import numpy as np

from .algebra import ONE, RootOfUnity, root_mul, root_value
from .bounds import (
    _EPS,
    DEFAULT_CONFIG,
    MAX_ROOT_ORDER,
    EvalConfig,
    ValueWithError,
    _check_root_orders,
    _coefficient,
    _read_only,
)
from .decompose import Decomposition, LiTerm

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


class _SetUpRangeError(ValueError):
    """An Euler-Maclaurin set-up beyond the double range (_em_params), which
    eval_decomposition names by the index its caller gave."""


def _rising(s: int, k: int) -> int:
    return math.prod(range(s, s + k))


@lru_cache(maxsize=None)
def _em_params(s: int, half_order: int) -> tuple[tuple[float, ...], float, float]:
    """(correction coefficients, remainder coefficient, minimal EM start A).

    A coefficient or start beyond the double range is a ValueError naming
    s: at order 16 from s of about 1.04e17 on, at order 8 from about 9.85e29.
    """
    try:
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
    except OverflowError:
        a_min = math.inf
    if a_min == math.inf:
        raise _SetUpRangeError(
            f"Euler-Maclaurin set-up of order {2 * half_order} at s = {s} is beyond the double range"
        )
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
        head = fsum((w + j) ** -s for j in nonzero)
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
    Without it an eval pass took 19% longer (tests/data/ablations.txt, row
    hurwitz_row).
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


@lru_cache(maxsize=None)
def _inv_powers(e: int, n0: int) -> np.ndarray:
    """float(n) ** -e for n = n0, n0-1, ..., 1: the head's order of n.

    Without the memo an eval pass took 80% longer (tests/data/ablations.txt,
    row inv_powers)."""
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
                # ratio (sigma+j)/(j+1) * c/n0 decreases in j.  The loop
                # needs no cap on j: eval_li keeps n0 >= 2*ord x + 1 and
                # c <= ord x <= 2**16, so lam_cap < 2^-j/n0 rounds to 0.0 by
                # j of about 1075, and c^j stays below the double range
                # (under 2^1011) at every j before that exit.
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
    where = np.array([rungs, pos], dtype=np.min_scalar_type(max(nx, max(rungs))))
    return tuple(sorted(set(rungs) - {0})), _read_only(np.array(weights)), _read_only(where)


def _li_tail(
    shapes: list[tuple[int, int]], x: RootOfUnity, y: RootOfUnity, n0: int, bounds: list[float]
) -> list[tuple[complex, float, float]]:
    """Per (s, t) of shapes: the tail sum_{n>n0}, its mass, and bound plus its increments.

    Runs each _tail_schedule(s, t, ord x, n0) on the rungs lam of z = x*y
    and the phases x^c: the schedules are the rows of one array, padded
    with zero weights on the sentinel, and the rung table, the rungs the
    batch reads with the sentinel first and then by omega, is gathered at
    each entry's omega (np.searchsorted), so its size does not grow with s.
    The terms are w*(x^c*lam) by _weighted_sums, each row summing
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
    # Real part, imaginary part and bound of each rung the batch reads, in
    # the order of omega after the sentinel, omega 0.
    omegas = [0] + sorted(set().union(*(omegas for omegas, _, _ in schedules)))
    lam = [(0.0, 0.0, 1.0)]
    for omega in omegas[1:]:
        v = tail_sum(omega, z, n0, _LADDER_ORDER)
        lam.append((v.value.real, v.value.imag, v.error_bound))
    lam = np.array(lam).T
    sizes = [len(w) for _, w, _ in schedules]
    w = np.zeros((len(shapes), max(sizes)))
    where = np.zeros((2, len(shapes), max(sizes)), dtype=np.intp)
    for i, (_, wi, wherei) in enumerate(schedules):
        w[i, : sizes[i]] = wi
        where[:, i, : sizes[i]] = wherei
    lam = lam.take(np.searchsorted(omegas, where[0]), axis=1)
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
    nothing) with the same colors (x, y) that are not stored yet, taken in
    term order, whatever is stored for their conjugates.  Every value the
    batch computes is stored, and computed counts them: one head tail_sum
    call each, inside the eval_li span of the miss.  calls counts the
    calls that returned a value: eval_li reads a hit from values itself,
    leaves any other key to miss and counts the call.  info() reads
    computed as the misses and the other calls as the hits, so hits +
    misses = calls once every term of a batch has been asked for, as
    eval_decomposition asks for all its terms before it combines them.  A
    call that raises counts as neither.

    The key itself, when its conjugate (s, t, conj x, conj y, n0) is
    stored, is served as the conjugate of that value with its bound, when
    both of the value's parts are nonzero, and runs no batch (_mirror).
    That is what evaluating the key gives: root_value makes the phases of
    conjugate roots exactly conjugate, so every product and sum of the
    head, the ladder rungs and the tail has the same real part and the
    negated imaginary part, and np.hypot and abs the same moduli.  Only
    the sign of a zero part can differ, so a value with a zero part is not
    mirrored; its conjugate is computed.

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
        """The conjugate of the stored value of (s, t, xc, yc, n0), if it may serve.

        Without it the grid's latency_p50 rose 33% (tests/data/ablations.txt, row mirror)."""
        v = self.values.get((s, t, xc, yc, n0))
        if v is None or v.value.real == 0.0 or v.value.imag == 0.0:
            return None
        return ValueWithError(v.value.conjugate(), v.error_bound)

    def miss(self, s: int, t: int, x: RootOfUnity, y: RootOfUnity, n0: int, batch: tuple[LiTerm, ...]) -> ValueWithError:
        """The value of a key not in values, mirrored or computed, then stored."""
        key = (s, t, x, y, n0)
        v = self._mirror(s, t, x.conjugate(), y.conjugate(), n0)
        if v is not None:
            self.values[key] = v
            return v
        shapes = [(s, t)] + [
            (u.s, u.t)
            for u in batch
            if (u.x, u.y) == (x, y) and (u.s, u.t) != (s, t) and (u.s, u.t, x, y, n0) not in self.values
        ]
        for (si, ti), (value, bound) in zip(shapes, _li_batch(shapes, x, y, n0)):
            self.values[si, ti, x, y, n0] = ValueWithError(value, bound)
        self.computed += len(shapes)
        return self.values[key]


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
    root x, y or x*y of order above MAX_ROOT_ORDER, refused before any
    work: the tail's ladder rungs are tail_sum calls at z = x*y, whose
    order may reach ord x * ord y.
    """
    if not isinstance(s, int) or s < 2:
        raise ValueError("eval_li requires integer s >= 2")
    if not isinstance(t, int) or t < 1:
        raise ValueError("eval_li requires integer t >= 1")
    if x.order * y.order > MAX_ROOT_ORDER:  # ord x, ord y and ord(x*y) are at most this product
        _check_root_orders("eval_li", x=x, y=y, **{f"x*y = ({x})*({y})": root_mul(x, y)})
    if cfg.max_inner_terms < 2 * x.order + 1:
        raise ValueError(
            f"max_inner_terms = {cfg.max_inner_terms} is below 2*order+1 = {2 * x.order + 1}"
            f" for a root x of order {x.order}; the tail expansion needs n0 > 2*order"
        )
    n0 = _head_length(x, cfg)
    memo = _li_memo
    v = memo.values.get((s, t, x, y, n0))
    if v is None:
        v = memo.miss(s, t, x, y, n0, batch)
    memo.calls += 1
    return v


_LI_MEMOS = (_hurwitz_row, tail_sum, _inv_powers, _root_powers, _tail_schedule)


def _clear_li_caches() -> None:
    """Empty eval_li's memo together with every private memo under it."""
    _li_memo.clear()
    for memo in _LI_MEMOS:
        memo.cache_clear()


eval_li.cache_info = _li_memo.info
eval_li.cache_clear = _clear_li_caches


def eval_decomposition(d: Decomposition, cfg: EvalConfig = DEFAULT_CONFIG) -> ValueWithError:
    """Evaluate a decomposition term by term, combining in its term order.

    A coefficient beyond the double range is refused first, before any Li
    value is computed, and so is an alpha, beta or alpha*beta of order above
    MAX_ROOT_ORDER, named as the caller gave it: every term color x, y and
    product x*y is one of these or an inverse, so this refuses exactly the
    decompositions eval_li would.  Then one eval_li call per term, each
    handed d.terms as its batch, all made before any term is combined: the
    first miss of a color group (x, y) computes every uncached term of the
    group in one batch, in term order, and every value the batch computes
    is asked for even when combine then raises.  A term whose
    Euler-Maclaurin set-up is beyond the double range is a ValueError naming
    MT(p,q,r) as the caller gave it, not the s of the term that raised.
    """
    for u in d.terms:
        _coefficient(u.coefficient)
    a, b = d.alpha, d.beta
    if a.order * b.order > MAX_ROOT_ORDER:  # as in eval_li: the product bounds all three orders
        _check_root_orders("eval_decomposition", alpha=a, beta=b, **{f"alpha*beta = ({a})*({b})": root_mul(a, b)})
    try:
        values = [eval_li(u.s, u.t, u.x, u.y, cfg, batch=d.terms) for u in d.terms]
    except _SetUpRangeError:
        raise ValueError(
            f"eval_decomposition: MT{d.index} needs an Euler-Maclaurin set-up beyond the double range"
            f" for its Li terms of weight {d.index.weight}"
        ) from None
    return ValueWithError.combine((u.coefficient, v) for u, v in zip(d.terms, values))


def zeta_const(s: int) -> ValueWithError:
    """zeta(s) for integer s >= 2."""
    return tail_sum(s, ONE, 0)
