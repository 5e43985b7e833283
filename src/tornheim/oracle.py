"""The direct-sum oracle: eval_mt_direct, the independent ground truth.

A plain diagonal-major truncated double sum of the defining series, with a
color-independent integral-comparison tail bound.  The diagonal sums over
n, with the k^-r table and the bound, are one OracleRows (oracle_rows):
they do not depend on beta, so a sweep builds them once per (index,
alpha).  The k^-r-weighted rows summed per residue class c = k mod ord
beta, the class sums S_c, depend on beta only through its order, so the
rows keep them per ord beta, and each call only combines them with its own
phases beta^c (eval_mt_direct).  alpha^n depends only on n mod ord alpha,
so for ord alpha <= _MAX_CLASS_ORDER = 16 the rows are real combinations
of the class rows C_c(k) = sum_{n = c mod ord alpha} (k-n)^-p n^-q.  The
m^-p of each residue class of m form a sliding window of their own, so one
pass over these windows, cutoff^2/2 multiply-adds whatever the order,
gives every class row, and OracleRows.recolor to another root of the same
order contracts nothing; to a root of another order it is a fresh
oracle_rows.  A higher order contracts the plain window against
phase-weighted columns instead.  Scratch memory is O(cutoff), at most
about 40*cutoff doubles.  What the rows keep for beta is O(cutoff) per
order of beta too: per order n, the class sums, at most 2*min(n, cutoff+1)
doubles, and once the k^-r-weighted rows, 2*(cutoff-1) doubles, on each
rows object alone; a recolor shares only read-only arrays and the bound,
and computes its own class sums.

Two module memos serve every rows object, so a warm sweep case pays only
for its own beta.  _class_index keeps, per (cutoff, ord beta), the bins of
one np.bincount over both weighted rows: 2*(cutoff-1) indices of 8 bytes,
at most _CLASS_INDEX_MEMO = 8 entries, so 128*(cutoff-1) bytes at the
largest cutoff it holds (128 MiB at MAX_ORACLE_CUTOFF = 2**20, 125 KB at
the grid's 1000).  _phase_table keeps root^c, c = 0..ord root, as a tuple
of real parts and one of imaginary parts, for the 80 roots of order up to
_MAX_CLASS_ORDER, at most 17 phases each and 943 in all: 1886 doubles in
160 tuples, about 71 KB.  A root above that order builds its phases per
call.

The oracle shares no summation code with the decomposition path: it
imports nothing from li.py, and it builds its phases root^j, for alpha and
beta alike, by one rule of its own (_phases: root_value(root**j)).  Its
two memos are its own: they read no Li memo, and eval_li.cache_clear()
leaves them as they are.  After the class rows it multiplies and adds only
reals, so its values have the same bits at every SIMD level.

Summation: the oracle sums the terms of a diagonal's alpha class with
numpy's own einsum loop, never BLAS, in an unspecified order that is fixed
for a given cutoff and numpy build, the classes of a diagonal in the order
of c, and the diagonals of each residue class mod ord beta one after the
other in k order (np.bincount); math.fsum (exactly rounded) combines the
beta-weighted class sums.  So its results are deterministic and do not
change with the BLAS thread count or the number of CPUs.  A contraction of
at least _PARALLEL_FLOOR = 2**21 multiply-adds (cutoff 20000, not the
grid's 1000) shares its blocks of _BLOCK = 64 diagonals, one size for
every order, among one worker thread per CPU the process may use, each
taking the next block from a queue (_contract), but each block is still
one einsum call on the same operands, so the split moves no bit.  Any
summation of n terms errs by at most gamma_(n-1) times their absolute sum
(Higham, Accuracy and Stability of Numerical Algorithms, 4.2);
eval_mt_direct derives from that that the roundoff allowance
eps*(cutoff+64)*mass covers these orders.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import chain
from math import fsum
from operator import mul, neg

import numpy as np

from .algebra import RootOfUnity, root_value
from .bounds import _EPS, DEFAULT_CONFIG, MAX_ROOT_ORDER, EvalConfig, ValueWithError, _check_root_orders, _read_only
from .decompose import MTIndex

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
# class rows take order*(cutoff-1) doubles.  Roots up to this order also
# keep their phases (_phase_table).
_MAX_CLASS_ORDER = 16

# Entries of the class-index memo (_class_index), one per (cutoff, ord
# beta), each 2*(cutoff-1) indices of 8 bytes.  A sweep reads one cutoff
# and, in the grid, 4 orders of beta; 8 keeps a sweep over up to 8 orders
# from evicting the entry it reads next.
_CLASS_INDEX_MEMO = 8


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
    as 2^-r is a normal double, the allowance's own no-underflow premise,
    which oracle_rows enforces by refusing r >= 1023.
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


def _phase_parts(root: RootOfUnity, count: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The real parts and the imaginary parts of root_value(root**c), c = 0..count-1."""
    values = [root_value(root**c) for c in range(count)]
    return tuple(v.real for v in values), tuple(v.imag for v in values)


@lru_cache(maxsize=None)
def _phase_table(root: RootOfUnity) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """_phase_parts(root, ord root + 1), kept for roots of order up to
    _MAX_CLASS_ORDER: 80 roots, at most 17 phases each.  Without the memo the
    grid's latency_p50 rose 22% (tests/data/ablations.txt, row phase_table)."""
    return _phase_parts(root, root.order + 1)


def _phases(root: RootOfUnity, count: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The real parts and the imaginary parts of root^c = root_value(root**c)
    for c = 0..count-1, the oracle's one phase rule for alpha and beta
    alike: it reads no Li-layer memo.  A root of order up to
    _MAX_CLASS_ORDER reads its _phase_table when count <= ord root + 1, as
    every caller's count is; any other root or count is computed per call.
    Either way the parts are the doubles of the complex phase."""
    if root.order <= _MAX_CLASS_ORDER and count <= root.order + 1:
        re, im = _phase_table(root)
        return re[:count], im[:count]
    return _phase_parts(root, count)


@lru_cache(maxsize=_CLASS_INDEX_MEMO)
def _class_index(cutoff: int, n: int) -> tuple[np.ndarray, int]:
    """The bins of OracleRows.class_sums for beta of order n: [k mod n,
    m + k mod n] for k = 2..cutoff, read-only, and m, the number of classes
    k mod n, which is the highest of them plus one (0 at cutoff 1).  Without
    the memo the grid's latency_p50 rose 42% (tests/data/ablations.txt, row
    class_index)."""
    classes = np.arange(2, cutoff + 1) % n
    m = int(classes.max()) + 1 if len(classes) else 0
    return _read_only(np.concatenate((classes, classes + m))), m


def _combine(classes: np.ndarray, alpha: RootOfUnity) -> np.ndarray:
    """The rows re, im, mod: sum_c Re(alpha^c)*C_c, sum_c Im(alpha^c)*C_c and
    sum_c C_c, c = 1..ord alpha, a real product per class added in the
    order of c."""
    re, im = _phases(alpha, len(classes) + 1)
    weights = np.array([re[1:], im[1:], np.ones(len(classes))])
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
    recolor too, computes its own, as it builds its own weighted rows, the
    k^-r-weighted re and im rows end to end (2*(cutoff-1) doubles), with
    its first class sums.  Threads sharing the rows may each compute an
    entry once, with the same bits.
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

    @cached_property
    def weighted(self) -> np.ndarray:
        """re*kf then im*kf in one array: the terms the class sums add.  Built
        once per rows instead of once per order, it saves 11% of the grid's
        latency_p50 (tests/data/ablations.txt, row weighted)."""
        return np.concatenate((self.re * self.kf, self.im * self.kf))

    def class_sums(self, n: int) -> tuple[list[float], list[float]]:
        """The real and imaginary S_c, c = k mod n: the k^-r-weighted re and
        im rows summed per class in the order of k, at most min(n, cutoff+1)
        each.  One np.bincount over the weighted rows and _class_index(cutoff,
        n) adds each bin from 0.0 in the order of k, so the bits are those of
        one bincount per row.  Computed once per (rows, n), kept in sums."""
        got = self.sums.get(n)
        if got is None:
            bins, m = _class_index(self.cutoff, n)
            both = np.bincount(bins, weights=self.weighted).tolist()
            got = self.sums[n] = (both[:m], both[m:])
        return got

    def recolor(self, alpha: RootOfUnity) -> OracleRows:
        """The rows of alpha.  A root of the same order recombines the
        stored class rows, contracts nothing and shares the read-only
        classes, mod and kf and the bound; any other is a fresh
        oracle_rows(index, alpha) at this cutoff.  Either way the bits are
        those of a fresh oracle_rows, and the rows start with no class
        sums."""
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

    An r of 1023 or more is a ValueError, raised before any table is built:
    the roundoff allowance eps*(cutoff+64)*mass and the tail bound's
    argument (oracle_tail_bound) assume 2^-r, the scale of the k = 2 term,
    is a normal double.  Past it both underflow, to 0.0 from about r =
    1070, below the error they are to cover.
    """
    _check_root_orders("oracle_rows", alpha=alpha)
    if index.r >= 1023:
        raise ValueError(
            f"oracle_rows: r = {index.r} >= 1023: the oracle's roundoff allowance needs 2**-r,"
            " the scale of its k = 2 term, to be a normal double"
        )
    cut = cfg.oracle_cutoff
    size, order = cut - 1, alpha.order
    ns = np.arange(1, cut + _MAX_CLASS_ORDER, dtype=np.float64)
    a, b = (_neg_int_pow(ns, e) for e in (index.p, index.q))
    kf = _read_only(_neg_int_pow(np.arange(2, cut + 1, dtype=np.float64), index.r))
    if order > _MAX_CLASS_ORDER:
        classes = None
        # the real and imaginary parts of alpha^n, n = 1..cutoff-1
        re, im = np.array(_phases(alpha, min(order, size + 1)))[:, np.arange(1, size + 1) % order]
        col = b[:size]
        rows = _contract(_windows(a, 1, size), np.array([re * col, im * col, col]))[0]
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
    class sums S_c are then combined with the real products of the parts
    of beta^c = root_value(beta**c) (_phases), each part in one fsum over
    the products:
    Re = sum_c Re(beta^c)*Re(S_c) - Im(beta^c)*Im(S_c), Im likewise.  fsum
    is exactly rounded, so the order of its terms moves no bit.  Only real
    products and additions of doubles occur after the rows, so the value
    has the same bits at every SIMD level numpy dispatches to.

    A sweep over beta may pass the rows of its (index, alpha) to every
    call: the value and bound are bit for bit those of the call without
    them.  The rows then compute the class sums once per order of beta
    (OracleRows.class_sums), so a call whose order the rows hold reads its
    phases (_phases) and builds only its own combination, and what the
    rows keep stays O(cutoff) per order.  Rows built for another
    index, alpha or cutoff are a ValueError naming the field, and so is a
    root of order above MAX_ROOT_ORDER (checked only for such an order).

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
    if alpha.order > MAX_ROOT_ORDER or beta.order > MAX_ROOT_ORDER:
        _check_root_orders("eval_mt_direct", alpha=alpha, beta=beta)
    cut = cfg.oracle_cutoff
    if rows is None:
        rows = oracle_rows(index, alpha, cfg)
    if (rows.index, rows.alpha, rows.cutoff) != (index, alpha, cut):
        for field, want in (("index", index), ("alpha", alpha), ("cutoff", cut)):
            got = getattr(rows, field)
            if got != want:
                raise ValueError(f"eval_mt_direct: rows were built for {field} {got}, not {want}")
    sr, si = rows.class_sums(beta.order)
    br, bi = _phases(beta, len(sr))
    re = fsum(chain(map(mul, br, sr), map(mul, bi, map(neg, si))))
    im = fsum(chain(map(mul, br, si), map(mul, bi, sr)))
    return ValueWithError(complex(re, im), rows.bound)
