import ast
import cmath
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from tornheim import (
    MINUS_ONE,
    ONE,
    EvalConfig,
    LiTerm,
    MTIndex,
    RootOfUnity,
    ValueWithError,
    color_pairs,
    cross_check_grid,
    decompose,
    enumerate_indices,
    eval_decomposition,
    eval_li,
    eval_mt_direct,
    pi_const,
    verify_r212,
    zeta_const,
)
from tornheim import bounds, li, oracle
from tornheim.bounds import MAX_ORACLE_CUTOFF, MAX_ROOT_ORDER
from tornheim.li import (
    _hurwitz_row,
    _li_batch,
    _li_head,
    _root_powers,
    _tail_schedule,
    _weighted_sums,
    hurwitz_tail,
    tail_sum,
)
from tornheim.oracle import oracle_rows, oracle_tail_bound
from tornheim.verify import _agreement

I = RootOfUnity(1, 4)
W3 = RootOfUnity(1, 3)

# Frozen reference digits (classical constants, 18+ correct digits).
ZETA2 = 1.6449340668482264365
ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263


def _li_once(s, t, x, y, n0):
    """One shape evaluated alone: the batch of one."""
    ((value, bound),) = _li_batch([(s, t)], x, y, n0)
    return value, bound


def brute_li_t1(s, m_max):
    """Independent oracle for Li[s,1](1,1) = sum_{m>n} 1/(m^s n):
    a plain partial sum via running harmonic numbers (numpy)."""
    m = np.arange(1, m_max + 1, dtype=np.float64)
    harmonic = np.cumsum(1.0 / m)
    return float(np.sum((harmonic[:-1]) * m[1:] ** (-float(s))))


class TestHurwitz:
    @pytest.mark.parametrize("s", [2, 3, 4, 6, 9, 12, 24, 30, 35, 40, 60])
    @pytest.mark.parametrize("w", [0.25, 0.5, 1.0, 1.5, 7.3, 129.37, 1e6])
    def test_against_scipy(self, s, w):
        val, bound = hurwitz_tail(s, w)
        ref = float(scipy.special.zeta(s, w))
        assert abs(val - ref) <= 5e-14 * abs(ref) + bound

    def test_large_s_direct_branch(self):
        val, bound = hurwitz_tail(35, 2.5)
        ref = float(scipy.special.zeta(35, 2.5))
        assert abs(val - ref) <= 1e-13 * abs(ref)
        assert bound >= 0

    def test_bound_covers_an_underflowed_value(self):
        # H(60, 1e6) <= w^(1-s)/(s-1) + w^(-s), which lies below the
        # smallest subnormal; the value underflows to 0.0, so only a bound
        # of at least that subnormal covers |0.0 - H|.
        s, w = 60, 1e6
        val, bound = hurwitz_tail(s, w)
        assert val == 0.0 and bound >= 5e-324
        majorant = np.logaddexp((1 - s) * math.log(w) - math.log(s - 1), -s * math.log(w))
        assert majorant < math.log(5e-324)

    @pytest.mark.parametrize("order", [0, 1, 7, 18, 20, 8.0, 16.0])
    def test_rejects_other_orders(self, order):
        with pytest.raises(ValueError, match=rf"order {order} "):
            hurwitz_tail(3, 2.5, order)
        with pytest.raises(ValueError, match=rf"order {order} "):
            tail_sum(3, W3, 11, order)

    def test_accepts_orders_8_and_16(self):
        for order in (8, 16):
            val, bound = hurwitz_tail(3, 2.5, order)
            assert abs(val - float(scipy.special.zeta(3, 2.5))) <= 5e-14 + bound
            v = tail_sum(3, W3, 11, order)
            assert math.isfinite(abs(v.value)) and v.error_bound < 1e-15

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hurwitz_tail(1, 2.0)
        with pytest.raises(ValueError):
            hurwitz_tail(2, 0.0)

    def test_direct_term_overflow_is_a_named_error(self):
        # w^-s = 0.0315^-206 is beyond the double range; a ladder rung of
        # Li[206,1](1, 1/4096) starts there, at w = (n0+c)/4096 with n0 = 128.
        with pytest.raises(ValueError, match=r"s = 206, w = 0\.031494140625 overflows the double range"):
            hurwitz_tail(206, 0.031494140625)
        with pytest.raises(ValueError, match=r"s = 206, .* overflows the double range"):
            eval_li(206, 1, ONE, RootOfUnity(1, 4096))


def _scalar_tail_sum(s, x, n, order):
    """tail_sum's residue-class formula with scalar phases, the reference for tail_sum."""
    nn = x.order
    scale = float(nn) ** -s
    row, bound, mass = _hurwitz_row(s, nn, n, order)
    re = [(x**c).value().real * hz for c, hz in enumerate(row, 1)]
    im = [(x**c).value().imag * hz for c, hz in enumerate(row, 1)]
    value = (x**n).value() * complex(math.fsum(re), math.fsum(im)) * scale
    return repr(value), repr(scale * (bound + 8.0 * bounds._EPS * mass))


class TestTailSum:
    def test_zeta2_vs_direct_summation(self):
        # independent oracle: one million direct terms plus the two-term
        # integral correction 1/M - 1/(2 M^2), which is accurate to O(M^-3)
        m_cut = 10**6
        m = np.arange(1, m_cut + 1, dtype=np.float64)
        direct = float(np.sum(1.0 / m**2)) + 1.0 / m_cut - 0.5 / m_cut**2
        v = tail_sum(2, ONE, 0)
        assert abs(v.value.real - direct) < 1e-10
        assert abs(v.value.real - math.pi**2 / 6) < 1e-12
        assert v.value.imag == 0.0

    def test_eta4_vs_alternating_partial_sum(self):
        # independent oracle: alternating series with bracket remainder
        m_cut = 4000
        m = np.arange(1, m_cut + 1, dtype=np.float64)
        partial = float(np.sum((-1.0) ** m / m**4))
        v = tail_sum(4, MINUS_ONE, 0)
        assert abs(v.value.real - partial) < (m_cut + 1.0) ** -4
        assert abs(v.value.real - (-(7 / 8) * math.pi**4 / 90)) < 1e-12

    def test_deep_tail_window(self):
        v = tail_sum(2, ONE, 10**6)
        assert 9.99e-7 < v.value.real < 1.01e-6

    def test_complex_root_vs_brute(self):
        # Li_s(i) tail: brute partial sum with integral remainder bound
        n = 7
        m_cut = 200000
        m = np.arange(n + 1, m_cut + 1, dtype=np.float64)
        phases = np.exp(0.5j * math.pi * np.mod(np.arange(n + 1, m_cut + 1), 4))
        brute = complex(np.sum(phases * m ** (-3.0)))
        v = tail_sum(3, I, n)
        assert abs(v.value - brute) < 1e-9

    def test_bound_honesty_vs_higher_order(self):
        for s, x, n in [(2, ONE, 0), (2, MINUS_ONE, 3), (3, W3, 11), (5, I, 0)]:
            v8 = tail_sum(s, x, n, order=8)
            v16 = tail_sum(s, x, n, order=16)
            assert abs(v8.value - v16.value) <= v8.error_bound + v16.error_bound

    @pytest.mark.parametrize("nn", range(1, 13))
    def test_phases_at_every_n_equal_scalar_formula(self, nn, monkeypatch):
        # Every residue n mod nn and both n > nn and n < nn, so that each
        # phase x^c and x^(n mod nn) is read.  The root-power table of n
        # columns has the bits of all nn phases taken at j mod nn.
        root_value = li.root_value
        for x in [RootOfUnity(k, nn) for k in range(nn) if math.gcd(k, nn) == 1]:
            every = np.array([root_value(x**j) for j in range(nn)])
            for n in range(2 * nn + 2):
                phases = every[np.arange(n + 1) % nn]
                assert _root_powers(x, n + 1).tobytes() == np.array([phases.real, phases.imag]).tobytes(), (x, n)
                for s in (2, 5, 19):
                    for order in (8, 16):
                        got = tail_sum(s, x, n, order)
                        ref = _scalar_tail_sum(s, x, n, order)
                        assert (repr(got.value), repr(got.error_bound)) == ref, (s, x, n, order)
        # A table shorter than the order builds only the phases it holds.
        calls, big = [], RootOfUnity(1, MAX_ROOT_ORDER)
        monkeypatch.setattr(li, "root_value", lambda root: calls.append(root) or root_value(root))
        eval_li.cache_clear()
        phases = np.array([root_value(big**j) for j in range(2 * nn + 2)])
        assert _root_powers(big, 2 * nn + 2).tobytes() == np.array([phases.real, phases.imag]).tobytes()
        assert len(calls) == 2 * nn + 2
        # The oracle builds its phases through its own binding, not the Li layer's.
        eval_mt_direct(MTIndex(2, 1, 2), big, big, EvalConfig(oracle_cutoff=8))
        assert len(calls) == 2 * nn + 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tail_sum(1, ONE, 0)
        with pytest.raises(ValueError):
            tail_sum(2, ONE, -1)


class TestConstants:
    def test_zeta_digits(self):
        assert abs(zeta_const(2).value.real - ZETA2) < 1e-12
        assert abs(zeta_const(3).value.real - ZETA3) < 1e-12
        assert abs(zeta_const(5).value.real - ZETA5) < 1e-12

    def test_pi(self):
        v = pi_const()
        assert abs(v.value.real - math.pi) <= 1e-14
        assert v.error_bound < 1e-14


class TestEvalLi:
    def test_euler_zeta21(self):
        v = eval_li(2, 1, ONE, ONE)
        assert v.error_bound <= 1e-10
        assert abs(v.value.real - ZETA3) < 1e-10
        # cross-check against the zeta(3) tail route
        assert abs(v.value.real - tail_sum(3, ONE, 0).value.real) < 1e-12
        # and against the brute-force double sum with its tail estimate
        m_cut = 200000
        brute = brute_li_t1(2, m_cut)
        tail_est = (2.0 + math.log(m_cut)) / m_cut
        assert abs(v.value.real - brute) < tail_est

    def test_li61_vs_brute(self):
        # s=6 decays fast enough that the brute tail is below 1e-12
        brute = brute_li_t1(6, 10**5)
        v = eval_li(6, 1, ONE, ONE)
        assert abs(v.value.real - brute) < 1e-10

    def test_li22_closed_form(self):
        # zeta(2,2) = (zeta(2)^2 - zeta(4)) / 2 with pi-power closed forms
        truth = (math.pi**2 / 6) ** 2 / 2 - (math.pi**4 / 90) / 2
        v = eval_li(2, 2, ONE, ONE)
        assert abs(v.value.real - truth) < 1e-12

    def test_li31_closed_form(self):
        # zeta(3,1) = pi^4/360
        v = eval_li(3, 1, ONE, ONE)
        assert abs(v.value.real - math.pi**4 / 360) < 1e-12

    def test_alternating_pair_matches_oracle(self):
        lhs = eval_li(4, 1, MINUS_ONE, MINUS_ONE)
        rhs = eval_li(4, 1, ONE, MINUS_ONE)
        total = lhs.value + rhs.value
        oracle = eval_mt_direct(MTIndex(1, 1, 3), MINUS_ONE, ONE, EvalConfig(oracle_cutoff=4000))
        assert abs(total - oracle.value) <= lhs.error_bound + rhs.error_bound + oracle.error_bound

    def test_complex_arguments_vs_brute(self):
        # brute double sum over m <= 3000 (inner sums vectorized);
        # remainder below 1e-7 for s=4 outer decay
        s, t, x, y = 4, 1, I, W3
        xm = np.exp(2j * math.pi * np.mod(np.arange(3001), 4) / 4)
        yn = np.exp(2j * math.pi * np.mod(np.arange(3001), 3) / 3)
        inner = np.cumsum(yn[1:] / np.arange(1, 3001) ** float(t))
        brute = complex(np.sum(xm[2:] * np.arange(2, 3001, dtype=float) ** (-4.0) * inner[:-1]))
        v = eval_li(s, t, x, y)
        assert abs(v.value - brute) < 1e-7

    def test_bound_honesty_vs_doubled_head(self):
        for s, t, x, y in [(2, 1, ONE, ONE), (2, 1, MINUS_ONE, MINUS_ONE), (3, 2, I, W3)]:
            v1, b1 = _li_once(s, t, x, y, 256)
            v2, b2 = _li_once(s, t, x, y, 512)
            assert abs(v1 - v2) <= b1 + b2
            assert b1 > 0

    def test_budget_cap_keeps_bound_honest(self):
        # cap the head far below its default; the result must still agree
        # with the uncapped evaluation within the reported bounds
        cfg = EvalConfig(tolerance=1e-13, max_inner_terms=16)
        v = eval_li(2, 1, ONE, ONE, cfg)
        ref = eval_li(2, 1, ONE, ONE)
        assert abs(v.value - ref.value) <= v.error_bound + ref.error_bound
        assert v != ref  # the cap took effect

    def test_one_pass_per_miss(self, monkeypatch):
        # A bound far above any tolerance must not buy a longer head: a
        # longer one cannot lower the bound, so eval_li makes one pass.
        calls = []

        def loose(shapes, x, y, n0):
            calls.append(n0)
            return [(0.5 + 0j, 1.0)] * len(shapes)

        monkeypatch.setattr(li, "_li_batch", loose)
        eval_li.cache_clear()
        v = eval_li(2, 1, ONE, ONE, EvalConfig(tolerance=1e-13))
        eval_li.cache_clear()
        assert calls == [128] and v == ValueWithError(0.5, 1.0)

    def test_tolerance_changes_no_bit(self):
        shapes = [(2, 1, ONE, ONE), (3, 2, I, W3), (10, 10, RootOfUnity(7, 12), MINUS_ONE), (19, 1, W3, I)]
        for s, t, x, y in shapes:
            # Cleared in between: the two configs share one cache entry.
            eval_li.cache_clear()
            tight = eval_li(s, t, x, y, EvalConfig(tolerance=1e-13))
            eval_li.cache_clear()
            loose = eval_li(s, t, x, y, EvalConfig(tolerance=1e-6))
            assert (repr(tight.value), repr(tight.error_bound)) == (repr(loose.value), repr(loose.error_bound))

    def test_conjugating_both_colors_conjugates_exactly(self):
        # The premise of eval_li's conjugate rule, on evaluations that read
        # no eval_li memo: the memo would serve one side from the other.
        roots = sorted({RootOfUnity(k, n) for n in (1, 2, 3, 4, 6, 8, 12) for k in range(n)},
                       key=RootOfUnity.sort_key)
        upper = [x for x in roots if 2 * x.exponent <= x.order]
        for s, t in [(2, 1), (3, 2), (5, 1), (4, 4), (10, 10), (19, 1)]:
            for x in upper:
                n0 = li._head_length(x)
                for y in roots:
                    v, b = _li_once(s, t, x, y, n0)
                    vc, bc = _li_once(s, t, x.conjugate(), y.conjugate(), n0)
                    # == is bit equality up to the sign of a zero part
                    assert (vc, bc) == (v.conjugate(), b), (s, t, x, y)

    @pytest.mark.parametrize("stored, mirrored", [(0.5 + 0.0j, False), (0.5j, False), (0.5 + 0.25j, True)])
    def test_a_stored_value_with_a_zero_part_is_never_mirrored(self, monkeypatch, stored, mirrored):
        # Only the sign of a zero part can tell the conjugate's own value from
        # the conjugated stored value, so that conjugate is computed.
        batches = []

        def batch(shapes, x, y, n0):
            batches.append((x, y))
            return [(stored, 1e-12)] * len(shapes)

        monkeypatch.setattr(li, "_li_batch", batch)
        x, y = RootOfUnity(1, 8), W3
        eval_li.cache_clear()
        eval_li(2, 1, x, y)
        v = eval_li(2, 1, x.conjugate(), y.conjugate())
        info = eval_li.cache_info()
        eval_li.cache_clear()
        if mirrored:
            assert (info.hits, info.misses, batches) == (1, 1, [(x, y)])
            assert v == ValueWithError(stored.conjugate(), 1e-12)
        else:
            assert (info.hits, info.misses, batches) == (0, 2, [(x, y), (x.conjugate(), y.conjugate())])
            assert repr(v.value) == repr(stored)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            eval_li(1, 1, ONE, ONE)
        with pytest.raises(ValueError):
            eval_li(2, 0, ONE, ONE)

    def test_cap_below_twice_order_is_a_named_error(self):
        # These two calls used to raise OverflowError and RuntimeError.
        with pytest.raises(ValueError, match=r"max_inner_terms.*order 4"):
            eval_li(2, 1, I, ONE, EvalConfig(max_inner_terms=1))
        with pytest.raises(ValueError, match=r"max_inner_terms.*order 7"):
            eval_li(2, 1, RootOfUnity(1, 7), ONE, EvalConfig(max_inner_terms=5))
        for cap in range(1, 49):
            with pytest.raises(ValueError, match=r"max_inner_terms.*order 24"):
                eval_li(2, 1, RootOfUnity(5, 24), ONE, EvalConfig(max_inner_terms=cap))

    def test_a_high_weight_reads_only_its_rungs(self):
        # The tail's rung table holds the rungs the batch reads, not one
        # entry per omega up to the highest, so s = 3*10**7 takes no more
        # than a few ms and MBs.
        eval_li.cache_clear()
        start = time.perf_counter()
        v = eval_li(3 * 10**7, 1, MINUS_ONE, ONE)
        assert time.perf_counter() - start < 1.0
        assert v.value == 0.0 and 0.0 < v.error_bound < 1e-13

    @pytest.mark.parametrize("s", [10**18, 10**20])
    def test_euler_maclaurin_set_up_beyond_the_double_range_is_a_named_error(self, s):
        # These used to raise OverflowError: math.ceil(inf) in hurwitz_tail
        # at 10**18, a Fraction's float conversion at 10**20.
        eval_li.cache_clear()
        with pytest.raises(ValueError, match=rf"Euler-Maclaurin set-up of order 16 at s = {s + 1} is beyond the double range"):
            eval_li(s + 1, 1, MINUS_ONE, ONE)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 12, 24])
    def test_every_cap_from_twice_order_plus_one_is_honest(self, order):
        x = RootOfUnity(1, order)
        for s, t, y in [(2, 1, ONE), (3, 2, W3), (10, 10, RootOfUnity(7, 24))]:
            ref = eval_li(s, t, x, y)
            for cap in [*range(2 * order + 1, 2 * order + 9), 16 * order + 1]:
                v = eval_li(s, t, x, y, EvalConfig(max_inner_terms=cap))
                assert abs(v.value - ref.value) <= v.error_bound + ref.error_bound


def _pairwise(terms):
    """The aligned pairwise sum in plain Python: pad with +0.0 to a power of
    two, then add neighbours 2i and 2i+1 level by level."""
    level = list(terms)
    level += [0.0] * ((1 << (len(level) - 1).bit_length()) - len(level))
    while len(level) > 1:
        level = [level[i] + level[i + 1] for i in range(0, len(level), 2)]
    return level[0]


def _scalar_head(t_n0, s, t, x, y, n0):
    """The head as one plain loop over n = n0..1, the reference for _li_head."""
    t_run = t_n0
    re, im = [], []
    mass = 0.0
    for n in range(n0, 0, -1):
        g = (y**n).value() * t_run * float(n) ** -t
        re.append(g.real)
        im.append(g.imag)
        mass += abs(g)
        t_run = t_run + (x**n).value() * float(n) ** -s
    return complex(_pairwise(re), _pairwise(im)), mass


def _tornheim_imports(path: Path) -> set[str]:
    """The package modules a module of it imports: a relative import's module
    (its names, for `from . import`), or an absolute tornheim import as written."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tornheim":
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == "tornheim"}
    return found


class TestLiMemos:
    def test_cache_clear_empties_every_private_memo(self):
        # Every lru_cache of the module but eval_li's own and the
        # Euler-Maclaurin coefficients (a few dozen small constants) is a
        # memo of the Li layer, and eval_li.cache_clear() must reach it.
        memos = [
            f
            for name, f in vars(li).items()
            if hasattr(f, "cache_info") and name not in ("eval_li", "_em_params")
        ]
        assert set(memos) == set(li._LI_MEMOS)
        eval_li(3, 2, I, W3)
        assert all(f.cache_info().currsize for f in memos)
        eval_li.cache_clear()
        assert eval_li.cache_info().currsize == 0
        assert {f.__name__: f.cache_info().currsize for f in memos} == {f.__name__: 0 for f in memos}

    def test_cache_info_counts_eval_li_itself(self):
        eval_li.cache_clear()
        eval_li(2, 1, I, W3)
        eval_li(2, 1, I, W3)
        info = eval_li.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_a_call_that_raises_counts_as_neither(self, monkeypatch):
        def failing(shapes, x, y, n0):
            raise ValueError("batch failed")

        monkeypatch.setattr(li, "_li_batch", failing)
        eval_li.cache_clear()
        with pytest.raises(ValueError, match="batch failed"):
            eval_li(2, 1, I, W3)
        assert eval_li.cache_info() == (0, 0, None, 0)

    def test_cache_is_keyed_on_the_head_length(self):
        # eval_li reads only max_inner_terms, through n0, so configs that
        # differ elsewhere (or in a cap above n0) share entries.
        eval_li.cache_clear()
        v = eval_li(3, 2, I, W3)
        for cfg in [EvalConfig(tolerance=1e-6), EvalConfig(oracle_cutoff=7), EvalConfig(max_inner_terms=128)]:
            assert eval_li(3, 2, I, W3, cfg) is v
        assert eval_li(3, 2, I, W3, EvalConfig(max_inner_terms=127)) is not v
        info = eval_li.cache_info()
        assert (info.hits, info.misses) == (3, 2)
        eval_li.cache_clear()
        verify_r212()
        cross_check_grid(7, [1, 2], EvalConfig(oracle_cutoff=2000))
        assert eval_li.cache_info().misses == 60

    def test_oracle_reads_no_li_memo(self):
        # The oracle is the Li layer's independent check, so it builds its
        # own phases.
        eval_li.cache_clear()
        cfg = EvalConfig(oracle_cutoff=100)
        eval_mt_direct(MTIndex(1, 1, 2), W3, I, cfg)
        rows = oracle_rows(MTIndex(1, 1, 2), W3, cfg)
        eval_mt_direct(MTIndex(1, 1, 2), W3, I, cfg, rows=rows)
        memos = li._LI_MEMOS
        assert {f.__name__: f.cache_info().currsize for f in memos} == {f.__name__: 0 for f in memos}

    @pytest.mark.parametrize("module, other", [("li", "oracle"), ("oracle", "li")])
    def test_li_and_oracle_import_only_the_shared_modules(self, module, other):
        # The same independence read from the source: neither path imports
        # the other, and both reach only the exact algebra, the
        # decompositions and what bounds.py holds for both.
        found = _tornheim_imports(Path(li.__file__).with_name(f"{module}.py"))
        assert "bounds" in found and other not in found
        assert found <= {"algebra", "bounds", "decompose"}

    def test_colors_of_one_order_share_a_tail_schedule(self):
        eval_li.cache_clear()
        eval_li(3, 2, RootOfUnity(1, 8), W3)
        first = _tail_schedule.cache_info()
        eval_li(3, 2, RootOfUnity(3, 8), I)
        second = _tail_schedule.cache_info()
        assert (first.currsize, first.misses) == (second.currsize, second.misses) == (1, 1)
        assert second.hits == first.hits + 1

    def test_roots_of_one_order_share_a_hurwitz_row(self, monkeypatch):
        calls = []

        def counted(s, w, order=8):
            calls.append((s, w))
            return hurwitz_tail(s, w, order)

        monkeypatch.setattr(li, "hurwitz_tail", counted)
        eval_li.cache_clear()
        a = tail_sum(3, RootOfUnity(1, 8), 128)
        rows = _hurwitz_row.cache_info()
        b = tail_sum(3, RootOfUnity(3, 8), 128)
        assert len(calls) == 8 and _hurwitz_row.cache_info().currsize == rows.currsize == 1
        assert a.value != b.value and a.error_bound == b.error_bound

    def test_tail_sum_is_memoised_and_hurwitz_tail_is_not(self, monkeypatch):
        assert not hasattr(hurwitz_tail, "cache_info")
        assert hurwitz_tail(3, 2.5) is not hurwitz_tail(3, 2.5)
        # tail_sum keeps its values until eval_li.cache_clear() empties them.
        assert tail_sum in li._LI_MEMOS
        calls = []
        monkeypatch.setattr(li, "hurwitz_tail", lambda *a: calls.append(a) or hurwitz_tail(*a))
        eval_li.cache_clear()
        assert tail_sum(3, I, 64) is tail_sum(3, I, 64)
        assert tail_sum.cache_info()[:2] == (1, 1) and len(calls) == 4
        # An argument equal to a valid one but of another type is refused.
        with pytest.raises(ValueError):
            tail_sum(3.0, I, 64)
        # After a clear, tail_sum reaches hurwitz_tail through the module
        # namespace again, where a tracer can see it.
        eval_li.cache_clear()
        assert tail_sum.cache_info().currsize == 0
        tail_sum(3, I, 64)
        assert len(calls) == 8

    def test_a_miss_computes_every_uncached_shape_whatever_its_conjugate_holds(self, monkeypatch):
        # Only the key asked for is mirrored.  Once the conjugate colors'
        # values of two shapes are stored, a miss of a third shape computes
        # all three shapes of its colors in one batch, one head tail_sum
        # each, and the two have the bits the mirror would have served.
        x, y = RootOfUnity(1, 8), W3
        shapes = [(3, 2), (2, 1), (5, 1)]
        conj = tuple(LiTerm(1, s, t, x.conjugate(), y.conjugate()) for s, t in shapes[1:])
        own = tuple(LiTerm(1, s, t, x, y) for s, t in shapes)
        eval_li.cache_clear()
        stored = [eval_li(u.s, u.t, u.x, u.y, batch=conj) for u in conj]
        batches, heads, li_batch, tail = [], [], li._li_batch, li.tail_sum

        def recording(shapes, x, y, n0):
            batches.append(list(shapes))
            return li_batch(shapes, x, y, n0)

        def counting(s, x, n, order=8):
            if order == li._HEAD_ORDER:
                heads.append(s)
            return tail(s, x, n, order)

        monkeypatch.setattr(li, "_li_batch", recording)
        monkeypatch.setattr(li, "tail_sum", counting)
        got = [eval_li(u.s, u.t, u.x, u.y, batch=own) for u in own]
        info = eval_li.cache_info()
        eval_li.cache_clear()
        assert batches == [shapes] and sorted(heads) == sorted(s for s, _ in shapes)
        assert (info.hits, info.misses) == (0, 5)
        for v, w in zip(got[1:], stored):
            assert (repr(v.value), repr(v.error_bound)) == (repr(w.value.conjugate()), repr(w.error_bound))

    def test_cold_value_equals_warm_value_bit_for_bit(self):
        shapes = [(2, 1, I, W3), (5, 3, RootOfUnity(5, 12), RootOfUnity(3, 8)), (19, 1, MINUS_ONE, I)]
        eval_li.cache_clear()
        cold = [eval_li(*shape) for shape in shapes]
        # Neighbours that share phase tables, Hurwitz rows and ladder rungs.
        for s, t, x, y in shapes:
            eval_li(s, t, x.conjugate(), y)
            eval_li(s + 1, t, x, y.conjugate())
        # An uncached pass at eval_li's default head length, on warm memos.
        warm = [_li_once(s, t, x, y, li._head_length(x)) for s, t, x, y in shapes]
        assert [(repr(v), repr(b)) for v, b in warm] == [
            (repr(v.value), repr(v.error_bound)) for v in cold
        ]


# 18 distinct shapes of mixed weights; a batch of k takes the first k.
_SHAPES = random.Random(14).sample([(s, t) for s in range(2, 20) for t in range(1, 19)], 18)
# The head check's cases: batches of the first k shapes per color case, and
# single shapes (batches of one) from n0 = 1 up.
_HEAD_COLORS = [
    (ONE, ONE, 128),
    (RootOfUnity(5, 12), I, 192),
    (RootOfUnity(7, 24), RootOfUnity(3, 8), 384),
    (RootOfUnity(2, 5), RootOfUnity(11, 24), 11),  # 2*ord x + 1
    (RootOfUnity(7, 24), MINUS_ONE, 49),  # 2*ord x + 1
]
_HEAD_SINGLES = [
    (2, 1, ONE, ONE, 1),
    (2, 1, ONE, ONE, 128),
    (3, 2, I, W3, 200),
    (4, 1, MINUS_ONE, RootOfUnity(5, 12), 64),
    (9, 7, RootOfUnity(7, 24), RootOfUnity(3, 8), 389),
    (2, 18, RootOfUnity(2, 5), RootOfUnity(11, 24), 512),
]
_HEAD_CASES = [
    pytest.param(_SHAPES[:k], x, y, n0, id=f"x{i}-y{i}-{n0}-{k}")
    for k in (1, 2, 7, 18)
    for i, (x, y, n0) in enumerate(_HEAD_COLORS)
]
_HEAD_CASES += [
    pytest.param([(s, t)], x, y, n0, id=f"{s}-{t}-x{i}-y{i}-{n0}") for i, (s, t, x, y, n0) in enumerate(_HEAD_SINGLES)
]


# Row lengths around powers of two for the pairwise tree, in one batch.
_TREE_LENGTHS = [300, 1, 129, 2, 128, 3, 127]


def _random_rows(lengths, seed):
    """Random complex rows a and b and real weights w for _weighted_sums,
    row i nonzero in its first lengths[i] columns and zero-weighted past them."""
    rng = np.random.default_rng(seed)
    shape = (2, len(lengths), max(lengths))
    a, b = rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape)
    w = rng.uniform(0.5, 2.0, shape[1:])
    for i, n in enumerate(lengths):
        w[i, n:] = 0.0
    return a, b, w


def _spread_row(rng, n):
    """n terms of alternating sign whose magnitudes spread over 2^-60..2^60."""
    return [(-1) ** k * math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-60, 60)) for k in range(n)]


class TestLiBatch:
    """One _li_batch per (x, y, n0) gives each shape the bits it has alone."""

    @pytest.mark.parametrize("shapes, x, y, n0", _HEAD_CASES)
    def test_batched_head_rows_equal_scalar_loop(self, shapes, x, y, n0):
        t_n0 = [tail_sum(s, x, n0).value for s, _ in shapes]
        rows = _li_head(t_n0, shapes, x, y, n0)
        for (s, t), tv, (head, mass) in zip(shapes, t_n0, rows):
            ref_head, ref_mass = _scalar_head(tv, s, t, x, y, n0)
            assert (repr(head), repr(mass)) == (repr(ref_head), repr(ref_mass)), (s, t)

    def test_tree_rows_of_any_length_get_the_bits_they_have_alone(self):
        # The rows share one batch padded to 512 columns; alone, each is
        # padded to its own power of two.
        a, b, w = _random_rows(_TREE_LENGTHS, 19)
        batch = _weighted_sums(a, b, w)
        for i, n in enumerate(_TREE_LENGTHS):
            alone = _weighted_sums(a[:, i : i + 1, :n], b[:, i : i + 1, :n], w[i : i + 1, :n])
            assert [(repr(v), repr(m)) for v, m in alone] == [(repr(batch[i][0]), repr(batch[i][1]))], n
            columns = list(zip(*a[:, i, :n].tolist(), *b[:, i, :n].tolist(), w[i, :n].tolist()))
            re = [(ar * br - ai * bi) * c for ar, ai, br, bi, c in columns]
            im = [(ar * bi + ai * br) * c for ar, ai, br, bi, c in columns]
            assert repr(batch[i][0]) == repr(complex(_pairwise(re), _pairwise(im))), n

    def test_tree_error_within_gamma_of_its_depth(self):
        # Each part of a row of n terms errs by at most gamma_ceil(log2 n)
        # times its absolute sum, measured against the exact rational sum.
        # The rows cancel heavily, and the last pair of rows holds 1.0 and
        # then terms of half its ulp, which a sequential sum drops one by one.
        rng = random.Random(19)
        lengths = sorted({1, 2, 3, 4097} | {2**k + d for k in range(2, 13) for d in (-1, 0, 1)})
        rows = [(_spread_row(rng, n), _spread_row(rng, n)) for n in lengths]
        rows.append(([1.0] + [2.0**-53] * 4096, [-1.0] + [-(2.0**-53)] * 4096))
        width = max(len(re) for re, _ in rows)
        b = np.zeros((2, len(rows), width))
        w = np.zeros((len(rows), width))
        for i, (re, im) in enumerate(rows):
            b[0, i, : len(re)], b[1, i, : len(im)], w[i, : len(re)] = re, im, 1.0
        # a = 1 + 0i makes every term exactly b.
        sums = _weighted_sums(np.array([[[1.0]], [[0.0]]]), b, w)
        u = Fraction(1, 2**53)
        for (re, im), (value, _) in zip(rows, sums):
            depth = (len(re) - 1).bit_length()
            gamma = depth * u / (1 - depth * u)
            for part, got in ((re, value.real), (im, value.imag)):
                exact = sum(map(Fraction, part))
                assert abs(Fraction(got) - exact) <= gamma * sum(abs(Fraction(x)) for x in part), len(part)

    def test_tree_negated_imaginary_rows_negate_the_imaginary_sums(self):
        a, b, w = _random_rows(_TREE_LENGTHS, 20)
        conj = _weighted_sums(a * [[[1.0]], [[-1.0]]], b * [[[1.0]], [[-1.0]]], w)
        for (v, mass), (c, cmass) in zip(_weighted_sums(a, b, w), conj):
            assert v.real != 0.0 and v.imag != 0.0
            assert (repr(c), repr(cmass)) == (repr(v.conjugate()), repr(mass))

    @pytest.mark.parametrize("k", [2, 7, 18])
    @pytest.mark.parametrize(
        "x, y, n0",
        [(ONE, ONE, 128), (RootOfUnity(5, 12), I, 192), (RootOfUnity(7, 24), RootOfUnity(3, 8), 49)],
    )
    def test_batch_equals_each_shape_alone(self, k, x, y, n0):
        shapes = _SHAPES[:k]
        alone = [_li_once(s, t, x, y, n0) for s, t in shapes]
        assert [(repr(v), repr(b)) for v, b in _li_batch(shapes, x, y, n0)] == [
            (repr(v), repr(b)) for v, b in alone
        ]

    def test_decomposition_equals_fresh_single_evaluations(self):
        # Every index of weight <= 20, each at one seeded color pair of
        # orders 1-24 whose product also has order <= 24, on one memo: the
        # batches, the sibling values they store and the conjugates it serves
        # must all equal each term evaluated alone.
        rng = random.Random(20261018)
        orders = [(a, b) for a in range(1, 25) for b in range(1, 25) if math.lcm(a, b) <= 24]

        def root(n):
            return RootOfUnity(rng.choice([k for k in range(n) if math.gcd(k, n) == 1]), n)

        eval_li.cache_clear()
        for idx in enumerate_indices(20):
            a, b = rng.choice(orders)
            d = decompose(idx, root(a), root(b))
            got = eval_decomposition(d)
            alone = ValueWithError.combine(
                (u.coefficient, ValueWithError(*_li_once(u.s, u.t, u.x, u.y, li._head_length(u.x))))
                for u in d.terms
            )
            assert (repr(got.value), repr(got.error_bound)) == (repr(alone.value), repr(alone.error_bound)), d
        assert eval_li.cache_info().hits > 0
        eval_li.cache_clear()

    def test_accounting(self, monkeypatch):
        # hits + misses = eval_li calls, one call per term; every miss makes
        # one head tail_sum call; a conjugate served from the memo is a hit.
        # tail_sum computes each distinct key, head or ladder rung, once.
        li_calls, tail_calls, heads = [], [], []

        def counted_li(*args, **kwargs):
            li_calls.append(args)
            return eval_li(*args, **kwargs)

        def counted_tail_sum(s, x, n, order=8):
            tail_calls.append((s, x, n, order))
            if order == 8:
                heads.append((s, x, n))
            return tail_sum(s, x, n, order)

        monkeypatch.setattr(li, "eval_li", counted_li)
        monkeypatch.setattr(li, "tail_sum", counted_tail_sum)
        eval_li.cache_clear()
        terms = 0
        for idx in enumerate_indices(6):
            for alpha, beta in [(I, W3), (I.conjugate(), W3.conjugate()), (RootOfUnity(1, 8), MINUS_ONE)]:
                d = decompose(idx, alpha, beta)
                eval_decomposition(d)
                terms += len(d.terms)
        info = eval_li.cache_info()
        assert info.hits + info.misses == len(li_calls) == terms
        assert info.misses == len(heads) and info.hits > 0
        assert {order for *_, order in tail_calls} == {8, 16}
        assert tail_sum.cache_info().misses == len(set(tail_calls)) < len(tail_calls)

        eval_li.cache_clear()
        eval_li(3, 2, I, W3)
        v = eval_li(3, 2, I.conjugate(), W3.conjugate())
        assert eval_li.cache_info()[:2] == (1, 1) and len(heads) == info.misses + 1
        assert v == ValueWithError(eval_li(3, 2, I, W3).value.conjugate(), eval_li(3, 2, I, W3).error_bound)

    def test_cache_clear_empties_the_values_a_batch_stored(self, monkeypatch):
        heads = []

        def counted_tail_sum(s, x, n, order=8):
            if order == 8:
                heads.append(s)
            return tail_sum(s, x, n, order)

        monkeypatch.setattr(li, "tail_sum", counted_tail_sum)
        # The batch is a decomposition's terms; only those of the miss's
        # colors join its _li_batch, in term order.
        batch = (LiTerm(1, 2, 1, I, W3), LiTerm(1, 4, 1, W3, I), LiTerm(1, 3, 2, I, W3), LiTerm(1, 5, 1, I, W3))
        eval_li.cache_clear()
        for s, t in [(3, 2), (2, 1), (5, 1)]:
            eval_li(s, t, I, W3, batch=batch)
        info = eval_li.cache_info()
        assert (info.misses, info.hits, info.currsize, heads) == (3, 0, 3, [3, 2, 5])
        eval_li.cache_clear()
        assert eval_li.cache_info() == (0, 0, None, 0)
        eval_li(5, 1, I, W3, batch=batch)  # computed again, with its batch
        assert (eval_li.cache_info().misses, heads[3:]) == (3, [5, 2, 3])
        eval_li.cache_clear()

    def test_an_aborted_decomposition_keeps_the_counts(self, monkeypatch):
        # The coefficient C(1040, 520), beyond the double range, is refused
        # before any eval_li call, so the counts are those of the earlier
        # decomposition alone: each value a batch computed was asked for
        # and each made one head tail_sum call.
        li_calls, heads = [], []

        def counted_li(*args, **kwargs):
            li_calls.append(args)
            return eval_li(*args, **kwargs)

        def counted_tail_sum(s, x, n, order=8):
            if order == 8:
                heads.append(s)
            return tail_sum(s, x, n, order)

        monkeypatch.setattr(li, "eval_li", counted_li)
        monkeypatch.setattr(li, "tail_sum", counted_tail_sum)
        eval_li.cache_clear()
        done = decompose(MTIndex(2, 2, 2), RootOfUnity(1, 3), I)
        eval_decomposition(done)
        before = eval_li.cache_info()
        d = decompose(MTIndex(520, 520, 1), MINUS_ONE, ONE)
        with pytest.raises(ValueError, match="beyond the double range"):
            eval_decomposition(d)
        info = eval_li.cache_info()
        eval_li.cache_clear()
        assert info == before
        assert info.hits + info.misses == len(li_calls) == len(done.terms)
        assert info.misses == len(heads) == info.currsize

    def test_a_coefficient_beyond_the_double_range_computes_no_li_value(self, monkeypatch):
        # MT(600,600,1; -1, 1) has 1200 terms, and its largest coefficient
        # is beyond the double range: it is refused before the first
        # eval_li call, not after 1200 of them.
        li_calls = []

        def counted_li(*args, **kwargs):
            li_calls.append(args)
            return eval_li(*args, **kwargs)

        monkeypatch.setattr(li, "eval_li", counted_li)
        eval_li.cache_clear()
        d = decompose(MTIndex(600, 600, 1), MINUS_ONE, ONE)
        assert len(d.terms) == 1200
        with pytest.raises(ValueError, match="coefficient is beyond the double range"):
            eval_decomposition(d)
        assert li_calls == [] and eval_li.cache_info() == (0, 0, None, 0)

    def test_interleaved_decompositions_keep_their_own_batches(self, monkeypatch):
        # Thread A is held in its first batch until thread B's whole
        # decomposition has returned; A's second color group must still be
        # one batch of its three shapes, not three batches of one.
        batches = {"A": [], "B": []}
        a_in_batch, b_done = threading.Event(), threading.Event()
        errors = []

        def recording_batch(shapes, x, y, n0):
            name = threading.current_thread().name
            batches[name].append((tuple(shapes), x, y))
            if name == "A" and len(batches["A"]) == 1:
                a_in_batch.set()
                assert b_done.wait(60)
            return _li_batch(shapes, x, y, n0)

        def run(name, d, wait_for=None):
            try:
                if wait_for is not None:
                    assert wait_for.wait(60)
                eval_decomposition(d)
            except Exception as exc:  # reported by the main thread
                errors.append((name, exc))
            finally:
                if name == "B":
                    b_done.set()

        monkeypatch.setattr(li, "_li_batch", recording_batch)
        eval_li.cache_clear()
        da = decompose(MTIndex(3, 3, 1), I, W3)
        db = decompose(MTIndex(2, 2, 2), RootOfUnity(1, 8), RootOfUnity(1, 6))
        threads = [
            threading.Thread(target=run, args=("A", da), name="A"),
            threading.Thread(target=run, args=("B", db, a_in_batch), name="B"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        eval_li.cache_clear()
        assert errors == [] and not any(thread.is_alive() for thread in threads)
        shapes = ((4, 3), (5, 2), (6, 1))
        assert batches["A"] == [(shapes, I * W3, I.conjugate()), (shapes, W3, I)]
        assert len(batches["B"]) == len({(u.x, u.y) for u in db.terms})


class TestOracle:
    def test_r212_printed_value(self):
        v = eval_mt_direct(MTIndex(2, 1, 2), MINUS_ONE, ONE, EvalConfig(oracle_cutoff=6000))
        assert abs(v.value.real - (-0.2402184755)) < 5e-9
        assert abs(v.value.imag) < 1e-13

    def test_two_cutoffs_consistent(self):
        idx = MTIndex(2, 1, 2)
        v1 = eval_mt_direct(idx, ONE, ONE, EvalConfig(oracle_cutoff=2000))
        v2 = eval_mt_direct(idx, ONE, ONE, EvalConfig(oracle_cutoff=4000))
        assert abs(v1.value - v2.value) < 1e-6

    def test_degenerate_matches_li(self):
        for alpha, beta in [(I, W3), (MINUS_ONE, ONE)]:
            o = eval_mt_direct(MTIndex(0, 2, 2), alpha, beta, EvalConfig(oracle_cutoff=2000))
            li = eval_li(2, 2, beta, alpha)
            assert abs(o.value - li.value) <= o.error_bound + li.error_bound

    def test_conjugation_symmetry(self):
        cfg = EvalConfig(oracle_cutoff=1500)
        idx = MTIndex(1, 1, 2)
        v = eval_mt_direct(idx, I, W3, cfg)
        vc = eval_mt_direct(idx, I.conjugate(), W3.conjugate(), cfg)
        assert vc.value == v.value.conjugate()
        assert vc.error_bound == v.error_bound

    def test_edge_cutoffs(self):
        # cutoff 1 has no diagonal, cutoff 2 the single term m = n = 1
        idx = MTIndex(2, 1, 2)
        empty = eval_mt_direct(idx, MINUS_ONE, ONE, EvalConfig(oracle_cutoff=1))
        one = eval_mt_direct(idx, MINUS_ONE, ONE, EvalConfig(oracle_cutoff=2))
        assert empty.value == 0j
        assert empty.error_bound == oracle_tail_bound(2, 1, 2, 1)
        assert one.value == -0.25 + 0j

    @pytest.mark.parametrize("cut", [2, 3, 17, 64, 300])
    @pytest.mark.parametrize(
        "pqr, alpha, beta",
        [
            ((1, 2, 3), I, W3),
            ((0, 2, 2), RootOfUnity(5, 12), I),
            ((2, 0, 3), W3, RootOfUnity(3, 8)),
            ((1, 2, 3), W3, ONE),
            ((2, 1, 2), I, RootOfUnity(3, MAX_ROOT_ORDER)),
            ((2, 1, 2), MINUS_ONE, W3),
            ((1, 1, 2), RootOfUnity(5, 6), RootOfUnity(1, 8)),
            ((2, 2, 3), RootOfUnity(3, 8), MINUS_ONE),
            ((1, 2, 3), RootOfUnity(7, oracle._MAX_CLASS_ORDER + 1), I),
        ],
    )
    def test_window_indexing_vs_explicit_terms(self, cut, pqr, alpha, beta):
        # plain-Python sum of every (m, n) term with m+n <= cut; only the
        # roundoff allowance separates the two, so a shifted window or a
        # term in the wrong residue class cannot hide.  At cutoff 300 a
        # residue window of order 2 spans three blocks.
        p, q, r = pqr
        ua = cmath.exp(2j * math.pi * alpha.exponent / alpha.order)
        ub = cmath.exp(2j * math.pi * beta.exponent / beta.order)
        terms = [
            ua**n * ub ** (m + n) / (m**p * n**q * (m + n) ** r)
            for m in range(1, cut)
            for n in range(1, cut + 1 - m)
        ]
        ref = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        mass = math.fsum(abs(t) for t in terms)
        v = eval_mt_direct(MTIndex(p, q, r), alpha, beta, EvalConfig(oracle_cutoff=cut))
        assert abs(v.value - ref) <= 2.220446049250313e-16 * (cut + 64) * mass

    def test_one_class_of_20000_diagonals_within_the_allowance(self):
        # ord beta = 1 puts every diagonal into one sequential class sum, the
        # worst case of the roundoff derivation.  With p = 0 the double sum
        # is sum_n alpha^n n^-q T_n, T_n = sum_{k>n} k^-r, so a reference
        # needs O(cutoff) terms: T_n as a double-double suffix sum (TwoSum),
        # each product formed in Python and fsum'd, a few u*mass from exact.
        q, r, cut = 1, 2, 20000
        v = eval_mt_direct(MTIndex(0, q, r), W3, ONE, EvalConfig(oracle_cutoff=cut))
        phases = [cmath.exp(2j * math.pi * c / 3) for c in range(3)]
        hi = lo = 0.0
        re, im, mass = [], [], []
        for n in range(cut - 1, 0, -1):
            y = float(n + 1) ** -r
            total = hi + y
            y_part = total - hi
            lo += (hi - (total - y_part)) + (y - y_part)
            hi = total
            b, u = float(n) ** -q, phases[n % 3]
            re += [u.real * b * hi, u.real * b * lo]
            im += [u.imag * b * hi, u.imag * b * lo]
            mass.append(b * hi)
        ref = complex(math.fsum(re), math.fsum(im))
        assert abs(v.value - ref) <= 2.220446049250313e-16 * (cut + 64) * math.fsum(mass)

    def test_thread_count_independent(self):
        # the row sums must not go through a threaded BLAS, and their bits
        # must not follow the number of CPUs the contraction is split
        # over: a 1-thread and a 2-thread BLAS process, and a process
        # pinned to one CPU, give the same bits
        code = (
            "import os, sys\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from tornheim import EvalConfig, MTIndex, RootOfUnity, eval_mt_direct, oracle\n"
            "v = eval_mt_direct(MTIndex(1, 2, 3), RootOfUnity(1, 4), RootOfUnity(1, 3),"
            " EvalConfig(oracle_cutoff=12000))\n"
            "print(repr(v.value), repr(v.error_bound))\n"
            "print(oracle._cpu_count(), file=sys.stderr)\n"
        )
        runs = [("1", "all"), ("2", "all")]
        if hasattr(os, "sched_setaffinity"):
            runs.append(("2", "pinned"))
        outs, cpus = [], []
        for threads, cpu_set in runs:
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", code, cpu_set], env=env, capture_output=True, text=True, check=True
            )
            outs.append(proc.stdout)
            cpus.append(int(proc.stderr))
        assert outs == [outs[0]] * len(runs)
        if len(runs) == 3:
            assert cpus[2] == 1
        else:
            pytest.skip("os.sched_setaffinity is missing: the pinned process did not run")

    def test_real_output_for_real_colors(self):
        cfg = EvalConfig(oracle_cutoff=1000)
        for alpha in (ONE, MINUS_ONE):
            for beta in (ONE, MINUS_ONE):
                o = eval_mt_direct(MTIndex(2, 1, 1), alpha, beta, cfg)
                d = eval_decomposition(decompose(MTIndex(2, 1, 1), alpha, beta))
                assert abs(o.value.imag) < 1e-13
                assert abs(d.value.imag) < 1e-13

    def test_determinism(self):
        cfg = EvalConfig(oracle_cutoff=1234)
        a = eval_mt_direct(MTIndex(1, 2, 3), I, MINUS_ONE, cfg)
        b = eval_mt_direct(MTIndex(1, 2, 3), I, MINUS_ONE, cfg)
        assert a.value == b.value and a.error_bound == b.error_bound
        eval_li.cache_clear()
        c = eval_li(3, 2, I, W3)
        eval_li.cache_clear()
        d = eval_li(3, 2, I, W3)
        assert c.value == d.value and c.error_bound == d.error_bound

    def test_tail_bound_dominates_omitted_mass(self):
        # the bound at cutoff K must cover everything beyond K: compare
        # against a much deeper sum
        idx = MTIndex(1, 1, 1)
        small = eval_mt_direct(idx, ONE, ONE, EvalConfig(oracle_cutoff=500))
        big = eval_mt_direct(idx, ONE, ONE, EvalConfig(oracle_cutoff=8000))
        assert abs(small.value - big.value) < small.error_bound

    def test_bound_formula_positive_and_decreasing(self):
        for p, q, r in [(1, 1, 1), (0, 1, 2), (2, 0, 3), (2, 2, 0), (3, 3, 2)]:
            b1 = oracle_tail_bound(p, q, r, 1000)
            b2 = oracle_tail_bound(p, q, r, 2000)
            assert 0 < b2 < b1

    @pytest.mark.parametrize("r", [1023, 1070, 1100, 10**20])
    def test_an_r_whose_scale_is_not_a_normal_double_is_refused(self, r, monkeypatch):
        # 2**-r, the scale of the k = 2 term, must be a normal double for
        # the roundoff allowance and the tail bound's argument to hold; past
        # it both underflow and the bound read 0.  The refusal comes before
        # any table is built.
        monkeypatch.setattr(oracle, "_neg_int_pow", None)
        with pytest.raises(ValueError, match=rf"^oracle_rows: r = {r} >= 1023: .*2\*\*-r.* normal double$"):
            oracle_rows(MTIndex(2, 1, r), ONE, EvalConfig(oracle_cutoff=100))
        with pytest.raises(ValueError, match=rf"r = {r} >= 1023"):
            eval_mt_direct(MTIndex(2, 1, r), MINUS_ONE, W3, EvalConfig(oracle_cutoff=100))

    @pytest.mark.parametrize("alpha", [ONE, MINUS_ONE, W3, RootOfUnity(1, 17)])
    def test_r_1022_keeps_a_positive_bound(self, alpha):
        # At r = 1022, 2**-r is the smallest normal double: the mass is
        # normal, eps*(cutoff+64)*mass a subnormal above 0.  The value is
        # the k = 2 term alpha * 2**-1022 within the bound; the terms from
        # k = 3 on are below 3**-1022.
        v = eval_mt_direct(MTIndex(2, 1, 1022), alpha, ONE, EvalConfig(oracle_cutoff=100))
        assert 0.0 < v.error_bound and abs(v.value - alpha.value() * 2.0**-1022) <= v.error_bound


ROOTS_1_TO_4 = sorted({RootOfUnity(k, n) for n in (1, 2, 3, 4) for k in range(n)}, key=RootOfUnity.sort_key)


def _bits(v):
    return repr(v.value), repr(v.error_bound)


class TestSharedOracleRows:
    @pytest.mark.parametrize("cut", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("pqr", [(0, 2, 2), (2, 0, 3), (2, 1, 2)])
    def test_shared_rows_are_bit_identical(self, cut, pqr):
        # the rows of one (index, alpha) serve every beta, bit for bit
        idx, cfg = MTIndex(*pqr), EvalConfig(oracle_cutoff=cut)
        for alpha in ROOTS_1_TO_4:
            rows = oracle_rows(idx, alpha, cfg)
            for beta in ROOTS_1_TO_4:
                shared = eval_mt_direct(idx, alpha, beta, cfg, rows=rows)
                assert _bits(shared) == _bits(eval_mt_direct(idx, alpha, beta, cfg)), (alpha, beta)

    def test_edge_cutoffs_with_shared_rows(self):
        # cutoff 1 has no diagonal, cutoff 2 the single term m = n = 1
        idx = MTIndex(2, 1, 2)
        empty, one = (
            eval_mt_direct(idx, MINUS_ONE, ONE, cfg, rows=oracle_rows(idx, MINUS_ONE, cfg))
            for cfg in (EvalConfig(oracle_cutoff=1), EvalConfig(oracle_cutoff=2))
        )
        assert repr(empty.value) == "0j" and empty.error_bound == oracle_tail_bound(2, 1, 2, 1)
        assert repr(one.value) == "(-0.25+0j)"

    def test_rows_are_read_only(self):
        rows = oracle_rows(MTIndex(2, 1, 2), I, EvalConfig(oracle_cutoff=40))
        assert (rows.index, rows.alpha, rows.cutoff) == (MTIndex(2, 1, 2), I, 40)
        assert rows.re.shape == rows.im.shape == rows.mod.shape == (39,)
        for row in (rows.re, rows.im):
            with pytest.raises(ValueError):
                row[0] = 1.0

    @pytest.mark.parametrize(
        "field, index, alpha, cut",
        [("index", MTIndex(1, 2, 2), I, 50), ("alpha", MTIndex(2, 1, 2), W3, 50), ("cutoff", MTIndex(2, 1, 2), I, 51)],
    )
    def test_rows_of_another_case_are_a_named_error(self, field, index, alpha, cut):
        rows = oracle_rows(index, alpha, EvalConfig(oracle_cutoff=cut))
        with pytest.raises(ValueError, match=f"rows were built for {field} "):
            eval_mt_direct(MTIndex(2, 1, 2), I, W3, EvalConfig(oracle_cutoff=50), rows=rows)

    def test_grid_matches_the_per_case_loop(self):
        # the grid as it ran before the rows were shared: one whole oracle
        # call per case
        cfg = EvalConfig(tolerance=1e-8, oracle_cutoff=1000)
        ref = []
        for idx in enumerate_indices(4):
            for alpha, beta in color_pairs([1, 2, 3, 4]):
                t0 = time.perf_counter()
                oracle = eval_mt_direct(idx, alpha, beta, cfg)
                dec = eval_decomposition(decompose(idx, alpha, beta), cfg)
                label = f"MT({idx.p},{idx.q},{idx.r};{alpha},{beta})"
                ref.append(_agreement(label, oracle, dec, t0))

        def key(r):
            return r.label, r.passed, r.lhs, r.rhs, repr(r.absdiff), repr(r.bound)

        assert [key(r) for r in cross_check_grid(4, [1, 2, 3, 4], cfg)] == [key(r) for r in ref]


ROOTS_1_TO_12 = sorted({RootOfUnity(k, n) for n in range(1, 13) for k in range(n)}, key=RootOfUnity.sort_key)
# The same colors with each conjugate before its root.
ROOTS_1_TO_12_CONJUGATE_FIRST = sorted(ROOTS_1_TO_12, key=lambda a: (a.order, -a.exponent))
ROW_CLASS_INDICES = [(1, 1, 2), (2, 2, 3), (0, 2, 2), (2, 0, 3), (3, 1, 2), (0, 1, 2)]
# A root of the lowest order above the class cap, and its conjugate.
ABOVE_THE_CAP = [RootOfUnity(7, oracle._MAX_CLASS_ORDER + 1), RootOfUnity(10, oracle._MAX_CLASS_ORDER + 1)]


def _dot_rows(window, col, block):
    """Row i of a dense window dotted with col, blocks of block rows each
    reaching the column of their last row: the oracle's einsum loop."""
    row = np.empty(len(col))
    for i0 in range(0, len(col), block):
        i1 = min(i0 + block, len(col))
        row[i0:i1] = np.einsum("ij,j->i", window[i0:i1, :i1], col[:i1])
    return row


def _dense_window(seq):
    """window[s, i] = seq[s - i] for i <= s, else 0."""
    window = np.zeros((len(seq), len(seq)))
    for s in range(len(seq)):
        window[s, : s + 1] = seq[s::-1]
    return window


def _reference_classes(index, order, cut):
    """C_c(k), row c-1 for c = 1..order, column k-2, one residue window at
    a time: entry C_c(k) is row s of the window of residue rho,
    (rho + t*order)^-p, dotted with the column (c + i*order)^-q of class c,
    where k = rho + c + s*order."""
    size = cut - 1
    length = -(-size // order)
    ns = np.arange(1, order * length + 1, dtype=np.float64)
    a, b = oracle._neg_int_pow(ns, index.p), oracle._neg_int_pow(ns, index.q)
    classes = [[0.0] * size for _ in range(order)]
    for rho in range(1, order + 1):
        window = _dense_window(a[rho - 1 :: order])
        for c in range(1, order + 1):
            row = _dot_rows(window, np.ascontiguousarray(b[c - 1 :: order]), oracle._BLOCK).tolist()
            for s, x in enumerate(row):
                if rho + c + s * order <= cut:
                    classes[c - 1][rho + c + s * order - 2] = x
    return classes


def _reference_rows(index, alpha, cut, classes):
    """The real, imaginary and modulus rows as one 3 x (cutoff-1) array's
    bytes.  Up to the cap, per k in plain Python: w_1*C_1(k), then
    + w_c*C_c(k) for c = 2, 3, ... with w_c = Re(alpha^c), Im(alpha^c) and
    1.0.  Above it, the dense window (m^-p) dotted with alpha^n * n^-q,
    its real and imaginary parts, and with n^-q."""
    size = cut - 1
    if alpha.order > oracle._MAX_CLASS_ORDER:
        ns = np.arange(1, cut, dtype=np.float64)
        a, b = oracle._neg_int_pow(ns, index.p), oracle._neg_int_pow(ns, index.q)
        phase = np.array([(alpha**n).value() for n in range(1, cut)])
        window = _dense_window(a)
        cols = (phase.real * b, phase.imag * b, b)
        return np.array([_dot_rows(window, col, oracle._BLOCK) for col in cols]).tobytes()
    phases = [(alpha**c).value() for c in range(1, alpha.order + 1)]
    rows = []
    for w in ([z.real for z in phases], [z.imag for z in phases], [1.0] * alpha.order):
        row = []
        for k in range(size):
            acc = w[0] * classes[0][k]
            for c in range(1, alpha.order):
                acc += w[c] * classes[c][k]
            row.append(acc)
        rows.append(row)
    return np.array(rows).reshape(3, size).tobytes()


def _reference(index, colors, cut):
    """alpha -> _reference_rows bytes for every alpha of colors."""
    orders = {a.order for a in colors if a.order <= oracle._MAX_CLASS_ORDER}
    classes = {n: _reference_classes(index, n, cut) for n in orders}
    return {alpha: _reference_rows(index, alpha, cut, classes.get(alpha.order)) for alpha in colors}


def _row_bytes(rows):
    """The real, imaginary and modulus rows as one 3 x (cutoff-1) array."""
    return np.stack((rows.re, rows.im, rows.mod)).tobytes()


def _class_sum_reference(rows, beta):
    """eval_mt_direct's beta weighting in plain Python: class c = k mod
    ord beta of the k^-r-weighted real and imaginary rows summed with
    s += w_k in the order of k, then the real products with beta^c fsum'd
    once per part."""
    sums = {}
    re, im = rows.re.tolist(), rows.im.tolist()
    for k, x, y, f in zip(range(2, rows.cutoff + 1), re, im, rows.kf.tolist()):
        sx, sy = sums.get(k % beta.order, (0.0, 0.0))
        sx += x * f
        sy += y * f
        sums[k % beta.order] = (sx, sy)
    parts_re, parts_im = [], []
    for c, (sx, sy) in sums.items():
        b = (beta**c).value()
        parts_re += [b.real * sx, -b.imag * sy]
        parts_im += [b.real * sy, b.imag * sx]
    return complex(math.fsum(parts_re), math.fsum(parts_im))


class TestBetaClassSums:
    # The value is the rows weighted per residue class of k mod ord beta,
    # summed in the order of k: bit for bit the plain-Python reference.
    # The class sums, one bincount over both rows, are those of one
    # bincount per row, their length too, at every order to 17.
    @pytest.mark.parametrize("cut", [1, 2, 3, 17, 1000, 16385])
    def test_value_equals_sequential_class_sums_bit_for_bit(self, cut):
        idx, cfg = MTIndex(1, 2, 2), EvalConfig(oracle_cutoff=cut)
        betas = [RootOfUnity(1, n) for n in range(1, 18)] + [RootOfUnity(7, MAX_ROOT_ORDER)]
        classes = np.arange(2, cut + 1)
        for alpha in (ONE, RootOfUnity(5, 12)):
            rows = oracle_rows(idx, alpha, cfg)
            for beta in betas:
                want = _class_sum_reference(rows, beta)
                got = eval_mt_direct(idx, alpha, beta, cfg, rows=rows)
                assert repr(got.value) == repr(want), (alpha, beta)
                assert got.error_bound == rows.bound
                per_row = (np.bincount(classes % beta.order, weights=row * rows.kf).tolist() for row in (rows.re, rows.im))
                assert rows.class_sums(beta.order) == tuple(per_row), (alpha, beta)

    @pytest.mark.parametrize("cut", [2, 17, 1000])
    def test_interleaved_orders_on_one_rows_and_its_recolor(self, cut):
        # The class sums are kept per (rows, ord beta), a recolor having
        # its own: betas of interleaved orders, some of them repeated with
        # another exponent, on one rows object and on a recolor of it must
        # each get the reference's bits.
        idx, cfg = MTIndex(2, 1, 1), EvalConfig(oracle_cutoff=cut)
        betas = [RootOfUnity(k, n) for k, n in ((1, 3), (1, 4), (2, 3), (0, 1), (3, 4), (1, 2))]
        rows = oracle_rows(idx, RootOfUnity(1, 6), cfg)
        recolored = rows.recolor(RootOfUnity(5, 6))
        assert recolored.sums is not rows.sums
        for r in (rows, recolored, rows):
            for beta in betas:
                got = eval_mt_direct(idx, r.alpha, beta, cfg, rows=r)
                assert repr(got.value) == repr(_class_sum_reference(r, beta)), (r.alpha, beta)
        assert sorted(rows.sums) == sorted(recolored.sums) == [1, 2, 3, 4]

    def test_threads_sharing_rows_and_a_recolor_get_the_reference_bits(self, monkeypatch):
        # Two threads evaluate betas of the same orders, with other
        # exponents, on one shared rows object and on a recolor of it.
        # Each is held in its first class-sum pass until the other is in
        # it too, so both compute the same entry; every value must still
        # be the reference's bits.
        idx, cfg = MTIndex(2, 1, 1), EvalConfig(oracle_cutoff=1000)
        rows = oracle_rows(idx, RootOfUnity(1, 6), cfg)
        recolored = rows.recolor(RootOfUnity(5, 6))
        betas = {
            "A": [RootOfUnity(k, n) for k, n in ((1, 3), (1, 4), (1, 2), (0, 1))],
            "B": [RootOfUnity(k, n) for k, n in ((2, 3), (3, 4), (1, 2), (0, 1))],
        }
        want = {
            (name, r.alpha, beta): repr(_class_sum_reference(r, beta))
            for name in betas
            for r in (rows, recolored)
            for beta in betas[name]
        }
        both_in_pass, bincount, held = threading.Barrier(2), np.bincount, set()
        got, errors = {}, []

        def holding(*args, **kwargs):
            name = threading.current_thread().name
            if name not in held:
                held.add(name)
                both_in_pass.wait(60)
            return bincount(*args, **kwargs)

        def run(name):
            try:
                for r in (rows, recolored):
                    for beta in betas[name]:
                        v = eval_mt_direct(idx, r.alpha, beta, cfg, rows=r)
                        got[name, r.alpha, beta] = repr(v.value)
            except Exception as exc:  # reported by the main thread
                errors.append((name, exc))

        monkeypatch.setattr(np, "bincount", holding)
        threads = [threading.Thread(target=run, args=(name,), name=name) for name in betas]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert errors == [] and not any(thread.is_alive() for thread in threads)
        assert held == {"A", "B"} and got == want
        assert recolored.sums is not rows.sums
        assert sorted(rows.sums) == sorted(recolored.sums) == [1, 2, 3, 4]

    def test_one_class_sum_pass_per_rows_and_order(self, monkeypatch):
        # Over a weight-4 sweep each index has six rows objects (one per
        # alpha) and betas of four orders, so 24 class-sum passes of one
        # bincount each, not one pass per case (36 per index).
        calls, bincount = [0], np.bincount

        def counting(*args, **kwargs):
            calls[0] += 1
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        reports = cross_check_grid(4, [1, 2, 3, 4], EvalConfig(tolerance=1e-8, oracle_cutoff=100))
        assert len(reports) == 36 * len(enumerate_indices(4))
        assert calls[0] == 6 * 4 * len(enumerate_indices(4))


class TestOracleMemos:
    # The phases of roots up to the class cap and the class-sum bins per
    # (cutoff, ord beta) are the oracle's own bounded memos.
    def test_phase_memo_holds_no_root_above_the_cap(self):
        oracle._phase_table.cache_clear()
        idx, cfg = MTIndex(2, 1, 2), EvalConfig(oracle_cutoff=50)
        big, above = RootOfUnity(1, MAX_ROOT_ORDER), RootOfUnity(2, oracle._MAX_CLASS_ORDER + 1)
        for alpha in (big, above):
            rows = oracle_rows(idx, alpha, cfg)
            for beta in (big, above):
                eval_mt_direct(idx, alpha, beta, cfg, rows=rows)
        assert oracle._phase_table.cache_info().currsize == 0
        rows = oracle_rows(idx, W3, cfg)
        eval_mt_direct(idx, W3, I, cfg, rows=rows)
        eval_mt_direct(idx, W3, above, cfg, rows=rows)
        assert oracle._phase_table.cache_info().currsize == 2

    def test_class_index_memo_stays_within_its_bound(self):
        oracle._class_index.cache_clear()
        idx = MTIndex(2, 1, 2)
        assert oracle._class_index.cache_info().maxsize == oracle._CLASS_INDEX_MEMO
        for cut in (5, 40):
            rows = oracle_rows(idx, ONE, EvalConfig(oracle_cutoff=cut))
            for n in range(1, 3 * oracle._CLASS_INDEX_MEMO):
                assert oracle._class_index.cache_info().currsize <= oracle._CLASS_INDEX_MEMO
                got = eval_mt_direct(idx, ONE, RootOfUnity(1, n), EvalConfig(oracle_cutoff=cut), rows=rows)
                assert repr(got.value) == repr(_class_sum_reference(rows, RootOfUnity(1, n)))
        assert oracle._class_index.cache_info().currsize == oracle._CLASS_INDEX_MEMO

    def test_li_cache_clear_leaves_the_oracle_memos(self):
        cfg = EvalConfig(oracle_cutoff=100)
        eval_mt_direct(MTIndex(1, 1, 2), W3, I, cfg)
        before = oracle._phase_table.cache_info().currsize, oracle._class_index.cache_info().currsize
        eval_li.cache_clear()
        assert (oracle._phase_table.cache_info().currsize, oracle._class_index.cache_info().currsize) == before
        assert min(before) > 0


class TestOracleRowClasses:
    # The rows of a root of order N up to the cap are real combinations of
    # its N class rows, above it phase-weighted contractions.  Fresh or
    # recolored, in either color order, they must be bit for bit, signed
    # zeros included, what the plain reference of that arithmetic gives.
    @pytest.mark.parametrize("cut", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("pqr", ROW_CLASS_INDICES)
    def test_rows_equal_the_class_reference_byte_for_byte(self, pqr, cut):
        idx, cfg = MTIndex(*pqr), EvalConfig(oracle_cutoff=cut)
        want = _reference(idx, ROOTS_1_TO_12 + ABOVE_THE_CAP, cut)
        for alpha in ROOTS_1_TO_12 + ABOVE_THE_CAP:
            assert _row_bytes(oracle_rows(idx, alpha, cfg)) == want[alpha], alpha
        for colors in (ROOTS_1_TO_12 + ABOVE_THE_CAP, ROOTS_1_TO_12_CONJUGATE_FIRST + ABOVE_THE_CAP[::-1]):
            rows = oracle_rows(idx, colors[0], cfg)
            for alpha in colors:
                rows = rows.recolor(alpha)
                assert _row_bytes(rows) == want[alpha], alpha

    @pytest.mark.parametrize("cut", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("pqr", ROW_CLASS_INDICES)
    def test_recoloring_back_to_a_real_alpha_equals_the_class_reference(self, pqr, cut):
        # alpha = 1 is one class, alpha = -1 two, whatever root the rows
        # were recolored from.
        idx, cfg = MTIndex(*pqr), EvalConfig(oracle_cutoff=cut)
        want = _reference(idx, [ONE, MINUS_ONE], cut)
        for alpha in ROOTS_1_TO_12 + ABOVE_THE_CAP:
            rows = oracle_rows(idx, alpha, cfg)
            for back in (ONE, MINUS_ONE):
                assert _row_bytes(rows.recolor(back)) == want[back], (alpha, back)

    @pytest.mark.parametrize("cut", [2, 17, 1000])
    def test_class_rows_equal_the_reference_byte_for_byte(self, cut):
        idx, cfg = MTIndex(2, 1, 2), EvalConfig(oracle_cutoff=cut)
        for n in (1, 2, 5, 12, oracle._MAX_CLASS_ORDER):
            rows = oracle_rows(idx, RootOfUnity(1, n), cfg)
            assert rows.classes.tobytes() == np.array(_reference_classes(idx, n, cut)).reshape(n, cut - 1).tobytes()
            assert not rows.classes.flags.writeable
        assert oracle_rows(idx, ABOVE_THE_CAP[0], cfg).classes is None

    def test_alpha_one_rows_are_the_modulus_row_and_zeros(self):
        rows = oracle_rows(MTIndex(2, 1, 2), ONE, EvalConfig(oracle_cutoff=40))
        assert rows.alpha == ONE and rows.re.tobytes() == rows.mod.tobytes()
        assert rows.im.tobytes() == np.zeros(39).tobytes() and not rows.im.flags.writeable

    def test_recolor_shares_the_alpha_free_tables(self):
        idx, cut = MTIndex(2, 1, 2), 40
        rows = oracle_rows(idx, I, EvalConfig(oracle_cutoff=cut))
        same, other = rows.recolor(I.conjugate()), rows.recolor(W3)
        for recolored in (same, other):
            assert (recolored.index, recolored.cutoff) == (idx, cut)
            for row in (recolored.re, recolored.im):
                with pytest.raises(ValueError):
                    row[0] = 1.0
        # A root of the same order shares the class rows, the modulus row,
        # the k^-r table and the bound; another order has its own.
        assert same.classes is rows.classes and same.mod is rows.mod and same.bound == rows.bound
        assert same.kf is rows.kf and other.kf.tobytes() == rows.kf.tobytes()
        assert other.classes.shape == (3, cut - 1)
        for r in (rows, other):
            mass = math.fsum((r.mod * r.kf).tolist())
            assert r.bound == oracle_tail_bound(2, 1, 2, cut) + 2.220446049250313e-16 * (cut + 64.0) * mass
        assert rows.recolor(I) is rows
        with pytest.raises(ValueError, match="MAX_ROOT_ORDER"):
            rows.recolor(RootOfUnity(1, MAX_ROOT_ORDER + 1))

    # One block size serves every contraction, and the rows must not depend
    # on it: a block reads each window row up to the block's last row, so
    # the size only moves how many exact zeros a dot product adds.
    @pytest.mark.parametrize("cut", [1000, 2200])
    def test_rows_do_not_depend_on_the_block_size(self, cut, monkeypatch):
        assert ((cut - 1) ** 2 // 2 >= oracle._PARALLEL_FLOOR) == (cut == 2200)
        idx, cfg = MTIndex(2, 1, 2), EvalConfig(oracle_cutoff=cut)
        alphas, got = (ONE, MINUS_ONE, RootOfUnity(5, 12), ABOVE_THE_CAP[0]), {}
        for block in (32, 64, 256):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            got[block] = [_row_bytes(oracle_rows(idx, alpha, cfg)) for alpha in alphas]
        assert got[32] == got[64] == got[256]

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]
        contract = oracle._contract

        def counting(windows, cols):
            count[0] += 1
            return contract(windows, cols)

        monkeypatch.setattr(oracle, "_contract", counting)
        return count

    def test_grid_makes_one_pass_per_order_and_index(self, passes):
        # per index one pass each for the orders 1, 2, 3 and 4; the other
        # roots of an order recombine its class rows
        cross_check_grid(4, [1, 2, 3, 4], EvalConfig(tolerance=1e-8, oracle_cutoff=1000))
        assert passes[0] == 44 == 4 * len(enumerate_indices(4))

    def test_r212_makes_one_pass(self, passes):
        verify_r212()
        assert passes[0] == 1

    def test_a_root_of_the_same_order_makes_no_pass(self, passes):
        cfg = EvalConfig(oracle_cutoff=100)
        rows = oracle_rows(MTIndex(2, 1, 2), RootOfUnity(1, 12), cfg)
        assert passes[0] == 1
        for k in (5, 7, 11):
            rows = rows.recolor(RootOfUnity(k, 12))
        assert passes[0] == 1
        rows.recolor(ABOVE_THE_CAP[0]).recolor(ABOVE_THE_CAP[1])
        assert passes[0] == 3

    def test_alpha_one_makes_one_pass(self, passes):
        eval_mt_direct(MTIndex(2, 1, 2), ONE, I, EvalConfig(oracle_cutoff=100))
        assert passes[0] == 1

    # Above _PARALLEL_FLOOR multiply-adds the contraction's blocks are
    # taken by min(CPUs, blocks) workers from a shared queue, and the rows
    # must keep their bits at every worker count.  The CPU count comes from
    # _cpu_count alone.
    @pytest.fixture
    def executors(self, monkeypatch):
        """The worker counts of the thread pools _contract builds."""
        built = []

        class Recording(oracle.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", Recording)
        return built

    # At cutoff 2200 a class pass is 2.4e6 multiply-adds, above the floor.
    # Its blocks of 64 rows: 35 of a 2199-row window at order 1 and above
    # the cap, 18 of 1100 rows at order 2, 3 of 184 rows at order 12, so
    # there W stops at 3.
    @pytest.mark.parametrize(
        "alpha, blocks", [(ONE, 35), (MINUS_ONE, 18), (RootOfUnity(5, 12), 3), (ABOVE_THE_CAP[0], 35)]
    )
    def test_rows_do_not_depend_on_the_workers(self, alpha, blocks, monkeypatch, executors):
        cut = 2200
        assert (cut - 1) ** 2 // 2 >= oracle._PARALLEL_FLOOR
        contract = oracle._contract
        outs = {}

        def recording(windows, cols):
            out = contract(windows, cols)
            outs[workers].append(out.tobytes())
            return out

        monkeypatch.setattr(oracle, "_contract", recording)
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(oracle, "_cpu_count", lambda: workers)
            outs[workers] = []
            rows = oracle_rows(MTIndex(2, 1, 2), alpha, EvalConfig(oracle_cutoff=cut))
            outs[workers].append(_row_bytes(rows))
        assert executors == [min(workers, blocks) - 1 for workers in (2, 3, 4)]
        assert len(outs[1]) == 2 and outs[2] == outs[3] == outs[4] == outs[1]

    def test_more_workers_than_cpus_under_fast_switching(self, monkeypatch):
        idx, cfg = MTIndex(1, 2, 3), EvalConfig(oracle_cutoff=3000)
        alpha = RootOfUnity(1, 3)
        want = _row_bytes(oracle_rows(idx, alpha, cfg))
        threads = threading.active_count()
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 4 * (os.cpu_count() or 1) + 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = 0
            t0 = time.perf_counter()
            while runs < 20 and time.perf_counter() - t0 < 5.0:
                assert _row_bytes(oracle_rows(idx, alpha, cfg)) == want
                runs += 1
        finally:
            sys.setswitchinterval(interval)
        assert runs >= 1 and threading.active_count() == threads

    def test_below_the_floor_no_workers_start(self, monkeypatch):
        # the grid's cutoff 1000 stays on the calling thread at every order
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was built below the floor")

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 4)
        cfg = EvalConfig(oracle_cutoff=1000)
        for alpha in [RootOfUnity(1, n) for n in (1, 2, 3, 4, 12)] + ABOVE_THE_CAP[:1]:
            oracle_rows(MTIndex(2, 1, 2), alpha, cfg)

    def test_a_stalled_worker_holds_up_the_call_by_one_block(self, monkeypatch, executors):
        # The worker's first block waits until the calling thread has run
        # every other block: blocks are taken from a shared queue, not dealt.
        einsum = np.einsum
        ran = {"main": 0, "worker": 0}
        started = threading.Event()
        blocks = 12  # order 4 at cutoff 3000: windows 750 long, blocks of 64
        deadline = time.perf_counter() + 10.0

        def stalling(*args):
            if threading.current_thread() is threading.main_thread():
                started.wait(10.0)
                ran["main"] += 1
            else:
                started.set()
                ran["worker"] += 1
                while ran["main"] < blocks - 1 and time.perf_counter() < deadline:
                    time.sleep(1e-3)
            return einsum(*args)

        idx, alpha, cfg = MTIndex(2, 1, 2), RootOfUnity(1, 4), EvalConfig(oracle_cutoff=3000)
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 1)
        want = _row_bytes(oracle_rows(idx, alpha, cfg))
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
        monkeypatch.setattr(np, "einsum", stalling)
        assert _row_bytes(oracle_rows(idx, alpha, cfg)) == want
        assert executors == [1] and ran == {"main": blocks - 1, "worker": 1}

    def test_a_failing_worker_share_reaches_the_caller(self, monkeypatch, executors):
        einsum = np.einsum
        failed = threading.Event()

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                failed.set()
                raise RuntimeError("worker share failed")
            failed.wait(10.0)  # let the worker take a block first
            return einsum(*args)

        threads = threading.active_count()
        monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
        monkeypatch.setattr(np, "einsum", failing)
        with pytest.raises(RuntimeError, match="worker share failed"):
            oracle_rows(MTIndex(2, 1, 2), RootOfUnity(1, 4), EvalConfig(oracle_cutoff=3000))
        assert executors == [1]
        assert threading.active_count() == threads

    def test_cpu_count_without_affinity_is_the_os_count(self, monkeypatch):
        # Where os.sched_getaffinity is missing (macOS, Windows), the count
        # is os.cpu_count(), and 1 when that is unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert oracle._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert oracle._cpu_count() == 1


class TestEvalDecomposition:
    def test_r212_decomposition_value(self):
        d = decompose(MTIndex(2, 1, 2), MINUS_ONE, ONE)
        v = eval_decomposition(d)
        assert abs(v.value.real - (-0.2402184755)) < 5e-9

    def test_cross_check_r113(self):
        idx = MTIndex(1, 1, 3)
        d = eval_decomposition(decompose(idx, MINUS_ONE, ONE))
        o = eval_mt_direct(idx, MINUS_ONE, ONE, EvalConfig(oracle_cutoff=3000))
        assert abs(d.value - o.value) <= d.error_bound + o.error_bound

    def test_empty_decomposition(self):
        from tornheim import Decomposition

        empty = Decomposition(MTIndex(1, 1, 3), MINUS_ONE, ONE, ())
        v = eval_decomposition(empty)
        assert v.value == 0j and v.error_bound == 0.0

    def test_error_bound_combines_coefficients(self):
        d = decompose(MTIndex(2, 3, 2), MINUS_ONE, ONE)
        v = eval_decomposition(d)
        parts = [eval_li(t.s, t.t, t.x, t.y) for t in d.terms]
        assert v.error_bound >= sum(t.coefficient * p.error_bound for t, p in zip(d.terms, parts))


class TestHonestyRandomized:
    def test_cutoff_doubling_within_bounds(self):
        from tornheim import enumerate_indices, color_pairs

        rng = random.Random(1138)
        indices = enumerate_indices(8)
        pairs = color_pairs([1, 2, 3, 4])
        cfg1 = EvalConfig(oracle_cutoff=700)
        cfg2 = EvalConfig(oracle_cutoff=1400)
        for _ in range(8):
            idx = rng.choice(indices)
            alpha, beta = rng.choice(pairs)
            v1 = eval_mt_direct(idx, alpha, beta, cfg1)
            v2 = eval_mt_direct(idx, alpha, beta, cfg2)
            assert abs(v1.value - v2.value) < v1.error_bound

    def test_head_doubling_within_bounds(self):
        # Acceptance criterion 7's 50 cases, with every decomposition term
        # evaluated at the default head length n0 and at 2*n0.
        from tornheim import enumerate_indices, color_pairs

        def combined(d, scale):
            return ValueWithError.combine(
                (u.coefficient, ValueWithError(*_li_once(u.s, u.t, u.x, u.y, scale * li._head_length(u.x))))
                for u in d.terms
            )

        rng = random.Random(20260810)
        indices = enumerate_indices(8)
        pairs = color_pairs([1, 2, 3, 4])
        for _ in range(50):
            idx = rng.choice(indices)
            alpha, beta = rng.choice(pairs)
            d = decompose(idx, alpha, beta)
            d1, d2 = combined(d, 1), combined(d, 2)
            assert abs(d1.value - d2.value) <= d1.error_bound + d2.error_bound


class TestConfigAndValue:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(tolerance=1e-14)
        with pytest.raises(ValueError):
            EvalConfig(oracle_cutoff=0)
        with pytest.raises(ValueError):
            EvalConfig(max_inner_terms=0)

    def test_oracle_cutoff_limit(self):
        assert EvalConfig(oracle_cutoff=MAX_ORACLE_CUTOFF).oracle_cutoff == 2**20
        with pytest.raises(ValueError, match=r"2\*\*20"):
            EvalConfig(oracle_cutoff=MAX_ORACLE_CUTOFF + 1)

    def test_root_order_limit_allocates_nothing(self):
        # Order 10**12 would size phase tables, Hurwitz rows and head arrays
        # at 10**12 entries; every evaluator refuses before building one.
        huge = RootOfUnity(1, 10**12)
        calls = [
            lambda: tail_sum(3, huge, 5),
            lambda: eval_li(2, 1, huge, ONE),
            lambda: eval_li(2, 1, ONE, huge),
            lambda: eval_mt_direct(MTIndex(2, 1, 2), huge, ONE),
            lambda: eval_mt_direct(MTIndex(2, 1, 2), ONE, huge),
        ]
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(ValueError, match=r"MAX_ROOT_ORDER = 2\*\*16"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_root_order_limit_is_inclusive(self):
        cfg = EvalConfig(oracle_cutoff=8)
        v = eval_mt_direct(MTIndex(2, 1, 2), RootOfUnity(1, MAX_ROOT_ORDER), ONE, cfg)
        assert math.isfinite(v.error_bound)
        with pytest.raises(ValueError, match="MAX_ROOT_ORDER"):
            eval_mt_direct(MTIndex(2, 1, 2), RootOfUnity(1, MAX_ROOT_ORDER + 1), ONE, cfg)
        eval_li.cache_clear()

    def test_eval_li_refuses_a_product_order_above_the_limit_before_any_work(self, monkeypatch):
        # x and y are within the limit, but the tail's ladder rungs are
        # tail_sum calls at x*y, of order 3 * 2**16: refused up front, not
        # after the head's work, and with both roots named.
        calls = []
        monkeypatch.setattr(li, "tail_sum", lambda *a: calls.append(a) or tail_sum(*a))
        eval_li.cache_clear()
        message = r"eval_li: x\*y = \(1/65536\)\*\(1/3\) = 65539/196608 has order 196608 > MAX_ROOT_ORDER = 2\*\*16"
        with pytest.raises(ValueError, match=message):
            eval_li(2, 1, RootOfUnity(1, MAX_ROOT_ORDER), W3)
        assert calls == [] and eval_li.cache_info() == (0, 0, None, 0)

    def test_eval_decomposition_names_the_colors_before_any_eval_li_call(self, monkeypatch):
        # The product alpha*beta is the first family's Li color x: refused
        # under the colors the caller gave, with no eval_li call made.
        calls = []
        monkeypatch.setattr(li, "eval_li", lambda *a, **k: calls.append(a) or eval_li(*a, **k))
        eval_li.cache_clear()
        d = decompose(MTIndex(2, 1, 2), RootOfUnity(1, MAX_ROOT_ORDER), W3)
        message = (
            r"eval_decomposition: alpha\*beta = \(1/65536\)\*\(1/3\) = 65539/196608"
            r" has order 196608 > MAX_ROOT_ORDER = 2\*\*16"
        )
        with pytest.raises(ValueError, match=message):
            eval_decomposition(d)
        assert calls == [] and eval_li.cache_info() == (0, 0, None, 0)

    def test_oracle_builds_only_the_root_powers_it_reads(self, monkeypatch):
        # n < cutoff reads alpha^(n mod ord alpha) and k <= cutoff reads
        # beta^(k mod ord beta): a root of order 2**16 at cutoff 8 builds
        # at most cutoff + 1 powers, not 2**16.
        calls, root_value = [], oracle.root_value

        def counting(root):
            calls.append(root)
            return root_value(root)

        monkeypatch.setattr(oracle, "root_value", counting)
        big, cfg = RootOfUnity(1, MAX_ROOT_ORDER), EvalConfig(oracle_cutoff=8)
        rows = oracle_rows(MTIndex(2, 1, 2), big, cfg)
        assert 0 < len(calls) <= 9
        calls.clear()
        eval_mt_direct(MTIndex(2, 1, 2), big, big, cfg, rows=rows)
        assert 0 < len(calls) <= 9

    def test_value_with_error_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ValueWithError(float("nan"), 0.0)
        with pytest.raises(ValueError):
            ValueWithError(1.0, float("inf"))
        with pytest.raises(ValueError):
            ValueWithError(1.0, -1e-3)
