import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tornheim import (
    MINUS_ONE,
    ONE,
    RootOfUnity,
    binomial,
    root_inv,
    root_mul,
    root_value,
)


def all_roots(max_order):
    return [RootOfUnity(k, n) for n in range(1, max_order + 1) for k in range(n)]


SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)
exponents = st.integers(-(10**40), 10**40) | st.integers(-50, 50)
orders = st.integers(1, 10**40) | st.integers(1, 50)


def fraction_reduced(e, n):
    """The canonical pair as exact rational arithmetic gives it."""
    f = Fraction(e % n, n)
    return f.numerator, f.denominator


class TestRootOfUnity:
    def test_canonical_reduction(self):
        assert RootOfUnity(2, 4) == RootOfUnity(1, 2)
        assert RootOfUnity(3, 6) == MINUS_ONE
        assert RootOfUnity(0, 7) == ONE
        assert RootOfUnity(-1, 3) == RootOfUnity(2, 3)

    def test_mul_examples(self):
        assert root_mul(RootOfUnity(1, 2), RootOfUnity(1, 2)) == ONE
        assert root_mul(RootOfUnity(1, 4), RootOfUnity(2, 4)) == RootOfUnity(3, 4)
        assert root_mul(RootOfUnity(1, 3), ONE) == RootOfUnity(1, 3)

    def test_inv_examples(self):
        assert root_inv(ONE) == ONE
        assert root_inv(MINUS_ONE) == MINUS_ONE
        assert root_inv(RootOfUnity(1, 3)) == RootOfUnity(2, 3)

    def test_value_examples(self):
        assert root_value(ONE) == 1 + 0j
        assert root_value(MINUS_ONE) == -1 + 0j
        assert root_value(RootOfUnity(1, 4)) == 1j
        assert root_value(RootOfUnity(3, 4)) == -1j

    def test_group_laws(self):
        roots = all_roots(8)
        for a in roots:
            assert root_mul(a, root_inv(a)) == ONE
            assert root_mul(a, ONE) == a
            for b in roots:
                assert root_mul(a, b) == root_mul(b, a)
        for a in roots[:12]:
            for b in roots[:12]:
                for c in roots[:12]:
                    assert root_mul(root_mul(a, b), c) == root_mul(a, root_mul(b, c))

    def test_value_on_unit_circle(self):
        for a in all_roots(12):
            assert abs(abs(root_value(a)) ** 2 - 1.0) < 1e-15

    def test_value_homomorphism(self):
        roots = all_roots(12)
        for a in roots:
            for b in roots:
                lhs = root_value(root_mul(a, b))
                rhs = root_value(a) * root_value(b)
                assert abs(lhs - rhs) < 1e-14

    def test_conjugate_value_is_exact(self):
        for a in all_roots(12):
            assert root_value(a.conjugate()) == root_value(a).conjugate()

    def test_parse_and_print(self):
        assert RootOfUnity.parse("1/2") == MINUS_ONE
        assert RootOfUnity.parse("0/1") == ONE
        assert RootOfUnity.parse("-1") == MINUS_ONE
        assert RootOfUnity.parse("i") == RootOfUnity(1, 4)
        assert RootOfUnity.parse("-i") == RootOfUnity(3, 4)
        assert str(ONE) == "1"
        assert str(MINUS_ONE) == "-1"
        assert str(RootOfUnity(1, 4)) == "1/4"
        assert ONE.as_fraction_str() == "0/1"
        assert MINUS_ONE.as_fraction_str() == "1/2"
        for a in all_roots(9):
            assert RootOfUnity.parse(str(a)) == a
            assert RootOfUnity.parse(a.as_fraction_str()) == a

    @SETTINGS
    @given(exponents, orders)
    @example(0, 1)
    @example(-5, 1)
    @example(0, 10**30)
    @example(-(10**30), 10**20)
    @example(-1, 12)
    def test_reduction_equals_fraction_reduction(self, e, n):
        r = RootOfUnity(e, n)
        assert (r.exponent, r.order) == fraction_reduced(e, n)

    @SETTINGS
    @given(exponents, orders, exponents, orders)
    @example(0, 1, 0, 1)
    @example(1, 2, 1, 2)
    @example(-3, 10**25, 7, 1)
    def test_mul_equals_fraction_sum(self, e1, n1, e2, n2):
        a, b = RootOfUnity(e1, n1), RootOfUnity(e2, n2)
        f = Fraction(a.exponent, a.order) + Fraction(b.exponent, b.order)
        c = root_mul(a, b)
        assert (c.exponent, c.order) == fraction_reduced(f.numerator, f.denominator)

    def test_roots_built_differently_hash_equal_and_survive_pickling(self):
        a, b = RootOfUnity(2, 8), RootOfUnity(1, 4)
        assert a is not b and a == b and hash(a) == hash(b) == hash((1, 4))
        assert {a: "i"}[b] == "i"
        c = pickle.loads(pickle.dumps(a))
        assert c == a and hash(c) == hash(a) and repr(c) == repr(a) == "RootOfUnity(exponent=1, order=4)"

    def test_a_root_has_no_instance_dict_and_behaves_as_a_frozen_dataclass(self):
        a = RootOfUnity(6, 16)
        assert not hasattr(a, "__dict__") and RootOfUnity.__slots__ == ("exponent", "order", "_hash")
        assert a == RootOfUnity(3, 8) != RootOfUnity(5, 8) and hash(a) == hash((3, 8))
        assert repr(a) == "RootOfUnity(exponent=3, order=8)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.order = 4
        b = dataclasses.replace(a, exponent=10)
        assert (b.exponent, b.order, hash(b)) == (1, 4, hash((1, 4))) and b == RootOfUnity(1, 4)
        assert dataclasses.astuple(a) == (3, 8)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            c = pickle.loads(pickle.dumps(a, protocol))
            assert c == a and hash(c) == hash(a) and repr(c) == repr(a)

    def test_rejects_bad_types(self):
        for e, n in [(1.0, 2), (1, 2.0), ("1", 2), (None, 3), (Fraction(1, 2), 4)]:
            with pytest.raises(TypeError, match="exponent and order must be integers"):
                RootOfUnity(e, n)
        for n in [0, -1, -(10**30)]:
            with pytest.raises(ValueError, match="order must be a positive integer"):
                RootOfUnity(1, n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            RootOfUnity(1, 0)
        with pytest.raises(ValueError):
            RootOfUnity.parse("2x/3")
        with pytest.raises(ValueError):
            RootOfUnity.parse("banana")


class TestBinomial:
    def test_examples(self):
        assert binomial(3, 2) == 3
        assert binomial(-1, 0) == 1
        assert binomial(2, 3) == 0
        assert binomial(6, 3) == 20

    def test_matches_falling_factorial(self):
        for n in range(0, 15):
            for k in range(0, 18):
                ff = math.prod(range(n - k + 1, n + 1))
                assert binomial(n, k) * math.factorial(k) == ff

    def test_pascal(self):
        for n in range(0, 21):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_hockey_stick(self):
        # underlies the decomposer's coefficient-sum invariant
        for p in range(1, 11):
            for q in range(1, 11):
                assert sum(binomial(q + a - 1, a) for a in range(p)) == binomial(p + q - 1, p - 1)

    def test_no_overflow_for_large_args(self):
        assert binomial(200, 100) == math.comb(200, 100)

    def test_rejects_out_of_domain(self):
        for n, k in [(3.0, 1), (3, 1.0), (Fraction(3), 1)]:
            with pytest.raises(TypeError, match="must be integers"):
                binomial(n, k)
        with pytest.raises(ValueError):
            binomial(3, -1)
        with pytest.raises(ValueError):
            binomial(-2, 0)
        with pytest.raises(ValueError):
            binomial(-1, 1)
