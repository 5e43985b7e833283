"""ValueWithError's combination rules against exact rational arithmetic.

The exact result is computed in Fraction arithmetic on the float midpoints,
so the test measures roundoff alone.  Each rule's roundoff allowance is its
bound with every input error set to zero; the propagated part of the bound
must not depend on it.
"""
import math
from fractions import Fraction
from math import fsum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tornheim import (
    EvalConfig,
    ValueWithError,
    check_relation,
    parse_relation,
    verify_r212,
    zeta_const,
)
from tornheim.verify import R212_CLOSED_FORM, _cfmt, eval_constants

EPS = 2.220446049250313e-16
SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

# Magnitudes stay far from overflow and underflow, where no relative
# roundoff allowance can hold.
magnitudes = st.floats(min_value=1e-30, max_value=1e30)
reals = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda x: -x))
complexes = st.builds(complex, reals, reals)
errors = st.one_of(st.just(0.0), st.floats(min_value=1e-40, max_value=1e-10))
rationals = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)
) | st.integers(-10**6, 10**6)


def deviation_within(computed: complex, exact_re: Fraction, exact_im: Fraction, allowance: float) -> bool:
    dr = Fraction(computed.real) - exact_re
    di = Fraction(computed.imag) - exact_im
    return dr * dr + di * di <= Fraction(allowance) ** 2


@SETTINGS
@given(st.lists(st.tuples(rationals, complexes, errors), min_size=1, max_size=12))
# Summed left to right, 1 + 11 halves of an ulp of 1 stays at 1, off by 11u.
@example([(1, 1 + 0j, 0.0)] + [(1, complex(2.0**-53), 0.0)] * 11)
def test_combine_roundoff_within_allowance(parts):
    exact_parts = [(c, ValueWithError(v, 0.0)) for c, v, _ in parts]
    allowance = ValueWithError.combine(exact_parts).error_bound
    got = ValueWithError.combine((c, ValueWithError(v, e)) for c, v, e in parts)
    assert got.error_bound == fsum(abs(c) * e for c, _, e in parts) + allowance
    exact_re = sum(Fraction(c) * Fraction(v.real) for c, v, _ in parts)
    exact_im = sum(Fraction(c) * Fraction(v.imag) for c, v, _ in parts)
    assert deviation_within(got.value, exact_re, exact_im, allowance)


@SETTINGS
@given(complexes, complexes, errors, errors)
def test_product_roundoff_within_allowance(a, b, ea, eb):
    allowance = (ValueWithError(a, 0.0) * ValueWithError(b, 0.0)).error_bound
    assert allowance == 2.0 * EPS * abs(a * b)
    got = ValueWithError(a, ea) * ValueWithError(b, eb)
    assert got.value == a * b
    assert got.error_bound == abs(a) * eb + abs(b) * ea + ea * eb + allowance
    ar, ai, br, bi = (Fraction(x) for x in (a.real, a.imag, b.real, b.imag))
    assert deviation_within(got.value, ar * br - ai * bi, ar * bi + ai * br, allowance)


def test_product_covers_propagated_error():
    # Midpoints 1 and 2 with radii 0.5 and 0.25: the true product can be
    # anywhere in [0.5*1.75, 1.5*2.25], i.e. up to 1.375 from 2.
    got = ValueWithError(1.0, 0.5) * ValueWithError(2.0, 0.25)
    assert got.value == 2.0
    assert got.error_bound >= 1.375


def test_scalar_and_sum_operators_are_not_defined():
    v = ValueWithError(1.0, 0.0)
    with pytest.raises(TypeError):
        v * 2
    with pytest.raises(TypeError):
        v + v


def test_combine_rounds_once():
    parts = [(3, ValueWithError(1e16, 1.0)), (1, ValueWithError(1.0, 0.0)), (1, ValueWithError(-3e16, 0.0))]
    got = ValueWithError.combine(parts)
    assert got.value == 1.0  # fsum is exact here; a plain sum returns 0.0
    assert got.error_bound == 3.0 + 4.0 * EPS * (3e16 + 1.0 + 3e16)


def test_pure_rational_term_is_exact():
    spec = parse_relation("1/2 + 1*zeta(2) == Li(2,1;1,1)")
    half = eval_constants(spec.terms[:1])
    assert half.value == 0.5
    assert half.error_bound == 4.0 * EPS * 0.5  # combine's own roundoff, nothing added
    lhs = eval_constants(spec.terms)
    assert lhs == ValueWithError.combine([(Fraction(1, 2), ValueWithError(1.0, 0.0)), (1, zeta_const(2))])


def test_rational_terms_in_a_true_relation():
    assert check_relation(parse_relation("1/2 + 1*zeta(3) - 1/2 == Li(2,1;1,1)")).passed


def test_pi_to_the_zero_is_one():
    assert eval_constants(parse_relation("3*pi^0 == Li(2,1;1,1)").terms).value == 3.0
    assert check_relation(parse_relation("1*pi^0*zeta(3) == Li(2,1;1,1)")).passed


def test_huge_pi_power_overflows_to_a_named_error():
    # pi^k is multiplied out lazily, so the power costs no memory and stops
    # at the first non-finite product (about k = 620).
    with pytest.raises(ValueError, match="finite"):
        eval_constants(parse_relation("1*pi^1000000000 == Li(2,1;1,1)").terms)


@pytest.mark.parametrize(
    "coeff",
    [math.comb(1040, 520), -math.comb(1040, 520), Fraction(10**315, 7), Fraction(-(10**400), 10**80)],
    ids=["binomial", "negative", "fraction", "huge-over-huge"],
)
def test_coefficient_beyond_the_double_range_is_a_named_error(coeff):
    # C(1040, 520) is about 1e311; int * float used to raise OverflowError.
    with pytest.raises(ValueError, match=r"coefficient is beyond the double range") as info:
        ValueWithError.combine([(1, ValueWithError(1.0, 0.0)), (coeff, zeta_const(2))])
    assert str(abs(coeff))[:12] not in str(info.value)


def test_sum_beyond_the_double_range_is_a_named_error():
    # Every c*v is finite, about 1.6e308 and 1.2e308, but their sum is
    # not; fsum used to raise OverflowError ("intermediate overflow").
    parts = [(10**308, zeta_const(2)), (10**308, zeta_const(3))]
    with pytest.raises(ValueError, match=r"^ValueWithError.combine: the sum is beyond the double range$"):
        ValueWithError.combine(parts)
    v = ValueWithError.combine([(c // 10, z) for c, z in parts])
    assert math.isfinite(v.value.real) and v.value.real > 2.8e307


def test_coefficient_within_the_double_range_rounds_as_a_product_would():
    # A Fraction or an int beyond 2**53 is rounded to a double once, as
    # c * v rounds it, so combine's bits are those of the plain products.
    for c in (Fraction(10**300, 3), 3**600, Fraction(-1, 3), 2**53 + 1):
        v = ValueWithError(complex(1.3, -0.7), 1e-16)
        got = ValueWithError.combine([(c, v)])
        want = complex(fsum([c * v.value.real]), fsum([c * v.value.imag]))
        assert (repr(got.value), got.error_bound) == (repr(want), abs(c) * 1e-16 + 4.0 * EPS * abs(c) * abs(v.value))


def test_r212_closed_form_goes_through_the_relation_evaluator():
    closed = eval_constants(parse_relation(f"{R212_CLOSED_FORM} == MT(2,1,2;-1,1)").terms)
    report = verify_r212(EvalConfig(oracle_cutoff=1000))[2]
    assert report.lhs == _cfmt(closed.value)
    assert closed.error_bound < 1e-13
