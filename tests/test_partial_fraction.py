import random

import pytest

from tornheim import partial_fraction


def lhs(p, q, x, y):
    return 1.0 / (x**p * y**q)


def rhs(terms, x, y):
    return sum(t.evaluate(x, y) for t in terms)


def test_1_1_structure():
    terms = partial_fraction(1, 1)
    assert [(t.coefficient, t.x_exp, t.y_exp, t.sum_exp) for t in terms] == [
        (1, 1, 0, 1),
        (1, 0, 1, 1),
    ]


def test_2_1_structure_and_values():
    terms = partial_fraction(2, 1)
    assert [(t.coefficient, t.x_exp, t.y_exp, t.sum_exp) for t in terms] == [
        (1, 2, 0, 1),
        (1, 1, 0, 2),
        (1, 0, 1, 2),
    ]
    # x=1, y=1: 1/2 + 1/4 + 1/4 = 1 = lhs
    assert abs(rhs(terms, 1.0, 1.0) - 1.0) < 1e-15
    assert abs(rhs(terms, 2.0, 3.0) - lhs(2, 1, 2.0, 3.0)) < 1e-12


def test_2_2_coefficients():
    terms = partial_fraction(2, 2)
    assert [(t.coefficient, t.x_exp, t.y_exp, t.sum_exp) for t in terms] == [
        (1, 2, 0, 2),
        (2, 1, 0, 3),
        (1, 0, 2, 2),
        (2, 0, 1, 3),
    ]
    rng = random.Random(2202)
    for _ in range(5):
        x, y = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        assert abs(rhs(terms, x, y) - lhs(2, 2, x, y)) < 1e-12


def test_identity_at_random_points():
    rng = random.Random(48)
    for p in range(7):
        for q in range(7):
            if p + q == 0:
                continue
            terms = partial_fraction(p, q)
            assert len(terms) == (p + q if p and q else 1)
            for _ in range(20):
                x, y = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
                assert abs(rhs(terms, x, y) - lhs(p, q, x, y)) < 1e-12


def test_each_term_names_its_variable():
    for p in range(1, 5):
        for q in range(1, 5):
            terms = partial_fraction(p, q)
            assert [t.variable for t in terms] == ["x"] * p + ["y"] * q


def test_zero_exponent_gives_one_term():
    for n in range(1, 7):
        assert [(t.coefficient, t.x_exp, t.y_exp, t.sum_exp) for t in partial_fraction(0, n)] == [(1, 0, n, 0)]
        assert [(t.coefficient, t.x_exp, t.y_exp, t.sum_exp) for t in partial_fraction(n, 0)] == [(1, n, 0, 0)]


def test_rejects_nonpositive():
    for p, q in [(0, 0), (-1, 2), (2, -1), (-1, 0), (1.0, 1), (1, "2")]:
        with pytest.raises(ValueError):
            partial_fraction(p, q)
