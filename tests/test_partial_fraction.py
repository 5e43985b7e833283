import random
import sys

import pytest

from tornheim import MINUS_ONE, ONE, MTIndex, RootOfUnity, decompose, enumerate_indices, partial_fraction

# The package exports the function decompose under the module's name.
decompose_module = sys.modules["tornheim.decompose"]


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
            assert [t.x_exp > 0 for t in terms] == [True] * p + [False] * q


def test_zero_exponent_gives_one_term():
    for n in range(1, 7):
        assert [(t.coefficient, t.x_exp, t.y_exp, t.sum_exp) for t in partial_fraction(0, n)] == [(1, 0, n, 0)]
        assert [(t.coefficient, t.x_exp, t.y_exp, t.sum_exp) for t in partial_fraction(n, 0)] == [(1, n, 0, 0)]


def test_rejects_nonpositive():
    partial_fraction(1, 1)  # the memo of (1, 1) must not serve (1.0, 1)
    for p, q in [(0, 0), (-1, 2), (2, -1), (-1, 0), (1.0, 1), (1, "2")]:
        with pytest.raises(ValueError):
            partial_fraction(p, q)


def test_refuses_p_plus_q_above_the_cap_before_any_binomial(monkeypatch):
    # The coefficients grow like 2^(p+q); the refusal names the cap and
    # computes nothing.  MTIndex itself takes any p and q.
    cap = decompose_module.MAX_PARTIAL_FRACTION_TERMS
    binomials = []
    binomial = decompose_module.binomial
    monkeypatch.setattr(decompose_module, "binomial", lambda n, k: binomials.append((n, k)) or binomial(n, k))
    for p, q in [(cap, 1), (1, cap), (cap // 2 + 1, cap // 2), (8000, 8000)]:
        with pytest.raises(ValueError, match="MAX_PARTIAL_FRACTION_TERMS = 2\\*\\*12"):
            partial_fraction(p, q)
        with pytest.raises(ValueError, match="MAX_PARTIAL_FRACTION_TERMS"):
            decompose(MTIndex(p, q, 1), MINUS_ONE, ONE)
    assert binomials == []
    assert [(t.x_exp, t.y_exp) for t in partial_fraction(cap, 0)] == [(cap, 0)]
    assert len(partial_fraction(cap - 1, 1)) == cap
    partial_fraction.cache_clear()


def test_one_evaluation_per_p_and_q(monkeypatch):
    # partial_fraction(p, q) is computed once per (p, q), whatever the r and
    # the colors of the decompositions that read it, and decompose builds
    # each LiTerm once, after merging.
    binomials, built = [], []
    binomial, init = decompose_module.binomial, decompose_module.LiTerm.__init__

    def counting_binomial(n, k):
        binomials.append((n, k))
        return binomial(n, k)

    def counting_init(term, *args):
        built.append(args)
        init(term, *args)

    monkeypatch.setattr(decompose_module, "binomial", counting_binomial)
    monkeypatch.setattr(decompose_module.LiTerm, "__init__", counting_init)
    partial_fraction.cache_clear()
    terms = 0
    indices = enumerate_indices(7)
    for idx in indices:
        for alpha, beta in [(ONE, ONE), (MINUS_ONE, ONE), (RootOfUnity(1, 4), RootOfUnity(1, 3))]:
            terms += len(decompose(idx, alpha, beta).terms)
    pq = {(idx.p, idx.q) for idx in indices}
    assert partial_fraction.cache_info().misses == len(pq)
    assert len(binomials) == sum(p + q for p, q in pq)
    assert len(built) == terms
    partial_fraction.cache_clear()


def test_each_call_returns_the_memos_tuple():
    # Frozen terms in a tuple: no caller can change what the memo keeps.
    first = partial_fraction(3, 2)
    assert isinstance(first, tuple) and len(first) == 5
    assert partial_fraction(3, 2) is first
    assert partial_fraction.cache_info().hits >= 1

