import dataclasses
import pickle

import pytest

from tornheim import (
    MINUS_ONE,
    ONE,
    Decomposition,
    EulerTerm,
    LiTerm,
    MTIndex,
    RootOfUnity,
    ValueWithError,
    binomial,
    decompose,
    enumerate_indices,
    partial_fraction,
    r_decomposition,
    root_inv,
    root_mul,
    s_decomposition,
    term_from_record,
    to_level2,
)

I = RootOfUnity(1, 4)
W3 = RootOfUnity(1, 3)


class TestMTIndex:
    def test_valid(self):
        MTIndex(1, 1, 1)
        MTIndex(0, 1, 2)
        MTIndex(2, 0, 3)

    @pytest.mark.parametrize(
        "p,q,r,msg",
        [
            (0, 0, 5, "p+q>0 required"),
            (0, 3, 1, "p+r>1 required"),
            (1, 0, 1, "q+r>1 required"),
            (1, 1, 0, "p+r>1 required"),
            (-1, 2, 2, "nonnegative"),
        ],
    )
    def test_invalid(self, p, q, r, msg):
        import re

        with pytest.raises(ValueError, match=re.escape(msg)):
            MTIndex(p, q, r)

    def test_weight_constraint_implied_by_pairs(self):
        # for integers, p+q>=1, p+r>=2, q+r>=2 already force p+q+r >= 3
        for p in range(0, 5):
            for q in range(0, 5):
                for r in range(0, 5):
                    if p + q > 0 and p + r > 1 and q + r > 1:
                        assert p + q + r > 2


class TestDecompose:
    def test_r113(self):
        d = decompose(MTIndex(1, 1, 3), MINUS_ONE, ONE)
        assert d.terms == (
            LiTerm(1, 4, 1, MINUS_ONE, MINUS_ONE),
            LiTerm(1, 4, 1, ONE, MINUS_ONE),
        )

    def test_r232(self):
        d = decompose(MTIndex(2, 3, 2), MINUS_ONE, ONE)
        assert d.terms == (
            LiTerm(1, 5, 2, MINUS_ONE, MINUS_ONE),
            LiTerm(3, 6, 1, MINUS_ONE, MINUS_ONE),
            LiTerm(1, 4, 3, ONE, MINUS_ONE),
            LiTerm(2, 5, 2, ONE, MINUS_ONE),
            LiTerm(3, 6, 1, ONE, MINUS_ONE),
        )

    def test_argument_families(self):
        alpha, beta = I, W3
        d = decompose(MTIndex(2, 2, 1), alpha, beta)
        ab, ai = root_mul(alpha, beta), root_inv(alpha)
        for term in d.terms:
            assert (term.x, term.y) in {(ab, ai), (beta, alpha)}

    def test_degenerate_p0(self):
        for alpha, beta in [(MINUS_ONE, ONE), (I, W3), (ONE, ONE)]:
            d = decompose(MTIndex(0, 2, 2), alpha, beta)
            assert d.terms == (LiTerm(1, 2, 2, beta, alpha),)

    def test_degenerate_q0(self):
        for alpha, beta in [(MINUS_ONE, ONE), (I, W3)]:
            d = decompose(MTIndex(3, 0, 2), alpha, beta)
            assert d.terms == (LiTerm(1, 2, 3, root_mul(alpha, beta), root_inv(alpha)),)

    def test_unmerged_term_count_is_p_plus_q(self):
        for idx in enumerate_indices(9):
            if idx.p >= 1 and idx.q >= 1:
                assert len(partial_fraction(idx.p, idx.q)) == idx.p + idx.q

    def test_coefficient_sum_and_weights(self):
        for p in range(1, 9):
            for q in range(1, 9):
                for r in range(0, 4):
                    try:
                        idx = MTIndex(p, q, r)
                    except ValueError:
                        continue
                    d = decompose(idx, MINUS_ONE, ONE)
                    assert d.coefficient_sum() == binomial(p + q, p)
                    assert all(t.weight == idx.weight for t in d.terms)

    def test_weight_conservation_everywhere(self):
        colors = [(MINUS_ONE, ONE), (I, W3)]
        for idx in enumerate_indices(12):
            for alpha, beta in colors:
                d = decompose(idx, alpha, beta)
                assert all(t.s + t.t == idx.weight for t in d.terms)
                assert all(t.s >= 2 for t in d.terms)

    def test_merged_keys_distinct(self):
        for idx in enumerate_indices(9):
            d = decompose(idx, ONE, MINUS_ONE)
            keys = [t.key() for t in d.terms]
            assert len(keys) == len(set(keys))

    def test_display_order_first_family_then_second(self):
        # c/(x^e (x+y)^f) -> Li[r+f, e](alpha*beta, 1/alpha), c/(y^e (x+y)^f) -> Li[r+f, e](beta, alpha)
        alpha, beta, r = MINUS_ONE, ONE, 2
        d = decompose(MTIndex(3, 2, r), alpha, beta)
        raw = [
            (r + pf.sum_exp, pf.x_exp, root_mul(alpha, beta), root_inv(alpha))
            if pf.x_exp
            else (r + pf.sum_exp, pf.y_exp, beta, alpha)
            for pf in partial_fraction(3, 2)
        ]
        assert [t.key() for t in d.terms] == raw  # no merges here

    def test_literm_validation(self):
        with pytest.raises(ValueError):
            LiTerm(0, 4, 1, ONE, ONE)
        with pytest.raises(ValueError):
            LiTerm(1, 1, 1, ONE, ONE)
        with pytest.raises(ValueError):
            LiTerm(1, 4, 0, ONE, ONE)

    @pytest.mark.parametrize(
        "field, bad", [("coeff", 2.5), ("s", 3.9), ("t", 1.5), ("coeff", float("inf")), ("s", float("nan"))]
    )
    def test_term_record_with_a_fractional_number_is_refused(self, field, bad):
        # int(2.5) would silently read the record as another term.
        rec = {"coeff": 2, "s": 3, "t": 1, "x": "1/4", "y": "1/3"}
        assert term_from_record(rec) == LiTerm(2, 3, 1, I, W3)
        assert term_from_record({**rec, "coeff": 2.0, "s": 3.0}) == LiTerm(2, 3, 1, I, W3)
        with pytest.raises(ValueError, match=f"{field} = .* is not an integer"):
            term_from_record({**rec, field: bad})

    def test_decomposition_invariants_enforced(self):
        idx = MTIndex(1, 1, 3)
        with pytest.raises(ValueError, match="weight"):
            Decomposition(idx, MINUS_ONE, ONE, (LiTerm(1, 4, 2, ONE, ONE),))
        with pytest.raises(ValueError, match="merged"):
            Decomposition(
                idx, MINUS_ONE, ONE, (LiTerm(1, 4, 1, ONE, ONE), LiTerm(2, 4, 1, ONE, ONE))
            )


class TestFrozenConstructors:
    # ValueWithError, LiTerm and Decomposition build their fields with a
    # constructor of their own: it refuses what the plain frozen dataclass
    # refused, with the same messages, coerces the same, and leaves ==,
    # hash, repr, dataclasses.replace and pickling as they were.
    @pytest.mark.parametrize(
        "value, bound, msg",
        [
            (float("nan"), 0.0, "value must be finite"),
            (complex(1.0, float("inf")), 0.0, "value must be finite"),
            (complex(float("-inf"), 0.0), 0.0, "value must be finite"),
            (1.0, float("inf"), "error bound must be finite and nonnegative"),
            (1.0, float("nan"), "error bound must be finite and nonnegative"),
            (1.0, -1e-300, "error bound must be finite and nonnegative"),
        ],
    )
    def test_value_with_error_refusals(self, value, bound, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            ValueWithError(value, bound)

    def test_value_with_error_coerces_as_before(self):
        v = ValueWithError(1, 0)
        assert type(v.value) is complex and type(v.error_bound) is float
        assert (v.value, v.error_bound) == (1 + 0j, 0.0)
        assert ValueWithError(error_bound=-0.0, value=2.5).error_bound == 0.0
        with pytest.raises(TypeError):
            ValueWithError(1.0)

    @pytest.mark.parametrize(
        "args, msg",
        [
            ((0, 4, 1, ONE, ONE), "coefficient must be a positive integer"),
            ((2.0, 4, 1, ONE, ONE), "coefficient must be a positive integer"),
            ((1, 1, 1, ONE, ONE), r"outer exponent s must be an integer >= 2"),
            ((1, 4.0, 1, ONE, ONE), r"outer exponent s must be an integer >= 2"),
            ((1, 4, 0, ONE, ONE), "inner exponent t must be a positive integer"),
            ((1, 4, 1.0, ONE, ONE), "inner exponent t must be a positive integer"),
        ],
    )
    def test_li_term_refusals(self, args, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            LiTerm(*args)

    def test_li_term_takes_ints_as_before(self):
        # An int subclass passes, as it passed the dataclass's checks, and
        # is stored as given.
        term = LiTerm(True, 4, 1, ONE, ONE)
        assert term.coefficient is True and term == LiTerm(1, 4, 1, ONE, ONE)

    def test_decomposition_refusals(self):
        idx = MTIndex(1, 1, 3)
        with pytest.raises(ValueError, match=r"^term Li\[4,2\]\(1,1\) breaks weight 5 conservation$"):
            Decomposition(idx, MINUS_ONE, ONE, (LiTerm(1, 4, 2, ONE, ONE),))
        dup = (LiTerm(1, 4, 1, ONE, ONE), LiTerm(2, 4, 1, ONE, ONE))
        with pytest.raises(ValueError, match=r"^duplicate term key .*; terms must be merged$"):
            Decomposition(idx, MINUS_ONE, ONE, dup)
        # The first fault in term order is the one named.
        with pytest.raises(ValueError, match="merged"):
            Decomposition(idx, MINUS_ONE, ONE, dup + (LiTerm(1, 4, 2, ONE, ONE),))

    @pytest.mark.parametrize(
        "make, change",
        [
            (lambda: ValueWithError(0.25 - 0.5j, 1e-16), {"error_bound": 2e-16}),
            (lambda: LiTerm(3, 4, 1, I, W3), {"coefficient": 5}),
            (lambda: decompose(MTIndex(2, 1, 2), I, W3), {"beta": I}),
        ],
    )
    def test_eq_hash_repr_replace_and_pickle_as_before(self, make, change):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
        fields = [f.name for f in dataclasses.fields(a)]
        assert repr(a) == f"{type(a).__name__}(" + ", ".join(f"{n}={getattr(a, n)!r}" for n in fields) + ")"
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and hash(copy) == hash(a) and repr(copy) == repr(a)
        other = dataclasses.replace(a, **change)
        assert other != a and all(getattr(other, n) == change.get(n, getattr(a, n)) for n in fields)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, fields[0], getattr(b, fields[0]))

    def test_replace_runs_the_checks(self):
        with pytest.raises(ValueError, match="error bound"):
            dataclasses.replace(ValueWithError(1.0, 0.0), error_bound=-1.0)
        with pytest.raises(ValueError, match="outer exponent"):
            dataclasses.replace(LiTerm(1, 4, 1, ONE, ONE), s=1)
        d = decompose(MTIndex(2, 1, 2), I, W3)
        with pytest.raises(ValueError, match="merged"):
            dataclasses.replace(d, terms=d.terms + d.terms[:1])


class TestLevel2:
    def test_mapping(self):
        assert EulerTerm.from_li(LiTerm(1, 4, 1, MINUS_ONE, MINUS_ONE)) == EulerTerm(
            1, 4, 1, True, True
        )
        assert EulerTerm.from_li(LiTerm(1, 4, 1, ONE, MINUS_ONE)) == EulerTerm(1, 4, 1, False, True)
        assert EulerTerm.from_li(LiTerm(1, 3, 2, ONE, ONE)) == EulerTerm(1, 3, 2, False, False)
        assert EulerTerm.from_li(LiTerm(2, 3, 2, MINUS_ONE, ONE)) == EulerTerm(2, 3, 2, True, False)

    @pytest.mark.parametrize("s, t", [(1, 1), (0, 2), (2, 0)])
    def test_rejects_a_divergent_shape(self, s, t):
        with pytest.raises(ValueError, match="need s >= 2 and t >= 1"):
            EulerTerm(1, s, t, True, False)

    def test_rejects_higher_order(self):
        bad = decompose(MTIndex(1, 1, 2), I, W3)
        with pytest.raises(ValueError, match="order"):
            to_level2(bad)

    def test_text_forms(self):
        term = EulerTerm(3, 6, 1, True, False)
        assert term.z_text() == "3*z(-6,1)"
        assert term.pretty() == "3*ζ(6̄,1)"
        assert EulerTerm(1, 4, 1, True, True).pretty() == "ζ(4̄,1̄)"

    def test_r_decompositions_match_table(self):
        assert [t.z_text() for t in r_decomposition(1, 2, 2)] == [
            "z(-4,-1)",
            "z(3,-2)",
            "z(4,-1)",
        ]
        assert [t.z_text() for t in r_decomposition(2, 1, 2)] == [
            "z(-3,-2)",
            "z(-4,-1)",
            "z(4,-1)",
        ]

    def test_s_decomposition_merges(self):
        # both families of S(1,1,3) give the same term; they must merge
        assert s_decomposition(1, 1, 3) == [EulerTerm(2, 4, 1, True, False)]

    def test_wrappers_use_general_path(self):
        for p, q, r in [(1, 2, 2), (2, 2, 3), (4, 1, 2)]:
            idx = MTIndex(p, q, r)
            assert r_decomposition(p, q, r) == to_level2(decompose(idx, MINUS_ONE, ONE))
            assert s_decomposition(p, q, r) == to_level2(decompose(idx, ONE, MINUS_ONE))
