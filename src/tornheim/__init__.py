"""Colored Tornheim double series.

Exact decomposition of sum_{m,n} alpha^n beta^(m+n) / (m^p n^q (m+n)^r)
into double polylogarithm values at roots of unity, numerical evaluation
of both sides with rigorous error bounds, and a verification harness for
the alternating (level 2) expansion table and closed forms.
"""
from .algebra import (
    MINUS_ONE,
    ONE,
    RootOfUnity,
    binomial,
    root_inv,
    root_mul,
    root_value,
)
from .bounds import DEFAULT_CONFIG, EvalConfig, ValueWithError, pi_const
from .decompose import (
    Decomposition,
    EulerTerm,
    LiTerm,
    MTIndex,
    PartialFractionTerm,
    decompose,
    partial_fraction,
    r_decomposition,
    s_decomposition,
    term_from_record,
    to_level2,
)
from .li import eval_decomposition, eval_li, zeta_const
from .oracle import eval_mt_direct
from .verify import (
    Fixture,
    RelationSpec,
    RelationSyntaxError,
    Report,
    check_relation,
    color_pairs,
    compare_fixture,
    cross_check_grid,
    enumerate_indices,
    load_fixtures,
    load_relations,
    parse_relation,
    verify_fixtures,
    verify_r212,
)

__version__ = "0.1.0"

__all__ = [
    "MINUS_ONE",
    "ONE",
    "RootOfUnity",
    "binomial",
    "root_inv",
    "root_mul",
    "root_value",
    "Decomposition",
    "EulerTerm",
    "LiTerm",
    "MTIndex",
    "PartialFractionTerm",
    "decompose",
    "partial_fraction",
    "r_decomposition",
    "s_decomposition",
    "term_from_record",
    "to_level2",
    "DEFAULT_CONFIG",
    "EvalConfig",
    "ValueWithError",
    "eval_decomposition",
    "eval_li",
    "eval_mt_direct",
    "pi_const",
    "zeta_const",
    "Fixture",
    "RelationSpec",
    "RelationSyntaxError",
    "Report",
    "check_relation",
    "color_pairs",
    "compare_fixture",
    "cross_check_grid",
    "enumerate_indices",
    "load_fixtures",
    "load_relations",
    "parse_relation",
    "verify_fixtures",
    "verify_r212",
    "__version__",
]
