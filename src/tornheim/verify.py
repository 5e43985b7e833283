"""Verification harness: fixture table, cross-check grid, value disputes.

Tolerance policy: symbolic checks are exact (term multisets with
coefficients).  Two computed values agree iff |a - b| is at most the sum of
their rigorous bounds, with no floor; _agreement is that one rule.
Comparisons against 10-digit printed decimals use PRINTED_TOL = 5e-9 (half
an ulp of the last printed digit, with margin).

Fixture and relation lines share one tokenizer and one call syntax,
NAME(int, ...[; root, root]), with roots read by RootOfUnity.parse.
"""
from __future__ import annotations

import json
import math
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files as pkg_files
from itertools import chain, repeat
from pathlib import Path

from .algebra import MINUS_ONE, ONE, RootOfUnity
from .bounds import DEFAULT_CONFIG, EvalConfig, ValueWithError, pi_const
from .decompose import EulerTerm, LiTerm, MTIndex, decompose, r_decomposition
from .li import eval_decomposition, eval_li, zeta_const
from .oracle import eval_mt_direct, oracle_rows

R212_PRINTED = -0.2402184755
R212_CLOSED_FORM = "107/32*zeta(5) - 5/16*pi^2*zeta(3)"
R212_DISPUTED_PRINTED = -0.0495972141
R212_DISPUTED_FORM = "45/16*zeta(5) - 1/4*pi^2*zeta(3)"
PRINTED_TOL = 5e-9


@dataclass(frozen=True, slots=True)
class Report:
    """Outcome of one verification case; failures carry both sides.

    ms is the case's own time.  In cross_check_grid the first case of each
    (index, alpha) also carries the oracle rows its other cases reuse.
    """

    label: str
    passed: bool
    lhs: str
    rhs: str
    absdiff: float
    bound: float
    ms: float
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def record(self) -> dict:
        return {
            "label": self.label,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "absdiff": _finite_or_none(self.absdiff),
            "bound": _finite_or_none(self.bound),
            "ms": round(self.ms, 3),
            "detail": self.detail,
        }


def _agreement(label: str, lhs: ValueWithError, rhs: ValueWithError, t0: float) -> Report:
    """The numeric agreement rule: pass iff |lhs - rhs| <= the sum of both bounds.

    The report's texts are interned, so the reports of a sweep run again,
    whose values are bit for bit the same, share one copy of each label and
    value text.
    """
    diff = abs(lhs.value - rhs.value)
    bound = lhs.error_bound + rhs.error_bound
    ms = (time.perf_counter() - t0) * 1000.0
    label, lhs_text, rhs_text = map(sys.intern, (label, _cfmt(lhs.value), _cfmt(rhs.value)))
    return Report(label, diff <= bound, lhs_text, rhs_text, diff, bound, ms)


def _cfmt(v: complex) -> str:
    if abs(v.imag) < 1e-13:
        return f"{v.real:.12g}"
    return f"{v.real:.12g}{v.imag:+.12g}i"


def _finite_or_none(x: float) -> float | None:
    """JSON (RFC 8259) has no NaN or infinity: a non-finite number is null."""
    return x if math.isfinite(x) else None


def reports_to_json(reports: list[Report]) -> str:
    return json.dumps([r.record() for r in reports], indent=2, allow_nan=False)


def format_report_table(reports: list[Report]) -> str:
    width = max([5] + [len(r.label) for r in reports])
    lines = [f"{'case':<{width}}  status  absdiff    bound      ms"]
    for r in reports:
        lines.append(
            f"{r.label:<{width}}  {r.status:<6}  {r.absdiff:<9.2e}  {r.bound:<9.2e}  {r.ms:8.1f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fixtures: the alternating-series expansion table.


@dataclass(frozen=True)
class Fixture:
    label: str
    index: MTIndex
    expected: tuple[EulerTerm, ...]

    def __post_init__(self) -> None:
        w = self.index.weight
        for term in self.expected:
            if term.s + term.t != w:
                raise ValueError(f"{self.label}: term {term.z_text()} breaks weight {w}")


def parse_fixture_line(line: str) -> Fixture:
    """Parse "R(p,q,r) = [c*]z(+-s,+-t) + ..."; syntax errors carry the position."""
    toks = _Tokens(line)
    index = _parse_call(toks, {"R": MTIndex})
    toks.expect("=")
    terms = []
    while not terms or toks.peek()[1] == "+":
        if terms:
            toks.next()
        coeff = 1
        if toks.peek()[0] == "int":
            coeff = toks.expect_int()
            toks.expect("*")
        terms.append(_parse_call(toks, {"z": lambda a, b: EulerTerm.from_signed(coeff, a, b)}))
    toks.expect_end()
    return Fixture(f"R({index.p},{index.q},{index.r})", index, tuple(terms))


def load_fixtures(path: str | None = None) -> list[Fixture]:
    return _parse_data("fixtures.txt", path, parse_fixture_line)


def _merge_euler(terms) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for t in terms:
        out[t.key()] = out.get(t.key(), 0) + t.coefficient
    return out


def compare_fixture(fixture: Fixture) -> Report:
    """Purely symbolic check: exact term-multiset equality, coefficients included."""
    t0 = time.perf_counter()
    idx = fixture.index
    computed = r_decomposition(idx.p, idx.q, idx.r)
    got = _merge_euler(computed)
    want = _merge_euler(fixture.expected)
    ms = (time.perf_counter() - t0) * 1000.0
    diffs = [
        f"{EulerTerm(1, *key).z_text()}: got {got.get(key, 0)}, expected {want.get(key, 0)}"
        for key in sorted(got.keys() | want.keys())
        if got.get(key, 0) != want.get(key, 0)
    ]
    return Report(
        fixture.label,
        not diffs,
        _euler_text(computed),
        _euler_text(fixture.expected),
        float("nan") if diffs else 0.0,
        0.0,
        ms,
        "; ".join(diffs),
    )


def _euler_text(terms) -> str:
    return " + ".join(t.z_text() for t in terms)


def verify_fixtures(path: str | None = None) -> list[Report]:
    """Check every fixture line by exact symbolic comparison."""
    return [compare_fixture(f) for f in load_fixtures(path)]


# ---------------------------------------------------------------------------
# Cross-check grid: decomposition versus the direct-sum oracle.

# Largest number of cases cross_check_grid runs, 16 times the acceptance
# grid's 4068 (weight <= 8, orders 1-4): its reports, and the indices
# enumerate_indices builds up front, grow with the count.
MAX_GRID_CASES = 2**16

# Largest number of (alpha, beta) pairs color_pairs builds for a grid.
MAX_COLOR_PAIRS = 2**16


def enumerate_indices(max_weight: int) -> list[MTIndex]:
    out = []
    for w in range(3, max_weight + 1):
        for p in range(w + 1):
            for q in range(w + 1 - p):
                r = w - p - q
                if p + q > 0 and p + r > 1 and q + r > 1:
                    out.append(MTIndex(p, q, r))
    return out


def _color_pair_count(orders: list[int]) -> int:
    """The number of pairs color_pairs(orders) builds, counted without a root.

    More than MAX_COLOR_PAIRS is a ValueError: the N-th roots alone give
    N^2 pairs, and below that bound the distinct roots are counted as the
    sum of phi(d) over the divisors d of the orders.
    """
    distinct = set(orders)
    top = max(distinct, default=1)
    pairs = top * top
    if pairs <= MAX_COLOR_PAIRS:
        divisors = {d for n in distinct for d in range(1, n + 1) if n % d == 0}
        pairs = sum(math.gcd(k, d) == 1 for d in divisors for k in range(d)) ** 2
    if pairs > MAX_COLOR_PAIRS:
        raise ValueError(
            f"color_pairs: orders up to {top} give more than MAX_COLOR_PAIRS = 2**16 color pairs"
        )
    return pairs


def color_pairs(orders: list[int]) -> list[tuple[RootOfUnity, RootOfUnity]]:
    """Every (alpha, beta) over the distinct roots of the given orders.

    More than MAX_COLOR_PAIRS pairs is a ValueError, raised before any root
    is built (_color_pair_count).
    """
    _color_pair_count(orders)
    roots = {RootOfUnity(k, n) for n in orders for k in range(n)}
    ordered = sorted(roots, key=RootOfUnity.sort_key)
    return [(a, b) for a in ordered for b in ordered]


def grid_cases(max_weight: int, orders: list[int]) -> int:
    """The number of cases of cross_check_grid(max_weight, orders).

    Counted in closed form, before any index or root is built: weight w
    has C(w+2, 2) - 7 indices (the triples summing to w, less (0,0,w) and
    the six with p+r <= 1 or q+r <= 1), so weights 3..W have
    C(W+3, 3) - 10 - 7*(W-2), each with every color pair.  A max_weight
    below 3, or more than MAX_GRID_CASES cases, is a ValueError.
    """
    if max_weight < 3:
        raise ValueError(f"cross_check_grid: max_weight must be >= 3, got {max_weight}")
    pairs = _color_pair_count(orders)
    cases = (math.comb(max_weight + 3, 3) - 10 - 7 * (max_weight - 2)) * pairs
    if cases > MAX_GRID_CASES:
        raise ValueError(
            f"cross_check_grid: weight <= {max_weight} and orders {orders} give {cases} cases, "
            "more than MAX_GRID_CASES = 2**16"
        )
    return cases


def cross_check_grid(
    max_weight: int, orders: list[int], cfg: EvalConfig = DEFAULT_CONFIG
) -> list[Report]:
    """Oracle vs decomposition on every index/color case, combined bounds.

    The pairs run alpha-major, so the oracle's beta-free rows
    (OracleRows) are built once per (index, alpha) and shared by every
    beta: the index's first alpha builds them with oracle_rows, and each
    later alpha recolors the rows it follows.  Rows are built inside the
    timed window of their (index, alpha)'s first case, so every ms of the
    sweep is charged to some case.  A case's label is a per-index prefix
    and a per-pair suffix, both formatted outside the timed windows.
    """
    grid_cases(max_weight, orders)
    reports = []
    pairs = color_pairs(orders)
    suffixes = [f"{alpha},{beta})" for alpha, beta in pairs]
    for idx in enumerate_indices(max_weight):
        rows = None
        prefix = f"MT({idx.p},{idx.q},{idx.r};"
        for (alpha, beta), suffix in zip(pairs, suffixes):
            label = prefix + suffix
            t0 = time.perf_counter()
            rows = oracle_rows(idx, alpha, cfg) if rows is None else rows.recolor(alpha)
            oracle = eval_mt_direct(idx, alpha, beta, cfg, rows=rows)
            dec = eval_decomposition(decompose(idx, alpha, beta), cfg)
            reports.append(_agreement(label, oracle, dec, t0))
    return reports


# ---------------------------------------------------------------------------
# The disputed value R(2,1,2).


def verify_r212(cfg: EvalConfig = DEFAULT_CONFIG) -> list[Report]:
    """Four checks around R(2,1,2) = MT(2,1,2;-1,1).

    (i)   the direct double sum matches the printed -0.2402184755;
    (ii)  the decomposition evaluates to the oracle within combined bounds;
    (iii) (107/32) zeta(5) - (5/16) pi^2 zeta(3) equals the decomposition's
          value within combined bounds;
    (iv)  the previously published closed form (45/16) zeta(5)
          - (1/4) pi^2 zeta(3) reproduces its printed -0.0495972141 yet
          misses the actual value by more than 0.19.
    """
    idx = MTIndex(2, 1, 2)
    reports = []

    t0 = time.perf_counter()
    oracle = eval_mt_direct(idx, MINUS_ONE, ONE, cfg)
    ms = (time.perf_counter() - t0) * 1000.0
    diff = abs(oracle.value - R212_PRINTED)
    reports.append(
        Report(
            "R(2,1,2) oracle vs printed value",
            diff < PRINTED_TOL,
            _cfmt(oracle.value),
            f"{R212_PRINTED}",
            diff,
            PRINTED_TOL,
            ms,
        )
    )

    t0 = time.perf_counter()
    dec = eval_decomposition(decompose(idx, MINUS_ONE, ONE), cfg)
    reports.append(_agreement("R(2,1,2) decomposition vs oracle", dec, oracle, t0))

    t0 = time.perf_counter()
    closed = eval_constants(_parse_constants(_Tokens(R212_CLOSED_FORM)))
    reports.append(_agreement("R(2,1,2) closed form 107/32*z5 - 5/16*pi^2*z3", closed, dec, t0))

    t0 = time.perf_counter()
    disputed = eval_constants(_parse_constants(_Tokens(R212_DISPUTED_FORM)))
    ms = (time.perf_counter() - t0) * 1000.0
    near_its_print = abs(disputed.value - R212_DISPUTED_PRINTED) < PRINTED_TOL
    gap = abs(disputed.value - oracle.value)
    reports.append(
        Report(
            "published form 45/16*z5 - 1/4*pi^2*z3 is not R(2,1,2)",
            near_its_print and gap > 0.19,
            _cfmt(disputed.value),
            _cfmt(oracle.value),
            gap,
            0.19,
            ms,
            f"matches its own print: {near_its_print}; gap {gap:.6f} > 0.19",
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Relation specs: "<constants> == MT(...)|Li(...)" checked numerically, and
# the grammar they share with fixture lines.


class RelationSyntaxError(ValueError):
    """A syntax error in a relation or fixture line, at a position in the line."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class RelationSpec:
    """A Q-linear combination of constants equated to an evaluable target.

    terms: ((coefficient, atoms), ...) with atoms like ("zeta", 5) or
    ("pi", 2); target: ("mt", index, alpha, beta) or ("li", s, t, x, y).
    """

    lhs_label: str
    terms: tuple[tuple[Fraction, tuple[tuple[str, int], ...]], ...]
    target: tuple


_TOKEN = re.compile(r"(\d+)|([A-Za-z]+)|(==|[()+\-*^,;/=])|(\S)")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []
        for m in _TOKEN.finditer(text):
            if m.group(4):
                raise RelationSyntaxError(f"unexpected character {m.group(4)!r}", m.start())
            kind = "int" if m.group(1) else "name" if m.group(2) else "sym"
            self.items.append((kind, m.group(0), m.start()))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else ("end", "", len(self.text))

    def next(self):
        item = self.peek()
        self.pos += 1
        return item

    def expect(self, text: str):
        kind, tok, pos = self.next()
        if tok != text:
            raise RelationSyntaxError(f"expected {text!r}, found {tok or 'end of line'!r}", pos)

    def expect_int(self, signed: bool = False) -> int:
        if signed and self.peek()[1] == "-":
            self.next()
            return -self.expect_int()
        kind, tok, pos = self.next()
        if kind != "int":
            raise RelationSyntaxError(f"expected integer, found {tok or 'end of line'!r}", pos)
        return int(tok)

    def expect_end(self) -> None:
        kind, tok, pos = self.peek()
        if kind != "end":
            raise RelationSyntaxError(f"trailing input {tok!r}", pos)


def _parse_rational(toks: _Tokens) -> Fraction:
    num = toks.expect_int()
    if toks.peek()[1] == "/":
        toks.next()
        pos = toks.peek()[2]
        den = toks.expect_int()
        if den == 0:
            raise RelationSyntaxError("denominator must be nonzero", pos)
        return Fraction(num, den)
    return Fraction(num)


def _parse_root(toks: _Tokens) -> RootOfUnity:
    """The text up to the next ',' or ')', read by RootOfUnity.parse."""
    start = toks.peek()[2]
    while toks.peek()[1] not in (",", ")", ""):
        toks.next()
    try:
        return RootOfUnity.parse(toks.text[start : toks.peek()[2]])
    except ValueError as exc:
        raise RelationSyntaxError(str(exc), start) from None


# Call syntax NAME(int, ...[; root, root]): counts of integer and root arguments.
_CALLS = {"R": (3, 0), "z": (2, 0), "MT": (3, 2), "Li": (2, 2)}


def _parse_call(toks: _Tokens, build: dict):
    """A call named by a key of build, e.g. MT(2,1,2;-1,1), returned as build[name](*args).

    A ValueError from build becomes a RelationSyntaxError at the call's name.
    """
    kind, name, pos = toks.next()
    if name not in build:
        wanted = " or ".join(f"{n}(...)" for n in build)
        raise RelationSyntaxError(f"expected {wanted}, found {name or 'end of line'!r}", pos)
    n_ints, n_roots = _CALLS[name]
    toks.expect("(")
    args = []
    for i in range(n_ints):
        if i:
            toks.expect(",")
        args.append(toks.expect_int(signed=True))
    for i in range(n_roots):
        toks.expect(";" if i == 0 else ",")
        args.append(_parse_root(toks))
    toks.expect(")")
    try:
        return build[name](*args)
    except ValueError as exc:
        raise RelationSyntaxError(str(exc), pos) from None


def _parse_factor(toks: _Tokens):
    kind, tok, pos = toks.next()
    if kind != "name" or tok not in ("zeta", "pi"):
        raise RelationSyntaxError(f"expected zeta(...) or pi, found {tok or 'end of line'!r}", pos)
    if tok == "zeta":
        toks.expect("(")
        s = toks.expect_int()
        toks.expect(")")
        if s < 2:
            raise RelationSyntaxError("zeta argument must be >= 2", pos)
        return ("zeta", s)
    power = 1
    if toks.peek()[1] == "^":
        toks.next()
        power = toks.expect_int()
    return ("pi", power)


def _parse_term(toks: _Tokens, sign: int):
    coeff = Fraction(sign)
    atoms = []
    if toks.peek()[0] == "int":
        coeff *= _parse_rational(toks)
    else:
        atoms.append(_parse_factor(toks))
    while toks.peek()[1] == "*":
        toks.next()
        atoms.append(_parse_factor(toks))
    return coeff, tuple(atoms)


def _parse_constants(toks: _Tokens) -> tuple:
    terms = []
    while not terms or toks.peek()[1] in ("+", "-"):
        sign = -1 if toks.peek()[1] == "-" else 1
        if toks.peek()[1] in ("+", "-"):
            toks.next()
        terms.append(_parse_term(toks, sign))
    return tuple(terms)


def parse_relation(line: str) -> RelationSpec:
    """Parse one relation line; syntax errors carry the offending position."""
    toks = _Tokens(line)
    terms = _parse_constants(toks)
    eq_pos = toks.peek()[2]
    toks.expect("==")
    target = _parse_call(
        toks,
        {
            "MT": lambda p, q, r, a, b: ("mt", MTIndex(p, q, r), a, b),
            "Li": lambda s, t, x, y: ("li", *LiTerm(1, s, t, x, y).key()),
        },
    )
    toks.expect_end()
    return RelationSpec(line[:eq_pos].strip(), terms, target)


def load_relations(path: str | None = None) -> list[RelationSpec]:
    return _parse_data("relations.txt", path, parse_relation)


def _parse_data(name: str, path: str | None, parse) -> list:
    """parse applied to each non-blank line of a data file (path None: the packaged
    name), '#' comments cut; an error gets the line's 1-based number in front.
    A file with no entry is a ValueError naming it: a check of nothing passes."""
    source = pkg_files("tornheim.data").joinpath(name) if path is None else Path(path)
    out = []
    for number, raw in enumerate(source.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                out.append(parse(line))
            except ValueError as exc:
                exc.args = (f"line {number}: {exc}",)
                raise
    if not out:
        raise ValueError(f"{name if path is None else path}: no entries, only blank or comment lines")
    return out


def eval_constants(terms) -> ValueWithError:
    """Sum of rational * product of zeta(s), pi^k atoms; no atoms is an exact 1."""
    parts = []
    for coeff, atoms in terms:
        factors = chain.from_iterable(
            [zeta_const(arg)] if kind == "zeta" else repeat(pi_const(), arg) for kind, arg in atoms
        )
        product = next(factors, ValueWithError(1.0, 0.0))
        for factor in factors:
            product = product * factor
        parts.append((coeff, product))
    return ValueWithError.combine(parts)


def check_relation(spec: RelationSpec, cfg: EvalConfig = DEFAULT_CONFIG) -> Report:
    """Evaluate both sides; they must agree within their combined bounds."""
    t0 = time.perf_counter()
    lhs = eval_constants(spec.terms)
    if spec.target[0] == "mt":
        _, index, alpha, beta = spec.target
        rhs = eval_decomposition(decompose(index, alpha, beta), cfg)
        rhs_label = f"MT({index.p},{index.q},{index.r};{alpha},{beta})"
    else:
        _, s, t, x, y = spec.target
        rhs = eval_li(s, t, x, y, cfg)
        rhs_label = f"Li({s},{t};{x},{y})"
    return _agreement(f"{spec.lhs_label} == {rhs_label}", lhs, rhs, t0)
