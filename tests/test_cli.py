import json
import subprocess
import sys
import tracemalloc

import pytest

from tornheim import (
    Decomposition,
    EvalConfig,
    MTIndex,
    RootOfUnity,
    ValueWithError,
    decompose,
    eval_decomposition,
    eval_mt_direct,
    term_from_record,
)
from tornheim import verify
from tornheim.cli import _format_value, run


def test_decompose_bar_notation(capsys):
    assert run(["decompose", "--p", "2", "--q", "1", "--r", "2", "--notation", "bar"]) == 0
    assert capsys.readouterr().out.strip() == "z(-3,-2) + z(-4,-1) + z(4,-1)"


def test_decompose_li_text(capsys):
    assert run(["decompose", "--p", "1", "--q", "1", "--r", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Li[4,1](-1,-1) + Li[4,1](1,-1)"


def test_decompose_pretty(capsys):
    assert run(["decompose", "--p", "2", "--q", "1", "--r", "2", "--notation", "bar",
                "--format", "pretty"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "ζ(3̄,2̄) + ζ(4̄,1̄) + ζ(4,1̄)"


@pytest.mark.parametrize(
    "notation, terms",
    [
        (
            "li",
            [
                {"coeff": 1, "s": 3, "t": 2, "x": "1/2", "y": "1/2"},
                {"coeff": 1, "s": 4, "t": 1, "x": "1/2", "y": "1/2"},
                {"coeff": 1, "s": 4, "t": 1, "x": "0/1", "y": "1/2"},
            ],
        ),
        ("bar", [{"coeff": 1, "s": -3, "t": -2}, {"coeff": 1, "s": -4, "t": -1}, {"coeff": 1, "s": 4, "t": -1}]),
    ],
    ids=["li", "bar"],
)
def test_decompose_json_schema(notation, terms, capsys):
    assert run(["decompose", "--p", "2", "--q", "1", "--r", "2", "--notation", notation, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"terms": terms}


def test_json_roundtrip_matches_eval_bit_for_bit(capsys):
    assert run(["decompose", "--p", "2", "--q", "3", "--r", "2", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["terms"]
    terms = tuple(term_from_record(rec) for rec in records)
    idx = MTIndex(2, 3, 2)
    alpha, beta = RootOfUnity(1, 2), RootOfUnity(0, 1)
    reparsed = eval_decomposition(Decomposition(idx, alpha, beta, terms), EvalConfig())
    direct = eval_decomposition(decompose(idx, alpha, beta), EvalConfig())
    assert reparsed.value == direct.value
    assert reparsed.error_bound == direct.error_bound

    assert run(["eval", "--p", "2", "--q", "3", "--r", "2"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == _format_value(direct)


def test_eval_prints_paper_digits(capsys):
    assert run(["eval", "--p", "2", "--q", "1", "--r", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("-0.2402184755 ")
    assert "±" in captured.out
    assert captured.err == ""


def test_eval_tolerance_miss_exits_1_and_prints_value(capsys):
    # MT(10,10,10) asks each of its Li terms for the full tolerance, and
    # the coefficients sum to C(20,10), so the combined bound misses 1e-10.
    assert run(["eval", "--p", "10", "--q", "10", "--r", "10", "--tol", "1e-10"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("-0.0009765625 ± 2.1e-09")
    assert captured.err.strip() == "error: achieved bound 2.1e-09 exceeds --tol 1e-10"


def test_decompose_pretty_li_is_text(capsys):
    base = ["decompose", "--p", "2", "--q", "1", "--r", "2", "--alpha", "1/4", "--beta", "1/3"]
    assert run(base + ["--format", "text"]) == 0
    text = capsys.readouterr().out
    assert run(base + ["--format", "pretty"]) == 0
    assert capsys.readouterr().out == text
    assert text.startswith("Li[")


def test_oracle_command(capsys):
    assert run(["oracle", "--p", "2", "--q", "1", "--r", "2", "--cutoff", "3000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("-0.2402184")


def test_oracle_cutoff_over_limit_exits_2(capsys):
    assert run(["oracle", "--p", "2", "--q", "1", "--r", "2", "--cutoff", "1000000000"]) == 2
    assert "oracle_cutoff must be <= 2**20" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "eval"])
def test_root_order_over_limit_exits_2(command, capsys):
    # decompose is exact at any order; evaluating refuses before allocating.
    argv = [command, "--p", "1", "--q", "1", "--r", "1", "--alpha", "1/1000000000000",
            "--beta", "999999999999/1000000000000"]
    tracemalloc.start()
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "MAX_ROOT_ORDER = 2**16" in capsys.readouterr().err


@pytest.mark.parametrize(
    "alpha, beta, named",
    [
        ("1/65536", "1/3", "eval_decomposition: alpha*beta = (1/65536)*(1/3) = 65539/196608 has order 196608"),
        ("1/131072", "1/1", "eval_decomposition: alpha = 1/131072 has order 131072"),
    ],
)
def test_eval_refusal_names_the_colors_given(alpha, beta, named):
    # A term color or product above MAX_ROOT_ORDER is alpha, beta, alpha*beta
    # or an inverse; the refusal names those, not a Li argument x.
    args = ["eval", "--p", "2", "--q", "1", "--r", "2", "--alpha", alpha, "--beta", beta]
    proc = subprocess.run([sys.executable, "-m", "tornheim", *args], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {named} > MAX_ROOT_ORDER = 2**16\n"
    assert "alpha" in proc.stderr and "eval_li: x =" not in proc.stderr and "Traceback" not in proc.stderr


def test_decompose_above_the_p_plus_q_cap_exits_2_without_traceback():
    # Expanding (8000, 8000) takes about a minute and gives coefficients
    # beyond Python's 4300-digit printing limit; the refusal comes before
    # any binomial is computed.
    args = ["decompose", "--p", "8000", "--q", "8000", "--r", "1", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "tornheim", *args], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "MAX_PARTIAL_FRACTION_TERMS = 2**12" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_complex_colors(capsys):
    assert run(["eval", "--p", "1", "--q", "1", "--r", "2", "--alpha", "1/4", "--beta", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "i" in out  # complex value printed with imaginary part


def test_invalid_index_exit2(capsys):
    assert run(["decompose", "--p", "1", "--q", "0", "--r", "1"]) == 2
    assert "q+r>1 required" in capsys.readouterr().err


def test_a_refused_index_names_the_uncolored_condition(capsys):
    # MT(1,1,0; -1, i) converges, but MTIndex applies the uncolored series'
    # absolute-convergence conditions whatever the colors, and says so.
    assert run(["eval", "--p", "1", "--q", "1", "--r", "0", "--alpha", "1/2", "--beta", "1/4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: p+r>1 required: ")
    assert "the uncolored series' absolute-convergence condition, applied whatever the colors" in err


def test_bar_notation_rejects_complex_colors(capsys):
    assert run(["decompose", "--p", "1", "--q", "1", "--r", "2", "--alpha", "1/4",
                "--notation", "bar"]) == 2
    err = capsys.readouterr().err
    assert "order" in err and "bar" in err


def test_unknown_argument_exit2(capsys):
    assert run(["decompose", "--p", "2", "--q", "1", "--r", "2", "--bogus"]) == 2
    capsys.readouterr()


def test_bad_root_syntax_exit2(capsys):
    assert run(["eval", "--p", "2", "--q", "1", "--r", "2", "--alpha", "nope"]) == 2
    capsys.readouterr()


def test_relation_command(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("1*zeta(3) == Li(2,1;1,1)\n", encoding="utf-8")
    assert run(["relation", "--file", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.txt"
    bad.write_text("1*zeta(5) == MT(2,1,2;-1,1)\n", encoding="utf-8")
    assert run(["relation", "--file", str(bad)]) == 1
    assert "fail" in capsys.readouterr().out

    broken = tmp_path / "broken.txt"
    broken.write_text("1*zeta(3) == Li(2,1;1,1)\n1*zeta(5) ==\n", encoding="utf-8")
    assert run(["relation", "--file", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and "position" in err


@pytest.mark.parametrize("command", ["eval", "relation"])
def test_overflowing_rung_exits_2_without_traceback(command, tmp_path):
    # A ladder rung of Li[206,1](1, 1/4096) has w far below 1, where
    # w^-206 overflows: a named error, not a traceback.
    rel = tmp_path / "rel.txt"
    rel.write_text("1*zeta(2) == Li(206,1;1,1/4096)\n", encoding="utf-8")
    args = {
        "eval": ["--p", "0", "--q", "1", "--r", "205", "--alpha", "1/4096"],
        "relation": ["--file", str(rel)],
    }[command]
    proc = subprocess.run([sys.executable, "-m", "tornheim", command, *args], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "overflows the double range" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["eval", "relation"])
def test_coefficient_beyond_the_double_range_exits_2_without_traceback(command, tmp_path):
    # MT(520,520,1) has the coefficient C(1040,520), about 1e311; the
    # relation names one of 315 digits.  Both used to end in an
    # OverflowError traceback and exit 1.
    digits = "7" * 315
    rel = tmp_path / "rel.txt"
    rel.write_text(f"{digits}*zeta(2) == Li(2,1;1,1)\n", encoding="utf-8")
    args = {
        "eval": ["--p", "520", "--q", "520", "--r", "1"],
        "relation": ["--file", str(rel)],
    }[command]
    proc = subprocess.run([sys.executable, "-m", "tornheim", command, *args], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "coefficient is beyond the double range" in proc.stderr
    assert "Traceback" not in proc.stderr and "777777" not in proc.stderr


@pytest.mark.parametrize(
    "line, code, text",
    [
        (f"{10**308}*zeta(2) + {10**308}*zeta(3) == Li(2,1;1,1)", 2, "the sum is beyond the double range"),
        (f"{10**307}*zeta(2) + {10**307}*zeta(3) == Li(2,1;1,1)", 1, "fail"),
        ("1/0*zeta(3) == Li(2,1;1,1)", 2, "denominator must be nonzero (at position 2)"),
    ],
    ids=["sum-overflows", "sum-finite", "zero-denominator"],
)
def test_relation_file_at_the_edges_of_its_grammar_and_range(line, code, text, tmp_path, capsys):
    # A sum beyond the double range and a zero denominator each used to end
    # in a traceback; a finite sum far from the target is a plain fail row.
    rel = tmp_path / "rel.txt"
    rel.write_text(line + "\n", encoding="utf-8")
    assert run(["relation", "--file", str(rel)]) == code
    out, err = capsys.readouterr()
    assert text in (err if code == 2 else out)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("pq", [("2000", "1"), ("1", "1100")])
def test_oracle_bound_beyond_the_double_range_exits_2_without_traceback(pq):
    # At cutoff 1 the oracle's tail bound grows as 2**max(p, q); it used
    # to end in an OverflowError traceback from 2.0**p.
    p, q = pq
    argv = [sys.executable, "-m", "tornheim", "oracle", "--p", p, "--q", q, "--r", "2"]
    proc = subprocess.run([*argv, "--cutoff", "1"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "beyond the double range" in proc.stderr
    assert "Traceback" not in proc.stderr
    # From cutoff 2 on the bound is finite, however large p or q.
    proc = subprocess.run([*argv, "--cutoff", "10"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""


def test_oracle_at_an_r_past_the_normal_range_exits_2_without_traceback():
    # 2**-1070 is a subnormal: the oracle's bound used to underflow to 0
    # and the command printed "-0.0000000000 ± 0" with exit 0.
    argv = [sys.executable, "-m", "tornheim", "oracle", "--p", "2", "--q", "1", "--r", "1070", "--cutoff", "100"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: oracle_rows: r = 1070 >= 1023") and "normal double" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_beyond_the_euler_maclaurin_range_names_the_index_given():
    # The refusal used to name s = r + 2, which appears nowhere on the
    # command line.
    r = "100000000000000000000"
    proc = subprocess.run(
        [sys.executable, "-m", "tornheim", "eval", "--p", "2", "--q", "1", "--r", r], capture_output=True, text=True
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: eval_decomposition: MT(2,1,{r}) ")
    assert "Euler-Maclaurin set-up beyond the double range" in proc.stderr
    assert "100000000000000000002" not in proc.stderr and "Traceback" not in proc.stderr


def test_eval_with_p_beyond_1023_agrees_with_the_oracle(capsys):
    # the command line's default colors, alpha = -1 and beta = 1
    idx, alpha, beta = MTIndex(2000, 1, 2), RootOfUnity(1, 2), RootOfUnity(0, 1)
    assert run(["eval", "--p", "2000", "--q", "1", "--r", "2"]) == 0
    dec = eval_decomposition(decompose(idx, alpha, beta))
    assert capsys.readouterr().out.strip() == _format_value(dec)
    oracle = eval_mt_direct(idx, alpha, beta, EvalConfig(oracle_cutoff=2000))
    assert abs(dec.value - oracle.value) <= dec.error_bound + oracle.error_bound


@pytest.fixture
def built_roots(monkeypatch):
    """The (exponent, order) of every RootOfUnity built from here on."""
    built = []
    init = RootOfUnity.__init__

    def counting(self, exponent, order):
        built.append((exponent, order))
        init(self, exponent, order)

    monkeypatch.setattr(RootOfUnity, "__init__", counting)
    return built


# The only roots a refused verify builds: the parser's --alpha and --beta
# defaults of the decompose, eval and oracle commands.
PARSER_DEFAULT_ROOTS = {(1, 2), (0, 1)}


def test_verify_refuses_an_oversized_color_grid(built_roots, capsys):
    # The order-20000 grid would hold 4e8 color pairs; it used to end in a
    # MemoryError traceback after the fixtures and R(2,1,2) had run.
    assert run(["verify", "--grid-weight", "3", "--orders", "20000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: color_pairs: ")
    assert "MAX_COLOR_PAIRS = 2**16" in err and "Traceback" not in err
    assert set(built_roots) <= PARSER_DEFAULT_ROOTS


def test_orders_check_builds_no_root(built_roots, capsys):
    # The grid's color pairs are counted, never built, also when they are
    # refused: the check must not cost what the grid would.
    assert run(["verify", "--orders", "257"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: color_pairs: orders up to 257 ")
    assert "MAX_COLOR_PAIRS = 2**16" in err and "Traceback" not in err
    assert set(built_roots) <= PARSER_DEFAULT_ROOTS


@pytest.mark.parametrize("weight, constraint", [("2", "max_weight must be >= 3"), ("10000", "MAX_GRID_CASES = 2**16")])
def test_verify_refuses_a_grid_weight_before_any_check(weight, constraint, capsys):
    # Weight 2 used to be refused only after the fixtures and R(2,1,2) had
    # run, and weight 10000 would build 1.7e11 indices up front.
    assert run(["verify", "--grid-weight", weight]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cross_check_grid: ")
    assert constraint in err and "Traceback" not in err


@pytest.mark.parametrize("orders, message", [("1,x", "bad orders list '1,x'"), ("0", "orders must be positive integers")])
def test_verify_refuses_a_bad_orders_list(orders, message, capsys):
    assert run(["verify", "--orders", orders]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument --orders: {message}" in err


def test_verify_prints_each_failing_grid_case(monkeypatch, capsys):
    # The decomposition side moved by 1, beyond every bound (the widest,
    # MT(0,1,2) at cutoff 2000, is 5e-3): every grid case fails and gets
    # its own line.
    def shifted(d, cfg):
        v = eval_decomposition(d, cfg)
        return ValueWithError(v.value + 1.0, v.error_bound)

    monkeypatch.setattr(verify, "eval_decomposition", shifted)
    assert run(["verify", "--grid-weight", "3", "--orders", "1"]) == 1
    out = capsys.readouterr().out
    assert "grid (weight <= 3, orders [1]): 0/3 pass" in out
    fails = [line for line in out.splitlines() if line.startswith("fail: MT(")]
    assert [line.split("  ")[0] for line in fails] == [f"fail: MT({t};1,1)" for t in ("0,1,2", "1,0,2", "1,1,1")]
    assert all("  |diff| = 1" in line and " > bound " in line for line in fails)
    assert out.rstrip().endswith("verify: FAILURES above")


@pytest.mark.parametrize("text", ["", "# a comment\n\n   # another\n"])
@pytest.mark.parametrize("command, option", [("relation", "--file"), ("verify", "--fixtures")])
def test_a_data_file_with_no_entries_exits_2(command, option, text, tmp_path, capsys):
    # It used to pass vacuously: an empty table, or "fixtures: 0/0 pass".
    path = tmp_path / "empty.txt"
    path.write_text(text, encoding="utf-8")
    assert run([command, option, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: no entries")
    assert "Traceback" not in err


def test_verify_json_of_a_failing_fixture_is_strict_json(tmp_path, capsys):
    # A symbolic mismatch has no numeric difference; RFC 8259 has no NaN,
    # so it must be written as null.
    fixtures = tmp_path / "fx.txt"
    fixtures.write_text("R(2,1,2) = z(-3,-2) + z(-4,-1) + 2*z(4,-1)\n", encoding="utf-8")
    json_path = tmp_path / "reports.json"
    code = run(["verify", "--fixtures", str(fixtures), "--grid-weight", "3", "--json", str(json_path)])
    assert code == 1 and "fixtures: 0/1 pass" in capsys.readouterr().out

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    records = json.loads(json_path.read_text(encoding="utf-8"), parse_constant=refuse)
    assert records[0]["status"] == "fail" and records[0]["absdiff"] is None
    assert records[0]["bound"] == 0.0 and "z(4,-1): got 1, expected 2" in records[0]["detail"]


def test_verify_bad_fixture_file_names_the_line(tmp_path, capsys):
    bad = tmp_path / "fx.txt"
    bad.write_text("R(1,1,3) = z(-4,-1) + z(4,-1)\n# comment\nR(2,1,2) = 2 z(3,2)\n", encoding="utf-8")
    assert run(["verify", "--fixtures", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and "position 13" in err


@pytest.mark.parametrize("command", ["verify", "relation"])
def test_tol_is_only_an_eval_option(command, capsys):
    # No evaluator reads the tolerance; only eval compares it with a bound.
    assert run([command, "--tol", "1e-10"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_small_grid(tmp_path, capsys):
    json_path = tmp_path / "reports.json"
    code = run(["verify", "--grid-weight", "3", "--orders", "1,2", "--json", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "fixtures: 13/13 pass" in out
    assert "all checks pass" in out
    records = json.loads(json_path.read_text(encoding="utf-8"))
    assert all(rec["status"] == "pass" for rec in records)
    # 13 fixtures + 4 value checks + 3 indices * 4 color pairs
    assert len(records) == 13 + 4 + 12


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tornheim", "decompose", "--p", "2", "--q", "1", "--r", "2",
         "--notation", "bar"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "z(-3,-2) + z(-4,-1) + z(4,-1)"
