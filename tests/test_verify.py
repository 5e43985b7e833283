import math
import time
import tracemalloc

import pytest

from tornheim import (
    MINUS_ONE,
    ONE,
    EulerTerm,
    EvalConfig,
    Fixture,
    MTIndex,
    RelationSyntaxError,
    RootOfUnity,
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
from tornheim import verify
from tornheim.verify import MAX_COLOR_PAIRS, MAX_GRID_CASES, format_report_table, grid_cases, parse_fixture_line, reports_to_json

FAST = EvalConfig(oracle_cutoff=1200)


class TestFixtures:
    def test_packaged_table_loads(self):
        fixtures = load_fixtures()
        assert len(fixtures) == 13
        labels = {f.label for f in fixtures}
        assert "R(2,1,2)" in labels and "R(4,1,2)" in labels

    def test_all_pass_and_fast(self):
        t0 = time.perf_counter()
        reports = verify_fixtures()
        elapsed = time.perf_counter() - t0
        assert len(reports) == 13
        assert all(r.passed for r in reports)
        assert elapsed < 1.0

    def test_fixture_weight_homogeneity_enforced(self):
        with pytest.raises(ValueError, match="weight"):
            Fixture("bad", MTIndex(1, 1, 3), (EulerTerm(1, 4, 2, True, True),))

    def test_mutated_fixture_fails_with_diff(self):
        # negative control: coefficient 3 -> 2 in R(2,3,2)
        broken = Fixture(
            "R(2,3,2)",
            MTIndex(2, 3, 2),
            (
                EulerTerm(1, 5, 2, True, True),
                EulerTerm(2, 6, 1, True, True),
                EulerTerm(1, 4, 3, False, True),
                EulerTerm(2, 5, 2, False, True),
                EulerTerm(3, 6, 1, False, True),
            ),
        )
        report = compare_fixture(broken)
        assert not report.passed
        assert "z(-6,-1)" in report.detail
        assert "got 3" in report.detail and "expected 2" in report.detail

    def test_fixtures_need_no_evaluator(self, monkeypatch):
        import tornheim.verify as verify_mod

        def boom(*args, **kwargs):
            raise AssertionError("evaluator must not be touched by symbolic checks")

        monkeypatch.setattr(verify_mod, "eval_li", boom)
        monkeypatch.setattr(verify_mod, "eval_mt_direct", boom)
        monkeypatch.setattr(verify_mod, "eval_decomposition", boom)
        monkeypatch.setattr(verify_mod, "zeta_const", boom)
        assert all(r.passed for r in verify_fixtures())

    def test_external_fixture_file(self, tmp_path):
        path = tmp_path / "fx.txt"
        path.write_text("# comment\nR(1,1,3) = z(-4,-1) + z(4,-1)\n", encoding="utf-8")
        reports = verify_fixtures(str(path))
        assert len(reports) == 1 and reports[0].passed


class TestGrid:
    def test_counts_match_enumeration(self):
        # triples of weight w satisfying the constraints number C(w+2,2)-7
        for w in range(3, 9):
            count = len([i for i in enumerate_indices(w) if i.weight == w])
            assert count == math.comb(w + 2, 2) - 7
        assert len(color_pairs([1, 2])) == 4
        assert len(color_pairs([1, 2, 3, 4])) == 36
        assert len(color_pairs([4])) == 16

    def test_pair_limit_allocates_nothing(self):
        # Order 20000 alone gives 4e8 pairs.  Orders 200 and 199 pass the
        # N^2 check but share only the root 1: 398 roots, 158404 pairs.
        tracemalloc.start()
        try:
            for orders in ([20000], [1, 2, 20000], [200, 199]):
                with pytest.raises(ValueError, match=r"MAX_COLOR_PAIRS = 2\*\*16"):
                    color_pairs(orders)
            with pytest.raises(ValueError, match=r"MAX_COLOR_PAIRS = 2\*\*16"):
                cross_check_grid(3, [20000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pair_limit_counts_distinct_roots(self):
        assert len(color_pairs([256])) == len(color_pairs([2, 128, 256])) == MAX_COLOR_PAIRS
        with pytest.raises(ValueError, match="MAX_COLOR_PAIRS"):
            color_pairs([256, 3])
        for orders in ([1, 2, 3, 4], list(range(1, 25)), [12, 18], [199, 1]):
            roots = {RootOfUnity(k, n) for n in orders for k in range(n)}
            assert len(color_pairs(orders)) == len(roots) ** 2

    def test_grid_cases_count_the_grid_in_closed_form(self):
        for orders in ([1], [1, 2], [1, 2, 3, 4], [5, 7]):
            for w in range(3, 13):
                assert grid_cases(w, orders) == len(enumerate_indices(w)) * len(color_pairs(orders))
        assert grid_cases(8, [1, 2, 3, 4]) == 4068

    def test_grid_limit_is_checked_before_any_index_is_built(self, monkeypatch):
        # Weight 80 alone gives 91325 indices (9.6 MB up front); weight 2
        # has none.  Both are refused before enumerate_indices runs.
        assert grid_cases(71, [1]) <= MAX_GRID_CASES
        with pytest.raises(ValueError, match=r"weight <= 72 and orders \[1\] give 67025 cases"):
            grid_cases(72, [1])
        monkeypatch.setattr(verify, "enumerate_indices", lambda w: pytest.fail(f"enumerate_indices({w}) ran"))
        for w in (72, 80, 10**9):
            with pytest.raises(ValueError, match=r"MAX_GRID_CASES = 2\*\*16"):
                cross_check_grid(w, [1])
        with pytest.raises(ValueError, match="max_weight must be >= 3"):
            cross_check_grid(2, [1, 2])

    def test_color_pairs_deduplicated(self):
        roots = {a for a, _ in color_pairs([2, 4])}
        assert roots == {ONE, MINUS_ONE, RootOfUnity(1, 4), RootOfUnity(3, 4)}

    def test_weight5_orders12(self):
        reports = cross_check_grid(5, [1, 2], FAST)
        assert len(reports) >= 60
        assert all(r.passed for r in reports)

    def test_weight4_orders4_complex(self):
        reports = cross_check_grid(4, [4], FAST)
        assert len(reports) == 11 * 16
        assert all(r.passed for r in reports)
        assert any("1/4" in r.label for r in reports)

    def test_degenerate_indices_included(self):
        reports = cross_check_grid(4, [2], FAST)
        labels = [r.label for r in reports]
        assert any(lbl.startswith("MT(0,") for lbl in labels)
        assert any(",0," in lbl for lbl in labels)

    def test_canonical_order(self):
        reports = cross_check_grid(4, [1, 2], FAST)
        labels = [r.label for r in reports]
        assert labels == sorted(labels, key=labels.index)  # stable reproducible order
        again = [r.label for r in cross_check_grid(4, [1, 2], FAST)]
        assert labels == again

    def test_rejects_small_weight(self):
        with pytest.raises(ValueError):
            cross_check_grid(2, [1], FAST)

    def test_repeated_sweeps_share_report_texts(self):
        first, again = cross_check_grid(3, [1, 2], FAST), cross_check_grid(3, [1, 2], FAST)
        assert all(a.label is b.label and a.lhs is b.lhs and a.rhs is b.rhs for a, b in zip(first, again))

    def test_report_ms_charges_the_whole_sweep(self):
        # the oracle rows shared by an (index, alpha)'s cases are timed
        # inside its first case, so the cases' ms add up to the call's time
        cfg = EvalConfig(tolerance=1e-8, oracle_cutoff=1000)
        t0 = time.perf_counter()
        reports = cross_check_grid(4, [1, 2], cfg)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        assert sum(r.ms for r in reports) >= 0.9 * wall_ms


class TestR212:
    def test_all_four_subchecks(self):
        reports = verify_r212(EvalConfig(oracle_cutoff=6000))
        assert len(reports) == 4
        assert all(r.passed for r in reports)
        gap_report = reports[3]
        assert gap_report.absdiff > 0.19
        assert abs(gap_report.absdiff - 0.1906212614) < 1e-6

    def test_closed_form_check_has_no_floor(self, monkeypatch):
        # Off by 1e-9, far outside the closed form's and the decomposition's
        # combined bounds (about 7e-14): check (iii) must fail.
        import tornheim.verify as verify_mod

        shifted = verify_mod.R212_CLOSED_FORM + " + 1/1000000000"
        monkeypatch.setattr(verify_mod, "R212_CLOSED_FORM", shifted)
        reports = verify_r212(EvalConfig(oracle_cutoff=6000))
        assert [r.passed for r in reports] == [True, True, False, True]
        assert abs(reports[2].absdiff - 1e-9) < 1e-12
        assert reports[2].bound < 1e-12


class TestRelations:
    def test_packaged_relations_pass(self):
        reports = [check_relation(s, FAST) for s in load_relations()]
        assert len(reports) == 2
        assert all(r.passed for r in reports)

    def test_false_relation_fails_with_gap(self):
        spec = parse_relation("1*zeta(5) == MT(2,1,2;-1,1)")
        report = check_relation(spec, FAST)
        assert not report.passed
        assert abs(report.absdiff - 1.2771462307) < 1e-6

    def test_relation_has_no_tolerance_floor(self):
        report = check_relation(parse_relation("1*zeta(3) + 1/1000000000 == Li(2,1;1,1)"), FAST)
        assert not report.passed
        assert abs(report.absdiff - 1e-9) < 1e-12
        assert report.bound < 1e-12

    def test_parse_structures(self):
        spec = parse_relation("107/32*zeta(5) - 5/16*pi^2*zeta(3) == MT(2,1,2;-1,1)")
        assert len(spec.terms) == 2
        from fractions import Fraction

        assert spec.terms[0] == (Fraction(107, 32), (("zeta", 5),))
        assert spec.terms[1] == (Fraction(-5, 16), (("pi", 2), ("zeta", 3)))
        assert spec.target[0] == "mt"
        li = parse_relation("1*zeta(3) == Li(2,1;1,1)")
        assert li.target == ("li", 2, 1, ONE, ONE)

    def test_parse_roots(self):
        spec = parse_relation("1*zeta(3) == Li(2,1;i,1/3)")
        assert spec.target[3] == RootOfUnity(1, 4)
        assert spec.target[4] == RootOfUnity(1, 3)
        # Roots are spelled as RootOfUnity.parse reads them, as on the CLI.
        spec = parse_relation("1*zeta(3) == MT(2,1,2; -i , -1/3)")
        assert spec.target[2:] == (RootOfUnity(3, 4), RootOfUnity(2, 3))

    # (parse, line, position of the fault); relation and fixture lines share
    # one grammar, so their errors carry positions alike.
    SYNTAX_ERRORS = [
        (parse_relation, "zeta(5) + == MT(2,1,2;-1,1)", 10),
        (parse_relation, "1*zeta(5) = MT(2,1,2;-1,1)", 10),
        (parse_relation, "1*zeta(5) == QT(2,1,2;-1,1)", 13),
        (parse_relation, "1*zeta(5) == MT(2,1,2;-1,1) junk", 28),
        (parse_relation, "1*zeta(1) == MT(2,1,2;-1,1)", 2),
        (parse_relation, "1*zeta(5) == MT(1,0,1;-1,1)", 13),
        (parse_relation, "1*zeta(5) == MT(2,1,2;3,1)", 22),
        (parse_relation, "1*zeta(5) == MT(2,1,2;- i,1)", 22),
        (parse_relation, "1*zeta(3) == Li(1,1;1,1)", 13),
        (parse_fixture_line, "R(2,1,2) = z(-3,-2) +", 21),
        (parse_fixture_line, "Q(2,1,2) = z(3,2)", 0),
        (parse_fixture_line, "R(2,1,2) = 2 z(3,2)", 13),
        (parse_fixture_line, "R(2,1,2) z(3,2)", 9),
        (parse_fixture_line, "R(1,0,1) = z(2,-1)", 0),
        (parse_fixture_line, "R(2,1,2) = z(-3,-2) + 0*z(4,-1)", 24),
        (parse_fixture_line, "R(2,1,2) = z(-3,-2) z(4,-1)", 20),
        (parse_fixture_line, "R(2,1,2) = z(-3;-2)", 15),
    ]

    @pytest.mark.parametrize(
        "parse, line, position", SYNTAX_ERRORS, ids=[line for _, line, _ in SYNTAX_ERRORS]
    )
    def test_syntax_errors_carry_position(self, parse, line, position):
        with pytest.raises(RelationSyntaxError) as err:
            parse(line)
        assert "position" in str(err.value)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "line, message, position",
        [
            ("1*zeta(3) == Li(2,1;1,1) & 1", "unexpected character '&'", 25),
            ("1*zeta(3) == Li(2,x;1,1)", "expected integer, found 'x'", 18),
            ("1*zeta(3) == Li(2,", "expected integer, found 'end of line'", 18),
            ("1/0*zeta(3) == Li(2,1;1,1)", "denominator must be nonzero", 2),
        ],
    )
    def test_token_errors_name_what_they_found(self, line, message, position):
        with pytest.raises(RelationSyntaxError, match=f"^{message} ") as err:
            parse_relation(line)
        assert err.value.position == position

    def test_file_errors_name_the_line(self, tmp_path):
        path = tmp_path / "fx.txt"
        path.write_text("# header\n\nR(2,1,2) = 2 z(3,2)\n", encoding="utf-8")
        with pytest.raises(RelationSyntaxError, match=r"^line 3: .*position 13") as err:
            load_fixtures(str(path))
        assert err.value.position == 13
        path.write_text("R(1,1,3) = z(-4,-1)\nR(1,1,3) = z(-3,-1)\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 2: R\(1,1,3\): term z\(-3,-1\) breaks weight 5"):
            load_fixtures(str(path))
        path.write_text("1*zeta(3) == Li(2,1;1,1)\n\n\n1*zeta(5) ==\n", encoding="utf-8")
        with pytest.raises(RelationSyntaxError, match=r"^line 4: .*position 12") as err:
            load_relations(str(path))
        assert err.value.position == 12

    def test_relation_file_roundtrip(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("# c\n2*zeta(2) - 1*pi^2/dummy == Li(2,1;1,1)\n", encoding="utf-8")
        with pytest.raises(RelationSyntaxError):
            load_relations(str(path))
        path.write_text("1*zeta(3) == Li(2,1;1,1)\n", encoding="utf-8")
        specs = load_relations(str(path))
        assert len(specs) == 1


class TestReports:
    def test_json_and_table(self):
        reports = verify_fixtures()
        text = format_report_table(reports)
        assert "R(2,3,2)" in text and "pass" in text
        import json

        records = json.loads(reports_to_json(reports))
        assert len(records) == 13
        assert records[0]["status"] == "pass"
        assert {"label", "status", "lhs", "rhs", "absdiff", "bound", "ms"} <= set(records[0])
