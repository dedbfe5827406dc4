"""The J triangle, its explicit formulas, reciprocals, and recurrences."""

import csv
import io
from fractions import Fraction
from math import comb, factorial

import pytest

from qsym.exactpoly import InexactDivisionError, UniPoly, one, q, zero
from qsym.qcalc import qbracket
from qsym.jpoly import (JTable, build_jtable, composition_sum, exp_rows,
                        j_entry, j_explicit_composition, j_from_scaled_p,
                        reciprocal, scaled_p_nr, table_chunks)
from qsym.report import (cross_formula_check, extended_recurrence_check,
                         kung_yan_check, reciprocal_composition_forms,
                         reciprocal_explicit_check,
                         reciprocal_recurrence_check)
from routes import (COMPOSITION_EXPONENTS, compositions, dense_composition_sum,
                    dense_jtable, exp_bundle, multinomial, p_nr_determinant,
                    p_nr_series)


def P(*coeffs):
    return UniPoly(coeffs)


# the published five-row triangle, frozen
GOLDEN = {
    (1, 1): P(1),
    (2, 1): P(1), (2, 2): P(1),
    (3, 1): P(2, 1), (3, 2): P(1, 1), (3, 3): P(1),
    (4, 1): P(6, 6, 3, 1), (4, 2): P(2, 3, 2, 1), (4, 3): P(1, 1, 1),
    (4, 4): P(1),
    (5, 1): P(24, 36, 30, 20, 10, 4, 1), (5, 2): P(6, 12, 12, 10, 6, 3, 1),
    (5, 3): P(2, 3, 4, 3, 2, 1), (5, 4): P(1, 1, 1, 1), (5, 5): P(1),
}

J62 = P(24, 60, 78, 80, 68, 52, 35, 20, 10, 4, 1)


def test_table_matches_golden_rows():
    table = build_jtable(5)
    for (n, r), expected in GOLDEN.items():
        assert table.entry(n, r) == expected, (n, r)


def test_table_matches_the_dense_recurrence():
    reference = dense_jtable(14)
    table = build_jtable(14)
    for (n, r), expected in reference.items():
        assert table.entry(n, r) == expected, (n, r)


def test_worked_sixth_row_entry():
    assert build_jtable(6).entry(6, 2) == J62


def test_table_conventions():
    table = build_jtable(4)
    assert table.entry(2, 3) == zero          # below the diagonal
    assert table.entry(0, 0) == one
    assert table.entry(3, 0) == zero
    with pytest.raises(ValueError):
        table.entry(9, 1)
    with pytest.raises(ValueError):
        build_jtable(0)


def test_shape_invariants():
    table = build_jtable(10)
    for n in range(1, 11):
        for r in range(1, n + 1):
            p = table.entry(n, r)
            assert p.is_monic()
            assert p.degree() == comb(n - 1, 2) - comb(r - 1, 2)
            assert p.constant_term() == factorial(n - r)
            assert all(c.denominator == 1 and c > 0 for c in p.coeffs)


def test_compositions():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert list(compositions(0)) == [()]
    assert len(list(compositions(8))) == 128
    assert multinomial(4, (2, 1, 1)) == 12
    assert COMPOSITION_EXPONENTS["j"](5, 1, (3, 2)) == 3 + 1


def test_composition_walk_matches_the_dense_reference():
    # one walk, three exponent rules, against every composition's chain
    # rebuilt with dense powers
    for n in range(2, 13):
        for r in range(1, n):
            m = n - r
            walked = {"j": j_explicit_composition(n, r)}
            walked["reciprocal"], walked["rooted-reciprocal"] = \
                reciprocal_composition_forms(m, r)
            for name, exponent in COMPOSITION_EXPONENTS.items():
                expected = dense_composition_sum(
                    m, r, lambda u: exponent(m, r, u))
                assert walked[name] == expected, (name, n, r)


def test_composition_walk_at_the_empty_composition():
    # m = 0 is the one empty composition: count 1, chain 1, exponent 0
    assert composition_sum(0, 3, lambda e, a, last, done: e + 1) == [1]
    assert composition_sum(1, 2, lambda e, a, last, done: e + 5) == [0] * 5 + [1, 1]


def test_explicit_composition_values():
    assert j_explicit_composition(3, 1) == P(2, 1)
    assert j_explicit_composition(4, 3) == P(1, 1, 1)
    assert j_explicit_composition(6, 2) == J62
    with pytest.raises(ValueError):
        j_explicit_composition(3, 3)


def j_from_specialization(b, n, r):
    return j_from_scaled_p(scaled_p_nr(b, n, r), n, r)


def test_four_routes_agree():
    table = build_jtable(7)
    b = exp_rows(7)
    for n in range(1, 8):
        for r in range(1, n + 1):
            expected = table.entry(n, r)
            if n > r:
                assert j_explicit_composition(n, r) == expected
            assert j_from_specialization(b, n, r) == expected


def test_from_specialization_small():
    # rows of the entry's own order and of a larger order agree
    for order in (6, 9):
        b = exp_rows(order)
        assert j_from_specialization(b, 3, 3) == one
        assert j_from_specialization(b, 4, 2) == GOLDEN[(4, 2)]
        assert j_from_specialization(b, 6, 2) == J62


def test_exp_rows_are_the_scaled_complete_values():
    # b_k = k! h_k, h from inverting the Fraction series of e_k = q^C(k,2)/k!
    bundle = exp_bundle(9)
    b = exp_rows(9)
    assert [UniPoly(row) for row in b[:4]] == [one, one, P(2, -1), P(6, -6, 0, 1)]
    for k in range(10):
        assert bundle.h[k] * factorial(k) == UniPoly(b[k]), k
        assert all(type(c) is int for c in b[k])
    assert exp_rows(5) == b[:6]


def test_scaled_p_is_the_scaled_convolution():
    bundle = exp_bundle(9)
    b = exp_rows(9)
    for n in range(1, 10):
        for r in range(1, n + 1):
            assert (p_nr_series(bundle, n, r) * factorial(n)
                    == UniPoly(scaled_p_nr(b, n, r))), (n, r)


def test_specialization_fails_at_the_moved_unit_only():
    # one unit moved between two coefficients of J(6, 3) keeps its value
    # at q = 1, yet the specialization route flags exactly that entry
    table = build_jtable(7)
    rows = {n: {r: table.entry(n, r) for r in range(1, n + 1)}
            for n in range(1, 8)}
    c = list(rows[6][3].coeffs)
    c[1], c[2] = c[1] + 1, c[2] - 1
    rows[6][3] = UniPoly(c)
    assert rows[6][3].evaluate(1) == table.entry(6, 3).evaluate(1)
    report = cross_formula_check(JTable(7, rows))
    failed = [(rec.params["n"], rec.params["r"]) for rec in report.records
              if rec.identity == "table-vs-specialization"
              and rec.status == "fail"]
    assert failed == [(6, 3)]


def test_an_entry_alone_is_the_table_entry():
    # j_entry takes the specialization and builds no table
    table = build_jtable(30)
    for n, r in [(30, 1), (30, 13), (30, 30), (1, 1)]:
        assert j_entry(n, r) == table.entry(n, r), (n, r)
    for n, r in [(3, 4), (3, 0)]:
        with pytest.raises(ValueError):
            j_entry(n, r)


def test_inexact_specialization_division_raises():
    # J(3, 1) = 2 + q, so 3! p_3^(1) = C(3,1) (1-q)^2 (2 + q)
    good = (3 * (one - q) ** 2 * P(2, 1)).coeffs
    assert j_from_scaled_p(list(good), 3, 1) == P(2, 1)
    not_by_binomial = [good[0] + 1] + list(good[1:])       # 7 is not 0 mod 3
    not_by_one_minus_q = [good[0] + 3] + list(good[1:])    # value 3 at q = 1
    for row in (not_by_binomial, not_by_one_minus_q):
        with pytest.raises(InexactDivisionError):
            j_from_scaled_p(row, 3, 1)
    # a term below q^C(r,2) is not divisible by the shift
    with pytest.raises(InexactDivisionError):
        j_from_scaled_p([1, 0, 0, 1], 3, 3)
    assert j_from_scaled_p([0, 0, 0, 1], 3, 3) == one
    with pytest.raises(ValueError):
        j_from_scaled_p([1], 2, 3)


def test_specialized_bundle_determinant_route():
    # on the exponential-specialization bundle the determinant and the
    # convolution compute the same classical values
    bundle = exp_bundle(6)
    for n in range(1, 7):
        for r in range(1, n + 1):
            assert p_nr_determinant(bundle, n, r) == p_nr_series(bundle, n, r)


def test_first_column_recurrence():
    # J(n+1, 1) = sum_j C(n, j) q^C(j,2) J(n, j)
    table = build_jtable(8)
    for n in range(1, 8):
        acc = zero
        for j in range(1, n + 1):
            acc = acc + UniPoly.monomial(comb(j, 2), comb(n, j)) * table.entry(n, j)
        assert table.entry(n + 1, 1) == acc


def test_reciprocal_values():
    table = build_jtable(5)
    assert reciprocal(3, 1, table) == P(1, 2)
    assert reciprocal(4, 4, table) == one
    assert reciprocal(4, 2, table) == P(1, 2, 3, 2)


def test_reciprocal_is_an_involution():
    table = build_jtable(7)
    for n in range(1, 8):
        for r in range(1, n + 1):
            d = comb(n - 1, 2) - comb(r - 1, 2)
            assert reciprocal(n, r, table).reversed_to(d) == table.entry(n, r)


def test_next_to_diagonal_is_the_bracket():
    # J(r+1, r) = [r], and its reciprocal is the same palindrome
    table = build_jtable(7)
    for r in range(1, 7):
        assert table.entry(r + 1, r) == qbracket(r)
        assert reciprocal(r + 1, r, table) == qbracket(r)


def test_reciprocal_row_recurrence_worked_instance():
    # row form at (6, 2), written out longhand against row 4
    table = build_jtable(6)
    jb = lambda n, r: reciprocal(n, r, table)
    lhs = jb(6, 2)
    b = P(1, 1)
    rhs = (4 * b * UniPoly.monomial(6) * jb(4, 1)
           + 6 * b ** 2 * UniPoly.monomial(4) * jb(4, 2)
           + 4 * b ** 3 * UniPoly.monomial(2) * jb(4, 3)
           + b ** 4 * jb(4, 4))
    assert lhs == rhs


def test_column_recurrence_worked_instance():
    # column form at (6, 2), longhand down column 2
    table = build_jtable(6)
    jb = lambda n, r: reciprocal(n, r, table)
    omq = one - q
    lhs = omq ** 4 * jb(6, 2)
    rhs = (one - UniPoly.monomial(8) * jb(2, 2)
           - 4 * UniPoly.monomial(9) * omq * jb(3, 2)
           - 6 * UniPoly.monomial(8) * omq ** 2 * jb(4, 2)
           - 4 * UniPoly.monomial(5) * omq ** 3 * jb(5, 2))
    assert lhs == rhs


def test_recurrence_checks_pass():
    assert reciprocal_recurrence_check(build_jtable(3)).passed
    table = build_jtable(9)
    assert reciprocal_recurrence_check(table).passed
    assert kung_yan_check(table).passed


def test_column_recurrence_first_step():
    # n = r + 1 reduces to (1-q) Jbar(r+1, r) = 1 - q^r Jbar(r, r)
    table = build_jtable(6)
    for r in range(1, 6):
        lhs = (one - q) * reciprocal(r + 1, r, table)
        rhs = one - UniPoly.monomial(r)
        assert lhs == rhs


def test_q1_closed_forms():
    # J(n, r)(1) counts the forests: r n^(n-r-1), and 1 at r = n
    table = build_jtable(5)
    assert table.entry(5, 1).evaluate(1) == sum(GOLDEN[(5, 1)].coeffs) == 125
    assert table.entry(4, 2).evaluate(1) == 8
    assert table.entry(5, 5).evaluate(1) == table.entry(1, 1).evaluate(1) == 1


def test_table_at_one_matches_closed_form():
    table = build_jtable(12)
    for n in range(1, 13):
        for r in range(1, n + 1):
            count = 1 if r == n else r * n ** (n - r - 1)
            assert table.entry(n, r).evaluate(Fraction(1)) == count


def test_exponent_bookkeeping_identity():
    for m in range(9):
        for r in range(9):
            assert comb(m + r, 2) == comb(m, 2) + comb(r, 2) + m * r


def test_extended_recurrence_skips_the_conventions():
    report = extended_recurrence_check(build_jtable(12))
    assert report.passed
    assert len(report.records) == 12 * 11 // 2       # 1 <= r < n <= 12


def test_each_j_record_checks_its_own_entry():
    # a table with one entry off by one: every record names an entry of the
    # triangle, and every record naming the wrong entry fails
    table = build_jtable(6)
    for n in range(1, 7):
        for r in range(1, n + 1):
            rows = [[table.entry(m, j) for j in range(m + 1)] for m in range(7)]
            rows[n][r] = rows[n][r] + one
            wrong = JTable(6, rows)
            for check in (cross_formula_check, reciprocal_recurrence_check,
                          kung_yan_check, extended_recurrence_check,
                          reciprocal_explicit_check):
                for rec in check(wrong).records:
                    at = (rec.params["n"], rec.params["r"])
                    assert 1 <= at[1] <= at[0], (check.__name__, rec.identity, at)
                    assert at != (n, r) or rec.status == "fail", (
                        check.__name__, rec.identity, at)


def csv_rows(n_max, use_reciprocal=False):
    """The (n, r, degree, coeffs) rows of table_chunks' csv text."""
    text = "".join(table_chunks(n_max, "csv", use_reciprocal))
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["n", "r", "degree", "coeffs"]
    return [(int(n), int(r), int(d), c) for n, r, d, c in rows]


def test_csv_rows():
    rows = csv_rows(6)
    assert (6, 2, 10, "[24,60,78,80,68,52,35,20,10,4,1]") in rows
    assert rows[0] == (1, 1, 0, "[1]")
    rec_rows = csv_rows(6, use_reciprocal=True)
    assert (3, 1, 1, "[1,2]") in rec_rows


def test_latex_layout():
    tex = "".join(table_chunks(3, "latex", False))
    assert tex.startswith(r"\begin{tabular}")
    assert "$2+q$" in tex and "$1+q$" in tex
    assert tex.count(r"\hline") == 5
