"""Acceptance battery: every criterion exact, at its stated size and budget.

Run with `pytest -s tests/test_acceptance.py -v` to see one line per
criterion; each line carries the elapsed time against the budget.
"""

import io
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

from qsym import cli
from qsym.exactpoly import UniPoly
from qsym.jpoly import (build_jtable, exp_rows, j_explicit_composition,
                        j_from_scaled_p, reciprocal, scaled_p_nr)
from qsym.oracles import (DecreasingRanking, IncreasingRanking, SeededRanking,
                          forest_enumerator_polys, parking_candidates,
                          parking_enumerator_poly)
from qsym.qstirling import carlitz_tables
from qsym.report import (kung_yan_check, reciprocal_recurrence_check,
                         specialization_bracket_shift_check,
                         verify_carlitz_identities, verify_conjugated_inverse,
                         verify_triangle_inverse)
from qsym.symfunc import (SymAlphabet, SymSeriesBundle,
                          classical_pn_determinants_check, default_alphabets,
                          determinant_vs_convolution_check, pq_transfer_check,
                          transfer_theorem_check)

from polytext import parse_poly_text

CAP = 10_000_000


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        if status == "PASS" and elapsed >= budget_seconds:
            status = "FAIL (over budget)"
        print(f"[acceptance] criterion {number}: {status} "
              f"({elapsed:.2f}s / {budget_seconds:.0f}s) {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its budget"


TABLE1_TEXT = {
    (1, 1): "1",
    (2, 1): "1", (2, 2): "1",
    (3, 1): "2+q", (3, 2): "1+q", (3, 3): "1",
    (4, 1): "6+6q+3q^2+q^3", (4, 2): "2+3q+2q^2+q^3", (4, 3): "1+q+q^2",
    (4, 4): "1",
    (5, 1): "24+36q+30q^2+20q^3+10q^4+4q^5+q^6",
    (5, 2): "6+12q+12q^2+10q^3+6q^4+3q^5+q^6",
    (5, 3): "2+3q+4q^2+3q^3+2q^4+q^5",
    (5, 4): "1+q+q^2+q^3", (5, 5): "1",
}

J62 = UniPoly((24, 60, 78, 80, 68, 52, 35, 20, 10, 4, 1))


def test_criterion_01_golden_tables():
    with criterion(1, "published triangle via the CLI, plus the worked "
                      "sixth-row entry", 1.0):
        out = io.StringIO()
        assert cli.main(["jtable", "--n-max", "5"], out=out) == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 5
        seen = {}
        for n, line in enumerate(lines, start=1):
            body = line.split(": ", 1)[1]
            for r, cell in enumerate(body.split(" | "), start=1):
                seen[(n, r)] = cell
        assert seen == TABLE1_TEXT
        for key, text in seen.items():
            assert parse_poly_text(text) == parse_poly_text(TABLE1_TEXT[key])
        assert build_jtable(6).entry(6, 2) == J62


def test_criterion_02_cross_formula_equivalence():
    with criterion(2, "recurrence, composition sum (n > r) and the "
                      "specialization route agree for n <= 9", 10.0):
        table = build_jtable(9)
        b = exp_rows(9)
        for n in range(1, 10):
            for r in range(1, n + 1):
                expected = table.entry(n, r)
                if n > r:
                    assert j_explicit_composition(n, r) == expected, (n, r)
                assert (j_from_scaled_p(scaled_p_nr(b, n, r), n, r)
                        == expected), (n, r)


def test_criterion_03_forest_oracle():
    with criterion(3, "parent-map enumerator with the level statistic "
                      "matches the table for five rankings, n <= 8", 300.0):
        table = build_jtable(8)
        rankings = [IncreasingRanking(), DecreasingRanking(),
                    SeededRanking(42), SeededRanking(43), SeededRanking(44)]
        for n in range(2, 9):
            for r in range(1, n):
                if n ** (n - r) > CAP:
                    continue
                roots = tuple(((r + i + n - 2) % n) + 1 for i in range(r))
                expected = table.entry(n, r)
                polys = forest_enumerator_polys(n, roots, rankings,
                                                "standard", CAP)
                for poly in polys:
                    assert poly == expected, (n, r)
                assert polys[0].evaluate(Fraction(1)) == r * n ** (n - r - 1)


def test_criterion_04_parking_oracle():
    with criterion(4, "parking sum enumerator equals the reciprocal "
                      "polynomials for m + r <= 8", 120.0):
        table = build_jtable(8)
        for n in range(1, 9):
            for r in range(1, n + 1):
                m = n - r
                if parking_candidates(m, r) > CAP:
                    continue
                assert parking_enumerator_poly(m, r, CAP) == \
                    reciprocal(n, r, table), (m, r)


def test_criterion_05_reciprocal_recurrences():
    with criterion(5, "row and column recurrences of the reciprocals on the "
                      "full table, n <= 9", 5.0):
        table = build_jtable(9)
        row = reciprocal_recurrence_check(table)
        col = kung_yan_check(table)
        assert row.passed and col.passed
        worked = [r for r in row.records
                  if r.params.get("n") == 6 and r.params.get("r") == 2]
        assert worked and all(r.status == "pass" for r in worked)
        worked = [r for r in col.records
                  if r.params.get("n") == 6 and r.params.get("r") == 2]
        assert worked and all(r.status == "pass" for r in worked)


def test_criterion_06_q_stirling_suite():
    with criterion(6, "Carlitz identities and triangle inverses, n <= 12; "
                      "scaled conjugates, n <= 8", 10.0):
        tables = carlitz_tables(12)
        assert verify_carlitz_identities(12, tables).passed
        assert verify_triangle_inverse(12, tables).passed
        assert verify_conjugated_inverse(8, tables).passed


def test_criterion_07_transfer_theorems():
    with criterion(7, "q-Stirling transfer on three rational alphabets with "
                      "N = n <= 6, determinant = convolution, and the "
                      "classical determinant identities for n <= 5", 30.0):
        tables = carlitz_tables(6)
        for n in range(1, 7):
            for alphabet in default_alphabets(n):
                bundle = SymSeriesBundle.from_alphabet(alphabet, n)
                assert transfer_theorem_check(alphabet, bundle, tables).passed
                assert determinant_vs_convolution_check(bundle,
                                                        tables[0]).passed
                if n <= 5:
                    assert classical_pn_determinants_check(bundle,
                                                           tables[0]).passed


def test_criterion_08_specialization_shift_suite():
    with criterion(8, "bracket-shift collapse of the specialization for "
                      "n <= 7 and the derivative shift law to order 8", 5.0):
        assert specialization_bracket_shift_check(7).passed
        for m in range(9):
            for r in range(9):
                assert comb(m + r, 2) == comb(m, 2) + comb(r, 2) + m * r


def test_criterion_09_pq_extension():
    with criterion(9, "two-parameter double sum equals the determinant on a "
                      "3-variable alphabet and collapses at p = 1, n <= 4",
                   10.0):
        alphabet = SymAlphabet.from_values([1, 2, 3])
        binom = carlitz_tables(4)[0]
        for n in range(1, 5):
            bundle = SymSeriesBundle.from_alphabet(alphabet, n)
            assert pq_transfer_check(alphabet, bundle, binom).passed


def test_criterion_10_shape_properties():
    with criterion(10, "monic, strictly positive integer coefficients, "
                       "degree and constant term, n <= 12", 5.0):
        table = build_jtable(12)
        for n in range(1, 13):
            for r in range(1, n + 1):
                p = table.entry(n, r)
                assert p.is_monic()
                assert p.degree() == comb(n - 1, 2) - comb(r - 1, 2)
                assert p.constant_term() == factorial(n - r)
                assert all(c.denominator == 1 and c > 0 for c in p.coeffs)
