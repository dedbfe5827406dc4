"""Symmetric functions on finite alphabets and the q-analog transfer."""

import random
from fractions import Fraction
from math import comb

import pytest

import qsym.symfunc as symfunc
from qsym.exactpoly import UniPoly, one, zero
from qsym.pqalgebra import BiPoly, TruncSeries
from qsym.qcalc import qfactorial
from qsym.qstirling import carlitz_tables
from qsym.symfunc import (SymAlphabet, SymSeriesBundle,
                          classical_pn_determinants_check,
                          complete_from_elementary, default_alphabets,
                          determinant_vs_convolution_check,
                          elementary_sequence, p_nr_row,
                          pq_transfer_check, qp_nr_determinant,
                          qp_nr_direct, symfunc_suite_report,
                          transfer_theorem_check)

from routes import (elementary, exact_div, monomial_sum_by_permutations,
                    p_nr_monomial, p_nr_series, partitions_with_length,
                    principal, q_derivative)


TABLES = carlitz_tables(6)      # what verify hands the checks, to size 6


def bundle_of(alphabet, order=None):
    """The alphabet's e and h rows, to its own size unless order is given."""
    return SymSeriesBundle.from_alphabet(
        alphabet, alphabet.size if order is None else order)


def test_partitions_with_length():
    assert sorted(partitions_with_length(4, 2)) == [(2, 2), (3, 1)]
    assert list(partitions_with_length(3, 3)) == [(1, 1, 1)]
    assert list(partitions_with_length(2, 3)) == []
    assert list(partitions_with_length(0, 0)) == [()]


def test_elementary_values():
    ones = SymAlphabet.from_values([1, 1, 1])
    assert elementary(ones, 2) == UniPoly((3,))
    assert elementary(ones, 0) == one
    assert elementary(SymAlphabet.from_values([1, 2]), 2) == UniPoly((2,))
    assert elementary(SymAlphabet.from_values([1, 2]), 3) == zero


def test_elementary_on_principal_alphabet():
    # x_i = q^(i-1): e_2 of (1, q, q^2) is q + q^2 + q^3
    a = principal(3)
    assert elementary(a, 2) == UniPoly((0, 1, 1, 1))


def test_complete_from_elementary():
    # one-variable alphabet: h_n is the geometric power
    e = [one, UniPoly((3,))]
    h = complete_from_elementary(e, 4)
    assert h == [one, UniPoly((3,)), UniPoly((9,)), UniPoly((27,)), UniPoly((81,))]
    # the same on ints, to an order past len(e) - 1
    assert complete_from_elementary([1, 3], 4) == [1, 3, 9, 27, 81]

    two_ones = SymAlphabet.from_values([1, 1])
    h2 = complete_from_elementary(elementary_sequence(two_ones, 2), 2)
    assert h2[2] == UniPoly((3,))
    assert h2[1] == elementary(two_ones, 1)


def test_integer_alphabet_values_stay_ints():
    # the primes keep their own ring: no value is wrapped as a polynomial
    a = SymAlphabet.primes(4)
    e = elementary_sequence(a, 6)
    h = complete_from_elementary(e, 6)
    row = p_nr_row(a, 6)
    for values in (a.values, e, h, row):
        assert all(type(v) is int for v in values), values
    # 2, 3, 5, 7: the values the constant polynomials held
    assert e == [1, 17, 101, 247, 210, 0, 0]
    assert h == [1, 17, 188, 1726, 14343, 112371, 848506]
    assert row == [0, 134067, 406557, 268402, 39480, 0, 0]
    assert sum(row) == h[6]
    # a bundle of ints is equal to, and hashes as, one of constant polynomials
    ints = SymSeriesBundle.from_elementary([1, 3])
    polys = SymSeriesBundle.from_elementary([one, UniPoly((3,))])
    assert ints == polys and hash(ints) == hash(polys)


def test_the_suite_needs_no_series_inverse(monkeypatch):
    def refuse(*_args):
        raise AssertionError("an inverse or a lift was called")
    monkeypatch.setattr(TruncSeries, "invert", refuse)
    monkeypatch.setattr(UniPoly, "inverse", refuse)
    monkeypatch.setattr(BiPoly, "from_unipoly", refuse)
    assert symfunc_suite_report(6, TABLES).passed


def test_complete_requires_unit_head():
    with pytest.raises(ValueError):
        complete_from_elementary([UniPoly((2,)), one], 1)


def test_bundle_series_identity():
    # sum e_n (-t)^n times sum h_n t^n must be exactly 1 at every order
    for n in (3, 5, 7):
        b = SymSeriesBundle.from_alphabet(SymAlphabet.primes(n), n)
        alternating = TruncSeries([c if k % 2 == 0 else -c
                                   for k, c in enumerate(b.e)])
        prod = alternating * TruncSeries(b.h)
        assert prod == TruncSeries([one] + [zero] * n)


def test_p_nr_monomial_values():
    assert p_nr_monomial(SymAlphabet.from_values([1, 1, 1]), 2, 2) == UniPoly((3,))
    assert p_nr_monomial(SymAlphabet.from_values([1, 2]), 2, 1) == UniPoly((5,))
    a = SymAlphabet.primes(4)
    assert p_nr_monomial(a, 4, 4) == elementary(a, 4)
    assert p_nr_monomial(a, 0, 0) == one
    assert p_nr_monomial(a, 3, 0) == zero


@pytest.mark.parametrize("make", [SymAlphabet.primes,
                                  lambda size: SymAlphabet.integers(size, start=2),
                                  SymAlphabet.half_odds, principal],
                         ids=["primes", "integers", "half_odds", "principal"])
def test_p_nr_monomial_matches_permutation_route(make):
    # N < n occurs, and r runs one past each end of 0..n
    for size in range(1, 7):
        a = make(size)
        for n in range(-1, 7):
            for r in range(-1, n + 2):
                assert (p_nr_monomial(a, n, r)
                        == monomial_sum_by_permutations(a.values, n, r)), (size, n, r)


def test_qp_nr_direct_small_cases():
    a = SymAlphabet.primes(4)
    b = SymSeriesBundle.from_alphabet(a, 4)
    e1, e2 = b.e[1], b.e[2]
    assert qp_nr_direct(b, 2, 1) == e1 * e1 - UniPoly((1, 1)) * e2
    assert qp_nr_direct(b, 3, 3) == b.e[3]
    assert qp_nr_direct(b, 0, 0) == one
    assert qp_nr_direct(b, 2, 0) == zero


def test_qp_nr_q1_slice_is_classical():
    a = SymAlphabet.primes(7)
    b = SymSeriesBundle.from_alphabet(a, 7)
    for n in range(1, 8):
        for r in range(1, n + 1):
            qp = qp_nr_direct(b, n, r)
            classical = p_nr_monomial(a, n, r)
            assert qp.evaluate(Fraction(1)) == classical


def test_classical_series_route_matches_monomial_route():
    for a in (SymAlphabet.primes(6), SymAlphabet.half_odds(6)):
        b = SymSeriesBundle.from_alphabet(a, 6)
        for n in range(1, 7):
            for r in range(1, n + 1):
                assert p_nr_series(b, n, r) == p_nr_monomial(a, n, r)


def test_determinant_matches_convolution():
    rng = random.Random(5)
    values = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(7)]
    a = SymAlphabet.from_values(values)
    b = SymSeriesBundle.from_alphabet(a, 7)
    for n in range(1, 8):
        for r in range(1, n + 1):
            assert qp_nr_determinant(b, n, r) == qp_nr_direct(b, n, r)
    assert qp_nr_determinant(b, 5, 2) == qp_nr_direct(b, 5, 2)
    assert qp_nr_determinant(b, 3, 3) == b.e[3]


def test_determinant_on_principal_alphabet():
    a = principal(5)
    b = SymSeriesBundle.from_alphabet(a, 5)
    for n in range(1, 6):
        for r in range(1, n + 1):
            assert qp_nr_determinant(b, n, r) == qp_nr_direct(b, n, r)


def test_h_is_the_sum_of_p_over_lengths():
    for n in range(1, 8):
        a = SymAlphabet.integers(n, start=2)
        b = SymSeriesBundle.from_alphabet(a, n)
        acc = zero
        for r in range(1, n + 1):
            acc = acc + p_nr_monomial(a, n, r)
        assert acc == b.h[n]


def test_e_times_h_expands_in_p():
    # e_k h_m = sum_j C(j, k) p_(k+m)^(j), exact on big enough alphabets
    for k in range(0, 4):
        for m in range(0, 4):
            if k + m == 0 or k + m > 7:
                continue
            a = SymAlphabet.primes(max(k + m, 1))
            b = SymSeriesBundle.from_alphabet(a, k + m)
            lhs = b.e[k] * b.h[m]
            rhs = zero
            for j in range(k, k + m + 1):
                rhs = rhs + comb(j, k) * p_nr_monomial(a, k + m, j)
            assert lhs == rhs


@pytest.mark.parametrize("alphabet", [
    SymAlphabet.primes, lambda n: SymAlphabet.integers(n, start=2),
    SymAlphabet.half_odds, principal],
    ids=["primes", "integers-from-2", "half-odds", "principal"])
def test_generating_series_identity_for_qp(alphabet):
    # sum over n of qp_n^(r) (-t)^(n-r) times E(t) equals the r-th
    # q-derivative of E(t) divided by [r]!, order 7
    order = 7
    b = SymSeriesBundle.from_alphabet(alphabet(order), order)
    E = TruncSeries(b.e)
    for r in range(1, order + 1):
        lhs_coeffs = []
        for m in range(order - r + 1):
            c = qp_nr_direct(b, m + r, r)
            lhs_coeffs.append(c if m % 2 == 0 else -c)
        lhs = TruncSeries(lhs_coeffs) * E      # truncates to the lower order
        rhs_scaled = q_derivative(E, r)
        fr = qfactorial(r)
        rhs = TruncSeries([exact_div(c, fr) for c in rhs_scaled.coeffs])
        assert lhs == rhs


def test_transfer_theorem_check_passes():
    for alphabet in (SymAlphabet.primes(1),
                     SymAlphabet.from_values([1, 2, 3, 5, 7]),
                     SymAlphabet.from_values([Fraction(1, 2), 2, 3,
                                              Fraction(7, 3), 11, 13])):
        assert transfer_theorem_check(alphabet, bundle_of(alphabet),
                                      TABLES).passed


def test_transfer_on_principal_alphabet():
    # x_i = q^(i-1) stresses polynomial coefficients through the transfer
    assert transfer_theorem_check(principal(5), bundle_of(principal(5)),
                                  TABLES).passed
    assert classical_pn_determinants_check(bundle_of(principal(4)),
                                           TABLES[0]).passed


def test_transfer_requires_enough_variables():
    two = SymAlphabet.primes(2)
    with pytest.raises(ValueError):
        transfer_theorem_check(two, bundle_of(two, 5), TABLES)


def test_classical_determinants_check():
    assert classical_pn_determinants_check(bundle_of(SymAlphabet.primes(1)),
                                           TABLES[0]).passed
    assert classical_pn_determinants_check(bundle_of(SymAlphabet.primes(2)),
                                           TABLES[0]).passed
    rng = random.Random(17)
    a = SymAlphabet.from_values([Fraction(rng.randint(1, 20), rng.randint(1, 5))
                                 for _ in range(5)])
    assert classical_pn_determinants_check(bundle_of(a), TABLES[0]).passed


def test_pq_transfer_check():
    one_prime = SymAlphabet.primes(1)
    assert pq_transfer_check(one_prime, bundle_of(one_prime), TABLES[0]).passed
    abc = SymAlphabet.from_values([1, 2, 3])
    assert pq_transfer_check(abc, bundle_of(abc), TABLES[0]).passed
    for n in range(1, 5):
        a = SymAlphabet.primes(max(n, 3))
        assert pq_transfer_check(a, bundle_of(a, n), TABLES[0]).passed


def test_determinant_vs_convolution_check_report():
    report = determinant_vs_convolution_check(bundle_of(SymAlphabet.primes(4)),
                                              TABLES[0])
    assert report.passed
    assert {"determinant-vs-convolution"} == {r.identity for r in report.records}


def verdicts(report):
    return [(r.identity, r.status, r.params) for r in report.records]


def test_odd_alphabet_gives_the_half_odds_verdicts(monkeypatch):
    # 3, 5, ..., 2n+1 is the half-odds alphabet times 2, and every identity
    # of the battery at size n is homogeneous of degree n in the alphabet
    for n in range(1, 7):
        assert default_alphabets(n)[2].values == tuple(
            2 * x for x in SymAlphabet.half_odds(n).values)
    odd = [symfunc_suite_report(n, TABLES) for n in range(1, 7)]
    integer_alphabets = default_alphabets
    monkeypatch.setattr(symfunc, "default_alphabets", lambda n: (
        *integer_alphabets(n)[:2], SymAlphabet.half_odds(n)))
    half_odds = [symfunc_suite_report(n, TABLES) for n in range(1, 7)]
    for a, b in zip(odd, half_odds):
        assert a.passed and b.passed
        assert verdicts(a) == verdicts(b)


def test_specialization_bracket_shift():
    # with the deformed-exponential elementary values, p_n^(r) collapses to a
    # scaled r = 1 analog with brackets in base q^r
    from qsym.report import specialization_bracket_shift_check
    assert specialization_bracket_shift_check(7).passed
