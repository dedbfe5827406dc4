"""Brackets, factorials, Gaussian binomials, and the series derivatives."""

import inspect
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from qsym.exactpoly import UniPoly, one, zero
from qsym.pqalgebra import BiPoly, TruncSeries, pq_binomial
from qsym.qcalc import qbinomial, qbracket, qbracket_power_base, qfactorial

from routes import exact_div, exp_elementary, q_derivative


def P(*coeffs):
    return UniPoly(coeffs)


def test_qbracket():
    assert qbracket(0) == zero
    assert qbracket(1) == one
    assert qbracket(3) == P(1, 1, 1)


def test_qfactorial():
    assert qfactorial(0) == one
    assert qfactorial(2) == P(1, 1)
    assert qfactorial(3) == P(1, 2, 2, 1)
    with pytest.raises(ValueError):
        qfactorial(-1)


def test_qfactorial_is_the_bracket_product():
    acc = one
    for n in range(25):
        if n:
            acc = acc * qbracket(n)
        assert qfactorial(n) == acc


def test_qfactorial_needs_no_recursion():
    # [n]! is a loop of bracket_mul window sums, so its depth of calls does
    # not grow with n: it succeeds with 50 frames to spare, far below n
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        poly = qfactorial(150)
    finally:
        sys.setrecursionlimit(limit)
    assert poly.degree() == comb(150, 2)
    assert poly.evaluate(1) == factorial(150)


def test_pq_binomial_needs_no_recursion():
    # [n k] is read off a product, so the depth of calls does not grow with n
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        poly = pq_binomial(1200, 1)
    finally:
        sys.setrecursionlimit(limit)
    # [1200 1] = p^1199 + p^1198 q + ... + q^1199
    assert all(poly.coeff(i, 1199 - i) == 1 for i in range(1200))
    assert poly.at_p_one() == UniPoly((1,) * 1200)


def test_qbinomial_values():
    assert qbinomial(4, 2) == P(1, 1, 2, 1, 1)
    assert qbinomial(7, 0) == one
    assert qbinomial(2, 3) == zero
    assert qbinomial(-1, 0) == zero
    assert qbinomial(3, -1) == zero


def test_qbinomial_pascal_identity():
    for n in range(1, 21):
        for k in range(n + 1):
            assert qbinomial(n, k) == (qbinomial(n - 1, k - 1)
                                       + UniPoly.monomial(k) * qbinomial(n - 1, k))


def test_qbinomial_against_factorial_quotient():
    for n in range(9):
        for k in range(n + 1):
            quotient = exact_div(qfactorial(n), qfactorial(k) * qfactorial(n - k))
            assert qbinomial(n, k) == quotient


def test_qbinomial_at_one_is_binomial():
    for n in range(21):
        for k in range(n + 1):
            assert qbinomial(n, k).evaluate(Fraction(1)) == comb(n, k)


@pytest.mark.parametrize("k", [1, 2])
def test_qbinomial_at_large_n(k):
    n = 100_000
    poly = qbinomial(n, k)
    assert poly.degree() == k * (n - k)
    assert poly.evaluate(1) == comb(n, k)
    assert poly.coeffs == poly.coeffs[::-1]          # palindromic
    assert qbinomial(n, n - k) == poly


def test_bracket_power_base():
    assert qbracket_power_base(2, 3) == P(1, 0, 0, 1)
    assert qbracket_power_base(0, 4) == zero
    assert qbracket_power_base(3, 2) == P(1, 0, 1, 0, 1)


def test_q_derivative_monomial():
    t3 = TruncSeries([zero, zero, zero, one])
    assert q_derivative(t3, 1) == TruncSeries([zero, zero, P(1, 1, 1)])
    assert q_derivative(t3, 2) == TruncSeries([zero, P(1, 1) * P(1, 1, 1)])


def test_q_derivative_of_constant_vanishes():
    c = TruncSeries([P(5), zero, zero])
    assert q_derivative(c, 1) == TruncSeries([zero, zero])


def test_q_derivative_order_errors():
    with pytest.raises(ValueError):
        q_derivative(TruncSeries([one, one]), 3)
    with pytest.raises(ValueError):
        q_derivative(TruncSeries([one, one]), 0)


def test_q_derivative_composes():
    coeffs = [P(i + 1, i) for i in range(7)]
    f = TruncSeries(coeffs)
    assert q_derivative(q_derivative(f, 1), 1) == q_derivative(f, 2)


def test_q_derivative_is_not_the_classical_shift():
    # the deformed exponential satisfies the shift law for the ordinary
    # derivative only; the q-derivative must break it (negative control)
    E = TruncSeries(exp_elementary(6))
    lhs = q_derivative(E, 1)
    rhs = TruncSeries(tuple(
        UniPoly.monomial(comb(m, 2) + m, Fraction(1, factorial(m)))
        for m in range(6)))
    assert lhs != rhs


# -- two-parameter versions ----------------------------------------------------


def test_pq_binomial_values():
    assert pq_binomial(2, 1) == BiPoly.monomial(1, 0) + BiPoly.monomial(0, 1)
    assert pq_binomial(5, 0) == BiPoly.constant(1)
    assert pq_binomial(2, 3).is_zero()


def test_pq_binomial_symmetry():
    for n in range(9):
        for k in range(n + 1):
            assert pq_binomial(n, k) == pq_binomial(n, n - k)


def test_pq_binomial_is_homogenized_qbinomial():
    # [n k]_{p,q} spreads [n k]_q across total degree k(n-k)
    for n in range(9):
        for k in range(n + 1):
            b = pq_binomial(n, k)
            u = qbinomial(n, k)
            total = k * (n - k)
            for j in range(total + 1):
                assert b.coeff(total - j, j) == u.coeff(j)


def test_pq_degenerates_to_q_at_p_one():
    for n in range(16):
        for k in range(n + 1):
            assert pq_binomial(n, k).at_p_one() == qbinomial(n, k)

