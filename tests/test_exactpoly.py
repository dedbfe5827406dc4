"""Exact polynomial, series, and determinant substrate."""

import json
import random
from fractions import Fraction

import pytest

from qsym.exactpoly import (BiPoly, InexactDivisionError, TruncSeries,
                            UniPoly, det_cofactor, det_hessenberg,
                            divmod_poly, exact_div, json_coeff_list, one,
                            parse_poly_text, poly_text, q, zero)


def P(*coeffs):
    return UniPoly(coeffs)


# -- construction and normalization ----------------------------------------

def test_trailing_zeros_stripped():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0, 0).coeffs == ()


def test_zero_degree_is_none_sentinel():
    assert zero.degree() is None
    assert P(5).degree() == 0
    with pytest.raises(TypeError):
        zero.degree() >= 0  # degree of zero must not slip into comparisons


def test_coefficients_are_reduced_rationals():
    p = UniPoly((Fraction(2, 4), Fraction(-6, 3)))
    assert p.coeffs == (Fraction(1, 2), -2)
    assert all(c.denominator > 0 for c in p.coeffs)


def _types(coeffs):
    return [type(c) for c in coeffs]


def test_integral_coefficients_are_stored_as_int():
    assert type(UniPoly((Fraction(4, 2),)).coeffs[0]) is int
    assert _types(UniPoly((Fraction(2, 4), Fraction(-6, 3), 5)).coeffs) == \
        [Fraction, int, int]
    assert _types(BiPoly([[Fraction(3), Fraction(1, 3)]]).rows[0]) == [int, Fraction]
    # results of arithmetic and parsing are normalized the same way
    half = P(Fraction(1, 2), Fraction(3, 2))
    assert _types((half * 2).coeffs) == [int, int]
    assert _types((half + half).coeffs) == [int, int]
    assert _types((half * half).coeffs) == [Fraction, Fraction, Fraction]
    assert _types(P(Fraction(1, 2)).inverse().coeffs) == [int]
    assert _types(UniPoly.from_json('{"var":"q","coeffs":["3","3/2"]}').coeffs) == \
        [int, Fraction]
    assert _types(parse_poly_text("4+2q^2").coeffs) == [int, int, int]
    assert _types(BiPoly.from_json_dict({"vars": ["p", "q"],
                                         "coeffs": [["2", "1/2"]]}).rows[0]) == \
        [int, Fraction]


def test_floats_rejected():
    with pytest.raises(TypeError):
        UniPoly((0.5,))
    with pytest.raises(TypeError):
        BiPoly(((0.5,),))


# -- arithmetic -------------------------------------------------------------

def test_mul_hand_example():
    assert P(1, 1) * P(1, 1, 1) == P(1, 2, 2, 1)


def test_add_zero_identity():
    p = P(3, 0, 7)
    assert p + zero == p
    assert zero + p == p


def test_sub_cancellation():
    assert (P(2, 1) - P(2, 1)).is_zero()


def test_scalar_ops():
    assert 2 * P(1, 1) == P(2, 2)
    assert P(1, 1) + 1 == P(2, 1)
    assert 1 - P(0, 1) == P(1, -1)
    assert P(1, 1) * Fraction(1, 2) == P(Fraction(1, 2), Fraction(1, 2))


def test_pow():
    assert P(1, 1) ** 0 == one
    assert P(1, 1) ** 3 == P(1, 3, 3, 1)
    assert zero ** 0 == one


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240817)

    def rand_poly():
        return UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_evaluate():
    p = P(1, 2, 3)
    assert p.evaluate(Fraction(1)) == 6
    assert p.evaluate(Fraction(-1)) == 2
    assert p.evaluate(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)


# -- substitution and reversal ----------------------------------------------

def test_compose_power():
    assert P(1, 1).compose_power(3) == P(1, 0, 0, 1)
    assert P(7).compose_power(5) == P(7)
    assert P(1, 1, 1).compose_power(2) == P(1, 0, 1, 0, 1)
    assert zero.compose_power(2) == zero


def test_reversed_to():
    assert P(2, 1).reversed_to(1) == P(1, 2)
    assert one.reversed_to(0) == one
    assert P(2, 3, 2, 1).reversed_to(3) == P(1, 2, 3, 2)
    # window wider than the degree shifts the reversal up
    assert P(1, 1).reversed_to(2) == P(0, 1, 1)


def test_reversed_to_rejects_small_window():
    with pytest.raises(ValueError):
        P(1, 2, 3).reversed_to(1)


def test_reversal_is_an_involution():
    rng = random.Random(7)
    for _ in range(100):
        p = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
        d = (p.degree() or 0) + rng.randint(0, 3)
        assert p.reversed_to(d).reversed_to(d) == p


# -- division ---------------------------------------------------------------

def test_divmod_and_exact_div():
    a = P(1, 1) * P(1, 0, 2) + P(3)
    quot, rem = divmod_poly(a, P(1, 1))
    assert quot == P(1, 0, 2) and rem == P(3)
    assert exact_div(P(1, 1) * P(1, 0, 2), P(1, 1)) == P(1, 0, 2)


def test_exact_div_raises_on_remainder():
    with pytest.raises(InexactDivisionError):
        exact_div(P(1, 1, 1), P(1, 1))


def test_division_of_int_polys_is_exact_rational():
    quot, rem = divmod_poly(P(1), P(2))
    assert quot.coeffs == (Fraction(1, 2),) and type(quot.coeffs[0]) is Fraction
    assert rem == zero
    quot, rem = divmod_poly(P(1, 2, 3), P(1, 2))        # non-monic divisor
    assert quot == P(Fraction(1, 4), Fraction(3, 2)) and rem == P(Fraction(3, 4))
    assert quot * P(1, 2) + rem == P(1, 2, 3)
    assert exact_div(P(3, 9, 6), P(3)) == P(1, 3, 2)
    assert exact_div(P(1, 3, 2), P(2, 2)) == P(Fraction(1, 2), 1)
    for poly in (quot, rem, exact_div(P(1, 3, 2), P(2, 2))):
        assert all(isinstance(c, (int, Fraction)) for c in poly.coeffs)


# -- determinants ------------------------------------------------------------

def hessenberg(first_col, band, superdiag):
    """The full matrix det_hessenberg reads from its three sequences."""
    n = len(first_col)
    return [[first_col[i] if j == 0 else band[i - j + 1] if j <= i
             else superdiag[i] if j == i + 1 else 0 for j in range(n)]
            for i in range(n)]


def test_det_trivial_cases():
    assert det_hessenberg([P(5, 2)], [], []) == P(5, 2)
    eye = ([one, zero, zero, zero], [zero, one, zero, zero], [zero] * 4)
    assert hessenberg(*eye) == [[one if i == j else zero for j in range(4)]
                                for i in range(4)]
    assert det_hessenberg(*eye) == one
    m = ([P(1, 1), q], [zero, one], [one, zero])
    assert hessenberg(*m) == [[P(1, 1), one], [q, one]]
    assert det_hessenberg(*m) == one


def test_det_zero_column():
    m = ([zero, zero], [zero, P(1, 1)], [one, zero])
    assert hessenberg(*m) == [[zero, one], [zero, P(1, 1)]]
    assert det_hessenberg(*m) == zero


def test_det_pivoting():
    # Elimination would need a row swap here; the recurrence needs none.
    m = ([zero, one], [zero, zero], [one, zero])
    assert hessenberg(*m) == [[zero, one], [one, zero]]
    assert det_hessenberg(*m) == -one


def test_det_empty_matrix_rejected():
    with pytest.raises(ValueError):
        det_hessenberg([], [], [])


def test_det_matches_cofactor_on_random_matrices():
    rng = random.Random(99)

    def uni():
        return UniPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(rng.randint(0, 3))])

    def bi():
        return BiPoly([[rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
                       for _ in range(rng.randint(0, 2))])

    for entry, sizes in ((uni, range(1, 7)), (bi, range(1, 5))):
        for size in sizes:
            for _ in range(25):
                m = [[entry() for _ in range(size)] for _ in range(3)]
                assert det_hessenberg(*m) == det_cofactor(hessenberg(*m))


# -- truncated series ---------------------------------------------------------

def test_series_invert_geometric():
    s = TruncSeries([one, -one, zero, zero])  # 1 - t at order 3
    assert s.invert() == TruncSeries([one, one, one, one])


def test_series_invert_is_inverse():
    rng = random.Random(3)
    for _ in range(25):
        coeffs = [one] + [UniPoly([rng.randint(-2, 2) for _ in range(3)])
                          for _ in range(4)]
        s = TruncSeries(coeffs)
        prod = s * s.invert()
        assert prod == TruncSeries([one] + [zero] * 4)


def test_series_invert_requires_unit():
    with pytest.raises(ValueError):
        TruncSeries([zero, one]).invert()
    with pytest.raises(ValueError):
        TruncSeries([P(1, 1), one]).invert()  # nonconstant leading term


def test_series_mul_by_zero():
    s = TruncSeries([P(1, 2), P(3), P(0, 1)])
    z = TruncSeries([zero, zero, zero])
    assert s * z == z


def test_series_order_mismatch_truncates_to_smaller():
    a = TruncSeries([one, one, one, one])
    b = TruncSeries([one, one])
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_series_derivative():
    s = TruncSeries([P(1), P(0), P(5)])
    assert s.derivative() == TruncSeries([P(0), P(10)])


# -- rendering and JSON --------------------------------------------------------

def test_poly_text():
    assert poly_text(P(2, 3, 2, 1)) == "2+3q+2q^2+q^3"
    assert poly_text(P(0, 1)) == "q"
    assert poly_text(P(-2, -1)) == "-2-q"
    assert poly_text(zero) == "0"
    assert poly_text(P(1, 0, -1)) == "1-q^2"
    assert poly_text(P(0, 0, 1), superscripts=True) == "q²"
    assert poly_text(P(Fraction(3, 2))) == "3/2"


def test_parse_poly_text_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        assert parse_poly_text(poly_text(p)) == p


def test_output_does_not_depend_on_coefficient_type():
    ints = [0, 3, -1, 12345678901234567890, 0, 1]
    from_ints = UniPoly(ints)
    from_fractions = UniPoly(Fraction(c) for c in ints)
    assert from_ints == from_fractions
    assert hash(from_ints) == hash(from_fractions)
    for render in (UniPoly.to_json, json_coeff_list, poly_text, str):
        assert render(from_ints) == render(from_fractions)


def test_json_form():
    p = UniPoly((3, Fraction(3, 2)))
    d = p.to_json_dict()
    assert d == {"var": "q", "coeffs": ["3", "3/2"]}
    assert UniPoly.from_json(p.to_json()) == p
    assert json.loads(p.to_json())["var"] == "q"
    assert UniPoly.from_json(zero.to_json()) == zero


# -- bivariate ------------------------------------------------------------------

def test_bipoly_normalization_minimal_rectangle():
    b = BiPoly([[1, 0, 0], [0, 0, 0]])
    assert b.rows == ((Fraction(1),),)
    assert BiPoly([[0, 0], [0, 0]]).is_zero()


def test_bipoly_arith():
    p1 = BiPoly.monomial(1, 0)        # p
    q1 = BiPoly.monomial(0, 1)        # q
    assert (p1 + q1).rows == ((0, 1), (1, 0))
    assert (p1 * q1).coeff(1, 1) == 1
    assert (p1 + q1) ** 2 == p1 * p1 + 2 * p1 * q1 + q1 * q1
    assert (p1 - p1).is_zero()


def test_bipoly_p_one_slice():
    b = BiPoly([[0, 1], [1, 0]])      # q + p
    assert b.at_p_one() == P(1, 1)


def test_bipoly_json():
    b = BiPoly([[1, 2], [0, Fraction(1, 3)]])
    d = b.to_json_dict()
    assert d["vars"] == ["p", "q"]
    assert d["coeffs"] == [["1", "2"], ["0", "1/3"]]
    assert BiPoly.from_json_dict(d) == b
