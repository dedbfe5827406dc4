"""q-Stirling triangles and the Carlitz transfer identities."""

from fractions import Fraction

import pytest

from qsym.exactpoly import UniPoly, one, zero
from qsym.qcalc import qbracket
from qsym.qstirling import (carlitz_tables, qstirling1, qstirling1_triangle,
                            qstirling2, qstirling2_triangle)
from qsym.report import (verify_carlitz_identities, verify_conjugated_inverse,
                         verify_triangle_inverse)
from qsym.symfunc import symfunc_suite_report
from routes import substituted_first_kind


def P(*coeffs):
    return UniPoly(coeffs)


def test_second_kind_values():
    assert qstirling2(0, 0) == one
    assert qstirling2(5, 1) == one
    assert qstirling2(5, 5) == one
    assert qstirling2(3, 2) == P(2, 1)
    assert qstirling2(4, 2) == P(3, 3, 1)
    assert qstirling2(4, 2).evaluate(Fraction(1)) == 7
    assert qstirling2(3, 4) == zero
    assert qstirling2(3, 0) == zero


def test_second_kind_recurrence_and_triangle_agree():
    tri = qstirling2_triangle(16)
    for n in range(1, 17):
        for k in range(1, n + 1):
            assert qstirling2(n, k) == (qstirling2(n - 1, k - 1)
                                        + qbracket(k) * qstirling2(n - 1, k))
            assert tri.entry(n, k) == qstirling2(n, k)


@pytest.mark.parametrize("single, triangle", [
    (qstirling1, qstirling1_triangle), (qstirling2, qstirling2_triangle)],
    ids=["first", "second"])
def test_single_entries_walk_to_the_triangle_entries(single, triangle):
    # the diagonal walk of one entry against the rows of the whole triangle,
    # off the triangle's edges included
    tri = triangle(20)
    for n in range(21):
        for k in range(-1, n + 2):
            assert single(n, k) == tri.entry(n, k), (n, k)


def classical_stirling2(n, k, _memo={}):
    if (n, k) in _memo:
        return _memo[(n, k)]
    if k == 0:
        v = 1 if n == 0 else 0
    elif k > n or k < 0:
        v = 0
    else:
        v = classical_stirling2(n - 1, k - 1) + k * classical_stirling2(n - 1, k)
    _memo[(n, k)] = v
    return v


def test_second_kind_at_one_is_classical():
    for n in range(13):
        for k in range(n + 1):
            assert qstirling2(n, k).evaluate(Fraction(1)) == classical_stirling2(n, k)


def test_second_kind_coefficients_nonnegative_integers():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert all(c.denominator == 1 and c >= 0
                       for c in qstirling2(n, k).coeffs)


def test_first_kind_values():
    tri = qstirling1_triangle(4)
    assert tri.entry(1, 1) == one
    assert tri.entry(2, 1) == P(-1)
    assert tri.entry(3, 2) == P(-2, -1)
    assert tri.entry(3, 1) == P(1, 1)
    row3_at_one = [tri.entry(3, k).evaluate(Fraction(1)) for k in (1, 2, 3)]
    assert row3_at_one == [2, -3, 1]
    assert qstirling1(3, 2) == P(-2, -1)


def test_both_kinds_start_from_one_at_the_origin():
    # s[0,0] = S[0,0] = 1, the start of both recurrences; column 0 is 0 below
    # it, and everything outside 0 <= k <= n is 0, in either triangle too
    for kind, tri in ((qstirling1, qstirling1_triangle(5)),
                      (qstirling2, qstirling2_triangle(5))):
        for entry in (kind, tri.entry):
            assert entry(0, 0) == one
            assert all(entry(n, 0) == zero for n in range(1, 6))
            assert entry(0, 1) == entry(2, 3) == entry(-1, 0) == zero
            assert entry(6, 7) == entry(9, -1) == zero     # past n_max too
            assert entry(2, -1) == zero
    # the recurrence from s[0,0] reaches s[1,1] = 1 and s[2,1] = -[1]
    assert qstirling1(1, 1) == one and qstirling1(2, 1) == P(-1)


def classical_stirling1(n_max):
    """Signed Stirling numbers of the first kind, s(n, k) for 0 <= k <= n <= n_max,
    by s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)."""
    s = [[1]]
    for n in range(1, n_max + 1):
        prev = s[-1] + [0]
        s.append([0] + [prev[k - 1] - (n - 1) * prev[k] for k in range(1, n + 1)])
    return s


def test_first_kind_at_one_is_classical():
    classical = classical_stirling1(50)
    tri = qstirling1_triangle(28)
    for n in range(1, 29):
        for k in range(1, n + 1):
            assert tri.entry(n, k).evaluate(1) == classical[n][k]
    for k in (1, 2):
        assert qstirling1(50, k).evaluate(1) == classical[50][k]


def test_first_kind_matches_forward_substitution():
    reference = substituted_first_kind(20)
    tri = qstirling1_triangle(20)
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert tri.entry(n, k) == reference[n - 1][k - 1]
    for n in range(1, 13):
        for k in range(-1, n + 2):
            assert qstirling1(n, k) == tri.entry(n, k)


def test_triangles_are_inverse():
    assert verify_triangle_inverse(10, carlitz_tables(10)).passed


def test_conjugated_triangles_are_inverse():
    assert verify_conjugated_inverse(8, carlitz_tables(8)).passed


def test_carlitz_identities_small():
    assert verify_carlitz_identities(1, carlitz_tables(1)).passed
    assert verify_carlitz_identities(8, carlitz_tables(8)).passed


def test_carlitz_report_carries_counterexamples_not_exceptions():
    report = verify_carlitz_identities(3, carlitz_tables(3))
    assert report.first_failure is None
    assert all(r.status == "pass" for r in report.records)
    d = report.records[0].to_json_dict()
    assert set(d) >= {"identity", "status", "n", "k"}


def test_triangle_csv_rows():
    tri = qstirling2_triangle(3)
    rows = list(tri.csv_rows())
    assert rows[0] == (1, 1, "[1]")
    assert (3, 2, "[2,1]") in rows


def test_bad_sizes_rejected():
    with pytest.raises(ValueError):
        qstirling2_triangle(0)
    with pytest.raises(ValueError):
        verify_carlitz_identities(0, carlitz_tables(1))
    # a table refuses a row it does not hold, as JTable.entry does, so a
    # check given tables smaller than its size raises, never fails
    tables = carlitz_tables(3)
    for lookup in (tables[0], tables[1].entry, tables[2].entry):
        for n, k in ((4, 1), (4, 0), (9, 3)):
            with pytest.raises(ValueError):
                lookup(n, k)
        assert lookup(3, -1) == lookup(2, 3) == lookup(9, 10) == zero
    for check in (verify_carlitz_identities, verify_triangle_inverse,
                  verify_conjugated_inverse, symfunc_suite_report):
        with pytest.raises(ValueError):
            check(5, tables)
