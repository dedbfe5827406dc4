"""Carlitz q-Stirling numbers.

Second kind by the triangular recurrence S[n,k] = S[n-1,k-1] + [k] S[n-1,k];
first kind defined here as the inverse of the second-kind triangle (computed
by forward substitution), which is the only property downstream results use.
Users comparing against other first-kind normalizations in the literature
should check sign conventions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb

from .exactpoly import UniPoly, json_coeff_list, one, powers, q, zero
from .qcalc import alternating_binomial_sum, qbracket, triangle_rows
from .report import CheckReport, Frozen, set_field

# Largest size of the scaled-triangle inverse check in the suite.
CONJUGATION_N_MAX = 8


def _second_kind_rows(n_max: int):
    """Rows n = 1..n_max of the second-kind triangle, entries k = 0..n."""
    return islice(triangle_rows(qbracket, n_max), 1, n_max + 1)


@lru_cache(maxsize=None)
def qstirling2(n: int, k: int) -> UniPoly:
    """Second-kind q-Stirling number S[n,k]; S[n,0] = [n == 0], 0 for k > n.

    Rows are built bottom-up in the band of columns 0..k; only final answers
    are cached."""
    if n < 0 or k < 0 or k > n:
        return zero
    return next(islice(triangle_rows(qbracket, k), n, None))[k]


class StirlingTriangle(Frozen):
    # kind is "first" or "second"; entries[n-1][k-1] for 1 <= k <= n <= n_max
    __slots__ = ("kind", "n_max", "entries")

    def __init__(self, kind: str, n_max: int, entries: tuple):
        set_field(self, "kind", kind)
        set_field(self, "n_max", n_max)
        set_field(self, "entries", entries)

    def entry(self, n: int, k: int) -> UniPoly:
        if 1 <= k <= n <= self.n_max:
            return self.entries[n - 1][k - 1]
        return zero

    def csv_rows(self):
        """Rows n,k,coeffs-JSON in row-major triangle order."""
        for n in range(1, self.n_max + 1):
            for k in range(1, n + 1):
                yield n, k, json_coeff_list(self.entry(n, k))


def qstirling2_triangle(n_max: int) -> StirlingTriangle:
    if n_max < 1:
        raise ValueError("triangle size must be >= 1")
    rows = tuple(row[1:] for row in _second_kind_rows(n_max))
    return StirlingTriangle("second", n_max, rows)


def qstirling1_triangle(n_max: int) -> StirlingTriangle:
    """First-kind triangle: the lower-triangular inverse of the second kind."""
    if n_max < 1:
        raise ValueError("triangle size must be >= 1")
    s = [[zero] * n_max for _ in range(n_max)]
    for n, second in enumerate(_second_kind_rows(n_max), 1):
        s[n - 1][n - 1] = one
        for k in range(n - 1, 0, -1):
            acc = zero
            for j in range(k, n):
                acc = acc + second[j] * s[j - 1][k - 1]
            s[n - 1][k - 1] = -acc
    rows = tuple(tuple(row[:n]) for n, row in enumerate(s, 1))
    return StirlingTriangle("first", n_max, rows)


def qstirling1(n: int, k: int) -> UniPoly:
    return qstirling1_triangle(max(n, 1)).entry(n, k)


def verify_carlitz_identities(n_max: int) -> CheckReport:
    """Exactly check the two expansions linking q-binomials to the triangle.

    (i)  [n k] = sum_j C(n,j) (q-1)^(j-k) S[j,k]
    (ii) (1-q)^(n-k) S[n,k] = sum_l (-1)^(l-k) C(n,l) [l k]
    for every 0 <= k <= n <= n_max.  Failures are recorded with the first
    counterexample, not raised.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    report = CheckReport()
    qm1 = powers(q - one, n_max)
    omq = powers(one - q, n_max)
    # rows 0..n_max of both triangles in one pass each, not entry by entry
    binom = list(islice(triangle_rows(UniPoly.monomial, n_max), n_max + 1))
    stirling = list(islice(triangle_rows(qbracket, n_max), n_max + 1))
    for n in range(n_max + 1):
        for k in range(n + 1):
            lhs = binom[n][k]
            rhs = zero
            for j in range(k, n + 1):
                rhs = rhs + comb(n, j) * qm1[j - k] * stirling[j][k]
            report.check("carlitz-qbinomial-expansion", lhs == rhs,
                         detail=lambda: f"lhs={lhs} rhs={rhs}", n=n, k=k)

            lhs2 = omq[n - k] * stirling[n][k]
            rhs2 = alternating_binomial_sum(lambda l, j: binom[l][j], n, k, zero)
            report.check("carlitz-inverse-expansion", lhs2 == rhs2,
                         detail=lambda: f"lhs={lhs2} rhs={rhs2}", n=n, k=k)
    return report


def _matmul(a, b, size):
    return [[sum((a[i][l] * b[l][j] for l in range(size)), zero)
             for j in range(size)] for i in range(size)]


def _is_identity(m, size) -> bool:
    return all(m[i][j] == (one if i == j else zero)
               for i in range(size) for j in range(size))


def _scaled_inverse_check(identity: str, n_max: int, scale) -> CheckReport:
    """Check, size by size, that the triangles with entries scale[i-j] times
    the second- resp. first-kind numbers are inverse matrices."""
    report = CheckReport()
    second = qstirling2_triangle(n_max)
    first = qstirling1_triangle(n_max)
    for n in range(1, n_max + 1):
        A, B = ([[scale[i - j] * t.entry(i, j) if i >= j else zero
                  for j in range(1, n + 1)] for i in range(1, n + 1)]
                for t in (second, first))
        report.check(identity, _is_identity(_matmul(A, B, n), n), n=n)
    return report


def verify_triangle_inverse(n_max: int) -> CheckReport:
    """Check that the two triangles are exact matrix inverses, size by size."""
    return _scaled_inverse_check("stirling-triangle-inverse", n_max,
                                 [one] * n_max)


def verify_conjugated_inverse(n_max: int) -> CheckReport:
    """Check the scaled triangles A and B, with entries (1-q)^(i-j) times the
    second- resp. first-kind numbers, are inverse to each other.

    A is the conjugate of the second-kind triangle by diag((1-q)^(i-1)), so
    this is the matrix form of the transfer identities.
    """
    return _scaled_inverse_check("scaled-triangle-inverse", n_max,
                                 powers(one - q, n_max))


def stirling_suite_report(n_max: int) -> CheckReport:
    """The full q-Stirling verification battery; the conjugated-inverse check
    stops at CONJUGATION_N_MAX."""
    report = verify_carlitz_identities(n_max)
    report.merge(verify_triangle_inverse(n_max))
    report.merge(verify_conjugated_inverse(min(n_max, CONJUGATION_N_MAX)))
    return report
