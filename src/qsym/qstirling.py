"""Carlitz q-Stirling numbers.

Each kind by its own triangular recurrence, S[n,k] = S[n-1,k-1] + [k] S[n-1,k]
and s[n,k] = s[n-1,k-1] - [n-1] s[n-1,k].  The two triangles are inverse
matrices computed independently, so the inverse checks below compare two
separate computations.  Users comparing against other first-kind
normalizations in the literature should check sign conventions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb

from .exactpoly import UniPoly, json_coeff_list, one, powers, q, zero
from .qcalc import alternating_binomial_sum, triangle_rows
from .report import CheckReport, Frozen, set_field

# Largest size of the scaled-triangle inverse check in the suite.
CONJUGATION_N_MAX = 8


# weight(n, k) = (a, s, sign) of w = sign q^s [a] in the triangle_rows
# recurrence T[n,k] = T[n-1,k-1] + w T[n-1,k].
_WEIGHTS = {"second": lambda n, k: (k, 0, 1), "first": lambda n, k: (n - 1, 0, -1)}


def _band_entry(kind: str, n: int, k: int) -> UniPoly:
    """Row n built bottom-up in the band of columns 0..k."""
    return UniPoly(next(islice(triangle_rows(_WEIGHTS[kind], k), n, None))[k])


@lru_cache(maxsize=None)
def qstirling2(n: int, k: int) -> UniPoly:
    """Second-kind q-Stirling number S[n,k]; S[n,0] = [n == 0], 0 for k > n.
    Only final answers are cached."""
    if n < 0 or k < 0 or k > n:
        return zero
    return _band_entry("second", n, k)


def qstirling1(n: int, k: int) -> UniPoly:
    """First-kind q-Stirling number s[n,k] for 1 <= k <= n, else 0."""
    if n < 1 or k < 0 or k > n:
        return zero
    return _band_entry("first", n, k)


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


def _triangle(kind: str, n_max: int) -> StirlingTriangle:
    if n_max < 1:
        raise ValueError("triangle size must be >= 1")
    rows = islice(triangle_rows(_WEIGHTS[kind], n_max), 1, n_max + 1)
    return StirlingTriangle(kind, n_max,
                            tuple(tuple(map(UniPoly, row[1:])) for row in rows))


def qstirling2_triangle(n_max: int) -> StirlingTriangle:
    return _triangle("second", n_max)


def qstirling1_triangle(n_max: int) -> StirlingTriangle:
    """First-kind triangle by its own recurrence, not by inverting the second."""
    return _triangle("first", n_max)


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
    binom, stirling = ([list(map(UniPoly, row))
                        for row in islice(triangle_rows(weight, n_max), n_max + 1)]
                       for weight in (lambda n, k: (1, k), _WEIGHTS["second"]))
    for n in range(n_max + 1):
        for k in range(n + 1):
            lhs = binom[n][k]
            rhs = sum((comb(n, j) * qm1[j - k] * stirling[j][k]
                       for j in range(k, n + 1)), zero)
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
    the second- resp. first-kind numbers are inverse matrices.  Each kind
    comes from its own recurrence, so this compares two independent
    computations."""
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
