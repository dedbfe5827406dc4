"""Carlitz q-Stirling numbers.

Each kind by its own triangular recurrence, S[n,k] = S[n-1,k-1] + [k] S[n-1,k]
and s[n,k] = s[n-1,k-1] - [n-1] s[n-1,k], both from T[0,0] = 1: inverse
matrices computed independently, which the checks in ``report`` compare.
A single entry (qstirling1, qstirling2) walks the diagonals between it
and T[k,k], so it pays for n - k steps over k + 1 columns, not for rows
0..n.  A triangle keeps the rows of qcalc.triangle_rows whole and answers
by exactpoly.triangle_entry; the CSV export (export_chunks) holds one row
at a time.  carlitz_tables holds both triangles with the q-binomials and
(1-q) powers those checks read, so verify builds each once.
Users comparing against other first-kind normalizations in the literature
should check sign conventions.
"""

from __future__ import annotations

from itertools import islice

from .exactpoly import (Frozen, UniPoly, bracket_mul, csv_cell, json_coeff_list,
                        one, powers, q, set_field, triangle_entry, zero)
from .qcalc import qbinomial_lookup, triangle_rows

# weight(n, k) = (a, s, sign) of w = sign q^s [a] in the recurrence
# T[n,k] = T[n-1,k-1] + w T[n-1,k], of triangle_rows and _diagonal_entry.
WEIGHTS = {"second": lambda n, k: (k, 0, 1), "first": lambda n, k: (n - 1, 0, -1)}


def _diagonal_entry(kind: str, n: int, k: int) -> UniPoly:
    """T[n,k] = D_(n-k)[k] on the diagonals D_d[j] = T[j+d, j], from
    D_0[j] = 1 and D_d[0] = 0 for d >= 1 by D_d[j] = D_d[j-1] +
    w(j+d, j) D_(d-1)[j]: (n-k) steps over columns 0..k, so an entry near
    the diagonal is cheap; 0 outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return zero
    weight, diagonal = WEIGHTS[kind], [[1]] * (k + 1)
    for d in range(1, n - k + 1):
        nxt = [[]]
        for j in range(1, k + 1):
            nxt.append(bracket_mul(diagonal[j], *weight(j + d, j), plus=nxt[-1]))
        diagonal = nxt
    return UniPoly(diagonal[k])


def qstirling2(n: int, k: int) -> UniPoly:
    """Second-kind q-Stirling number S[n,k]; S[n,0] = [n == 0], 0 for k > n."""
    return _diagonal_entry("second", n, k)


def qstirling1(n: int, k: int) -> UniPoly:
    """First-kind q-Stirling number s[n,k]; s[n,0] = [n == 0], 0 for k > n."""
    return _diagonal_entry("first", n, k)


class StirlingTriangle(Frozen):
    # kind is "first" or "second"; entries[n][k] is T[n,k] for
    # 0 <= k <= n <= n_max, read by exactpoly.triangle_entry
    __slots__ = ("kind", "n_max", "entries")

    def __init__(self, kind: str, n_max: int, entries: tuple):
        set_field(self, "kind", kind)
        set_field(self, "n_max", n_max)
        set_field(self, "entries", entries)

    def entry(self, n: int, k: int) -> UniPoly:
        return triangle_entry(self.entries, self.n_max, n, k)

    def csv_rows(self):
        """Rows n,k,coeffs-JSON in row-major triangle order."""
        for n, row in enumerate(self.entries):
            for k in range(1, n + 1):
                yield n, k, json_coeff_list(row[k])


def export_chunks(kind: str, n_max: int):
    """The kind's CSV export to n_max: the header, then one string of lines
    n,k,coeffs per row n, each row drawn once the string before is taken."""
    yield "n,k,coeffs\n"
    rows = triangle_rows(WEIGHTS[kind])
    next(rows)                                    # row 0 has no k >= 1
    for n in range(1, n_max + 1):
        row = next(rows)
        yield "".join(f"{n},{k},{csv_cell(_json_ints(row[k]))}\n"
                      for k in range(1, n + 1))


def _json_ints(c) -> str:
    """json_coeff_list(UniPoly(c)) for int coefficients c."""
    while c and not c[-1]:
        c = c[:-1]
    return f"[{','.join(map(str, c))}]"


def _triangle(kind: str, n_max: int) -> StirlingTriangle:
    if n_max < 1:
        raise ValueError("triangle size must be >= 1")
    rows = islice(triangle_rows(WEIGHTS[kind]), n_max + 1)
    return StirlingTriangle(kind, n_max, tuple(tuple(map(UniPoly, row))
                                               for row in rows))


def qstirling2_triangle(n_max: int) -> StirlingTriangle:
    return _triangle("second", n_max)


def qstirling1_triangle(n_max: int) -> StirlingTriangle:
    """First-kind triangle by its own recurrence, not by inverting the second."""
    return _triangle("first", n_max)


def carlitz_tables(n_max: int) -> tuple:
    """(qcalc.qbinomial_lookup(n_max), the second- and first-kind triangles
    to n_max, (1-q)^0..(1-q)^n_max): the tables the Carlitz, inverse and
    transfer checks read, which verify builds once.  A check to a smaller
    size reads a prefix; one to a larger size raises ValueError."""
    return (qbinomial_lookup(n_max), qstirling2_triangle(n_max),
            qstirling1_triangle(n_max), powers(one - q, n_max))
