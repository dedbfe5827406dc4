"""q-analog primitives.

Brackets [n] = 1 + q + ... + q^(n-1), factorials, Gaussian binomial
coefficients, brackets in base q^r and the triangle generator behind the
q-binomial and q-Stirling rows.  The two-parameter (p, q)-binomials are in
pqalgebra.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from math import comb
from operator import sub

from .exactpoly import (UniPoly, bracket_mul, one_minus_q_div,
                        triangle_entry, zero)


def qbracket(n: int) -> UniPoly:
    """[n] = 1 + q + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("bracket index must be >= 0")
    return UniPoly((1,) * n)


def qfactorial(n: int) -> UniPoly:
    """[n]! = [1][2]...[n]; [0]! = 1."""
    if n < 0:
        raise ValueError("factorial index must be >= 0")
    return UniPoly(reduce(bracket_mul, range(2, n + 1), [1]))


def triangle_rows(weight):
    """Rows n = 0, 1, 2, ... of the triangle T[n,k] = T[n-1,k-1] + w T[n-1,k],
    T[0,0] = 1, row n holding columns 0..n.

    w = sign q^s [a] with (a, s[, sign]) = weight(n, k), sign 1 if left out:
    one bracket_mul window sum on ascending int coefficient lists.  Rows are
    built bottom-up and only the previous one is kept, so a row far down
    the triangle needs no recursion.
    """
    row, n = ([1],), 0
    while True:
        yield row
        n += 1
        nxt = [bracket_mul(row[0], *weight(n, 0))]
        nxt.extend(bracket_mul(row[k], *weight(n, k), plus=row[k - 1])
                   for k in range(1, len(row)))
        nxt.append(row[-1])              # T[n,n] = T[n-1,n-1]
        row = tuple(nxt)


def qbinomial_lookup(n: int):
    """[l k] for l <= n from rows 0..n of triangle_rows, built once by
    [l k] = [l-1 k-1] + q^k [l-1 k] and read by exactpoly.triangle_entry."""
    rows = [tuple(map(UniPoly, row))
            for row in islice(triangle_rows(lambda l, k: (1, k)), n + 1)]
    return lambda l, k: triangle_entry(rows, n, l, k)


def qbinomial(n: int, k: int) -> UniPoly:
    """Gaussian binomial coefficient, zero outside 0 <= k <= n.

    The product prod_{i<k} (1 - q^(n-i)) / (1 - q^(i+1)), k being the
    smaller of k and n - k by symmetry.  After i + 1 factors the partial
    product is [n i+1], a polynomial with integer coefficients, so each
    division by 1 - q^(i+1) is exact; both steps run on one int list in
    O(degree), and a division that leaves a remainder raises
    InexactDivisionError (exactpoly.one_minus_q_div).  Each call computes
    its answer afresh; nothing is cached.
    """
    if k < 0 or n < 0 or k > n:
        return zero
    c = [1]
    for i in range(min(k, n - k)):
        b = n - i                       # times 1 - q^b, divided by 1 - q^(i+1)
        c = one_minus_q_div(map(sub, c + [0] * b, [0] * b + c), i + 1)
    return UniPoly(c)


def alternating_binomial_sum(f, n: int, k: int, nil):
    """sum over l = k..n of (-1)^(l-k) C(n, l) f(l, k), starting from the
    ring's zero nil."""
    acc = nil
    for l in range(k, n + 1):
        term = comb(n, l) * f(l, k)
        acc = acc + (term if (l - k) % 2 == 0 else -term)
    return acc


def qbracket_power_base(n: int, r: int) -> UniPoly:
    """[n] with q replaced by q^r."""
    return qbracket(n).compose_power(r)
