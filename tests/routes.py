"""Earlier routes to the J table and the first-kind q-Stirling triangle,
kept for the tests as references: dense polynomial products throughout, no
bracket_mul window sums and no triangle_rows.  The composition sums with
every composition's bracket chain rebuilt by dense powers, no shared
prefixes.  The classical p_n^(r) by partitions and their distinct
rearrangements, no table over the alphabet, and by the alternating sum of
e's and h's and the Hessenberg determinant, both with ordinary binomials.
The parking sum by every ordered prefix of the first m - 1 values, each
sorted on its own, and the literal parking condition that both parking
walks are tested against.  Cofactor expansion, the reference for
det_hessenberg, and the q-derivative of a truncated series, the operator of
the generating-series identity.  Long division over the rationals, exact or
not, the reference for the quotients of Gaussian binomials and of the
q-derivative by [r]!.  Test helpers no battery reads: one
elementary value, one classical p_n^(r), the principal alphabet
x_i = q^(i-1), and the exponential specialization's elementary values
e_k = q^C(k,2) / k! as Fractions, with their bundle."""

import itertools
from fractions import Fraction
from math import comb, factorial
from operator import sub

from qsym.exactpoly import InexactDivisionError, UniPoly, one, zero
from qsym.oracles import sigma_statistic
from qsym.pqalgebra import TruncSeries, det_hessenberg
from qsym.qcalc import qbinomial, qbracket, qfactorial
from qsym.symfunc import (SymAlphabet, SymSeriesBundle, elementary_sequence,
                          p_nr_row)


def dense_jtable(n_max: int) -> dict:
    """{(n, r): J(n, r)} for 1 <= r <= n <= n_max, each entry the sum
    J(n, r) = sum_j [r]^j q^C(j,2) C(n-r, j) J(n-r, j) of dense products."""
    j = {}
    for n in range(1, n_max + 1):
        j[n, n] = one
        for r in range(1, n):
            m = n - r
            acc, bpow = zero, one
            for i in range(1, m + 1):
                bpow = bpow * qbracket(r)
                acc = acc + UniPoly.monomial(comb(i, 2), comb(m, i)) * bpow * j[m, i]
            j[n, r] = acc
    return j


def multinomial(total: int, parts) -> int:
    num = factorial(total)
    for a in parts:
        num //= factorial(a)
    return num


def compositions(total: int):
    """Ordered tuples of positive integers with the given sum, one per
    subset of the total - 1 cut positions between consecutive units."""
    if total < 0:
        return
    if total == 0:
        yield ()
        return
    for mask in range(1 << (total - 1)):
        cuts = [i for i in range(1, total) if mask >> (i - 1) & 1]
        yield tuple(map(sub, cuts + [total], [0] + cuts))


def dense_composition_sum(m: int, r: int, exponent) -> UniPoly:
    """sum over the compositions u of m of multinomial(m, u) q^exponent(u)
    [r]^(u1) [u1]^(u2) ... [u_(k-1)]^(uk), each chain a product of dense
    powers."""
    total = zero
    for u in compositions(m):
        w, last = one, r
        for a in u:
            w, last = w * qbracket(last) ** a, a
        total = total + w * UniPoly.monomial(exponent(u), multinomial(m, u))
    return total


# The exponents of the three explicit sums, as functions of (m, r, u): J's
# sum C(u_i, 2), and the reciprocal's sigma(u) + r(m - u_1) and sigma(r, u).
COMPOSITION_EXPONENTS = {
    "j": lambda m, r, u: sum(comb(a, 2) for a in u),
    "reciprocal": lambda m, r, u: sigma_statistic(u) + r * (m - u[0]),
    "rooted-reciprocal": lambda m, r, u: sigma_statistic((r,) + u),
}


def substituted_first_kind(n_max: int) -> list:
    """s[n-1][k-1] for 1 <= k <= n <= n_max: the lower-triangular inverse of
    the second-kind triangle S[n,k] = S[n-1,k-1] + [k] S[n-1,k], solved by
    forward substitution, s[n,n] = 1 and s[n,k] = -sum_(k<=j<n) S[n,j] s[j,k]."""
    second = [[one]]                      # S[n][k] for 0 <= k <= n
    for n in range(1, n_max + 1):
        prev = second[-1] + [zero]
        second.append([zero] + [prev[k - 1] + qbracket(k) * prev[k]
                                for k in range(1, n + 1)])
    s = [[zero] * n_max for _ in range(n_max)]
    for n in range(1, n_max + 1):
        s[n - 1][n - 1] = one
        for k in range(n - 1, 0, -1):
            acc = zero
            for j in range(k, n):
                acc = acc + second[n][j] * s[j - 1][k - 1]
            s[n - 1][k - 1] = -acc
    return [row[:n] for n, row in enumerate(s, 1)]


def is_parking_function(a, r: int) -> bool:
    """The i-th smallest value must be below r + i - 1 (1-based i)."""
    b = sorted(a)
    return all(b[i] < r + i for i in range(len(b)))


def prefix_product_parking(m: int, r: int) -> UniPoly:
    """Sum of q^(a_1 + ... + a_m) over parking functions with offset r.

    Runs through {0..r+m-2}^(m-1), the first m - 1 values, and drops a
    prefix that no last value completes: one whose sorted values b break
    b_j < r + j + 1 (0-based j).  A completable prefix is completed exactly
    by the last values 0..t-1, where t = r + f for the first position f
    with b_f = r + f, and t = r + m - 1 if there is none.  Each of those t
    tuples is tallied.
    """
    if m == 0:
        return one
    full = r + m - 1
    coeffs = [0] * (m * (full - 1) + 1)
    for prefix in itertools.product(range(full), repeat=m - 1):
        t = full
        for bound, b in enumerate(sorted(prefix), r):
            if b > bound:
                break
            if b == bound and t == full:
                t = bound
        else:
            s = sum(prefix)
            for x in range(t):
                coeffs[s + x] += 1
    return UniPoly(coeffs)


def partitions_with_length(n: int, r: int):
    """Partitions of n with exactly r parts, as weakly decreasing tuples."""
    def rec(remaining, parts_left, cap):
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        # each remaining part is at least 1
        hi = min(cap, remaining - (parts_left - 1))
        for first in range(hi, 0, -1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest
    if r < 0 or n < 0:
        return
    yield from rec(n, r, n)


def monomial_sum_by_permutations(values, n: int, r: int) -> UniPoly:
    """Classical p_n^(r) on the alphabet values: each m_lambda, lambda a
    partition of n with r parts, as the sum over the distinct rearrangements
    of its exponent vector padded with zeros to the alphabet size."""
    if r == 0:
        return one if n == 0 else zero
    if n < r or r < 0:
        return zero
    total = zero
    for lam in partitions_with_length(n, r):
        if len(lam) > len(values):
            continue
        exponents = lam + (0,) * (len(values) - len(lam))
        for arrangement in set(itertools.permutations(exponents)):
            term = one
            for x, a in zip(values, arrangement):
                if a:
                    term = term * x ** a
            total = total + term
    return total


def principal(n: int) -> SymAlphabet:
    """x_i = q^(i-1), exercising polynomial coefficients."""
    return SymAlphabet(tuple(UniPoly.monomial(i) for i in range(n)))


def exp_elementary(order: int) -> list:
    """e_0..e_order of the exponential specialization, e_k = q^C(k,2) / k!,
    each coefficient a Fraction."""
    return [UniPoly.monomial(comb(k, 2), Fraction(1, factorial(k)))
            for k in range(order + 1)]


def exp_bundle(order: int) -> SymSeriesBundle:
    """The e and h rows of the exponential specialization over the
    rationals, h by the recurrence of E(-t) H(t) = 1."""
    return SymSeriesBundle.from_elementary(exp_elementary(order))


def elementary(alphabet: SymAlphabet, n: int) -> UniPoly:
    """The n-th elementary symmetric function of the alphabet (0 past N)."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return elementary_sequence(alphabet, n)[n]


def p_nr_monomial(alphabet: SymAlphabet, n: int, r: int) -> UniPoly:
    """Classical p_n^(r): the sum of the monomial symmetric functions over
    partitions of n with exactly r parts, evaluated on the alphabet."""
    if not 0 <= r <= n:
        return zero
    return p_nr_row(alphabet, n)[r]


def p_nr_series(bundle, n: int, r: int):
    """Classical p_n^(r), 0 <= r <= n <= bundle.order, as the alternating
    sum over k = 0..n-r of C(r+k, r) e_(r+k) h_(n-r-k): the q-analog's
    convolution with ordinary binomials."""
    e, h = bundle.e, bundle.h
    return sum((-1) ** k * comb(r + k, r) * e[r + k] * h[n - r - k]
               for k in range(n - r + 1))


def p_nr_determinant(bundle, n: int, r: int) -> UniPoly:
    """Classical p_n^(r) as the Hessenberg determinant of the q-analog with
    ordinary binomials in its first column: C(r+i, r) e_(r+i) down the
    first column, the e's down the band, ones on the superdiagonal."""
    e, size = bundle.e, n - r + 1
    return det_hessenberg([comb(r + i, r) * e[r + i] for i in range(size)],
                          e, [1] * size)


def det_cofactor(m):
    """Determinant by first-row cofactor expansion over any coefficient ring
    (UniPoly, BiPoly); exponential in the size, so for small matrices only."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 1:
        return m[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def divmod_poly(a: UniPoly, b: UniPoly):
    """Quotient and remainder of a by b over the rationals."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lead = b.degree(), b.leading_coeff()
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i]:
            f = quot[i - db] = Fraction(rem[i]) / lead
            for j, cb in enumerate(b.coeffs):
                rem[i - db + j] -= f * cb
    return UniPoly(quot), UniPoly(rem)


def exact_div(a: UniPoly, b: UniPoly) -> UniPoly:
    """Divide a by b, insisting the division is exact."""
    quot, rem = divmod_poly(a, b)
    if not rem.is_zero():
        raise InexactDivisionError(f"({a}) is not divisible by ({b})")
    return quot


def q_derivative(f: TruncSeries, r: int = 1) -> TruncSeries:
    """Apply the q-derivative r times to a truncated series: t^n goes to
    [r]! [n choose r]_q t^(n-r), so the order drops by r."""
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    if r > f.order:
        raise ValueError("derivative order exceeds the series order")
    fr = qfactorial(r)
    return TruncSeries(fr * qbinomial(m + r, r) * f.coeff(m + r)
                       for m in range(f.order - r + 1))
