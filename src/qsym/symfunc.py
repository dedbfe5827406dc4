"""Symmetric functions on finite alphabets and their q-analogs.

Everything is evaluated on a concrete finite alphabet of exact values
(rationals, or polynomials in q for the principal specialization), kept as
given: e_k, h_k and the classical p_n^(r) of an integer alphabet are ints,
and only the q-analogs are polynomials.  Every identity checked here is
degree bounded, so exactness on an alphabet with at least as many variables
as the degree settles the formal identity in that degree; no symbolic
symmetric-function algebra is needed.

The central object is the q-analog of the power-type sums p_n^(r), the sum
of all monomial symmetric functions indexed by partitions of n with exactly
r parts.  The q-analog is computed two independent ways (an alternating
convolution of elementary and complete functions against q-binomials, and a
Hessenberg determinant) and is tied back to the classical p_n^(r) through
the q-Stirling triangles.  The classical p_n^(r) is summed over exponent
vectors in one pass over the alphabet, apart from the e/h routes, so the
transfer checks compare independent computations.
"""

from __future__ import annotations

from .exactpoly import Frozen, UniPoly, one, powers, set_field, zero
from .pqalgebra import BiPoly, det_hessenberg, pq_binomial
from .qcalc import alternating_binomial_sum, qbinomial, qbracket, qfactorial
from .report import CheckReport

PQ_N_MAX = 4    # the two-parameter battery's largest size in the suite


class SymAlphabet(Frozen):
    """Finite list of exact variable values x_1..x_N.

    Identities of total degree d are exact only when N >= d; callers pick
    alphabets large enough for the degrees they check.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple):
        if not values:
            raise ValueError("alphabet needs at least one variable")
        set_field(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values) -> "SymAlphabet":
        return cls(tuple(values))

    @classmethod
    def primes(cls, n: int) -> "SymAlphabet":
        ps, c = [], 2
        while len(ps) < n:
            if all(c % p for p in ps):
                ps.append(c)
            c += 1
        return cls.from_values(ps)

    @classmethod
    def integers(cls, n: int, start: int = 1) -> "SymAlphabet":
        return cls.from_values(range(start, start + n))

    @classmethod
    def half_odds(cls, n: int) -> "SymAlphabet":
        from fractions import Fraction
        return cls.from_values(Fraction(2 * k + 3, 2) for k in range(n))


def elementary_sequence(alphabet: SymAlphabet, order: int):
    """e_0..e_order of the alphabet, by expanding prod (1 + x_i t)."""
    e = [1] + [0] * order
    top = 0
    for x in alphabet.values:
        top = min(top + 1, order)
        for k in range(top, 0, -1):
            e[k] = e[k] + x * e[k - 1]
    return e


def complete_from_elementary(e, order: int):
    """h_0..h_order from the elementary values: h_0 = 1 and h_m = sum over
    k = 1..min(m, len(e) - 1) of (-1)^(k+1) e_k h_(m-k), E(-t) H(t) = 1 read
    coefficient by coefficient; e_0 = 1 makes every step division free."""
    if e[0] != 1:
        raise ValueError("elementary sequence must start with 1")
    h = [1]
    for m in range(1, order + 1):
        h.append(sum((-1) ** (k + 1) * e[k] * h[m - k]
                     for k in range(1, min(m, len(e) - 1) + 1)))
    return h


class SymSeriesBundle(Frozen):
    """Matching rows e_0..e_order and h_0..h_order, of an alphabet or of a
    raw elementary sequence."""

    __slots__ = ("order", "e", "h")

    def __init__(self, order: int, e: tuple, h: tuple):
        set_field(self, "order", order)
        set_field(self, "e", e)
        set_field(self, "h", h)

    @classmethod
    def from_alphabet(cls, alphabet: SymAlphabet, order: int) -> "SymSeriesBundle":
        return cls.from_elementary(elementary_sequence(alphabet, order))

    @classmethod
    def from_elementary(cls, e) -> "SymSeriesBundle":
        e = tuple(e)
        return cls(len(e) - 1, e, tuple(complete_from_elementary(e, len(e) - 1)))


def p_nr_row(alphabet: SymAlphabet, n: int) -> list:
    """Classical [p_n^(0), ..., p_n^(n)] on the alphabet, for n >= 0.

    Summed by exponent vector, p_n^(r) is the sum of x^a over the vectors a
    with |a| = n and exactly r nonzero entries.  table[d][j] holds that sum
    at degree d over the variables seen so far; each variable x extends it
    by table[d][j] += sum_(a >= 1) x^a table[d-a][j-1], d descending as in
    elementary_sequence.
    """
    table = [[1]] + [[0] * (d + 1) for d in range(1, n + 1)]
    for x in alphabet.values:
        xp = powers(x, n)
        for d in range(n, 0, -1):
            row = table[d]
            for j in range(1, d + 1):
                row[j] = sum((xp[a] * table[d - a][j - 1]
                              for a in range(1, d - j + 2)), row[j])
    return table[n]


def _convolution(bundle: SymSeriesBundle, n: int, r: int, binom) -> UniPoly:
    """Alternating sum binom(r+k, r) e_(r+k) h_(n-r-k), k = 0..n-r."""
    if r == 0:
        return one if n == 0 else zero
    if n < r:
        return zero
    if bundle.order < n:
        raise ValueError("bundle order too small for the requested degree")
    acc = zero
    for k in range(n - r + 1):
        term = binom(r + k, r) * bundle.e[r + k] * bundle.h[n - r - k]
        acc = acc + (term if k % 2 == 0 else -term)
    return acc


def qp_nr_direct(bundle: SymSeriesBundle, n: int, r: int) -> UniPoly:
    """The q-analog of p_n^(r) by the convolution formula."""
    return _convolution(bundle, n, r, qbinomial)


def _determinant(e, n: int, r: int, binom):
    """The Hessenberg determinant of size n-r+1 with first column
    binom(r+i, r) e_(r+i), the e's down the band and ones on the
    superdiagonal; binom may give UniPoly or BiPoly values."""
    if not (n >= r >= 1):
        raise ValueError("need n >= r >= 1")
    size = n - r + 1
    return det_hessenberg([binom(r + i, r) * e[r + i] for i in range(size)],
                          e, [1] * size)


def qp_nr_determinant(bundle: SymSeriesBundle, n: int, r: int) -> UniPoly:
    """The q-analog of p_n^(r) as a Hessenberg determinant."""
    return _determinant(bundle.e, n, r, qbinomial)


def pn_bracket_determinant(e, n: int) -> UniPoly:
    """The r = 1 q-analog from the determinant whose first column is [k] e_k."""
    return _determinant(e, n, 1, lambda k, _r: qbracket(k))


def en_factorial_determinant(p_list, n: int) -> UniPoly:
    """[n]! e_n as a determinant in the r = 1 q-analogs p_list[k] = [p_k].

    Row i carries [p_(i+1)], earlier [p]'s shifted along the band, and the
    bracket [i+1] on the superdiagonal.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return det_hessenberg(p_list[1:n + 1], p_list,
                          [qbracket(i + 1) for i in range(n)])


# ---------------------------------------------------------------------------
# verification reports


def transfer_theorem_check(alphabet: SymAlphabet, bundle,
                           tables: tuple) -> CheckReport:
    """Exactly verify the q-Stirling transfer between the q-analog and the
    classical p_n^(r) at n = bundle.order, in all four printed forms;
    tables is qstirling.carlitz_tables(m) for an m >= n.

    (i)   q-analog from classical via second-kind numbers,
    (ii)  the inverse via first-kind numbers,
    (iii) the r = 1 case with bare (1-q) powers,
    (iv)  the intermediate double sum over binomials times q-binomials.
    """
    n = bundle.order
    if alphabet.size < n:
        raise ValueError("alphabet must have at least n variables")
    report = CheckReport()
    classical = p_nr_row(alphabet, n)
    binom, second_kind, first_kind, omq = tables
    qanalog = {j: _convolution(bundle, n, j, binom) for j in range(1, n + 1)}

    for r in range(1, n + 1):
        # (i) and (ii): sum over j of (1-q)^(j-r) T[j, r] x_j
        for identity, lhs, triangle, x in (
                ("transfer-second-kind", qanalog[r], second_kind, classical),
                ("transfer-first-kind", classical[r], first_kind, qanalog)):
            rhs = sum((omq[j - r] * triangle.entry(j, r) * x[j]
                       for j in range(r, n + 1)), zero)
            report.check(identity, lhs, rhs, n=n, r=r)

        dbl = sum((classical[j] * alternating_binomial_sum(binom, j, r, zero)
                   for j in range(r, n + 1)), zero)
        report.check("transfer-double-sum", qanalog[r], dbl, n=n, r=r)

    r1 = sum((omq[j - 1] * classical[j] for j in range(1, n + 1)), zero)
    report.check("transfer-r1", qanalog[1], r1, n=n, r=1)
    return report


def determinant_vs_convolution_check(bundle, binom) -> CheckReport:
    """Determinant and convolution agree exactly at n = bundle.order; binom
    is a q-binomial lookup to at least n, as qcalc.qbinomial_lookup's."""
    report = CheckReport()
    n = bundle.order
    for r in range(1, n + 1):
        report.check("determinant-vs-convolution",
                     _determinant(bundle.e, n, r, binom),
                     _convolution(bundle, n, r, binom), n=n, r=r)
    return report


def classical_pn_determinants_check(bundle, binom) -> CheckReport:
    """The r = 1 determinant identities and the defining linear system, for
    every n up to bundle.order; binom as in determinant_vs_convolution_check.

    Checks the [p_n] determinant against the convolution, the [n]! e_n
    determinant built from the previously computed [p_k], and the linear
    system sum (-1)^(k-1) e_(n-k) [p_k] = [n] e_n.
    """
    report = CheckReport()
    n, e = bundle.order, bundle.e
    p_list = [zero] + [_convolution(bundle, k, 1, binom)
                       for k in range(1, n + 1)]
    for m in range(1, n + 1):
        report.check("p-bracket-determinant", pn_bracket_determinant(e, m),
                     p_list[m], n=m, r=1)
        report.check("e-factorial-determinant",
                     en_factorial_determinant(p_list, m), qfactorial(m) * e[m],
                     n=m, r=1)

        sys_lhs = zero
        for k in range(1, m + 1):
            term = e[m - k] * p_list[k]
            sys_lhs = sys_lhs + (term if (k - 1) % 2 == 0 else -term)
        report.check("e-p-linear-system", sys_lhs, qbracket(m) * e[m],
                     n=m, r=1)
    return report


def pq_transfer_check(alphabet: SymAlphabet, bundle, qbinom) -> CheckReport:
    """Two-parameter extension at n = bundle.order: determinant versus
    double sum, and the p = 1 slice collapsing to the one-parameter q-analog;
    qbinom as binom in determinant_vs_convolution_check.  The alphabet's
    values are exact scalars, which multiply a BiPoly as they are.

    Both routes evaluate the same formal identity, so they agree on every
    alphabet, even one with fewer variables than n (where faithfulness, not
    validity, is lost)."""
    report = CheckReport()
    n = bundle.order
    classical = p_nr_row(alphabet, n)
    rows = [[pq_binomial(m, k) for k in range(m + 1)] for m in range(n + 1)]
    binom = lambda m, k: rows[m][k]             # 0 <= k <= m <= n throughout

    for r in range(1, n + 1):
        det = _determinant(bundle.e, n, r, binom)

        dbl = BiPoly()
        for j in range(r, n + 1):
            dbl = dbl + classical[j] * alternating_binomial_sum(
                binom, j, r, BiPoly())
        report.check("pq-double-sum-vs-determinant", det, dbl, n=n, r=r)
        report.check("pq-degenerates-to-q", det.at_p_one(),
                     _convolution(bundle, n, r, qbinom), n=n, r=r)
    return report


def default_alphabets(n: int):
    """The three integer verification alphabets of size n: the first n
    primes, 2..n+1, and the odd numbers 3..2n+1.

    The last is SymAlphabet.half_odds(n) times 2.  Every identity of the
    battery at size n is homogeneous of degree n in the alphabet, so both
    of its sides scale by 2^n and its verdict is the half-odds one, at
    integer cost."""
    return (SymAlphabet.primes(n),
            SymAlphabet.integers(n, start=2),
            SymAlphabet.from_values(range(3, 2 * n + 2, 2)))


def symfunc_suite_report(n_max: int, tables: tuple) -> CheckReport:
    """Transfer and determinant batteries on the default alphabets to n_max,
    the two-parameter one to PQ_N_MAX, each (alphabet, size) bundle built
    once; every size reads a prefix of tables, qstirling.carlitz_tables(m)
    for an m >= n_max."""
    report = CheckReport()
    binom = tables[0]
    # by size, then in the order of default_alphabets: three per size
    sized = [(alphabet, SymSeriesBundle.from_alphabet(alphabet, n))
             for n in range(1, n_max + 1) for alphabet in default_alphabets(n)]
    for alphabet, bundle in sized:
        report.merge(transfer_theorem_check(alphabet, bundle, tables))
        report.merge(determinant_vs_convolution_check(bundle, binom))
    for _alphabet, bundle in sized:
        report.merge(classical_pn_determinants_check(bundle, binom))
    for n in range(1, min(n_max, PQ_N_MAX) + 1):
        # primes(n), the first default alphabet of size n: n variables
        # suffice for degree n
        alphabet, bundle = sized[3 * (n - 1)]
        report.merge(pq_transfer_check(alphabet, bundle, binom))
    return report
