"""Symmetric functions on finite alphabets and their q-analogs.

Everything is evaluated on a concrete finite alphabet of exact values
(rationals, or polynomials in q for the principal specialization).  Every
identity checked here is degree bounded, so exactness on an alphabet with
at least as many variables as the degree settles the formal identity in
that degree; no symbolic symmetric-function algebra is needed.

The central object is the q-analog of the power-type sums p_n^(r), the sum
of all monomial symmetric functions indexed by partitions of n with exactly
r parts.  The q-analog is computed two independent ways (an alternating
convolution of elementary and complete functions against q-binomials, and a
Hessenberg determinant) and is tied back to the classical p_n^(r) through
the q-Stirling triangles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactpoly import (BiPoly, TruncSeries, UniPoly, det_hessenberg, one,
                        powers, q, zero)
from .qcalc import (alternating_binomial_sum, pq_binomial, qbinomial, qbracket,
                    qbracket_power_base, qfactorial)
from .qstirling import qstirling1_triangle, qstirling2_triangle
from .report import CheckReport

# Largest sizes of the r = 1 determinant and two-parameter batteries in the
# suite; both run to these sizes whatever the suite's own size.
DETERMINANT_N_MAX = 5
PQ_N_MAX = 4


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing sequence of positive integers."""

    parts: tuple

    def __post_init__(self):
        if any(a <= 0 for a in self.parts):
            raise ValueError("partition parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for a in self.parts:
            for i in range(a):
                cols[i] += 1
        return Partition(tuple(cols))

    def n_stat(self) -> int:
        """sum (i-1) * part_i, equal to the column-binomial sum of the conjugate."""
        return sum(i * a for i, a in enumerate(self.parts))


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


@dataclass(frozen=True)
class SymAlphabet:
    """Finite list of exact variable values x_1..x_N.

    Identities of total degree d are exact only when N >= d; callers pick
    alphabets large enough for the degrees they check.
    """

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("alphabet needs at least one variable")

    @property
    def size(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values) -> "SymAlphabet":
        out = []
        for v in values:
            out.append(v if isinstance(v, UniPoly) else UniPoly.constant(v))
        return cls(tuple(out))

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
        return cls.from_values(Fraction(2 * k + 3, 2) for k in range(n))

    @classmethod
    def principal(cls, n: int) -> "SymAlphabet":
        """x_i = q^(i-1), exercising polynomial coefficients."""
        return cls(tuple(UniPoly.monomial(i) for i in range(n)))


def elementary_sequence(alphabet: SymAlphabet, order: int):
    """e_0..e_order of the alphabet, by expanding prod (1 + x_i t)."""
    e = [one] + [zero] * order
    top = 0
    for x in alphabet.values:
        top = min(top + 1, order)
        for k in range(top, 0, -1):
            e[k] = e[k] + x * e[k - 1]
    return e


def elementary(alphabet: SymAlphabet, n: int) -> UniPoly:
    """The n-th elementary symmetric function of the alphabet (0 past N)."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return elementary_sequence(alphabet, n)[n]


def complete_from_elementary(e, order: int):
    """h_0..h_order from the elementary values, by inverting E(-t)."""
    if e[0] != one:
        raise ValueError("elementary sequence must start with 1")
    padded = list(e[: order + 1]) + [zero] * (order + 1 - len(e[: order + 1]))
    alternating = [c if k % 2 == 0 else -c for k, c in enumerate(padded)]
    return list(TruncSeries(alternating).invert().coeffs)


@dataclass(frozen=True)
class SymSeriesBundle:
    """Matching rows e_0..e_order and h_0..h_order, of an alphabet or of a
    raw elementary sequence."""

    order: int
    e: tuple
    h: tuple

    @classmethod
    def from_alphabet(cls, alphabet: SymAlphabet, order: int) -> "SymSeriesBundle":
        return cls.from_elementary(elementary_sequence(alphabet, order))

    @classmethod
    def from_elementary(cls, e) -> "SymSeriesBundle":
        e = [c if isinstance(c, UniPoly) else UniPoly.constant(c) for c in e]
        order = len(e) - 1
        h = complete_from_elementary(e, order)
        return cls(order, tuple(e), tuple(h))

    def e_series(self) -> TruncSeries:
        return TruncSeries(self.e)

    def h_series(self) -> TruncSeries:
        return TruncSeries(self.h)


def p_nr_monomial(alphabet: SymAlphabet, n: int, r: int) -> UniPoly:
    """Classical p_n^(r): the sum of the monomial symmetric functions over
    partitions of n with exactly r parts, evaluated on the alphabet.

    Each m_lambda is the sum over distinct rearrangements of the exponent
    vector padded with zeros to the alphabet size, so no monomial is counted
    twice.
    """
    if r == 0:
        return one if n == 0 else zero
    if n < r or r < 0:
        return zero
    N = alphabet.size
    total = zero
    for lam in partitions_with_length(n, r):
        if len(lam) > N:
            continue
        exponents = lam + (0,) * (N - len(lam))
        for arrangement in set(itertools.permutations(exponents)):
            term = one
            for x, a in zip(alphabet.values, arrangement):
                if a:
                    term = term * x ** a
            total = total + term
    return total


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


def p_nr_series(bundle: SymSeriesBundle, n: int, r: int) -> UniPoly:
    """Classical p_n^(r) by the same convolution with ordinary binomials."""
    return _convolution(bundle, n, r, comb)


def _determinant(e, n: int, r: int, binom):
    """The Hessenberg determinant of size n-r+1 with first column
    binom(r+i, r) e_(r+i), the e's down the band and ones on the
    superdiagonal; e may hold UniPoly or BiPoly values."""
    if not (n >= r >= 1):
        raise ValueError("need n >= r >= 1")
    size = n - r + 1
    return det_hessenberg([binom(r + i, r) * e[r + i] for i in range(size)],
                          e, [1] * size)


def qp_nr_determinant(bundle: SymSeriesBundle, n: int, r: int) -> UniPoly:
    """The q-analog of p_n^(r) as a Hessenberg determinant."""
    return _determinant(bundle.e, n, r, qbinomial)


def p_nr_determinant(bundle: SymSeriesBundle, n: int, r: int) -> UniPoly:
    """Classical p_n^(r) as the same determinant with ordinary binomials."""
    return _determinant(bundle.e, n, r, comb)


def pn_bracket_determinant(e, n: int, power_base: int = 1) -> UniPoly:
    """The r = 1 q-analog from the determinant whose first column is [k] e_k.

    With power_base = s the brackets are [k] in base q^s.
    """
    return _determinant(e, n, 1, lambda k, _r: qbracket_power_base(k, power_base))


def en_factorial_determinant(p_list, n: int) -> UniPoly:
    """[n]! e_n as a determinant in the r = 1 q-analogs p_list[k] = [p_k].

    Row i carries [p_(i+1)], earlier [p]'s shifted along the band, and the
    bracket [i+1] on the superdiagonal.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return det_hessenberg(p_list[1:n + 1], p_list,
                          [qbracket(i + 1) for i in range(n)])


def qp_lambda(bundle: SymSeriesBundle, parts) -> UniPoly:
    """Product of r = 1 q-analogs over the parts of a partition."""
    acc = one
    for a in parts:
        acc = acc * qp_nr_direct(bundle, a, 1)
    return acc


# ---------------------------------------------------------------------------
# verification reports


def transfer_theorem_check(alphabet: SymAlphabet, n: int) -> CheckReport:
    """Exactly verify the q-Stirling transfer between the q-analog and the
    classical p_n^(r), in all four printed forms.

    (i)   q-analog from classical via second-kind numbers,
    (ii)  the inverse via first-kind numbers,
    (iii) the r = 1 case with bare (1-q) powers,
    (iv)  the intermediate double sum over binomials times q-binomials.
    """
    if alphabet.size < n:
        raise ValueError("alphabet must have at least n variables")
    report = CheckReport()
    bundle = SymSeriesBundle.from_alphabet(alphabet, n)
    classical = {j: p_nr_monomial(alphabet, n, j) for j in range(1, n + 1)}
    qanalog = {j: qp_nr_direct(bundle, n, j) for j in range(1, n + 1)}
    second_kind = qstirling2_triangle(n)
    first_kind = qstirling1_triangle(n)
    omq = powers(one - q, n)

    for r in range(1, n + 1):
        # (i) and (ii): sum over j of (1-q)^(j-r) T[j, r] x_j
        for identity, lhs, triangle, x in (
                ("transfer-second-kind", qanalog[r], second_kind, classical),
                ("transfer-first-kind", classical[r], first_kind, qanalog)):
            rhs = zero
            for j in range(r, n + 1):
                rhs = rhs + omq[j - r] * triangle.entry(j, r) * x[j]
            report.check(identity, lhs == rhs, detail=f"lhs={lhs} rhs={rhs}",
                         n=n, r=r)

        dbl = zero
        for j in range(r, n + 1):
            dbl = dbl + classical[j] * alternating_binomial_sum(qbinomial, j, r, zero)
        report.check("transfer-double-sum", qanalog[r] == dbl,
                     detail=f"lhs={qanalog[r]} rhs={dbl}", n=n, r=r)

    r1 = zero
    for j in range(1, n + 1):
        r1 = r1 + omq[j - 1] * classical[j]
    report.check("transfer-r1", qanalog[1] == r1,
                 detail=f"lhs={qanalog[1]} rhs={r1}", n=n, r=1)
    return report


def determinant_vs_convolution_check(alphabet: SymAlphabet, n: int) -> CheckReport:
    """The Hessenberg determinant and the convolution must agree exactly."""
    report = CheckReport()
    bundle = SymSeriesBundle.from_alphabet(alphabet, n)
    for r in range(1, n + 1):
        d = qp_nr_determinant(bundle, n, r)
        c = qp_nr_direct(bundle, n, r)
        report.check("determinant-vs-convolution", d == c,
                     detail=f"det={d} conv={c}", n=n, r=r)
    return report


def classical_pn_determinants_check(alphabet: SymAlphabet, n: int) -> CheckReport:
    """The r = 1 determinant identities and the defining linear system.

    Checks the [p_n] determinant against the convolution, the [n]! e_n
    determinant built from the previously computed [p_k], and the linear
    system sum (-1)^(k-1) e_(n-k) [p_k] = [n] e_n.
    """
    if alphabet.size < n:
        raise ValueError("alphabet must have at least n variables")
    report = CheckReport()
    bundle = SymSeriesBundle.from_alphabet(alphabet, n)
    e = bundle.e
    p_list = [zero] + [qp_nr_direct(bundle, k, 1) for k in range(1, n + 1)]
    for m in range(1, n + 1):
        det = pn_bracket_determinant(e, m)
        report.check("p-bracket-determinant", det == p_list[m],
                     detail=f"det={det} conv={p_list[m]}", n=m, r=1)

        lhs = en_factorial_determinant(p_list, m)
        rhs = qfactorial(m) * e[m]
        report.check("e-factorial-determinant", lhs == rhs,
                     detail=f"det={lhs} expected={rhs}", n=m, r=1)

        sys_lhs = zero
        for k in range(1, m + 1):
            term = e[m - k] * p_list[k]
            sys_lhs = sys_lhs + (term if (k - 1) % 2 == 0 else -term)
        sys_rhs = qbracket(m) * e[m]
        report.check("e-p-linear-system", sys_lhs == sys_rhs,
                     detail=f"lhs={sys_lhs} rhs={sys_rhs}", n=m, r=1)
    return report


def pq_transfer_check(alphabet: SymAlphabet, n: int) -> CheckReport:
    """Two-parameter extension: determinant versus double sum, and the p = 1
    slice collapsing to the one-parameter q-analog.

    Both routes evaluate the same formal identity, so they agree on every
    alphabet, even one with fewer variables than n (where faithfulness, not
    validity, is lost)."""
    report = CheckReport()
    bundle = SymSeriesBundle.from_alphabet(alphabet, n)
    e_bi = [BiPoly.from_unipoly(c) for c in bundle.e]
    classical = {j: p_nr_monomial(alphabet, n, j) for j in range(1, n + 1)}

    for r in range(1, n + 1):
        det = _determinant(e_bi, n, r, pq_binomial)

        dbl = BiPoly()
        for j in range(r, n + 1):
            dbl = dbl + (BiPoly.from_unipoly(classical[j])
                         * alternating_binomial_sum(pq_binomial, j, r, BiPoly()))
        report.check("pq-double-sum-vs-determinant", det == dbl,
                     detail=f"det={det!r} sum={dbl!r}", n=n, r=r)

        slice_q = det.at_p_one()
        direct = qp_nr_direct(bundle, n, r)
        report.check("pq-degenerates-to-q", slice_q == direct,
                     detail=f"slice={slice_q} direct={direct}", n=n, r=r)
    return report


def default_alphabets(n: int):
    """The three rational verification alphabets of size n."""
    return (SymAlphabet.primes(n),
            SymAlphabet.integers(n, start=2),
            SymAlphabet.half_odds(n))


def symfunc_suite_report(n_max: int) -> CheckReport:
    """Transfer, determinant, and two-parameter batteries on the default
    alphabets."""
    report = CheckReport()
    for n in range(1, n_max + 1):
        for alphabet in default_alphabets(n):
            report.merge(transfer_theorem_check(alphabet, n))
            report.merge(determinant_vs_convolution_check(alphabet, n))
    for n in range(1, DETERMINANT_N_MAX + 1):
        for alphabet in default_alphabets(n):
            report.merge(classical_pn_determinants_check(alphabet, n))
    for n in range(1, PQ_N_MAX + 1):
        alphabet = SymAlphabet.primes(max(n, 3))
        report.merge(pq_transfer_check(alphabet, n))
    return report
