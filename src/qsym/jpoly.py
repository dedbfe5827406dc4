"""The J polynomial family: tree-inversion enumerators for rooted forests
with a fixed number of roots, and their reciprocals, the sum enumerators of
parking functions.

J(n, r) is monic with strictly positive integer coefficients, has constant
term (n-r)! and degree C(n-1,2) - C(r-1,2), and J(r, r) = 1.  The whole
triangle is generated row by row from a linear recurrence whose coefficients
are bracket powers; an explicit composition sum, and a route through the
symmetric-function machinery specialized at e_k = q^C(k,2) / k!, produce the
same polynomials and are kept as mutually checking code paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, factorial
from operator import itemgetter

from .exactpoly import (InexactDivisionError, TruncSeries, UniPoly, exact_div,
                        json_coeff_list, latex_poly, one, powers, q, zero)
from .qcalc import qbracket
from .report import CheckReport
from .symfunc import SymSeriesBundle, p_nr_series, pn_bracket_determinant


def multinomial(total: int, parts) -> int:
    num = factorial(total)
    for a in parts:
        num //= factorial(a)
    return num


def compositions(total: int):
    """Ordered tuples of positive integers with the given sum.

    Encoded by the subset of cut positions between consecutive units, so
    there are exactly 2^(total-1) of them; fine through total ~ 20.
    """
    if total < 0:
        return
    if total == 0:
        yield ()
        return
    for mask in range(1 << (total - 1)):
        parts, run = [], 1
        for i in range(total - 1):
            if (mask >> i) & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def column_binomial_sum(u) -> int:
    """sum C(u_i, 2): the inversion-floor statistic of a composition."""
    return sum(comb(a, 2) for a in u)


def composition_terms(m: int, r: int):
    """(u, [r]^(u1) [u1]^(u2) ... [u_(k-1)]^(uk), multinomial(m, u)) for
    every composition u of m: the shared factors of the composition sums."""
    for u in compositions(m):
        w = qbracket(r) ** u[0]
        for i in range(1, len(u)):
            w = w * qbracket(u[i - 1]) ** u[i]
        yield u, w, multinomial(m, u)


def j_degree(n: int, r: int) -> int:
    """Degree of J(n, r): C(n-1, 2) - C(r-1, 2)."""
    return comb(n - 1, 2) - comb(r - 1, 2)


class JTable:
    """Triangular table of J(n, r) for 1 <= r <= n <= n_max.

    Entries outside the triangle follow the standing conventions:
    J(n, r) = 0 for n < r, and J(n, 0) = 1 exactly when n = 0.
    """

    def __init__(self, n_max: int, rows):
        self.n_max = n_max
        self._rows = rows

    def entry(self, n: int, r: int) -> UniPoly:
        if r == 0:
            return one if n == 0 else zero
        if n < r:
            return zero
        if n > self.n_max:
            raise ValueError(f"table only covers n <= {self.n_max}")
        return self._rows[n][r]

    def degree(self, n: int, r: int) -> int:
        return j_degree(n, r)

    def entries(self, use_reciprocal: bool = False):
        """(n, r, J(n, r) or its reciprocal) for 1 <= r <= n <= n_max, row by row."""
        for n in range(1, self.n_max + 1):
            for r in range(1, n + 1):
                yield n, r, (reciprocal(n, r, self) if use_reciprocal
                             else self._rows[n][r])


def _validate_entry(n: int, r: int, poly: UniPoly):
    expected_degree = j_degree(n, r)
    if poly.degree() != expected_degree:
        raise AssertionError(f"J({n},{r}) degree {poly.degree()} != {expected_degree}")
    if not poly.is_monic():
        raise AssertionError(f"J({n},{r}) is not monic")
    if poly.constant_term() != factorial(n - r):
        raise AssertionError(f"J({n},{r}) constant term != ({n}-{r})!")
    if not all(c.denominator == 1 and c > 0 for c in poly.coeffs):
        raise AssertionError(f"J({n},{r}) has a non positive-integer coefficient")


@lru_cache(maxsize=1)
def build_jtable(n_max: int) -> JTable:
    """Fill the triangle from the row recurrence.

    J(n, r) = sum_j [r]^j q^C(j,2) C(n-r, j) J(n-r, j) for n > r, with
    J(r, r) = 1; row n only reads the earlier row n-r, so rows are built in
    increasing n.  Every entry is checked against the shape invariants
    (monic, positive integer coefficients, degree, constant term).  The
    last table built is cached: the batteries of one verify run all ask for
    the same size.
    """
    if n_max < 1:
        raise ValueError("table size must be >= 1")
    rows = {}
    for n in range(1, n_max + 1):
        rows[n] = {n: one}
        for r in range(1, n):
            m = n - r
            br = qbracket(r)
            acc = zero
            bpow = one
            for j in range(1, m + 1):
                bpow = bpow * br
                acc = acc + UniPoly.monomial(comb(j, 2), comb(m, j)) * bpow * rows[m][j]
            _validate_entry(n, r, acc)
            rows[n][r] = acc
    return JTable(n_max, rows)


def j_explicit_composition(n: int, r: int) -> UniPoly:
    """J(n, r) as a sum over compositions u of n - r.

    Each composition contributes the bracket chain [r]^(u1) [u1]^(u2) ...
    [u_(k-1)]^(uk), the monomial q^(sum C(u_i,2)), and a multinomial count.
    """
    if not (n - 1 >= r >= 1):
        raise ValueError("need n - 1 >= r >= 1")
    acc = zero
    for u, w, count in composition_terms(n - r, r):
        acc = acc + w * UniPoly.monomial(column_binomial_sum(u), count)
    return acc


def j_explicit_sequences(n: int, r: int) -> UniPoly:
    """J(n, r) as the factorial-weighted sum over commencing sequences.

    A commencing sequence packs its nonzero terms at the front; all other
    sequences contribute zero because they carry a factor [0]^positive.
    The conventions J(r, r) = 1 and J(n, 0) = [n == 0] fall out of the empty
    sequence and of [0]^positive = 0 respectively; the remaining sequences
    are the compositions of n - r, whose factorial weight m!/prod u_i! is
    the multinomial, so the sum is the composition sum.
    """
    if n < r or r < 0 or n < 0:
        raise ValueError("need n >= r >= 0")
    if n == r:
        return one
    if r == 0:
        return zero
    return j_explicit_composition(n, r)


def reciprocal(n: int, r: int, table: JTable) -> UniPoly:
    """q^(C(n-1,2) - C(r-1,2)) * J(n, r)(1/q): the coefficient reversal."""
    if not (n >= r >= 1):
        raise ValueError("need n >= r >= 1")
    return table.entry(n, r).reversed_to(j_degree(n, r))


def reciprocal_recurrence_check(n_max: int) -> CheckReport:
    """The reciprocal satisfies the horizontal recurrence with coefficients
    [r]^j q^(r (n-r-j)) C(n-r, j) against row n-r of the reciprocal table."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    report = CheckReport()
    table = build_jtable(n_max)
    for n in range(2, n_max + 1):
        for r in range(1, n):
            m = n - r
            br = qbracket(r)
            acc = zero
            bpow = one
            for j in range(1, m + 1):
                bpow = bpow * br
                acc = acc + (UniPoly.monomial(r * (m - j), comb(m, j))
                             * bpow * reciprocal(m, j, table))
            lhs = reciprocal(n, r, table)
            report.check("reciprocal-row-recurrence", lhs == acc,
                         detail=f"lhs={lhs} rhs={acc}", n=n, r=r)
    return report


def kung_yan_check(n_max: int) -> CheckReport:
    """The vertical recurrence down column r of the reciprocal table:
    (1-q)^(n-r) Jbar(n, r) = 1 - sum over l < n of C(n-r, l-r) q^(l(n-l))
    (1-q)^(l-r) Jbar(l, r); coefficients live in Z[q] with signs."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    report = CheckReport()
    table = build_jtable(n_max)
    omq = powers(one - q, n_max)
    for n in range(2, n_max + 1):
        for r in range(1, n):
            lhs = omq[n - r] * reciprocal(n, r, table)
            rhs = one
            for l in range(r, n):
                rhs = rhs - (UniPoly.monomial(l * (n - l), comb(n - r, l - r))
                             * omq[l - r] * reciprocal(l, r, table))
            report.check("reciprocal-column-recurrence", lhs == rhs,
                         detail=f"lhs={lhs} rhs={rhs}", n=n, r=r)
    return report


def q1_closed_forms(n: int, r: int):
    """(forest count, functional digraph count) at q = 1.

    The forest count r * n^(n-r-1) equals J(n, r)(1); at r = n the exponent
    is -1 and the exact value is 1, handled as a guarded case instead of a
    negative integer power.  The digraph count is (r-1)! times the forest
    count.
    """
    if not (n >= r >= 1):
        raise ValueError("need n >= r >= 1")
    count = 1 if r == n else r * n ** (n - r - 1)
    return count, factorial(r - 1) * count


@lru_cache(maxsize=None)
def exp_elementary(order: int):
    """The elementary values of the deformed exponential: q^C(k,2) / k!."""
    return tuple(UniPoly.monomial(comb(k, 2), Fraction(1, factorial(k)))
                 for k in range(order + 1))


def exp_series(order: int) -> TruncSeries:
    """The q-deformed exponential sum q^C(k,2) t^k / k!, truncated."""
    return TruncSeries(exp_elementary(order))


def exp_shift_check(order: int, r_max: int) -> CheckReport:
    """Ordinary r-th derivative of the deformed exponential equals
    q^C(r,2) times the same series evaluated at q^r t, coefficientwise.

    Equivalent to the exponent bookkeeping C(m+r,2) = C(m,2) + C(r,2) + mr.
    """
    if r_max > order:
        raise ValueError("need order >= r_max")
    report = CheckReport()
    E = exp_series(order)
    for r in range(1, r_max + 1):
        lhs = E
        for _ in range(r):
            lhs = lhs.derivative()
        rhs = TruncSeries(tuple(
            UniPoly.monomial(comb(r, 2) + comb(m, 2) + m * r,
                             Fraction(1, factorial(m)))
            for m in range(order - r + 1)))
        report.check("exp-derivative-shift", lhs == rhs, r=r,
                     detail=f"order={order}")
    return report


@lru_cache(maxsize=None)
def _exp_bundle(order: int) -> SymSeriesBundle:
    return SymSeriesBundle.from_elementary(exp_elementary(order))


def j_from_specialized_symfunc(n: int, r: int) -> UniPoly:
    """Extract J(n, r) from the classical p_n^(r) of the exponential
    specialization.

    p_n^(r) there equals (1-q)^(n-r) q^C(r,2) / (r! (n-r)!) times J(n, r);
    both divisions are exact polynomial divisions and a nonzero remainder
    raises, which is itself a check of the claimed divisibility.
    """
    if not (n >= r >= 1):
        raise ValueError("need n >= r >= 1")
    p = p_nr_series(_exp_bundle(n), n, r)
    scaled = p * (factorial(r) * factorial(n - r))
    no_shift = exact_div(scaled, UniPoly.monomial(comb(r, 2)))
    return exact_div(no_shift, (one - q) ** (n - r))


def specialization_bracket_shift_check(n_max: int) -> CheckReport:
    """Under the exponential specialization, p_n^(r) collapses to a scaled
    r = 1 analog in bracket base q^r:
    p_n^(r) = (1 - q^r) / r! * q^C(r,2) * [p_(n-r)] with brackets in base q^r.
    """
    report = CheckReport()
    for n in range(2, n_max + 1):
        bundle = _exp_bundle(n)
        for r in range(1, n):
            lhs = p_nr_series(bundle, n, r)
            bracket_pn = pn_bracket_determinant(bundle.e, n - r, power_base=r)
            rhs = (bracket_pn * (one - UniPoly.monomial(r))
                   * UniPoly.monomial(comb(r, 2), Fraction(1, factorial(r))))
            report.check("specialization-bracket-shift", lhs == rhs,
                         detail=f"lhs={lhs} rhs={rhs}", n=n, r=r)
    return report


def extended_recurrence_check(n_max: int) -> CheckReport:
    """The recurrence extended to n >= r >= 0 with J(n, 0) = [n == 0] and
    the empty bracket power [0]^0 = 1."""
    report = CheckReport()
    table = build_jtable(max(n_max, 1))
    for n in range(0, n_max + 1):
        for r in range(0, n + 1):
            m = n - r
            acc = zero
            for j in range(0, m + 1):
                coeff = qbracket(r) ** j
                acc = acc + (UniPoly.monomial(comb(j, 2), comb(m, j))
                             * coeff * table.entry(m, j))
            lhs = table.entry(n, r)
            report.check("extended-row-recurrence", lhs == acc,
                         detail=f"lhs={lhs} rhs={acc}", n=n, r=r)
    return report


def jpoly_suite_report(n_max: int) -> CheckReport:
    """Cross-formula equivalence plus the recurrence and shift batteries."""
    report = CheckReport()
    table = build_jtable(n_max)
    for n in range(1, n_max + 1):
        for r in range(1, n + 1):
            expected = table.entry(n, r)
            if n > r:
                report.check("table-vs-composition-formula",
                             j_explicit_composition(n, r) == expected, n=n, r=r)
            report.check("table-vs-sequence-formula",
                         j_explicit_sequences(n, r) == expected, n=n, r=r)
            try:
                ok, detail = j_from_specialized_symfunc(n, r) == expected, ""
            except InexactDivisionError as exc:     # the claimed divisibility fails
                ok, detail = False, str(exc)
            report.check("table-vs-specialization", ok, detail=detail, n=n, r=r)
    report.merge(reciprocal_recurrence_check(n_max))
    report.merge(kung_yan_check(n_max))
    report.merge(exp_shift_check(max(n_max, 2), min(max(n_max, 2), 8)))
    report.merge(specialization_bracket_shift_check(min(n_max, 7)))
    report.merge(extended_recurrence_check(min(n_max, 9)))
    return report


# ---------------------------------------------------------------------------
# exports


def jtable_csv_rows(table: JTable, use_reciprocal: bool = False):
    """Rows n,r,degree,coeffs with coeffs as a compact JSON array."""
    for n, r, poly in table.entries(use_reciprocal):
        yield n, r, table.degree(n, r), json_coeff_list(poly)


def jtable_latex(table: JTable, use_reciprocal: bool = False) -> str:
    """A tabular triangle in the layout of the printed table: one row per n,
    one column per r."""
    n_max = table.n_max
    lines = []
    lines.append(r"\begin{tabular}{|l|" + "l|" * n_max + "}")
    lines.append(r"\hline")
    header = ["$n \\backslash r$"] + [f"${r}$" for r in range(1, n_max + 1)]
    lines.append(" & ".join(header) + r" \\ \hline")
    for n, row in groupby(table.entries(use_reciprocal), key=itemgetter(0)):
        cells = ([f"${n}$"] + [f"${latex_poly(poly)}$" for _n, _r, poly in row]
                 + [""] * (n_max - n))
        lines.append(" & ".join(cells) + r" \\ \hline")
    lines.append(r"\end{tabular}")
    return "\n".join(lines)
