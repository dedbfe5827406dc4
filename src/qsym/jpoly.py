"""The J polynomial family: tree-inversion enumerators for rooted forests
with a fixed number of roots, and their reciprocals, the sum enumerators of
parking functions.

J(n, r) is monic with strictly positive integer coefficients, has constant
term (n-r)! and degree C(n-1,2) - C(r-1,2), and J(r, r) = 1.  Every route to
J is here, as mutually checking code paths: the whole triangle row by row
from a linear recurrence whose coefficients are bracket powers
(build_jtable); an explicit composition sum for n > r; and the paper's own
route, p_n^(r) specialized at e_k = q^C(k,2) / k! on k!-scaled rows in Z[q],
which serves every command that prints J: a single entry (j_entry) and the
triangle streamed row by row in four formats (table_chunks).  The
recurrence table is verify's independent route.
The composition sums, of J and of both forms of its reciprocal, are one
depth-first walk over the compositions that shares each prefix's bracket
chain among all compositions extending it.
"""

from __future__ import annotations

from itertools import islice, repeat
from math import comb, factorial
from operator import add, mul

from .exactpoly import (InexactDivisionError, JTableShapeError, UniPoly,
                        bracket_mul, csv_cell, json_coeff_list, latex_poly,
                        one, one_minus_q_div, poly_text, triangle_entry, zero)


def j_degree(n: int, r: int) -> int:
    """Degree of J(n, r): C(n-1, 2) - C(r-1, 2)."""
    return comb(n - 1, 2) - comb(r - 1, 2)


class JTable:
    """Triangular table of J(n, r) for 0 <= r <= n <= n_max, held as the
    rows of build_jtable and read by exactpoly.triangle_entry: J(n, r) = 0
    for n < r, and J(n, 0) = 1 exactly when n = 0."""

    def __init__(self, n_max: int, rows):
        self.n_max = n_max
        self._rows = rows

    def entry(self, n: int, r: int) -> UniPoly:
        return triangle_entry(self._rows, self.n_max, n, r)

    def degree(self, n: int, r: int) -> int:
        return j_degree(n, r)

    def head(self, n_max: int) -> "JTable":     # the first n_max rows
        return JTable(min(n_max, self.n_max), self._rows)


def _validate_entry(n: int, r: int, poly: UniPoly):
    expected_degree = j_degree(n, r)
    if poly.degree() != expected_degree:
        raise JTableShapeError(f"J({n},{r}) degree {poly.degree()} != {expected_degree}")
    if not poly.is_monic():
        raise JTableShapeError(f"J({n},{r}) is not monic")
    if poly.constant_term() != factorial(n - r):
        raise JTableShapeError(f"J({n},{r}) constant term != ({n}-{r})!")
    if not all(c.denominator == 1 and c > 0 for c in poly.coeffs):
        raise JTableShapeError(f"J({n},{r}) has a non positive-integer coefficient")


def build_jtable(n_max: int) -> JTable:
    """Fill the triangle from the row recurrence: row 0 is [1] and row n is
    [0, J(n, 1), ..., J(n, n) = 1].

    J(n, r) = sum_j [r]^j q^C(j,2) C(m, j) J(m, j) with m = n - r >= 1 reads
    only the earlier row m, so rows are built in increasing n.  The sum is
    taken in Horner form, f_m = J(m, m), f_j = C(m, j) J(m, j) + q^j [r]
    f_(j+1) and J(n, r) = [r] f_1, so every bracket product is one
    bracket_mul window sum on int coefficient lists.  Every entry is checked
    against the shape invariants (monic, positive integer coefficients,
    degree, constant term).  Nothing is cached: verify builds one table and
    hands it to the batteries.
    """
    if n_max < 1:
        raise ValueError("table size must be >= 1")
    rows = [[one]]
    for n in range(1, n_max + 1):
        row = [zero]
        for r in range(1, n):
            m = n - r
            f = rows[m][m].coeffs
            for j in range(m - 1, 0, -1):
                cm = comb(m, j)
                f = bracket_mul(f, r, j, plus=[cm * c for c in rows[m][j].coeffs])
            row.append(UniPoly(bracket_mul(f, r)))
            _validate_entry(n, r, row[r])
        rows.append(row + [one])
    return JTable(n_max, rows)


def _add_shifted(total: list, c: int, s: int, f) -> None:
    """total += c q^s f, in place, f an int coefficient list."""
    end = s + len(f)
    total.extend(repeat(0, end - len(total)))
    total[s:end] = map(add, total[s:end], map(mul, f, repeat(c)))


# ---------------------------------------------------------------------------
# the exponential specialization e_k = q^C(k,2) / k!, a route to J(n, r), on
# rows scaled by k!: a_k = k! e_k = q^C(k,2) and b_k = k! h_k lie in Z[q]


def _shifted_sum(terms) -> list:
    """sum of c q^s f over the (c, s, f) in terms, f an int coefficient
    list; the sum's trailing zeros are stripped."""
    total = []
    for c, s, f in terms:
        _add_shifted(total, c, s, f)
    while total and not total[-1]:
        total.pop()
    return total


def exp_rows(order: int) -> list:
    """b_0..b_order: b_0 = 1, b_n = sum over k = 1..n of (-1)^(k+1) C(n, k)
    a_k b_(n-k), symfunc.complete_from_elementary scaled by n!; a smaller
    order's are a prefix."""
    b = [[1]]
    for n in range(1, order + 1):
        b.append(_shifted_sum(((-1) ** (k + 1) * comb(n, k), comb(k, 2), b[n - k])
                              for k in range(1, n + 1)))
    return b


def scaled_p_nr(b, n: int, r: int) -> list:
    """n! p_n^(r), n - r < len(b): symfunc.qp_nr_direct's alternating sum
    with ordinary binomials, scaled by n!, the sum over k = 0..n-r of (-1)^k
    C(r+k, r) C(n, r+k) a_(r+k) b_(n-r-k)."""
    return _shifted_sum(((-1) ** k * comb(r + k, r) * comb(n, r + k),
                         comb(r + k, 2), b[n - r - k]) for k in range(n - r + 1))


def j_from_scaled_p(c, n: int, r: int) -> UniPoly:
    """J(n, r) = c / (C(n, r) q^C(r,2) (1-q)^(n-r)), c being n! p_n^(r):
    coefficientwise by C(n, r), a shift past C(r, 2) zeros, and n - r
    divisions by 1 - q (exactpoly.one_minus_q_div).  A remainder raises
    InexactDivisionError: the claimed divisibility is checked too."""
    if not (n >= r >= 1):
        raise ValueError("need n >= r >= 1")
    d, s = comb(n, r), comb(r, 2)
    if any(c[:s]) or any(x % d for x in c):
        raise InexactDivisionError(f"{d} q^{s} does not divide {n}! p_{n}^({r})")
    c = [x // d for x in c[s:]]
    for _ in range(n - r):
        c = one_minus_q_div(c)
    return UniPoly(c)


def _specialized_entry(b, n: int, r: int) -> UniPoly:
    """J(n, r) by the specialization on the rows b, n - r < len(b), checked
    against the shape invariants."""
    entry = j_from_scaled_p(scaled_p_nr(b, n, r), n, r)
    _validate_entry(n, r, entry)
    return entry


def j_entry(n: int, r: int) -> UniPoly:
    """J(n, r) alone, by the specialization: b_0..b_(n-r), then n! p_n^(r)
    and its division, checked against the shape invariants.  No table is
    built: past the rows b, each step is a pass over one int list."""
    if not (n >= r >= 1):
        raise ValueError("need n >= r >= 1")
    return _specialized_entry(exp_rows(n - r), n, r)


def composition_sum(m: int, r: int, step) -> list:
    """sum over the compositions u of m of multinomial(m, u) q^e(u)
    [r]^(u1) [u1]^(u2) ... [u_(k-1)]^(uk), as an int coefficient list.

    The compositions are walked depth first.  Each prefix carries its
    bracket chain, its multinomial count, its exponent e, its last part
    (r before the first) and its part sum done.  A new part a takes
    C(m - done, a) into the count and advances e, from 0, to
    step(e, a, last, done); part a + 1 is part a times one more [last], so
    each child's chain is one bracket_mul past its previous sibling's.  A
    leaf adds count times its chain, shifted by e, into one list.
    """
    total = []

    def walk(chain, count, e, last, done):
        if done == m:
            _add_shifted(total, count, e, chain)
            return
        for a in range(1, m - done + 1):
            chain = bracket_mul(chain, last)
            walk(chain, count * comb(m - done, a), step(e, a, last, done),
                 a, done + a)

    walk([1], 1, 0, r, 0)
    return total


def j_explicit_composition(n: int, r: int) -> UniPoly:
    """J(n, r) as a sum over compositions u of n - r.

    Each composition contributes the bracket chain [r]^(u1) [u1]^(u2) ...
    [u_(k-1)]^(uk), the monomial q^(sum C(u_i,2)), and a multinomial count.
    The factorial-weighted sum over commencing sequences is this sum.
    """
    if not (n - 1 >= r >= 1):
        raise ValueError("need n - 1 >= r >= 1")
    return UniPoly(composition_sum(n - r, r,
                                   lambda e, a, last, done: e + comb(a, 2)))


def reciprocal(n: int, r: int, table: JTable) -> UniPoly:
    """q^(C(n-1,2) - C(r-1,2)) * J(n, r)(1/q): the coefficient reversal."""
    if not (n >= r >= 1):
        raise ValueError("need n >= r >= 1")
    return table.entry(n, r).reversed_to(j_degree(n, r))


# ---------------------------------------------------------------------------
# the triangle as text


def table_chunks(n_max: int, fmt: str, use_reciprocal: bool,
                 superscripts: bool = False):
    """J(n, r), or its reciprocal, for 1 <= r <= n <= n_max in fmt "csv",
    "latex", "json" or "plain", as strings to write in turn: one per row n.

    Every row reads one set of rows b = exp_rows(n_max - 1); each J(n, r),
    r < n, is checked as j_entry checks it, and J(n, n) = 1 by convention.
    The first string holds the header and rows 1 and 2, so none is given
    before J(2, 1), the first entry checked, has passed.  The last string
    closes the table; for csv and plain it is empty.  Only fmt "json"
    loads the json module.
    """
    if n_max < 1:
        raise ValueError("table size must be >= 1")
    head, tail = "", ""
    if fmt == "csv":
        head = "n,r,degree,coeffs\n"

        def render(n, polys):
            return "".join(f"{n},{r},{j_degree(n, r)},{csv_cell(json_coeff_list(p))}\n"
                           for r, p in enumerate(polys, 1))
    elif fmt == "latex":
        head = ("\\begin{tabular}{|l|" + "l|" * n_max + "}\n\\hline\n$n \\backslash r$ & "
                + " & ".join(f"${r}$" for r in range(1, n_max + 1)) + " \\\\ \\hline\n")
        tail = "\\end{tabular}\n"

        def render(n, polys):
            cells = ([f"${n}$"] + [f"${latex_poly(p)}$" for p in polys]
                     + [""] * (n_max - n))
            return " & ".join(cells) + " \\\\ \\hline\n"
    elif fmt == "json":
        head, tail = "[", "]\n"

        def render(n, polys):
            return ("," if n > 1 else "") + ",".join(
                f'{{"n":{n},"r":{r},"degree":{j_degree(n, r)},"poly":{p.to_json()}}}'
                for r, p in enumerate(polys, 1))
    else:
        def render(n, polys):
            text = " | ".join(poly_text(p, superscripts) for p in polys)
            return f"n={n}: {text}\n"

    b = exp_rows(n_max - 1)

    def entry(n, r):
        j = _specialized_entry(b, n, r) if r < n else one
        return j.reversed_to(j_degree(n, r)) if use_reciprocal else j

    rows = (render(n, [entry(n, r) for r in range(1, n + 1)])
            for n in range(1, n_max + 1))
    yield head + "".join(islice(rows, 2))
    yield from rows
    yield tail
