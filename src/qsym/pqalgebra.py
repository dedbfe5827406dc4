"""The verification algebra: polynomials in (p, q), truncated power series,
the Hessenberg determinant and the (p, q)-binomials.

Only verify uses these, so they are kept out of ``exactpoly``, which every
command compiles.  Coefficients follow the ``exactpoly`` rules.
"""

from __future__ import annotations

from operator import add, sub

from .exactpoly import UniPoly, _add, _coerce, _convolve, _power, zero
from .qcalc import qbinomial


# ---------------------------------------------------------------------------
# bivariate polynomials in (p, q)


class BiPoly:
    """Dense bivariate polynomial in (p, q); entry (i, j) multiplies p^i q^j.

    The stored rectangle is minimal: no all-zero top row or right column
    survives normalization, and the zero polynomial is the empty rectangle.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        grid = [[c if type(c) is int else _coerce(c) for c in row] for row in rows]
        width = max((len(r) for r in grid), default=0)
        for r in grid:
            r.extend([0] * (width - len(r)))
        while grid and not any(grid[-1]):
            grid.pop()
        if grid:
            w = width
            while w and not any(row[w - 1] for row in grid):
                w -= 1
            grid = [row[:w] for row in grid]
        self.rows = tuple(tuple(r) for r in grid)

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls(((c,),))

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BiPoly":
        """c * p**i * q**j"""
        return cls([[]] * i + [[0] * j + [c]])

    @classmethod
    def from_unipoly(cls, u: UniPoly) -> "BiPoly":
        """Embed a polynomial in q as a p-degree-0 rectangle."""
        return cls((u.coeffs,)) if u.coeffs else cls()

    def is_zero(self) -> bool:
        return not self.rows

    def coeff(self, i: int, j: int) -> int | Fraction:
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return 0

    @staticmethod
    def _lift(other):
        if isinstance(other, BiPoly):
            return other
        if hasattr(other, "denominator"):
            return BiPoly(((other,),))
        return None

    def _row_polys(self) -> list:
        """The rows as polynomials in q; arithmetic works on these."""
        return [UniPoly(row) for row in self.rows]

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return BiPoly(p.coeffs for p in _add(self._row_polys(), other._row_polys()))

    __radd__ = __add__

    def __neg__(self):
        return BiPoly(tuple(tuple(-c for c in row) for row in self.rows))

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if hasattr(other, "denominator"):
            return BiPoly(tuple(tuple(c * other for c in row) for row in self.rows))
        if not isinstance(other, BiPoly):
            return NotImplemented
        rows = _convolve(self._row_polys(), other._row_polys(), zero)
        return BiPoly(p.coeffs for p in rows)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, BiPoly.constant(1))

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        # at most one row hashes as that UniPoly, so a constant as its scalar
        return hash(self.rows if len(self.rows) > 1 else UniPoly(*self.rows))

    def inverse(self) -> "BiPoly":
        if len(self.rows) == 1:                 # a polynomial in q alone
            return BiPoly.from_unipoly(UniPoly(self.rows[0]).inverse())
        raise ValueError("only nonzero constant polynomials are invertible")

    def at_p_one(self) -> UniPoly:
        """Specialize p = 1, collapsing rows into a polynomial in q."""
        return sum(self._row_polys(), zero)

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c:
                    terms.append(f"{c}*p^{i}q^{j}")
        return "BiPoly(" + (" + ".join(terms) if terms else "0") + ")"


# ---------------------------------------------------------------------------
# truncated power series


class TruncSeries:
    """Power series in t truncated at a fixed order.

    Coefficients live in any commutative ring implementing +, -, * and
    inverse() for units (UniPoly or BiPoly here).  Arithmetic between two
    series truncates to the smaller order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least its constant term")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int):
        return self.coeffs[m]

    def _zero_elem(self):
        c = self.coeffs[0]
        return c - c

    def __add__(self, other):           # map stops at the shorter series
        return TruncSeries(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return TruncSeries(map(sub, self.coeffs, other.coeffs))

    def __mul__(self, other):
        if hasattr(other, "denominator"):
            return TruncSeries(tuple(c * other for c in self.coeffs))
        m = min(self.order, other.order)
        product = _convolve(self.coeffs[:m + 1], other.coeffs[:m + 1],
                            self._zero_elem())
        return TruncSeries(product[:m + 1])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def invert(self) -> "TruncSeries":
        """Formal reciprocal; the constant term must be a unit."""
        c0 = self.coeffs[0]
        if (hasattr(c0, "is_zero") and c0.is_zero()) or not c0:
            raise ValueError("series with zero constant term has no reciprocal")
        b0 = c0.inverse()
        out = [b0]
        for m in range(1, self.order + 1):
            acc = self._zero_elem()
            for k in range(1, m + 1):
                acc = acc + self.coeffs[k] * out[m - k]
            out.append(-(b0 * acc))
        return TruncSeries(out)

    def derivative(self) -> "TruncSeries":
        """Ordinary derivative d/dt; the order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate past the truncation order")
        return TruncSeries(tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order)))

    def __repr__(self):
        return f"TruncSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# the Hessenberg determinant


def det_hessenberg(first_col, band, superdiag):
    """Determinant of the banded lower Hessenberg matrix whose row i is

        first_col[i], band[i], band[i-1], ..., band[1], superdiag[i], 0, ...

    The size is len(first_col); band[0] and the last superdiagonal entry lie
    outside the matrix and are never read.  Counting rows and columns from 1,
    expanding the leading k x k minor along its last row gives

        D_k = sum_j (-1)^(k-j) h[k][j] h[j][j+1] ... h[k-1][k] D_(j-1),

    which needs only ring sums and products, so it serves UniPoly and BiPoly
    alike with no division (Cahill, D'Errico, Narayan & Narayan, "Fibonacci
    determinants", College Math. J. 2002).
    """
    n = len(first_col)
    if n == 0:
        raise ValueError("empty matrix")
    d = [1]                                     # D_0, the empty minor
    for k in range(n):
        acc, chain = 0, 1
        for j in range(k, -1, -1):
            entry = band[k - j + 1] if j else first_col[k]
            term = entry * chain * d[j]
            acc = acc - term if (k - j) % 2 else acc + term
            if j:
                chain = chain * superdiag[j - 1]
        d.append(acc)
    return d[n]


# ---------------------------------------------------------------------------
# the two-parameter binomial; stored as BiPoly even when the p-degree is
# zero, so the one-parameter degeneration is a plain p = 1 specialization.


def pq_binomial(n: int, k: int) -> BiPoly:
    """Two-parameter Gaussian binomial, the solution of the (p,q)-triangular
    recurrence [n k] = p^(n-k) [n-1 k-1] + q^k [n-1 k].  Being homogeneous
    of degree k(n-k), [n k] is fixed by its q-coefficients c at p = 1: those
    of the Gaussian binomial qbinomial(n, k)."""
    if k < 0 or n < 0 or k > n:
        return BiPoly()
    d, c = k * (n - k), qbinomial(n, k).coeffs
    return BiPoly([0] * j + [c[j]] for j in range(d, -1, -1))   # p^(d-j) q^j
