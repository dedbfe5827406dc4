"""Exact arithmetic substrate: rationals, dense polynomials, truncated series.

A univariate polynomial in q is a tuple of coefficients, index i holding
the coefficient of q**i, with trailing zeros stripped.  Each coefficient is
an ``int`` where integral and a reduced ``Fraction`` otherwise, so the integer
polynomials that make up most of the package never pay for ``Fraction``
arithmetic.  An ``int`` has ``numerator``/``denominator`` and compares and
hashes equal to the same-valued ``Fraction``, so callers need not tell the
two apart.  The zero polynomial is the empty tuple and its degree is None
(not a number), so degree arithmetic on it fails loudly instead of
silently.  Bivariate polynomials in (p, q) are stored as a minimal dense
rectangle, row index = power of p, with coefficients of the same two types.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
from fractions import Fraction


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a nonzero remainder."""


def _coerce(c):
    """The stored form of an exact coefficient: int if integral, else Fraction."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _add(a, b) -> list:
    """Coefficientwise sum of two ascending coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _convolve(a, b, zero) -> list:
    """Product of two ascending coefficient sequences; zero is the
    coefficient ring's zero and fills the slots no term reaches."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _power(base, n: int, unit):
    """base**n by repeated squaring, starting from the ring's unit."""
    if n < 0:
        raise ValueError("negative polynomial power")
    result = unit
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def powers(base, n: int) -> list:
    """[base**0, base**1, ..., base**n], each from the one before."""
    pw = [base ** 0]
    for _ in range(n):
        pw.append(pw[-1] * base)
    return pw


class UniPoly:
    """Dense univariate polynomial in q over the rationals.

    UniPoly((2, 3, 1)) is 2 + 3q + q^2.  Coefficients may be ints or
    Fractions; floats are rejected.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # ints, the common case, skip the call
        cs = [c if type(c) is int else _coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "UniPoly":
        """c * q**k"""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * k + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, i: int) -> int | Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def constant_term(self) -> int | Fraction:
        return self.coeff(0)

    def leading_coeff(self) -> int | Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return UniPoly(_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

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
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly(_convolve(self.coeffs, other.coeffs, 0))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, UniPoly((1,)))

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- structural operations ---------------------------------------------

    def evaluate(self, x: int | Fraction) -> int | Fraction:
        """Value at q = x, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_power(self, r: int) -> "UniPoly":
        """Substitute q -> q**r; the degree multiplies by r."""
        if r < 1:
            raise ValueError("substitution exponent must be >= 1")
        if not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * r + 1)
        for i, c in enumerate(self.coeffs):
            out[i * r] = c
        return UniPoly(out)

    def reversed_to(self, target_degree: int) -> "UniPoly":
        """q**target_degree * self(1/q): the coefficient sequence read
        backwards inside a window of length target_degree + 1."""
        d = self.degree()
        if d is not None and target_degree < d:
            raise ValueError(
                f"reversal window {target_degree} is below the degree {d}")
        window = [0] * (target_degree + 1)
        for i, c in enumerate(self.coeffs):
            window[target_degree - i] = c
        return UniPoly(window)

    def inverse(self) -> "UniPoly":
        """Multiplicative inverse; only nonzero constants are units here."""
        d = self.degree()
        if d is None or d > 0:
            raise ValueError("only nonzero constant polynomials are invertible")
        return UniPoly((Fraction(1) / self.coeffs[0],))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    # -- presentation --------------------------------------------------------

    def text(self, superscripts: bool = False) -> str:
        return poly_text(self, superscripts=superscripts)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"UniPoly('{self.text()}')"

    def to_json_dict(self) -> dict:
        return {"var": "q", "coeffs": [str(c) for c in self.coeffs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "UniPoly":
        if d.get("var") != "q":
            raise ValueError("expected a polynomial in q")
        return cls(Fraction(c) for c in d["coeffs"])

    @classmethod
    def from_json(cls, s: str) -> "UniPoly":
        return cls.from_json_dict(json.loads(s))


zero = UniPoly()
one = UniPoly((1,))
q = UniPoly((0, 1))


def _terms_text(poly: UniPoly, exponent) -> str:
    """Ascending signed terms; exponent(i) renders the power of q for i >= 2."""
    if poly.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(poly.coeffs):
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}q" if i == 1 else f"{head}q{exponent(i)}"
        parts.append(sign + body)
    return "".join(parts)


def poly_text(poly: UniPoly, superscripts: bool = False) -> str:
    """Render ascending powers: 2+3q+2q^2+q^3 (or q-superscript unicode)."""
    if superscripts:
        return _terms_text(poly, lambda i: str(i).translate(_SUPERSCRIPTS))
    return _terms_text(poly, lambda i: f"^{i}")


def latex_poly(poly: UniPoly) -> str:
    """Render ascending powers for LaTeX math mode: 2+3q+2q^{2}+q^{3}."""
    return _terms_text(poly, lambda i: f"^{{{i}}}")


def json_coeff_list(poly: UniPoly) -> str:
    """Coefficients as a compact JSON array, ascending degree.

    Integer coefficients appear as JSON numbers; non-integer rationals as
    reduced "a/b" strings.
    """
    items = [int(c) if c.denominator == 1 else str(c) for c in poly.coeffs]
    return json.dumps(items, separators=(",", ":"))


def parse_poly_text(s: str) -> UniPoly:
    """Inverse of poly_text for the ascii form (used by the CLI tests)."""
    s = s.strip().replace(" ", "")
    if s == "0":
        return UniPoly()
    s = s.replace("-", "+-")
    coeffs = {}
    for term in s.split("+"):
        if not term:
            continue
        if "q" in term:
            head, _, tail = term.partition("q")
            k = int(tail[1:]) if tail.startswith("^") else (int(tail) if tail else 1)
            if tail and not tail.startswith("^"):
                raise ValueError(f"malformed term {term!r}")
            if head in ("", "-"):
                c = Fraction(f"{head}1")
            else:
                c = Fraction(head)
        else:
            k, c = 0, Fraction(term)
        coeffs[k] = coeffs.get(k, 0) + c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return UniPoly(out)


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
        rows = [[0] * (j + 1) for _ in range(i + 1)]
        rows[i][j] = c
        return cls(rows)

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
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
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
        return hash(self.rows)

    def inverse(self) -> "BiPoly":
        if len(self.rows) == 1 and len(self.rows[0]) == 1:
            return BiPoly(((Fraction(1) / self.rows[0][0],),))
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

    def to_json_dict(self) -> dict:
        return {"vars": ["p", "q"],
                "coeffs": [[str(c) for c in row] for row in self.rows]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "BiPoly":
        if d.get("vars") != ["p", "q"]:
            raise ValueError("expected a polynomial in (p, q)")
        return cls([[Fraction(c) for c in row] for row in d["coeffs"]])


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

    def truncated(self, new_order: int) -> "TruncSeries":
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: new_order + 1])

    def __add__(self, other):
        m = min(self.order, other.order)
        return TruncSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(m + 1)))

    def __sub__(self, other):
        m = min(self.order, other.order)
        return TruncSeries(tuple(self.coeffs[i] - other.coeffs[i] for i in range(m + 1)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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
# exact division and determinants


def divmod_poly(a: UniPoly, b: UniPoly):
    """Quotient and remainder of a by b over the rationals."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lead = b.degree(), b.leading_coeff()
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = _coerce(Fraction(c) / lead)        # exact, even for two ints
        quot[i - db] = f
        for j, cb in enumerate(b.coeffs):
            rem[i - db + j] -= f * cb
    return UniPoly(quot), UniPoly(rem)


def exact_div(a: UniPoly, b: UniPoly) -> UniPoly:
    """Divide a by b, insisting the division is exact."""
    quot, rem = divmod_poly(a, b)
    if not rem.is_zero():
        raise InexactDivisionError(f"({a}) is not divisible by ({b})")
    return quot


def det_cofactor(m):
    """Determinant by first-row cofactor expansion.

    Works over any coefficient ring (UniPoly, BiPoly); exponential in the
    size, so only for small matrices and as the reference that
    det_hessenberg is tested against.
    """
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
