"""Exact arithmetic substrate: dense polynomials in q over the rationals.

A polynomial is a tuple of coefficients, index i holding that of q**i, with
trailing zeros stripped; the zero polynomial is the empty tuple, of degree
None.  A coefficient is an ``int`` where integral and a reduced ``Fraction``
otherwise; both have a ``denominator``, by which this module tells an exact
scalar without importing ``fractions``.  Every command compiles this module
(there is no bytecode cache), so it holds only what queries and exports use:
``UniPoly``, the bracket kernel, exact division by ``1 - q^a``, the one entry
rule of the q-binomial, q-Stirling and J tables (``triangle_entry``), the
renderers, the immutable value base and the errors with their own exit
codes.  ``BiPoly``, ``TruncSeries`` and the Hessenberg determinant live in
``pqalgebra`` and still resolve here.  JSON is an output form only: nothing
here parses it back.  All values are immutable and all operations pure.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

_MOVED = ("BiPoly", "TruncSeries", "det_hessenberg")


def __getattr__(name):
    if name in _MOVED:
        from . import pqalgebra
        return getattr(pqalgebra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a nonzero remainder."""


class JTableShapeError(ArithmeticError):
    """A computed J(n, r) breaks a shape invariant of the triangle."""


DEFAULT_CAP = 10_000_000


class EnumerationCapExceeded(Exception):
    """More objects would be enumerated than the configured cap."""

    def __init__(self, projected: int, cap: int):
        super().__init__(f"enumeration would count {projected} objects "
                         f"(cap {cap})")
        self.projected = projected
        self.cap = cap


# Sets a field of a Frozen instance; only the class's __init__ calls it.
set_field = object.__setattr__


class Frozen:
    """Base of the immutable value classes: a subclass names its fields in
    __slots__ and sets them in __init__ with set_field.  Instances compare,
    hash and print by their fields in order, and refuse assignment."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _coerce(c):
    """The stored form of an exact coefficient: int if integral, else Fraction."""
    if isinstance(c, int):
        return int(c)
    if hasattr(c, "denominator"):
        return c.numerator if c.denominator == 1 else c
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


def bracket_mul(c, a: int, shift: int = 0, sign: int = 1, plus=()) -> list:
    """plus + sign q^shift [a] c, sign 1 or -1, on ascending coefficient lists.

    Coefficient i of [a] c = (1 + q + ... + q^(a-1)) c is the window sum
    c[i-a+1] + ... + c[i], the window before it plus c[i] less c[i-a]: a
    running sum, O(len(c) + a) additions against O(len(c) a) for _convolve.
    """
    if not c or a <= 0:
        return list(plus)
    c = list(c)
    enters, leaves = c + [0] * (a - 1), [0] * a + c[:-1]
    diffs = map(sub, enters, leaves) if sign > 0 else map(sub, leaves, enters)
    out = [0] * shift
    out += accumulate(diffs)
    return _add(out, plus) if plus else out


def one_minus_q_div(c, a: int = 1) -> list:
    """c / (1 - q^a) on an ascending int list: a running sum along each
    residue class mod a, O(len(c)).  The last a sums are the remainder, and
    a nonzero one raises InexactDivisionError."""
    c = list(c)
    for j in range(a):
        c[j::a] = accumulate(c[j::a])
    if any(c[-a:]):
        raise InexactDivisionError(f"1 - q^{a} leaves a remainder")
    del c[-a:]
    return c


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
        if hasattr(other, "denominator"):       # an exact scalar
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
        if isinstance(other, UniPoly):
            return UniPoly(_convolve(self.coeffs, other.coeffs, 0))
        if hasattr(other, "denominator"):
            return UniPoly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, UniPoly((1,)))

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as the scalar it equals (its sum), zero as 0
        return hash(self.coeffs if len(self.coeffs) > 1 else sum(self.coeffs))

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
        out[::r] = self.coeffs
        return UniPoly(out)

    def reversed_to(self, target_degree: int) -> "UniPoly":
        """q**target_degree * self(1/q): the coefficient sequence read
        backwards inside a window of length target_degree + 1."""
        d = self.degree()
        if d is not None and target_degree < d:
            raise ValueError(
                f"reversal window {target_degree} is below the degree {d}")
        return UniPoly((0,) * (target_degree + 1 - len(self.coeffs))
                       + self.coeffs[::-1])

    def inverse(self) -> "UniPoly":
        """Multiplicative inverse of a nonzero constant; ±1 is its own."""
        if len(self.coeffs) != 1:
            raise ValueError("only nonzero constant polynomials are invertible")
        if self.coeffs[0] in (1, -1):
            return self
        from fractions import Fraction
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
        import json
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


zero = UniPoly()
one = UniPoly((1,))
q = UniPoly((0, 1))


def triangle_entry(rows, n_max: int, n: int, k: int):
    """rows[n][k] of a triangle held as full rows 0..n_max, column 0
    included, as qcalc.triangle_rows yields them: 0 outside 0 <= k <= n,
    and a row past n_max raises ValueError."""
    if not 0 <= k <= n:
        return zero
    if n > n_max:
        raise ValueError(f"table only covers n <= {n_max}")
    return rows[n][k]


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
    reduced "a/b" strings, which need no escaping.
    """
    text = ",".join(map(str, poly.coeffs))
    if "/" in text:
        text = ",".join(str(c) if c.denominator == 1 else f'"{c}"'
                        for c in poly.coeffs)
    return f"[{text}]"


def csv_cell(text: str) -> str:
    """text as a CSV field, as csv.writer quotes it when it holds no line
    break: quoted, each " doubled, exactly when it holds , or "."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text
