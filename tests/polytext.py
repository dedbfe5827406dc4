"""Reading the plain text form of a polynomial back, for the tests."""

from fractions import Fraction

from qsym.exactpoly import UniPoly


def parse_poly_text(s: str) -> UniPoly:
    """Inverse of poly_text for the ascii form: reads the plain CLI output
    back into a polynomial."""
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
