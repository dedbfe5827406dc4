"""Exact q-analog toolkit.

Arbitrary-precision polynomial arithmetic in q and (p, q), q-brackets and
Gaussian binomials, Carlitz q-Stirling triangles with their transfer
identities, q-analogs of the symmetric power-type sums p_n^(r) on finite
alphabets, and the triangular family of tree-inversion enumerator
polynomials together with their parking-function reciprocals.  Brute-force
combinatorial oracles certify every closed formula at desk scale.  Each
public name loads its module on first access, and no earlier.
"""

from importlib import import_module

_EXPORTS = {
    "exactpoly": "InexactDivisionError UniPoly poly_text",
    "pqalgebra": "BiPoly TruncSeries det_hessenberg pq_binomial",
    "qcalc": "qbinomial qbracket qbracket_power_base qfactorial",
    "qstirling": ("StirlingTriangle qstirling1 qstirling1_triangle qstirling2 "
                  "qstirling2_triangle"),
    "symfunc": ("SymAlphabet SymSeriesBundle complete_from_elementary "
                "elementary_sequence qp_nr_determinant qp_nr_direct "
                "transfer_theorem_check"),
    "jpoly": ("JTable build_jtable exp_rows j_explicit_composition "
              "j_from_scaled_p reciprocal scaled_p_nr"),
    "report": "kung_yan_check reciprocal_recurrence_check verify_carlitz_identities",
    "oracles": ("DecreasingRanking EnumerationCapExceeded Forest "
                "IncreasingRanking Ranking SeededRanking enumerate_forests "
                "forest_enumerator_poly level_statistic "
                "parking_enumerator_poly sigma_statistic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
