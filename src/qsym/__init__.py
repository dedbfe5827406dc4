"""Exact q-analog toolkit.

Arbitrary-precision polynomial arithmetic in q and (p, q), q-brackets and
Gaussian binomials, Carlitz q-Stirling triangles with their transfer
identities, q-analogs of the symmetric power-type sums p_n^(r) on finite
alphabets, and the triangular family of tree-inversion enumerator
polynomials together with their parking-function reciprocals.  Brute-force
combinatorial oracles certify every closed formula at desk scale.
"""

from .exactpoly import (BiPoly, InexactDivisionError, TruncSeries, UniPoly,
                        det_cofactor, det_hessenberg, exact_div, poly_text)
from .qcalc import (pq_binomial, pq_bracket, pq_derivative, pq_factorial,
                    q_derivative, qbinomial, qbracket, qbracket_power_base,
                    qfactorial)
from .qstirling import (StirlingTriangle, qstirling1, qstirling1_triangle,
                        qstirling2, qstirling2_triangle,
                        verify_carlitz_identities)
from .symfunc import (Partition, SymAlphabet, SymSeriesBundle,
                      complete_from_elementary, elementary,
                      elementary_sequence, p_nr_monomial, qp_nr_determinant,
                      qp_nr_direct, transfer_theorem_check)
from .jpoly import (JTable, build_jtable, j_explicit_composition,
                    j_explicit_sequences, j_from_specialized_symfunc,
                    kung_yan_check, q1_closed_forms, reciprocal,
                    reciprocal_recurrence_check)
from .oracles import (DecreasingRanking, EnumerationCapExceeded, Forest,
                      IncreasingRanking, Ranking, SeededRanking,
                      enumerate_forests, forest_enumerator_poly,
                      level_statistic, parking_enumerator_poly,
                      sigma_statistic)

__version__ = "0.1.0"
