"""Exact computation of canonical bases of higher-level q-deformed Fock
spaces, Ariki-Koike decomposition matrices at roots of unity, Lusztig
a-values, and the crystal combinatorics that labels them."""

from .abacus import WedgeMonomial, degree, factorize, from_pair, to_pair, wedge_monomial
from .canonical import FockBasis, decomposition_matrix, verify_unitriangular
from .crystal import crystal_graph, flotw_predicate, kleshchev_charge, uglov_set
from .laurent import LaurentPoly
from .wedge import WedgeEngine

__all__ = [
    "FockBasis",
    "LaurentPoly",
    "WedgeEngine",
    "WedgeMonomial",
    "crystal_graph",
    "decomposition_matrix",
    "degree",
    "factorize",
    "flotw_predicate",
    "from_pair",
    "kleshchev_charge",
    "to_pair",
    "uglov_set",
    "verify_unitriangular",
    "wedge_monomial",
]
