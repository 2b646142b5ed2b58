"""charclass: exact mod-2 characteristic class computations.

Subpackages cover polynomial arithmetic over GF(2) (:mod:`charclass.poly2`),
the cohomology of real Bott manifolds (:mod:`charclass.bott`), Steenrod
operations in Milnor form (:mod:`charclass.steenrod`), the quotient-ring
combinatorics behind the key vanishing identity (:mod:`charclass.qring`),
generalized Dold manifolds (:mod:`charclass.dold`), and a command line front
end (:mod:`charclass.cli`).
"""

from .bott import (
    BottMatrix,
    FeasibilityError,
    MainReport,
    UnsupportedDimensionError,
    alpha,
    alpha_hat,
    banded_matrix,
    chain_matrix,
    dual_sw,
    extend_with_circles,
    is_orientable,
    main_matrix,
    normal_form,
    random_orientable_matrix,
    top_class_bit,
    top_coefficient,
    total_sw,
    verify_main,
)
from .dold import (
    DoldReport,
    DoldSpec,
    TruncPoly,
    binom_parity,
    dual_sw_dold,
    scan_dold,
    total_sw_dold,
    verify_dold,
)
from .poly2 import Monomial, Poly, format_poly, parse_poly
from .qring import (
    KeyReport,
    decompose,
    excess,
    expand_stream,
    is_zero_monomial,
    verify_key,
    verify_zero_a,
    verify_zero_b,
)
from .steenrod import (
    act,
    beta_tuple,
    canonical_z,
    chi_sq,
    enumerate_tuples,
    permsum,
)

__version__ = "0.1.0"

__all__ = [
    "BottMatrix",
    "DoldReport",
    "DoldSpec",
    "FeasibilityError",
    "KeyReport",
    "MainReport",
    "Monomial",
    "Poly",
    "TruncPoly",
    "UnsupportedDimensionError",
    "act",
    "alpha",
    "alpha_hat",
    "banded_matrix",
    "beta_tuple",
    "binom_parity",
    "canonical_z",
    "chain_matrix",
    "chi_sq",
    "decompose",
    "dual_sw",
    "dual_sw_dold",
    "enumerate_tuples",
    "excess",
    "expand_stream",
    "extend_with_circles",
    "format_poly",
    "is_orientable",
    "is_zero_monomial",
    "main_matrix",
    "normal_form",
    "parse_poly",
    "permsum",
    "random_orientable_matrix",
    "scan_dold",
    "top_class_bit",
    "top_coefficient",
    "total_sw",
    "total_sw_dold",
    "verify_dold",
    "verify_key",
    "verify_main",
    "verify_zero_a",
    "verify_zero_b",
    "__version__",
]
