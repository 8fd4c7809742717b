"""Exact Kostka functions for the complex reflection groups G(r,1,n).

The library builds the fake-degree matrix of the wreath product
S_n x (Z/rZ)^n over exact Laurent-polynomial arithmetic, solves the unique
triangular factorization that defines the (modified) Kostka functions, and
verifies the combinatorial identities tying them to Green-function inner
products.
"""
import sys

from .exact import ExactError, LaurentPoly, PolyMatrix, RationalFunction
from .factor import (FactorizationError, FactorizationResult, IcMatrix,
                     order_sensitivity, solve_factorization, unmodify_kostka)
from .greencheck import (VerifyReport, a_exponent, green_inner_product,
                         identity_5113_check, lemma59_check, thm55_check)
from .omega import (OmegaError, OmegaMatrix, WreathElement, a_O, b_O, bracket,
                    fake_degree, omega_entry_bruteforce, omega_entry_cosets,
                    omega_matrix, rho_character, wreath_elements)
from .rpart import (Composition, ContingencyMatrix, OrderedIndex, RPartition,
                    RPartitionError, default_total_order, dim_x, dim_xm_unip,
                    dominance_leq, enumerate_contingency,
                    enumerate_rpartitions, n_star, sample_linear_extensions)
from .symgrp import (DoubleCoset, SymGrpError, cycle_type, double_cosets,
                     mn_character)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level lru_cache of the loaded wkostka modules.

    The caches keep what one (n, r) needs for the life of the process
    (Omega at (6,3) leaves about 20 MiB in them, 4.4 MiB of it the row
    contractions); a long session can drop them between sizes, and later
    calls recompute what they need."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and \
                        getattr(obj, "__module__", None) == name:
                    obj.cache_clear()
