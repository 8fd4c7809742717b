"""Exact Kostka functions for the complex reflection groups G(r,1,n).

The library builds the fake-degree matrix of the wreath product
S_n x (Z/rZ)^n over exact Laurent-polynomial arithmetic, solves the unique
triangular factorization that defines the (modified) Kostka functions, and
verifies the combinatorial identities tying them to Green-function inner
products.
"""
from .exact import (Cyclotomic, ExactError, LaurentPoly, PolyMatrix,
                    RationalFunction, from_zeta_power)
from .factor import (FactorizationError, FactorizationResult, IcMatrix,
                     order_sensitivity, solve_factorization, unmodify_kostka)
from .greencheck import (InnerProductValue, VerifyReport, a_exponent,
                         green_inner_product, identity_5113_check,
                         lemma59_check, thm55_check)
from .omega import (OmegaError, OmegaMatrix, WreathElement, a_O, b_O, bracket,
                    fake_degree, omega_entry_bruteforce, omega_entry_cosets,
                    omega_matrix, rho_character, wreath_elements)
from .rpart import (Composition, ContingencyMatrix, OrderedIndex, RPartition,
                    RPartitionError, default_total_order, dim_x, dim_xm_unip,
                    dominance_leq, enumerate_contingency,
                    enumerate_rpartitions, n_star, sample_linear_extensions)
from .symgrp import (CharTable, DoubleCoset, SymGrpError, char_perm_det,
                     char_table, cycle_type, double_cosets, mn_character,
                     torus_order, young_character)

__version__ = "0.1.0"
