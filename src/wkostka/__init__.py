"""Exact Kostka functions for the complex reflection groups G(r,1,n).

The library builds the fake-degree matrix of the wreath product
S_n x (Z/rZ)^n over exact Laurent-polynomial arithmetic, solves the unique
triangular factorization that defines the (modified) Kostka functions, and
verifies the combinatorial identities tying them to Green-function inner
products.

Importing the package loads none of its modules: each public name loads
its defining module on first use (PEP 562).  Besides the re-exports and
clear_caches, the package root defines everything the command-line
dispatcher reads before it runs a command: the two guard bounds, the
solve blocks and the two bases that fix an error's exit code, UsageError
and Failure.
"""
import sys

# Defining module -> the public names the package re-exports from it.
_EXPORTS = {
    "exact": ("ExactError", "LaurentPoly", "PolyMatrix"),
    "ratfunc": ("RationalFunction",),
    "factor": ("FactorizationError", "FactorizationResult", "IcMatrix",
               "order_sensitivity", "solve_factorization"),
    "charge": ("unmodify_kostka",),
    "greencheck": ("VerifyReport", "a_exponent", "b_O", "green_inner_product",
                   "identity_5113_check", "lemma59_check", "thm55_check"),
    "omega": ("OmegaError", "a_O", "bracket", "omega_entry_cosets",
              "omega_matrix"),
    "wreath": ("fake_degree", "omega_entry_bruteforce", "rho_character"),
    "rpart": ("Composition", "ContingencyMatrix", "OrderedIndex", "RPartition",
              "RPartitionError", "default_total_order", "dim_x",
              "dim_xm_unip", "dominance_leq", "enumerate_contingency",
              "enumerate_rpartitions", "n_star", "sample_linear_extensions"),
    "symgrp": ("DoubleCoset", "SymGrpError", "cycle_type", "double_cosets",
               "mn_character"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_HOME, "clear_caches"])

__version__ = "0.1.0"


# The guard bounds: the coset route's K = |P_{n,r}| <= COSET_K_BOUND, and
# the wreath oracle's K^3 r^2 n <= WREATH_ORACLE_BOUND.  omega checks them;
# they live here so that the CLI can show them as flag defaults without
# loading omega.
COSET_K_BOUND = 300
WREATH_ORACLE_BOUND = 80_000_000

# The blocks `solve --emit` takes, in the order every format prints them;
# commands pairs each with its reader.
BLOCKS = ("omega", "p-minus", "p-plus", "lambda", "theta", "lambda-prime",
          "p-plus-modified", "ic-minus", "ic-plus")


# The two error bases are defined here, not in cli, because
# `python -m wkostka.cli` runs cli as __main__: a command module that
# imported them from wkostka.cli would load a second cli, whose classes the
# running one would not catch.
class UsageError(ValueError):
    """A bad command line or command input: `wkostka` prints it as one
    `error:` line and exits 2.  rpart.RPartitionError and
    fixtures.FixtureError subclass it."""


class Failure(ValueError):
    """A failed computation or a tripped guard bound: `wkostka` prints it as
    one `error:` line and exits 1.  omega.OmegaError,
    factor.FactorizationError and greencheck.GreenCheckError subclass it."""


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_HOME[name]}"
    __import__(module)
    value = globals()[name] = getattr(sys.modules[module], name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_HOME))


def clear_caches() -> None:
    """Empty every module-level lru_cache of the loaded wkostka modules.

    The caches keep what one (n, r) needs for the life of the process
    (Omega at (6,3) leaves about 10 MiB in them, 4.4 MiB of it the row
    contractions); a long session can drop them between sizes, and later
    calls recompute what they need."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and \
                        getattr(obj, "__module__", None) == name:
                    obj.cache_clear()
