"""Source hygiene: every import in the package's modules is read, each
command loads only the modules it runs, the reconstruction check stays
independent of the elimination it checks, the Green inner product and the
wreath oracle share no code with the coset entries they are checked
against, and the checks of Omega's symmetries never go through the twisted
entry."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wkostka

PACKAGE = Path(wkostka.__file__).resolve().parent


def test_no_module_has_an_unused_import():
    """__init__.py re-exports by importing, and a line marked `# noqa: F401`
    keeps a name another module binds, so neither counts."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__" or \
                    "# noqa: F401" in " ".join(lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [f"{path.name}:{node.lineno} {alias.name}"
                       for alias in node.names
                       if (alias.asname or alias.name.split(".")[0]) not in read]
    assert unused == []


# Every name the package re-exports.
EXPORTS = (
    "ExactError", "LaurentPoly", "PolyMatrix", "RationalFunction",
    "FactorizationError", "FactorizationResult", "IcMatrix",
    "order_sensitivity", "solve_factorization", "unmodify_kostka",
    "VerifyReport", "a_exponent", "green_inner_product",
    "identity_5113_check", "lemma59_check", "thm55_check",
    "OmegaError", "OmegaMatrix", "a_O", "b_O", "bracket",
    "fake_degree", "omega_entry_bruteforce", "omega_entry_cosets",
    "omega_matrix", "rho_character",
    "Composition", "ContingencyMatrix", "OrderedIndex", "RPartition",
    "RPartitionError", "default_total_order", "dim_x", "dim_xm_unip",
    "dominance_leq", "enumerate_contingency", "enumerate_rpartitions",
    "n_star", "sample_linear_extensions",
    "DoubleCoset", "SymGrpError", "cycle_type", "double_cosets",
    "mn_character",
)


def test_every_export_is_its_defining_modules_object():
    for name in EXPORTS:
        obj = getattr(wkostka, name)
        assert obj.__module__.startswith("wkostka."), name
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(EXPORTS) <= set(dir(wkostka)) and \
        set(EXPORTS) <= set(wkostka.__all__)
    with pytest.raises(AttributeError):
        wkostka.no_such_name


def _loaded(*statements: str) -> set:
    """The wkostka.* modules a fresh interpreter holds after statements."""
    probe = "\n".join(("import sys", *statements, "print(' '.join(m for m in "
                        "sys.modules if m.startswith('wkostka.')))"))
    done = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return set(done.stdout.split())


def test_import_wkostka_loads_no_module():
    assert _loaded("import wkostka") == set()


# Tuples, not sets: a set's order, and so the test id, varies with the hash
# seed.  commands holds enumerate, omega and solve, suites every verify suite
# but thm55 (whose body is in greencheck), and ratfunc is Q(t).
@pytest.mark.parametrize("argv, unused", [
    (("solve", "--n", "2", "--r", "3"),
     ("greencheck", "charge", "fixtures", "wreath", "suites")),
    (("verify", "thm55", "--n", "2", "--r", "2"),
     ("factor", "charge", "wreath", "commands", "ratfunc", "suites",
      "fixtures")),
    (("verify", "oracle", "--n", "2", "--r", "2"),
     ("factor", "ratfunc", "charge", "commands", "fixtures")),
], ids=" ".join)
def test_each_command_loads_only_its_modules(argv, unused):
    loaded = _loaded("import io, contextlib, wkostka.cli",
                     "with contextlib.redirect_stdout(io.StringIO()):",
                     f"    assert wkostka.cli.main({list(argv)!r}) == 0")
    assert "wkostka.omega" in loaded
    assert loaded & {f"wkostka.{m}" for m in unused} == set()


def _names_in(module: str, function: str = None) -> set:
    """Every name and attribute that the body of module.function reads, or
    that the whole module reads when function is None."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    body = tree if function is None else next(
        node for node in tree.body if isinstance(node, ast.FunctionDef)
        and node.name == function)
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    return named | {node.attr for node in ast.walk(body)
                    if isinstance(node, ast.Attribute)}


def test_the_reconstruction_check_shares_only_the_packing():
    """factor.reconstruction_mismatches may call _packed, but neither the
    elimination nor its least width."""
    named = _names_in("factor.py", "reconstruction_mismatches")
    assert "_packed" in named
    assert named & {"_eliminate", "_BITS", "solve_factorization"} == set()


def test_the_green_inner_product_shares_no_omega_kernel():
    """thm55 compares Omega with the Green side; an Omega helper used on
    both sides would make the comparison check nothing."""
    assert _names_in("greencheck.py", "green_inner_product") & {
        "_omega_block", "_omega_row", "_omega_entry_direct",
        "omega_entry_cosets", "_axpy"} == set()


def test_the_symmetry_suite_checks_the_direct_entries():
    """omega_entry_cosets maps (lam, mu) and its twist to one representative,
    so a symmetry check through it would compare an entry with itself."""
    named = _names_in("suites.py", "_suite_symmetry")
    assert "_omega_entry_direct" in named
    assert "omega_entry_cosets" not in named


def test_the_wreath_oracle_shares_no_omega_kernel():
    """verify oracle compares the oracle with the coset route; a coset-route
    helper on both sides would make the comparison check nothing."""
    assert _names_in("wreath.py") & {
        "coset_table", "torus_quotient", "_omega_block", "_omega_row",
        "_omega_entry_direct", "omega_entry_cosets", "_axpy"} == set()


def test_the_wreath_oracle_never_twists():
    """The oracle computes every entry on its own."""
    for function in ("omega_entry_bruteforce", "_fake_degree_sum", "_halves",
                     "_classes", "_mn", "fake_degree"):
        assert _names_in("wreath.py", function) & {"_twist", "_orbit_twist"} \
            == set()
