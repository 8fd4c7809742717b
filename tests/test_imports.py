"""Source hygiene: every import in the package's modules is read, each
command loads only the modules it runs, the integral path loads no
fractions and clears no denominator, the reconstruction check stays
independent of the elimination it checks, the Green inner product and the
wreath oracle share no Omega kernel with the coset entries they are
checked against, and the checks of Omega's symmetries never go through the
twisted entry."""
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
    "VerifyReport", "a_exponent", "b_O", "green_inner_product",
    "identity_5113_check", "lemma59_check", "thm55_check",
    "OmegaError", "a_O", "bracket",
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
    assert set(EXPORTS) <= set(dir(wkostka))
    assert set(wkostka.__all__) == set(EXPORTS) | {"clear_caches"}
    with pytest.raises(AttributeError):
        wkostka.no_such_name


def _loaded(*statements: str, prefix: str = "wkostka.",
            flags: tuple = ()) -> set:
    """The modules whose names start with prefix that a fresh interpreter,
    started with flags, holds after statements."""
    probe = "\n".join(("import sys", *statements, "print(' '.join(m for m in "
                        f"sys.modules if m.startswith({prefix!r})))"))
    done = subprocess.run(
        [sys.executable, *flags, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return set(done.stdout.split())


def _run_main(argv, code: int = 0) -> tuple:
    """The statements that run wkostka.cli.main(argv), stdout and stderr
    swallowed, and check that it returns code."""
    return ("import io, contextlib, wkostka.cli",
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):",
            f"    assert wkostka.cli.main({list(argv)!r}) == {code}")


def test_import_wkostka_loads_no_module():
    assert _loaded("import wkostka") == set()


def test_import_wkostka_cli_loads_only_cli():
    """The dispatcher reads the guard bounds and UsageError off the package
    root; every command module loads after argv is parsed."""
    assert _loaded("import wkostka.cli") == {"wkostka.cli"}


def test_cli_imports_only_the_stdlib_and_the_package_root():
    """What cli.py imports at module level: stdlib modules, and names of
    the package root by `from . import`."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = [(0, alias.name) for node in tree.body
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [(node.level, node.module) for node in tree.body
                 if isinstance(node, ast.ImportFrom)]
    assert [(level, name) for level, name in imported
            if (level, name) != (1, None) and not (
                level == 0 and name.split(".")[0] in sys.stdlib_module_names)
            ] == []


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0), (("solve", "--help"), 0),
    (("solve", "--n", "-1", "--r", "2"), 2),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_help_and_usage_errors_load_no_omega(argv, code):
    """Nor any wkostka module but cli: the package root holds everything
    the parser reads, the --emit blocks and the error bases included."""
    assert _loaded(*_run_main(argv, code)) == {"wkostka.cli"}


def test_a_bad_emit_block_is_refused_before_the_solver_loads():
    """Neither factor nor omega, nor what they load."""
    assert _loaded(*_run_main(
        ("solve", "--n", "1", "--r", "3", "--emit", "bogus"), 2)) == {
        "wkostka.cli", "wkostka.commands", "wkostka.rpart", "wkostka.record"}


def test_enumerate_loads_only_commands_and_rpart():
    """Neither Omega, its double cosets and Laurent arithmetic, the solver
    nor Q(t)."""
    assert _loaded(*_run_main(("enumerate", "--n", "3", "--r", "2"))) == {
        "wkostka.cli", "wkostka.commands", "wkostka.rpart", "wkostka.record"}


def test_solve_loads_no_random():
    """Only verify orders draws random orders.  Under -S no .pth file has
    loaded random first."""
    loaded = _loaded(*_run_main(("solve", "--n", "2", "--r", "3")),
                     prefix="", flags=("-S",))
    assert "wkostka.factor" in loaded and "random" not in loaded


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
    (("omega", "--n", "2", "--r", "2"),
     ("wreath", "factor", "ratfunc", "greencheck", "charge", "fixtures",
      "suites")),
], ids=" ".join)
def test_each_command_loads_only_its_modules(argv, unused):
    loaded = _loaded(*_run_main(argv))
    assert "wkostka.omega" in loaded
    assert loaded & {f"wkostka.{m}" for m in unused} == set()


# Q enters only through a non-integral value, so no committed workload (nor
# LaTeX output, nor the wreath oracle on integral entries) loads fractions,
# or the decimal and numbers modules that it loads.
@pytest.mark.parametrize("argv", [
    ("solve", "--n", "2", "--r", "5"),
    ("solve", "--n", "4", "--r", "1", "--format", "latex"),
    ("verify", "thm55", "--n", "3", "--r", "2"),
    ("verify", "oracle", "--n", "3", "--r", "3"),
], ids=" ".join)
def test_the_integral_path_loads_no_fractions(argv):
    loaded = _loaded(*_run_main(argv), prefix="")
    assert "wkostka.exact" in loaded
    assert loaded & {"fractions", "decimal", "numbers"} == set()


@pytest.mark.parametrize("module", [
    "exact", "ratfunc", "greencheck", "omega", "factor", "rpart", "symgrp",
    "cli", "commands", "wreath"])
def test_no_module_level_fractions_import(module):
    """Only the oracles charge and fixtures may import fractions at module
    level; the rest import it in the branches that build a Fraction."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    top = {alias.name for node in tree.body if isinstance(node, ast.Import)
           for alias in node.names}
    top |= {node.module for node in tree.body
            if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in top


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


def test_a_solved_value_holds_one_copy_of_its_order():
    """The order, and its n and r, are read from the index of the matrix a
    solver helper is given, so none of them takes a second copy beside it,
    and neither a solved factorization nor a fixture stores one."""
    from wkostka.factor import FactorizationResult
    from wkostka.fixtures import Fixture
    tree = ast.parse((PACKAGE / "factor.py").read_text(encoding="utf-8"))
    helpers = {"_eliminate", "_verify_reconstruction", "ic_minus_matrix",
               "ic_plus_candidate", "order_sensitivity"}
    copies = {"order", "n", "r"}
    found = {node.name: {arg.arg for arg in node.args.args} & copies
             for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in helpers}
    assert found == dict.fromkeys(helpers, set())
    assert "order" not in FactorizationResult.__slots__
    assert "n" not in Fixture.__slots__
    assert "r" not in Fixture.__slots__


def test_the_reconstruction_check_shares_only_the_packing():
    """factor.reconstruction_mismatches may call _packed, but neither the
    elimination nor its least width."""
    named = _names_in("factor.py", "reconstruction_mismatches")
    assert "_packed" in named
    assert named & {"_eliminate", "_BITS", "solve_factorization"} == set()


def _called(module: str) -> set:
    """Every name that module calls, bare or as an attribute."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


@pytest.mark.parametrize("module, banned", [
    ("omega.py", ("lcm", "Fraction")), ("factor.py", ("lcm", "Fraction")),
    ("greencheck.py", ("lcm",))], ids=("omega", "factor", "greencheck"))
def test_the_integral_path_clears_no_denominator(module, banned):
    """Omega, P+- and Lambda are integral and the 1/z weights travel as
    n!/z, so these modules build no common denominator and omega and factor
    no rational."""
    assert _called(module) & set(banned) == set()


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
    helper on both sides would make the comparison check nothing.  n_star
    is no coset helper: the oracle's t^(N*) reads it too."""
    assert _names_in("wreath.py") & {
        "coset_table", "torus_quotient", "_omega_block", "_omega_row",
        "_omega_entry_direct", "omega_entry_cosets", "_axpy", "a_O",
        "bracket"} == set()


def test_each_coset_label_carries_the_whole_exponent():
    """By Lemma 5.9 each label h is powered by t^(N* + A_O(h)) in the
    blocks, so an entry adds no (lam, mu) shift of its own."""
    assert "a_O" in _names_in("omega.py", "_omega_block")
    assert _names_in("omega.py", "_omega_entry_direct") & {
        "comb", "a_value", "n_value", "tau"} == set()


def test_one_implementation_of_the_row_prefix_sum():
    """sum_(i<r) h_(i,<=i) is written once, in greencheck.a_exponent: it is
    the one function of the package that reads h.row_prefix."""
    found = {(path.name, function.name)
             for path in sorted(PACKAGE.glob("*.py"))
             for function in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(function, ast.FunctionDef)
             and "row_prefix" in {node.attr for node in ast.walk(function)
                                  if isinstance(node, ast.Attribute)}}
    assert found == {("greencheck.py", "a_exponent")}


def test_the_wreath_oracle_never_twists():
    """The oracle computes every entry on its own."""
    for function in ("omega_entry_bruteforce", "_fake_degree_sum", "_halves",
                     "_classes", "_mn", "fake_degree"):
        assert _names_in("wreath.py", function) & {"_twist", "_orbit_twist"} \
            == set()
