"""Source hygiene: every import in the package's modules is read, the
reconstruction check stays independent of the elimination it checks, and
the checks of Omega's symmetries never go through the twisted entry."""
import ast
from pathlib import Path

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


def _names_in(module: str, function: str) -> set:
    """Every name and attribute that the body of module.function reads."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == function)
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    return named | {node.attr for node in ast.walk(body)
                    if isinstance(node, ast.Attribute)}


def test_the_reconstruction_check_shares_only_the_packing():
    """factor.reconstruction_mismatches may call _packed, but none of the
    elimination's own packing code or its default width."""
    named = _names_in("factor.py", "reconstruction_mismatches")
    assert "_packed" in named
    assert named & {"_record", "_columns", "_push", "_packed_sum", "_BITS"} \
        == set()


def test_the_symmetry_suite_checks_the_direct_entries():
    """omega_entry_cosets maps (lam, mu) and its twist to one representative,
    so a symmetry check through it would compare an entry with itself."""
    named = _names_in("cli.py", "_suite_symmetry")
    assert "_omega_entry_direct" in named
    assert "omega_entry_cosets" not in named


def test_the_wreath_oracle_never_twists():
    """The oracle computes every entry on its own."""
    for function in ("omega_entry_bruteforce", "_induced", "fake_degree"):
        assert _names_in("omega.py", function) & {"_twist", "_orbit_twist"} \
            == set()
