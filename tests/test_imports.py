"""Source hygiene: every import in the package's modules is read, and the
reconstruction check stays independent of the elimination it checks."""
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


def test_the_reconstruction_check_shares_only_the_packing():
    """factor.reconstruction_mismatches may call _packed, but none of the
    elimination's own packing code or its default width."""
    tree = ast.parse((PACKAGE / "factor.py").read_text(encoding="utf-8"))
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "reconstruction_mismatches")
    named = {node.id for node in ast.walk(check) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(check)
              if isinstance(node, ast.Attribute)}
    assert "_packed" in named
    assert named & {"_record", "_columns", "_push", "_packed_sum", "_BITS"} \
        == set()
