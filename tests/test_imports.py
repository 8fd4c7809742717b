"""Source hygiene: every import in the package's modules is read."""
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
