"""Source hygiene: every module-level import in src/hesim is used."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hesim"


def unused_imports(source: str) -> list:
    """Names imported at module level but never read; ``__all__`` counts as a read."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in read | exported
    )


def test_unused_imports_detected():
    src = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nsys.exit(pi)\n"
    assert unused_imports(src) == [(1, "os")]


def test_no_unused_imports_in_package():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
