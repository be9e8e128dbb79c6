"""Source hygiene: every module-level import and public top-level name in src/hesim is used."""

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


# public names nothing in src/hesim calls, each with the reason it stays
DEAD_NAME_ALLOWED = {
    # the Uhlmann reference that acceptance criterion 5 measures with
    "state_fidelity",
}


def dead_names(sources: dict) -> list:
    """(module, name) of public top-level functions and classes no other code reads.

    ``sources`` maps module file names to their text. A name counts as read
    where it appears as a bare name or an attribute; its own definition does
    not count, and neither does ``__init__.py``, which only re-exports.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        if module == "__init__.py":
            continue
        tree = ast.parse(source)
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in read)


def test_dead_names_detected():
    sources = {
        "a.py": "def used():\n    pass\n\ndef dead():\n    used()\n\nclass _Private:\n    pass\n",
        "b.py": "from . import a\n\nclass Kept:\n    pass\n\na.Kept = Kept\n",
        "__init__.py": "from .a import dead\n",
    }
    assert dead_names(sources) == [("a.py", "dead")]


def test_no_dead_names_in_package():
    found = dead_names({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert [hit for hit in found if hit[1] not in DEAD_NAME_ALLOWED] == []
