"""Source hygiene: every module-level import, public top-level name and public
member in src/hesim is used, every import sits at module level, lgmodes
imports nothing from quantum, no module reads the process environment, and
only the two lgmodes holders are module state a function rebinds."""

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


def nested_imports(source: str) -> list:
    """Lines of import statements below module level."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    )


def test_nested_imports_detected():
    src = "import os\n\ndef f():\n    import sys\n    if sys:\n        from math import pi\n"
    assert nested_imports(src) == [4, 6]


def test_no_nested_imports_in_package():
    found = {path.name: nested_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def imported_modules(source: str) -> set:
    """Every module name an import statement names, with the names it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
            names.add(getattr(node, "module", None) or "")
    return {part for name in names for part in name.split(".")}


def test_lgmodes_has_no_quantum_layer():
    # images render from OAM blocks; detection.oam_block takes the polarization step
    assert "quantum" not in imported_modules((SRC / "lgmodes.py").read_text())
    assert "quantum" in imported_modules("from . import quantum\n")
    assert "quantum" in imported_modules("from .quantum import project\n")


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
    assert found == []


def dead_members(sources: dict) -> list:
    """(module, "Class.member") of public methods and properties no code reads.

    A member counts as read where its name appears as an attribute anywhere
    in ``sources`` except inside a ``__repr__``, which only describes the
    object; ``__init__.py`` is skipped as in ``dead_names``.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        if module == "__init__.py":
            continue
        tree = ast.parse(source)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defined += [
                    (module, cls.name, node.name)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                ]
        in_repr = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "__repr__"
            for inner in ast.walk(node)
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in in_repr
        }
    return sorted((m, f"{c}.{name}") for m, c, name in defined if name not in read)


def test_dead_members_detected():
    sources = {
        "a.py": (
            "class Box:\n"
            "    def used(self):\n"
            "        return self.size\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 1\n"
            "    def shown(self):\n"
            "        return 2\n"
            "    def dead(self):\n"
            "        return 3\n"
            "    def _private(self):\n"
            "        return 4\n"
            "    def __repr__(self):\n"
            "        return f'Box({self.shown()})'\n"
        ),
        "b.py": "from .a import Box\n\nBox().used()\n",
        "__init__.py": "from .a import Box\nBox().dead()\n",
    }
    assert dead_members(sources) == [("a.py", "Box.dead"), ("a.py", "Box.shown")]


def test_no_dead_members_in_package():
    assert dead_members({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}) == []


ENVIRONMENT_READS = {"environ", "getenv"}


def environment_reads(source: str) -> list:
    """Lines that read the process environment through os.environ or os.getenv."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_READS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in ENVIRONMENT_READS for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_environment_reads_detected():
    src = (
        "import os\n"
        "from os import getenv\n"
        "n = os.environ.get('N', '1')\n"
        "m = os.getenv('M')\n"
        "path = os.path.join('a', 'b')\n"
    )
    assert environment_reads(src) == [2, 3, 4]


def test_no_environment_reads_in_package():
    # configuration comes only from the config file and the command line
    found = {path.name: environment_reads(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the module holders a function may rebind with a global statement. The
# render factors and the annulus bins stay module state while the benchmark
# pins one lgmodes.mode_stack call per image and binds
# angular_profile(img, nbins, annulus); a Grid value built once per command
# replaces both (ROADMAP item 3)
GLOBAL_HOLDERS = {("lgmodes.py", "_held_stack"), ("lgmodes.py", "_held_bins")}


def global_names(source: str) -> set:
    """The names that global statements in ``source`` declare."""
    nodes = ast.walk(ast.parse(source))
    return {name for node in nodes if isinstance(node, ast.Global) for name in node.names}


def test_global_names_detected():
    src = "x = None\n\ndef f():\n    global x\n    x = 1\n\ndef g():\n    global y, z\n"
    assert global_names(src) == {"x", "y", "z"}


def test_no_module_holders_outside_the_allow_list():
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in global_names(path.read_text())
    }
    assert found == GLOBAL_HOLDERS
