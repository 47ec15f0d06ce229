"""Every name the package exports has a caller inside the package or is
documented for users in the README, and every top-level name a module
defines is read somewhere in the package."""

import ast
import re
from pathlib import Path

import gencayley

ROOT = Path(__file__).resolve().parents[1]


def _names_used_in_package() -> set[str]:
    """Every identifier read, imported or taken as an attribute by a module
    of the package other than ``__init__.py``; a definition alone is no use."""
    used = set()
    for path in (ROOT / "src" / "gencayley").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                used.add(node.module)
    return used


def _names_in_readme_code_spans() -> set[str]:
    """The identifiers inside the README's inline code spans, so that
    ``codes.transport_conjugate`` names ``transport_conjugate``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"(?<!`)`([^`\n]+)`(?!`)", text)
    return {word for span in spans for word in re.findall(r"\w+", span)}


def _unknown(names) -> list[str]:
    known = _names_used_in_package() | _names_in_readme_code_spans()
    return [name for name in names if name not in known]


def _exports() -> list[str]:
    """The public names ``__init__.py`` binds, whatever submodules a test
    session has imported into the namespace since."""
    tree = ast.parse((ROOT / "src" / "gencayley" / "__init__.py").read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert all(hasattr(gencayley, name) for name in names)
    return [name for name in names if not name.startswith("_")]


def test_every_export_has_a_caller_or_is_documented():
    exports = _exports()
    assert {"decide_subgroup_pc", "kernel_backend"} <= set(exports)  # plain and aliased
    assert _unknown(exports) == []


def test_the_guard_reads_the_package_and_the_readme():
    # transport_automorphism has a caller in verify, kernel_backend only
    # the README's API paragraph, and the third name neither
    names = ["transport_automorphism", "kernel_backend", "an_export_without_a_caller"]
    assert _unknown(names) == ["an_export_without_a_caller"]
    assert "kernel_backend" not in _names_used_in_package()


def _defined_names(stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def _read_names(stmt) -> set[str]:
    """Every identifier a statement reads, imports or takes as an attribute."""
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def _unread_top_level_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each top-level function, class or constant of the
    module sources that no top-level statement reads but its own
    definition; dunder names are left out."""
    statements = [
        (module, stmt, _read_names(stmt))
        for module, text in sources.items()
        for stmt in ast.parse(text).body
    ]
    return [
        f"{module}.{name}"
        for module, stmt, _ in statements
        for name in _defined_names(stmt)
        if not (name.startswith("__") and name.endswith("__"))
        and not any(name in read for _, other, read in statements if other is not stmt)
    ]


def test_every_top_level_name_is_read_in_the_package():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "gencayley").glob("*.py"))
    }
    assert {"_bits", "automorphisms", "groups"} <= set(sources)
    assert _unread_top_level_names(sources) == []


def test_the_unread_name_guard_sees_each_kind_of_definition():
    sources = {
        "a": (
            "__version__ = '1'\n"
            "LIMIT = 3\n"
            "UNUSED, PAIRED = 1, 2\n"
            "def dead(x):\n    return dead(x - 1) if x else LIMIT\n"
            "def helper():\n    return 0\n"
            "class Dead:\n    pass\n"
        ),
        "b": "from .a import helper\nimport a\nvalue = a.PAIRED + helper()\n",
    }
    # reading itself keeps nothing alive; an import or an attribute does
    assert _unread_top_level_names(sources) == ["a.UNUSED", "a.dead", "a.Dead", "b.value"]
