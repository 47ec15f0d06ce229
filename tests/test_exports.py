"""Every name the package exports has a caller inside the package or is
documented for users in the README."""

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
