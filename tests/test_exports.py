"""The package's ``__all__`` is computed from its namespace, so it must list
every name that ``basediv/__init__.py`` imports from its submodules."""

import ast
from pathlib import Path

import basediv


def test_all_lists_every_imported_class_and_function():
    tree = ast.parse(Path(basediv.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {"Lattice", "classify", "GENERIC"} <= imported  # the parse found the imports
    assert imported <= set(basediv.__all__)
    namespace = {}
    exec("from basediv import *", namespace)
    assert imported <= set(namespace)
