"""Every public symbol of the package has a caller in the package.

An AST scan of ``src/moltiers``: each top-level public function or class,
and each public method or property of any class, must be referenced from
the package's own modules outside its own definition. ``__init__``'s
re-exports do not count. A reference to a top-level symbol is a bare name
in its own module or where it is imported, or an attribute of an imported
module alias (``ad.matmul``); a class member counts as referenced by any
attribute of its name, on any object. Symbols whose callers live outside
the package are allowed below, each with its reason.

A second scan holds the exception classes to the same rule: each one the
package defines must be caught by name somewhere in the package or in
``perfbench``, or it is one more name for a failure no caller tells apart.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "moltiers"

ALLOWED = {
    ("autodiff", "tape_size"): "perfbench tracer target: counts tape records per step",
    ("autodiff", "grad_check"): "acceptance oracle: criterion 4's gradient check",
    ("grouping", "check_bond_consistency"): "acceptance oracle: the partition's bond check",
    ("models", "elbo"): "acceptance oracle: the VGAE objective the acceptance tests call",
    ("models", "mean_edge_auc"): "perfbench tracer target: the evaluation span",
    ("models", "zero_noise"): "acceptance oracle: criterion 6 replays the VGAE with zero noise",
    ("pooling", "diff_group_pool"): "criterion 3 and perfbench tracer target",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _public_symbols(modules) -> dict[tuple[str, str], ast.AST]:
    symbols = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                symbols[module, node.name] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        symbols[module, f"{node.name}.{item.name}"] = item
    return symbols


def _walk(node: ast.AST, enclosing: tuple = ()):
    """Each node below ``node`` with the definitions that enclose it."""
    yield node, enclosing
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, node)
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, enclosing)


def _references(module: str, tree: ast.Module, members: dict[str, list]):
    """(symbol key, enclosing definitions) for each reference in ``tree``;
    ``members`` maps an attribute name to the class members of that name."""
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    aliases[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    for node, enclosing in _walk(tree):
        if isinstance(node, ast.Name):
            yield imported.get(node.id, (module, node.id)), enclosing
        elif isinstance(node, ast.Attribute):
            for key in members[node.attr]:
                yield key, enclosing
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                yield (aliases[node.value.id], node.attr), enclosing


def _uncalled() -> set[tuple[str, str]]:
    modules = _modules()
    symbols = _public_symbols(modules)
    members = defaultdict(list)
    for module, name in symbols:
        if "." in name:
            members[name.split(".")[1]].append((module, name))
    called = set()
    for module, tree in modules.items():
        for key, enclosing in _references(module, tree, members):
            node = symbols.get(key)
            if node is not None and not any(node is outer for outer in enclosing):
                called.add(key)
    return set(symbols) - called


def test_every_public_symbol_has_a_caller_in_the_package():
    assert _uncalled() - set(ALLOWED) == set()


def test_the_allow_list_names_only_uncalled_symbols():
    assert set(ALLOWED) <= _uncalled()


def _caught_names() -> set[str]:
    """Every name an ``except`` clause in the package or perfbench names,
    bare (``SmilesError``) or as an attribute (``smiles.SmilesError``)."""
    names = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for handler in ast.walk(ast.parse(path.read_text())):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                for node in ast.walk(handler.type):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
    return names


def test_every_exception_class_has_a_handler():
    defined = {
        (module, node.name)
        for module, tree in _modules().items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name.endswith("Error")
    }
    assert ("smiles", "SmilesError") in defined  # the scan sees the classes
    caught = _caught_names()
    assert {(module, name) for module, name in defined if name not in caught} == set()
