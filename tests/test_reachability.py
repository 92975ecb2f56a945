"""Every function and public method of the package is used by product code.

Parses ``src/depest/*.py`` and ``scripts/*.py`` with ``ast`` and fails when
a top-level function (public or private), or a public method of a
top-level class, is used nowhere in those files outside its own
definition. Code that only tests reach is dead weight in the product, and
a private helper nothing calls any more is dead weight outright.

Top-level functions are matched by binding. A function counts as used
through a bare name in its own module, a ``from .mod import name`` (or
``from depest.mod import name``) import, or ``alias.name`` where the
alias is bound to its module by ``from . import mod as alias`` (or
``from depest import mod``). So ``np.tanh`` is not a use of a
``tanh`` defined in the package. Methods are matched by name: any
attribute access with the same spelling counts, so a method can hide
behind a live namesake, but live code is never reported as dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT_FILES = sorted((ROOT / "src" / "depest").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# reached from outside the product: an argparse hook, and a helper the
# acceptance suite calls
ALLOWED = {"_Parser.error", "AttentionalFusion.force_saturation"}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}"


def _package_module(node):
    """The package module an ``ImportFrom`` reads from: '' for the package itself, None if outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (node.module + ".").startswith("depest."):
        return node.module[len("depest") + 1:]
    return None


def _function_uses(tree, module):
    """(module, name) pairs that this file binds: its own bare names, package imports and ``alias.name``."""
    uses, aliases = set(), {}
    for node in ast.walk(tree):
        source = _package_module(node) if isinstance(node, ast.ImportFrom) else None
        if source is not None:
            for alias in node.names:
                if source:
                    uses.add((source, alias.name))
                else:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.add((aliases[node.value.id], node.attr))
    return uses


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreached(private: bool) -> list:
    """Definitions (private top-level functions, or public functions and methods) used nowhere in product code."""
    defined, used, function_uses = [], set(), set()
    for path in PRODUCT_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.stem, name, qual) for name, qual in _definitions(tree) if name.startswith("_") == private]
        used.update(_used_names(tree))
        function_uses |= _function_uses(tree, path.stem)
    return sorted(
        f"{module}.py: {qual}"
        for module, name, qual in defined
        if qual not in ALLOWED and ((module, name) not in function_uses if name == qual else name not in used)
    )


def test_every_public_function_is_named_in_product_code():
    unreached = _unreached(private=False)
    assert not unreached, "defined but used nowhere in src/ or scripts/:\n" + "\n".join(unreached)


def test_every_private_function_is_named_in_product_code():
    unreached = _unreached(private=True)
    assert not unreached, "private helpers used nowhere in src/ or scripts/:\n" + "\n".join(unreached)
