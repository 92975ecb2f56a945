"""Every public function and method of the package is used by product code.

Parses ``src/depest/*.py`` and ``scripts/*.py`` with ``ast`` and fails when
a public top-level function, or a public method of a top-level class, is
named nowhere in those files outside its own definition. Code that only
tests reach is dead weight in the product.

The check matches names, not bindings: any ``Name`` or attribute access
with the same spelling counts as a use, so ``np.tanh`` counts as a use of
``autodiff.tanh``. It can miss dead code that shares a name with
something live; it does not report live code as dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT_FILES = sorted((ROOT / "src" / "depest").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# reached from outside the product: an argparse hook, and two helpers the
# acceptance suite calls
ALLOWED = {"_Parser.error", "AttentionalFusion.force_saturation", "Sgd.zero_grad"}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}"


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_function_is_named_in_product_code():
    defined, used = [], set()
    for path in PRODUCT_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(name, qual, path.name) for name, qual in _definitions(tree) if not name.startswith("_")]
        used.update(_used_names(tree))
    unreached = sorted(f"{file}: {qual}" for name, qual, file in defined if name not in used and qual not in ALLOWED)
    assert not unreached, "defined but named nowhere in src/ or scripts/:\n" + "\n".join(unreached)
