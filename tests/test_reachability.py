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

A defaulted parameter is an option, and an option needs a caller: some
product call must set every defaulted parameter of a top-level function,
a public method, an ``__init__`` (a ``super().__init__`` call counts for
the first base) and every defaulted dataclass field. A call sets one by
keyword, by position, through ``*``/``**`` or through
``functools.partial``. Functions and classes are matched by binding, as
above; methods by name.

A dataclass field is state, and state needs a reader: product code must
read every field of a dataclass defined there, as an attribute or
through ``getattr`` with a constant name. Fields are matched by name, as
methods are.

A module holds one kind of state, Tensors: no ``__init__`` of a ``Module``
subclass in ``src/`` may bind a public attribute to a bare numpy array
(``self.x = np.zeros(...)``), which checkpoints and ``state()`` would miss.

One module starts threads, pools and processes: no module in ``src/``
but ``data.py``, whose ``map_lanes`` is the one scheduler, may call
``Thread``, ``ThreadPoolExecutor``, ``ProcessPoolExecutor``, ``Pool``,
``Process`` or ``fork``. Passing a pool class to ``map_lanes`` names it
without calling it, so the model's ``make_pool=ThreadPoolExecutor`` passes.
And ``src/`` makes one synchronisation object: one call of ``Lock``,
``RLock``, ``Condition``, ``Semaphore``, ``BoundedSemaphore``, ``Event`` or
``Barrier``, the ``Lock`` bound to ``layers._recurrence``, under which small
BiLSTM recurrences run one at a time. The scheduler itself needs none.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT_FILES = sorted((ROOT / "src" / "depest").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# reached from outside the product: an argparse hook, two helpers the
# acceptance suite calls, and the bank's per-head views, which only the
# acceptance suite reads (criterion 6; the name alone is also live in
# ``MultiModalClassifier.heads``)
ALLOWED = {"_Parser.error", "AttentionalFusion.force_saturation", "severity_band", "SubAttentionalBank.heads"}
# defaulted parameters that only the acceptance suite sets, which builds
# float64 models and leaves, and the one-off conv shapes of its gradient checks
ALLOWED_DEFAULTS = {
    "autodiff.py: tensor(requires_grad)",
    "layers.py: Conv1d(padding)",
    "layers.py: Conv2d(stride)",
    "model.py: MultiModalClassifier(dtype)",
}
# fields that only code outside src/ and scripts/ reads: perfbench's stage timers
ALLOWED_FIELDS = {"training.py: EvalResult.subscores"}


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


def _bindings(tree, module):
    """How this file names package functions and classes: ``{name: (module, name)}`` and ``{alias: module}``."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        source = _package_module(node) if isinstance(node, ast.ImportFrom) else None
        if source is not None:
            for alias in node.names:
                if source:
                    names[alias.asname or alias.name] = (source, alias.name)
                else:
                    aliases[alias.asname or alias.name] = alias.name
    return names, aliases


def _defaulted(args, skip_first):
    """(name, position or None for keyword-only) of each parameter with a default."""
    positional = (args.posonlyargs + args.args)[skip_first:]
    firsts = len(positional) - len(args.defaults)
    yield from ((a.arg, i) for i, a in enumerate(positional) if i >= firsts)
    yield from ((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _dataclass_fields(cls):
    """The annotated fields of a ``@dataclass`` class node, in order; [] for any other class."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
        return []
    return [f for f in cls.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def _option_definitions(tree, module):
    """(callee key, label, [(parameter, position)]) for every definition with defaults in scope."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield (module, node.name), node.name, list(_defaulted(node.args, 0))
        if not isinstance(node, ast.ClassDef):
            continue
        fields = _dataclass_fields(node)
        if fields:
            yield (module, node.name), node.name, [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                key, label = ((module, node.name), node.name) if item.name == "__init__" else (
                    ("method", item.name), f"{node.name}.{item.name}")
                yield key, label, list(_defaulted(item.args, 0 if static else 1))


def _option_calls(tree, module):
    """(callee key, call node, leading arguments to skip) for every call in the file, ``partial`` unwrapped."""
    names, aliases = _bindings(tree, module)

    def key(func, cls):
        if isinstance(func, ast.Name):
            return names.get(func.id, (module, func.id))
        if not isinstance(func, ast.Attribute):
            return None
        if isinstance(func.value, ast.Name) and func.value.id in aliases:
            return aliases[func.value.id], func.attr
        is_super = isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "super"
        if is_super and func.attr == "__init__" and cls is not None and cls.bases:
            return key(cls.bases[0], None)
        return "method", func.attr

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, ast.ClassDef) else cls
            if isinstance(child, ast.Call):
                if getattr(child.func, "id", getattr(child.func, "attr", None)) == "partial" and child.args:
                    yield key(child.args[0], inner), child, 1
                else:
                    yield key(child.func, inner), child, 0
            yield from visit(child, inner)

    yield from visit(tree, None)


def _sets(call, skip, name, position):
    args = call.args[skip:]
    if any(k.arg in (name, None) for k in call.keywords):  # by keyword, or through **
        return True
    return position is not None and (position < len(args) or any(isinstance(a, ast.Starred) for a in args))


def _unset_defaults() -> list:
    """Defaulted parameters in scope that no product call sets."""
    definitions, calls = [], {}
    for path in PRODUCT_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [(path.stem, *d) for d in _option_definitions(tree, path.stem)]
        for callee, call, skip in _option_calls(tree, path.stem):
            calls.setdefault(callee, []).append((call, skip))
    unset = []
    for module, callee, label, params in definitions:
        for name, position in params:
            if not any(_sets(call, skip, name, position) for call, skip in calls.get(callee, ())):
                unset.append(f"{module}.py: {label}({name})")
    return sorted(set(unset) - ALLOWED_DEFAULTS)


def test_every_defaulted_parameter_is_set_by_a_product_call():
    unset = _unset_defaults()
    assert not unset, "defaulted parameters that no call in src/ or scripts/ sets:\n" + "\n".join(unset)


def _unread_fields() -> list:
    """Dataclass fields that no product code reads, as an attribute or by ``getattr(obj, "name")``."""
    fields, read = [], set()
    for path in PRODUCT_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                fields += [(path.stem, node.name, f.target.id) for f in _dataclass_fields(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and len(node.args) > 1:
                if isinstance(node.args[1], ast.Constant):
                    read.add(node.args[1].value)
    unread = {f"{module}.py: {cls}.{name}" for module, cls, name in fields if name not in read}
    return sorted(unread - ALLOWED_FIELDS)


def test_every_dataclass_field_is_read_by_product_code():
    unread = _unread_fields()
    assert not unread, "dataclass fields that no code in src/ or scripts/ reads:\n" + "\n".join(unread)


def _self_bindings(func):
    """(target, value) of each ``self.x = ...`` in ``func``; a tuple target pairs with a tuple value."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                for t, v in pairs:
                    if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self":
                        yield t, v


def _bare_array_attributes() -> list:
    """Public ``self.x = np.<fn>(...)`` bindings in the ``__init__`` of a ``Module`` subclass in src/."""
    classes = {}
    for path in sorted((ROOT / "src" / "depest").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.stem, node, [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases])

    def is_module(name):
        return name == "Module" or name in classes and any(is_module(b) for b in classes[name][2])

    found = []
    for name, (module, cls, _) in classes.items():
        init = next((f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)
        if init is None or not is_module(name):
            continue
        for t, v in _self_bindings(init):
            func = v.func if isinstance(v, ast.Call) else None
            if not t.attr.startswith("_") and getattr(getattr(func, "value", None), "id", None) == "np":
                found.append(f"{module}.py:{t.lineno}: {name}.{t.attr}")
    return found


def test_modules_hold_no_bare_numpy_arrays():
    found = _bare_array_attributes()
    assert not found, "module state held as a bare numpy array, not a Tensor:\n" + "\n".join(found)


# the calls that start a thread, a pool or a process, matched by name
CONCURRENCY = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool", "Process", "fork"}


def _src_calls(names):
    """(file name, module tree, call node, name) of every call in src/ whose function is named in ``names``."""
    for path in sorted((ROOT / "src" / "depest").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None
            if name in names:
                yield path.name, tree, node, name


def _concurrency_calls() -> list:
    """Calls in src/ outside ``data.py`` that start a thread, a pool or a process."""
    return [f"{file}:{node.lineno}: {name}()" for file, _, node, name in _src_calls(CONCURRENCY) if file != "data.py"]


def test_only_the_scheduler_starts_threads_or_processes():
    found = _concurrency_calls()
    assert not found, "threads, pools or processes started outside data.map_lanes:\n" + "\n".join(found)


# the calls that make a synchronisation object, matched by name
SYNCHRONISATION = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event", "Barrier"}


def _module_binding(tree, call):
    """The name a module-level ``name = call`` binds, else None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.value is call and len(node.targets) == 1:
            return getattr(node.targets[0], "id", None)
    return None


def _synchronisation_objects() -> list:
    """(file, the module-level name it is bound to or None, call) for each such call in src/."""
    return [(file, _module_binding(tree, node), name) for file, tree, node, name in _src_calls(SYNCHRONISATION)]


def test_one_lock_serialises_small_recurrences():
    found = _synchronisation_objects()
    assert found == [("layers.py", "_recurrence", "Lock")], f"synchronisation objects made in src/: {found}"
