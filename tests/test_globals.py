"""Every global name a zetaver function loads must exist: a name that is in
neither the module's globals nor the builtins only fails, with NameError,
when its line finally runs.  Likewise every exported name must resolve."""

import ast
import builtins
import dis
import importlib
import pkgutil
import types

import zetaver


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _module_source_code(module):
    with open(module.__file__, encoding="utf-8") as fh:
        return compile(fh.read(), module.__file__, "exec")


def test_every_loaded_global_is_defined():
    missing = []
    for info in pkgutil.iter_modules(zetaver.__path__):
        module = importlib.import_module(f"zetaver.{info.name}")
        known = set(vars(module)) | set(vars(builtins))
        for code in _code_objects(_module_source_code(module)):
            for ins in dis.get_instructions(code):
                if ins.opname == "LOAD_GLOBAL" and ins.argval not in known:
                    missing.append(f"{info.name}.{code.co_qualname}: {ins.argval}")
    assert not missing, missing


def test_every_export_and_package_import_resolves():
    missing = []
    for info in pkgutil.iter_modules(zetaver.__path__):
        module = importlib.import_module(f"zetaver.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", [])
                    if not hasattr(module, name)]
    with open(zetaver.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"zetaver.{node.module}")
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not (hasattr(module, alias.name) and hasattr(zetaver, alias.name))]
    assert not missing, missing


# The GK15 rule, its panel density and its budgets: only quadrature knows them.
_GK15_PRIVATE = {"_XGK", "_WGK", "_WG", "_NODES", "_WGK_FULL", "_WG_FULL", "_PER_CYCLE",
                 "_MAX_INITIAL_PANELS", "_MAX_BISECTIONS", "_CHUNK"}


def test_only_quadrature_knows_the_gk15_rule():
    leaks = []
    for info in pkgutil.iter_modules(zetaver.__path__):
        if info.name == "quadrature":
            continue
        module = importlib.import_module(f"zetaver.{info.name}")
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "quadrature":
                leaks += [f"{info.name}: {a.name}" for a in node.names if a.name in _GK15_PRIVATE]
            elif (isinstance(node, ast.Attribute) and node.attr in _GK15_PRIVATE
                  and isinstance(node.value, ast.Name) and node.value.id == "quadrature"):
                leaks.append(f"{info.name}: quadrature.{node.attr}")
    assert not leaks, leaks


def _meter_users(name):
    """The zetaver modules that call quadrature's meter function name, by
    its bare name or as an attribute, or import it."""
    users = set()
    for info in pkgutil.iter_modules(zetaver.__path__):
        module = importlib.import_module(f"zetaver.{info.name}")
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "quadrature":
                used = any(a.name == name for a in node.names)
            elif isinstance(node, ast.Call):
                func = node.func
                used = (isinstance(func, ast.Name) and func.id == name
                        or isinstance(func, ast.Attribute) and func.attr == name)
            else:
                continue
            if used:
                users.add(info.name)
    return users


def test_one_module_reads_the_meter_and_two_count_on_it():
    # quadrature counts the nodes it hands out and identities its line end
    # probes; only the batch layer reads the count into report rows
    assert _meter_users("_evaluations") == {"suites"}
    assert _meter_users("_count") == {"quadrature", "identities"}


def test_every_exported_verifier_is_called_in_src():
    # a verifier only tests reach is a reference route, not product code;
    # special's exports are the library's base API and stay exempt
    loaded = set()
    for info in pkgutil.iter_modules(zetaver.__path__):
        module = importlib.import_module(f"zetaver.{info.name}")
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unused = [f"{name}.{export}" for name in ("identities", "afe", "fourier")
              for export in importlib.import_module(f"zetaver.{name}").__all__
              if export not in loaded]
    assert not unused, unused
