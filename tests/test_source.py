"""Source-level rules for the package itself."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ffb

SRC = Path(ffb.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/ffb: {found}"


def test_no_quadratic_convolution():
    # cyclic convolutions are rfft plans (see test_fft_calls_sit_in_the_plans),
    # never numpy's quadratic np.convolve
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "convolve"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name == "convolve" for alias in node.names))
    ]
    assert not found, f"numpy.convolve in src/ffb: {found}"


def _is_numpy(node):
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


# The functions allowed to call np.fft: the two convolution plans, the
# character transform and the character route's pair kernel.
FFT_SITES = {("repfn", "_packed_convolve"), ("repfn", "_limb_convolve"),
             ("characters", "_transform"), ("counters", "pair_kernel")}


def _imports_fft(node):
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return False
    names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
    return any("fft" in name for name in names)


def test_fft_calls_sit_in_the_plans():
    # each product layout is one packed plan, so a new transform site is a
    # second copy of a certificate the plans already hold
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = [range(func.lineno, func.end_lineno + 1) for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and (path.stem, func.name) in FFT_SITES]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "fft"
                      and _is_numpy(node.value) or _imports_fft(node))
                  and not any(node.lineno in lines for lines in allowed)]
    assert not found, f"np.fft outside {sorted(FFT_SITES)}: {found}"


def test_no_complex_transform_of_real_data():
    # a character table is one real FFT's half spectrum, and the F_{2^k}
    # transform is BLAS products of Hadamard factors: no complex FFT of real
    # weights and no butterfly of np.stack levels
    found = [
        f"{path.name}:{node.lineno} {node.attr if isinstance(node, ast.Attribute) else node.module}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("fft", "ifft")
            and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"
            and _is_numpy(node.value.value))
        or (isinstance(node, ast.Attribute) and node.attr == "stack" and _is_numpy(node.value))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy.fft"
            and any(alias.name in ("fft", "ifft") for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name == "stack" for alias in node.names))
    ]
    assert not found, f"complex FFT or np.stack in src/ffb: {found}"


# Methods that change the object they are called on.
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
            "setdefault", "add", "discard", "sort", "reverse", "__setitem__", "__delitem__"}


def _root_name(node):
    """The name at the base of an attribute or subscript chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_names(tree):
    """(variables, every name) bound by the module's top-level statements."""
    variables, bound = set(), set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                variables.add(node.id)
            elif isinstance(node, ast.alias):
                bound.add((node.asname or node.name).split(".")[0])
            if node is not stmt and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                break
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
    return variables, variables | bound


def _local_names(func):
    names = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    names |= {node.id for node in ast.walk(func)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return names


def test_functions_write_no_module_state():
    # state kept between calls belongs to the caller (an Instance, a command),
    # never to a module: no global statement, no store into a module-level
    # name and no mutating method called on one
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        variables, bound = _module_names(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local = _local_names(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    found.add(f"{path.name}:{node.lineno} global")
                elif (isinstance(node, (ast.Attribute, ast.Subscript))
                      and isinstance(node.ctx, (ast.Store, ast.Del))
                      and _root_name(node) in bound - local):
                    found.add(f"{path.name}:{node.lineno} store into {_root_name(node)}")
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in MUTATORS
                      and _root_name(node.func.value) in variables - local):
                    found.add(f"{path.name}:{node.lineno} "
                              f"{_root_name(node.func.value)}.{node.func.attr}()")
    assert not found, f"functions in src/ffb write module state: {sorted(found)}"


def test_no_unused_imports():
    # every name a module imports is used in it; __init__.py re-exports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not found, f"unused imports in src/ffb: {found}"


def test_traced_layers_are_public_functions():
    # perfbench's tracer refuses to start unless each name in layers.NAMED is
    # a public function defined in its ffb module, so a merge or rename that
    # drops one breaks traced benchmark runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for name in layers.NAMED:
        module, _, attr = name.rpartition(".")
        obj = getattr(importlib.import_module(f"ffb.{module}"), attr, None)
        if (attr.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != f"ffb.{module}"):
            missing.append(name)
    assert layers.NAMED and not missing, f"traced layers with no public function: {missing}"


def test_cli_import_leaves_selfcheck_out():
    # only selftest needs selfcheck; every other command skips compiling it
    probe = "import sys, ffb.cli; print('ffb.selfcheck' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"
