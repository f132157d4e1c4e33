"""Import lint: every name a package module imports is used there, and the
package root exports everything it imports.  Standard library `ast` only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prymlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, plus the names inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal value, not a forward reference
                    continue
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_string_annotations_count_as_use():
    tree = ast.parse('from typing import Sequence\ndef f(x: "Sequence[int]") -> None: ...\n')
    assert "Sequence" in _used_names(tree)
    tree = ast.parse("from typing import Sequence\ndef f(x) -> None: ...\n")
    assert "Sequence" not in _used_names(tree)


def test_package_root_exports_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    missing = sorted(set(_imported_names(tree)) - set(exported))
    assert not missing, f"__init__ imports names missing from __all__: {missing}"


def test_import_prymlab_leaves_the_verification_suite_unloaded():
    # the package root serves verify's exports on first access (PEP 562),
    # so a process that only computes never compiles verify
    code = (
        "import prymlab, sys; print('prymlab.verify' in sys.modules); "
        "print(prymlab.run_suite.__module__, 'prymlab.verify' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "prymlab.verify", "True"]


def _package_imports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(module, name, line) of every name imported from a package module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.level == 1 or node.module.split(".")[0] == "prymlab"
        ):
            module = node.module.split(".")[-1]
            out.extend((module, alias.name, node.lineno) for alias in node.names)
    return out


def test_private_names_stay_in_their_module():
    private = [
        f"{path.name}:{line} imports {module}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name, line in _package_imports(ast.parse(path.read_text()))
        if name.startswith("_")
    ]
    assert not private, f"module privates imported from another module: {private}"


def test_the_private_import_lint_sees_relative_and_absolute_imports():
    tree = ast.parse("from .riemann_roch import _branch, h0\nfrom prymlab.prym import _check_eta\n")
    assert _package_imports(tree) == [
        ("riemann_roch", "_branch", 1), ("riemann_roch", "h0", 1), ("prym", "_check_eta", 2)
    ]


def test_cantor_arithmetic_does_not_reach_the_kernel_engine():
    # jacobian cross-checks riemann_roch, so it may not depend on it, even
    # through another package module
    seen, todo = set(), ["jacobian"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            tree = ast.parse((PACKAGE / f"{module}.py").read_text())
            todo.extend(m for m, _, _ in _package_imports(tree))
    assert "riemann_roch" not in seen, sorted(seen)
