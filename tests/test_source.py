"""Properties of the package source itself."""

import ast
from pathlib import Path

import wittforge

PACKAGE = Path(wittforge.__file__).parent


def test_no_assert_statements():
    """Invariants are real raises: ``assert`` vanishes under ``python -O``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in {found}"


def _is_pass_through(func):
    """``func`` only forwards its parameters, unchanged, to another callable.

    Its body (after an optional docstring) is ``return f(p0, p1, ...)`` or
    ``return p0.m(p1, ...)``: a second name for another function.
    """
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call) or call.keywords:
        return False
    if func.args.vararg or func.args.kwarg or func.args.kwonlyargs:
        return False
    params = [a.arg for a in func.args.posonlyargs + func.args.args]
    args = [a.id if isinstance(a, ast.Name) else None for a in call.args]
    target = call.func
    if isinstance(target, ast.Name):
        return args == params
    return (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and [target.value.id] + args == params
    )


def test_no_pass_through_aliases():
    """A function that only forwards its parameters to another is an alias."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and _is_pass_through(node)
        ]
    assert not found, f"pass-through aliases: {found}"
