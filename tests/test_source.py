"""Properties of the package source itself."""

import ast
import inspect
import os
import re
import subprocess
import sys
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


def test_one_constructor_per_class():
    """An object is built by its ``__init__`` alone: no ``__new__`` call
    makes one that skips the checks ``__init__`` runs."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
        ]
    assert not found, f"__new__ calls in {found}"


def _empty_memos(init):
    """The ``x._memo`` targets that ``init`` assigns a new empty dict."""
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for t, value in pairs:
                if isinstance(t, ast.Attribute) and t.attr == "_memo":
                    if isinstance(value, ast.Dict) and not value.keys:
                        yield t


def test_memo_is_written_only_by_kept():
    """Derived data has one home: a constructor creates ``_memo`` empty, and
    only :func:`wittforge.fields.kept` reads or fills it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                allowed.update(map(id, _empty_memos(node)))
            elif isinstance(node, ast.FunctionDef) and node.name == "kept":
                if path.name == "fields.py":
                    allowed.update(map(id, ast.walk(node)))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_memo" and id(node) not in allowed
        ]
    assert not found, f"_memo touched outside kept and constructors: {found}"


def _is_pass_through(func):
    """``func`` only forwards its parameters, unchanged, to another callable.

    Its body (after an optional docstring) is ``return f(p0, p1, ...)``,
    ``return p0.m(p1, ...)`` or, for a classmethod, ``return cls(p1, ...)``:
    a second name for another function or a constructor.
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
        return args == params or [target.id] + args == params
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


def test_every_parameter_is_read():
    """No input without a reader: each parameter of each ``def`` is loaded
    somewhere in its body (a nested def or lambda counts).  ``self``, ``cls``
    and ``_`` are exempt, and so are lambdas, which may share a signature."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found += [
                f"{path.name}:{node.lineno} {node.name}({name})"
                for name in params
                if name not in ("self", "cls", "_") and name not in read
            ]
    assert not found, f"parameters never read: {found}"


def test_each_suite_takes_the_keywords_its_entry_names():
    """``run_suite`` passes a suite exactly the keywords of its ``SUITES``
    entry, so those are the suite's parameters, in order."""
    from wittforge.verify import SUITES

    for name, (suite, _, keywords) in SUITES.items():
        assert tuple(inspect.signature(suite).parameters) == keywords, name


def test_no_private_imports_from_sibling_modules():
    """A module reaches a sibling only through its public names."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}: {node.module or ''}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert not found, f"private names imported from sibling modules: {found}"


def _run_at_import(node):
    """Every node below ``node`` that runs when its module is imported: all
    but the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def test_no_private_argparse_api():
    """The CLI builds on ``add_subparsers(parser_class=...)`` and the keywords
    ``add_parser`` forwards to it: nothing names argparse's private members."""
    private = re.compile(
        r"argparse\._|\._(actions|name_parser_map|parser_class|choices_actions)\b"
    )
    found = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if private.search(line)
    ]
    assert not found, f"private argparse names in {found}"


def test_sympy_is_not_imported_at_module_level():
    """sympy is imported inside the functions that need it, so importing the
    package and running a command that does not factor never loads it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _run_at_import(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "sympy"]
    assert not found, f"module-level sympy imports at {found}"


def test_import_and_a_command_leave_sympy_unloaded():
    # inspect too (with dis, tokenize and ast): no command reads a signature
    script = (
        "import sys; import wittforge.cli as cli; "
        "loaded = lambda: [m in sys.modules for m in ('sympy', 'inspect')]; before = loaded(); "
        "code = cli.main(['--json', 'witt', 'diag', '--field', 'F5', '--form', '1,2']); "
        "print(*before, code, *loaded(), file=sys.stderr)"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert result.stderr.split() == ["False", "False", "0", "False", "False"]


def _references(tree):
    """(enclosing top-level name or None, reference) for every bare name,
    imported name and ``<name>.<attribute>`` in ``tree``."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.alias):
                yield owner, node.name
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                yield owner, f"{node.value.id}.{node.attr}"


def _reaching_trees():
    """(package modules other than ``__init__``, {path: tree} for them and the
    benchmark): the code whose references count as reaching a name."""
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    bench = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in modules + bench
    }
    return modules, trees


def test_package_root_is_its_docstring():
    """The package root exports nothing: every name is imported from its module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree), "__init__.py holds more than its docstring"


def test_every_top_level_name_is_reached():
    """Each module-level def or class is referenced outside its own body, by
    the package (``__init__`` aside) or the benchmark: no name exists only for
    the tests or the exports."""
    modules, trees = _reaching_trees()
    references = {(path, owner, ref) for path, tree in trees.items() for owner, ref in _references(tree)}
    found = []
    for path in modules:
        for top in trees[path].body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = {top.name, f"{path.stem}.{top.name}"}
                if not any(
                    ref in names and (where, owner) != (path, top.name)
                    for where, owner, ref in references
                ):
                    found.append(f"{path.stem}.{top.name}")
    assert not found, f"top-level names no module or benchmark reaches: {found}"


def test_every_method_is_reached():
    """Each method or property of a top-level class, dunders aside, is the
    attribute of some ``x.<name>`` outside its own def, in the package
    (``__init__`` aside) or the benchmark.  Any ``x`` counts, so a method that
    shares its name with a reached one passes: delete such a name by name."""
    modules, trees = _reaching_trees()
    by_name = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                by_name.setdefault(node.attr, []).append((path, node.lineno))
    found = []
    for path in modules:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not isinstance(func, ast.FunctionDef) or (
                    func.name.startswith("__") and func.name.endswith("__")
                ):
                    continue
                # the def's own lines, its decorators included
                first = min([func.lineno] + [d.lineno for d in func.decorator_list])
                if not any(
                    where != path or not first <= line <= func.end_lineno
                    for where, line in by_name.get(func.name, ())
                ):
                    found.append(f"{path.stem}.{cls.name}.{func.name}")
    assert not found, f"methods no module or benchmark reaches: {found}"
