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
