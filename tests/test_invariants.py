"""Package-wide source invariants.

Exactness invariants are raised, never asserted: ``python -O`` strips
``assert`` statements, so the package checks its invariants with explicit
raises (``lp.check`` raises ``LpAuditError``, an ``AssertionError``
subclass). And the package has zero runtime dependencies: it imports only
the standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

import vsparse
from vsparse import lp

PACKAGE = Path(vsparse.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_source_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in vsparse: {found}"


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib imports in vsparse: {found}"
    assert "dependencies = []" in PYPROJECT.read_text().splitlines()


def test_check_raises_an_audit_error_that_is_an_assertion_error():
    lp.check(True, "never raised")
    with pytest.raises(lp.LpAuditError, match="broken") as info:
        lp.check(False, "broken")
    assert isinstance(info.value, AssertionError)
