"""Exactness invariants are raised, never asserted.

``python -O`` strips ``assert`` statements, so the package checks its
invariants with explicit raises (``lp.check`` raises ``LpAuditError``, an
``AssertionError`` subclass). This walks every module and fails on any
``assert`` node.
"""

import ast
from pathlib import Path

import pytest

import vsparse
from vsparse import lp

PACKAGE = Path(vsparse.__file__).parent


def test_package_source_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in vsparse: {found}"


def test_check_raises_an_audit_error_that_is_an_assertion_error():
    lp.check(True, "never raised")
    with pytest.raises(lp.LpAuditError, match="broken") as info:
        lp.check(False, "broken")
    assert isinstance(info.value, AssertionError)
