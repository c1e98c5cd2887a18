"""Package-wide source invariants and the public surface.

Exactness invariants are raised, never asserted: ``python -O`` strips
``assert`` statements, so the package checks its invariants with explicit
raises (``lp.check`` raises ``LpAuditError``, an ``AssertionError``
subclass). And the package has zero runtime dependencies: it imports only
the standard library. Every name in ``vsparse.__all__`` resolves, lazily,
to the object its home module holds at that moment, and README's Library
block runs as written.
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vsparse
from vsparse import lp

PACKAGE = Path(vsparse.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_every_public_name_resolves_once():
    names = vsparse.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(vsparse, name)]
    assert not missing, f"names in vsparse.__all__ that vsparse lacks: {missing}"


def test_every_public_name_is_the_object_of_its_home_module():
    for name in vsparse.__all__:
        if name == "__version__":
            continue
        value = getattr(vsparse, name)
        home = sys.modules[value.__module__]  # UNBOUNDED reads its class's module
        assert home.__name__.startswith("vsparse.") and getattr(home, name) is value, name


def test_public_names_follow_a_patched_home_module(monkeypatch):
    # no name is cached on the package, so a patch of the home module shows
    from vsparse import core, quality
    monkeypatch.setattr(core, "pair", lambda i, j: None)
    monkeypatch.setattr(quality, "cut_quality", len)
    assert vsparse.pair is core.pair and vsparse.cut_quality is len
    assert "pair" not in vars(vsparse) and "cut_quality" not in vars(vsparse)


def test_dir_lists_the_public_names_and_submodules_still_import():
    assert set(vsparse.__all__) <= set(dir(vsparse))
    from vsparse import lp as imported
    assert imported is lp
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        vsparse.not_a_name


def test_readme_library_block_runs_as_written():
    block = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = block.strip().splitlines()
    namespace: dict = {}
    exec("\n".join(body), namespace)
    assert namespace["report"].q == Fraction(4, 3)
    assert last.startswith("cut_quality(g, beta).q_value")
    assert eval(last, namespace) == Fraction(4, 3)  # the block's last line, its comment ignored
