"""Lazy package exports and deferred imports resolve to real objects.

Every package ``__init__`` under ``repro`` is a lazy export table,
optional subsystems are imported inside the functions that use them, and
the CLI's command table names each command's argument builder and handler
as strings.  A typo in any of them surfaces only when that name is looked
up or that code path runs, so these tests look every one of them up.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import repro
from repro.cli import COMMANDS

SRC = Path(repro.__file__).resolve().parent.parent

#: every package under ``repro``, found on disk so a new one is covered
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


@pytest.mark.parametrize("name", PACKAGES)
class TestPackageExports:
    def test_every_public_name_resolves_and_is_listed(self, name):
        package = importlib.import_module(name)
        assert package.__all__, f"{name} exports nothing"
        listed = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None, f"{name}.{export}"
            assert export in listed, f"{name}.{export} missing from dir()"

    def test_star_import_binds_every_public_name(self, name):
        namespace: dict[str, object] = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export), f"{name}.{export}"

    def test_unknown_name_raises_attribute_error_naming_the_module(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
            getattr(package, "no_such_export")
        assert not hasattr(package, "no_such_export")


def _deferred_imports() -> list[tuple[str, int, str, str]]:
    """(file, line, module, name) of every ``repro`` import below module level.

    Function-local and ``if TYPE_CHECKING:`` imports run late or never,
    so a misspelt one would not fail at import time.
    """
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = set(map(id, tree.body))
        for node in ast.walk(tree):
            if id(node) in top_level:
                continue
            where = (str(path.relative_to(SRC)), getattr(node, "lineno", 0))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found += [(*where, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (*where, alias.name, "")
                    for alias in node.names
                    if alias.name.startswith("repro")
                ]
    return found


def test_deferred_imports_name_existing_attributes():
    deferred = _deferred_imports()
    modules = {module for _source, _line, module, _name in deferred}
    assert {"repro.session", "repro.telemetry.trace", "repro.obs.bench"} <= modules
    missing = []
    for source, line, module, name in deferred:
        imported = importlib.import_module(module)
        if not name or hasattr(imported, name):
            continue
        # ``from package import submodule`` names a module, not an attribute
        if not (hasattr(imported, "__path__") and importlib.util.find_spec(f"{module}.{name}")):
            missing.append(f"{source}:{line}: {module} has no attribute {name!r}")
    assert missing == []


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_table_entry_resolves(name):
    command = COMMANDS[name]
    module = importlib.import_module(f"repro.cli.{command.module}")
    assert callable(getattr(module, command.arguments)), f"{name}: {command.arguments}"
    assert callable(getattr(module, command.handler)), f"{name}: {command.handler}"
