"""Lint for the modules on the exact request path.

Every hop of a request is scheduled as one positional ``functools.partial``
appended to its cycle's bucket.  A lambda costs a second Python frame per
event, and a keyword ``partial`` is measurably slower to build and call, so
this test keeps both out of the hot modules one closure at a time:

* no ``lambda`` anywhere in them -- in particular none passed to
  ``partial``, ``append``, ``schedule``, ``schedule_at`` or ``send`` --
  except in the allow-listed functions below, which run once per flush
  rather than once per request;
* no ``partial(...)`` call with keyword arguments.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

HOT_MODULES = (
    "memory/cache.py",
    "memory/interconnect.py",
    "memory/hierarchy.py",
    "memory/directory.py",
    "memory/dram.py",
    "gpu/wavefront.py",
)

#: functions (by qualified name) allowed to hold a lambda
ALLOWED_LAMBDAS = frozenset({"Cache.flush_dirty"})  # the rinse-order sort key


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ast.unparse(func)


class _HotPathLint(ast.NodeVisitor):
    def __init__(self) -> None:
        self.scope: list[str] = []
        self.findings: list[str] = []
        self._lambda_sites: dict[int, str] = {}

    def _visit_scope(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        for arg in (*node.args, *(keyword.value for keyword in node.keywords)):
            if isinstance(arg, ast.Lambda):
                self._lambda_sites[id(arg)] = f"passed to {name}()"
        if name == "partial" and node.keywords:
            keywords = ", ".join(f"{k.arg}=" for k in node.keywords)
            self._report(node, f"keyword partial ({keywords})")
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if ".".join(self.scope) not in ALLOWED_LAMBDAS:
            where = self._lambda_sites.get(id(node), "")
            self._report(node, f"lambda {where}".rstrip())
        self.generic_visit(node)

    def _report(self, node: ast.AST, what: str) -> None:
        scope = ".".join(self.scope) or "<module>"
        self.findings.append(f"line {node.lineno} in {scope}: {what}")


def lint(source: str) -> list[str]:
    """The hot-path findings in ``source`` (empty when clean)."""
    visitor = _HotPathLint()
    visitor.visit(ast.parse(source))
    return visitor.findings


@pytest.mark.parametrize("module", HOT_MODULES)
def test_hot_module_has_no_lambdas_or_keyword_partials(module):
    assert lint((SRC / module).read_text()) == []


class TestLinter:
    """The linter itself flags what it should and nothing else."""

    def test_flags_lambdas_passed_to_scheduling_calls(self):
        source = (
            "class Cache:\n"
            "    def _block(self, request, on_done):\n"
            "        self._queue.schedule(1, lambda: self._lookup(request))\n"
            "        self._at[5].append(lambda: None)\n"
            "        link.send(lambda r, cb: None, request, on_done)\n"
            "        partial(on_done, lambda r: None)\n"
        )
        assert lint(source) == [
            "line 3 in Cache._block: lambda passed to schedule()",
            "line 4 in Cache._block: lambda passed to append()",
            "line 5 in Cache._block: lambda passed to send()",
            "line 6 in Cache._block: lambda passed to partial()",
        ]

    def test_flags_keyword_partials(self):
        source = "def forward(l2, on_done):\n    return partial(l2.access, on_done=on_done)\n"
        assert lint(source) == ["line 2 in forward: keyword partial (on_done=)"]

    def test_positional_partials_and_allow_listed_sort_key_pass(self):
        source = (
            "class Cache:\n"
            "    def flush_dirty(self, dirty):\n"
            "        dirty.sort(key=lambda sw: sw[0])\n"
            "    def access(self, request, on_done):\n"
            "        self._at[1].append(partial(self._lookup, request, on_done, True))\n"
        )
        assert lint(source) == []

    def test_allow_list_is_by_function_not_by_method_name(self):
        source = "class Link:\n    def flush_dirty(self):\n        return lambda: None\n"
        assert lint(source) == ["line 3 in Link.flush_dirty: lambda"]
