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

A second lint keeps write-only state out of the whole package: bookkeeping
that every run updates on a hot path and that no report, command or model
decision reads.  It fails on an attribute name that ``src/repro`` assigns
but never loads, or whose only use is to mutate a container its holder
built (``.append``/``.setdefault``/``.add`` whose result is dropped, or a
subscript assignment).  A handle obtained from elsewhere, such as a
:class:`~repro.stats.counters.Counter` from ``StatsCollector.counter``, is
shared storage read through its source, so mutating it is a write that
shows.  A dataclass field declared in a class body counts as written.
Three kinds of load are not reads: one inside a ``__repr__`` (a debugging
aid), one passed to the constructor of a class that declares that
attribute (a copy into the new object), and one that only feeds an
assignment to the same attribute (``x = f(x)``, or an ``if`` on ``x``
whose body only assigns ``x``).  Names are matched across the package, not
per class, so the lint is conservative: a name read anywhere counts as
read everywhere.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Mapping

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

#: methods that only add to their receiver when their result is dropped
MUTATORS = frozenset({"append", "setdefault", "add"})
#: calls that build a fresh container, owned by whatever it is assigned to
CONTAINER_FACTORIES = frozenset({"list", "dict", "set", "defaultdict", "deque"})
#: attribute names allowed to be written and never read in ``src/repro``
ALLOWED_WRITE_ONLY = frozenset({
    # MshrFile's count of merged requests: the end-to-end tests compare it
    # with the caches' own coalesce counters, an independent check that
    # store merges go through the MSHR file
    "total_coalesced",
    # JobFailure's job: the failure record a sweep hands its caller names
    # the job that failed, for the caller to report or retry
    "job",
    # WavefrontProgram's workgroup id: the trace generators set it and the
    # partitioner and the stream isolator copy it, so the trace-equivalence
    # pin, which digests it, shows a change in how wavefronts are grouped
    "workgroup_id",
})


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


def _builds_own_container(value: ast.expr | None) -> bool:
    """Whether an assigned value is a new object rather than one shared with
    another holder (a constant, a display or a container factory call)."""
    if value is None or isinstance(
        value, (ast.Constant, ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return isinstance(value, ast.Call) and _call_name(value) in CONTAINER_FACTORIES


def _only_mutates(node: ast.expr, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether this load of ``node`` only adds to the object it yields."""
    parent = parents[node]
    if isinstance(parent, ast.Subscript):
        return parent.value is node and isinstance(parent.ctx, ast.Store)
    if isinstance(parent, ast.Attribute) and parent.attr in MUTATORS:
        call = parents[parent]
        if isinstance(call, ast.Call) and call.func is parent:
            use = parents[call]
            return isinstance(use, ast.Expr) or _only_mutates(call, parents)
    return False


def _decorator_name(decorator: ast.expr) -> str:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else ""


def _class_fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    """The annotated names declared in a class body (a dataclass's fields)."""
    return [
        stmt for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]


def _declared_attributes(tree: ast.AST) -> dict[str, set[str]]:
    """Class name -> attributes it declares: body annotations and ``self.x`` stores."""
    declared: dict[str, set[str]] = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            names = declared.setdefault(cls.name, set())
            names.update(stmt.target.id for stmt in _class_fields(cls))
            names.update(
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            )
    return declared


def _in_repr(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name == "__repr__"
    return False


def _copied_into_constructor(
    node: ast.Attribute, parents: dict[ast.AST, ast.AST], declared: dict[str, set[str]]
) -> bool:
    """Whether this load is an argument to the constructor of a class that
    declares the same attribute, i.e. a copy into the new object."""
    call = parents[node]
    if isinstance(call, ast.keyword):
        call = parents[call]
    if not isinstance(call, ast.Call) or call.func is node:
        return False
    return node.attr in declared.get(_call_name(call), ())


def _assigns_only(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        return False
    return all(isinstance(target, ast.Attribute) and target.attr == name for target in targets)


def _feeds_own_assignment(node: ast.Attribute, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether this load only computes a new value for the same attribute."""
    child, stmt = node, parents[node]
    while not isinstance(stmt, ast.stmt):
        child, stmt = stmt, parents[stmt]
    if isinstance(stmt, ast.If) and child is stmt.test:
        return all(_assigns_only(inner, node.attr) for inner in (*stmt.body, *stmt.orelse))
    return _assigns_only(stmt, node.attr)


def write_only_state(sources: Mapping[str, str]) -> list[str]:
    """Attribute names in ``sources`` (module -> source) that are written
    and never read, each with the place it is first written."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    declared: dict[str, set[str]] = {}
    for tree in trees.values():
        for cls, names in _declared_attributes(tree).items():
            declared.setdefault(cls, set()).update(names)
    written: dict[str, str] = {}
    mutated: set[str] = set()
    shared: set[str] = set()
    read: set[str] = set()
    for module, tree in trees.items():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                _decorator_name(decorator) == "dataclass" for decorator in node.decorator_list
            ):
                for stmt in _class_fields(node):
                    written.setdefault(stmt.target.id, f"{module}:{stmt.lineno}")
            if not isinstance(node, ast.Attribute) or isinstance(node.ctx, ast.Del):
                continue
            name = node.attr
            if isinstance(node.ctx, ast.Store):
                written.setdefault(name, f"{module}:{node.lineno}")
                assignment = parents[node]
                if isinstance(assignment, (ast.Assign, ast.AnnAssign)) and not _builds_own_container(
                    assignment.value
                ):
                    shared.add(name)
            elif _only_mutates(node, parents):
                written.setdefault(name, f"{module}:{node.lineno}")
                mutated.add(name)
            elif not (
                _in_repr(node, parents)
                or _copied_into_constructor(node, parents, declared)
                or _feeds_own_assignment(node, parents)
            ):
                read.add(name)
    return sorted(
        f"{name} ({where})"
        for name, where in written.items()
        if name not in read
        and name not in ALLOWED_WRITE_ONLY
        and not (name in mutated and name in shared)
    )


@pytest.mark.parametrize("module", HOT_MODULES)
def test_hot_module_has_no_lambdas_or_keyword_partials(module):
    assert lint((SRC / module).read_text()) == []


def test_no_write_only_state():
    sources = {str(path.relative_to(SRC)): path.read_text() for path in sorted(SRC.rglob("*.py"))}
    assert write_only_state(sources) == []


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


class TestWriteOnlyLint:
    """The write-only lint flags unread state and passes read or shared state."""

    def test_flags_counters_and_containers_nobody_reads(self):
        source = (
            "class Port:\n"
            "    def __init__(self):\n"
            "        self.grants = 0\n"
            "        self.log = []\n"
            "    def grant(self, pc):\n"
            "        self.grants += 1\n"
            "        self.log.append(pc)\n"
            "        self.stats.outcomes.setdefault(pc, []).append(1)\n"
            "        self.seen[pc] = True\n"
            "        self.first = self.pending[0]\n"
        )
        assert write_only_state({"port.py": source}) == [
            "first (port.py:10)",
            "grants (port.py:3)",
            "log (port.py:4)",
            "outcomes (port.py:8)",
            "seen (port.py:9)",
        ]

    def test_read_and_shared_state_pass(self):
        source = (
            "class Port:\n"
            "    def __init__(self, stats):\n"
            "        self.grants = 0\n"
            "        self._c_grants = stats.counter('port.grants')\n"
            "        self.pending = {}\n"
            "    def grant(self, pc):\n"
            "        self.grants += 1\n"
            "        self._c_grants.add()\n"
            "        return self.pending.setdefault(pc, [])\n"
            "    def __len__(self):\n"
            "        return self.grants\n"
        )
        assert write_only_state({"port.py": source}) == []

    def test_a_name_read_in_another_module_counts_as_read(self):
        writer = "class A:\n    def __init__(self):\n        self.total = 0\n"
        reader = "def report(a):\n    return a.total\n"
        assert write_only_state({"a.py": writer}) == ["total (a.py:3)"]
        assert write_only_state({"a.py": writer, "b.py": reader}) == []

    def test_a_dataclass_field_counts_as_written(self):
        source = (
            "@dataclass(slots=True)\n"
            "class Entry:\n"
            "    primary: object\n"
            "    issued_cycle: int = 0\n"
            "    KIND: ClassVar[str] = 'mshr'\n"
            "def fill(entry):\n"
            "    return entry.primary\n"
        )
        assert write_only_state({"mshr.py": source}) == ["issued_cycle (mshr.py:4)"]

    def test_a_load_in_repr_is_not_a_read(self):
        source = (
            "class Interleave:\n"
            "    def __init__(self, chunk_lines):\n"
            "        self.chunk_lines = chunk_lines\n"
            "    def __repr__(self):\n"
            "        return f'Interleave({self.chunk_lines})'\n"
        )
        assert write_only_state({"map.py": source}) == ["chunk_lines (map.py:3)"]

    def test_a_copy_into_a_constructor_that_declares_it_is_not_a_read(self):
        source = (
            "class Request:\n"
            "    def __init__(self, address, converted, stream):\n"
            "        self.address = address\n"
            "        self.converted = converted\n"
            "        self.stream = stream\n"
            "def readdress(request, other):\n"
            "    clone = Request(request.address + 64, request.converted, stream=request.stream)\n"
            "    print(request.address, other.converted_count)\n"
            "    return clone\n"
            "def handle(job):\n"
            "    return Other(job.stream)\n"
        )
        # ``address`` is read; ``stream`` is also passed to a class that does not declare it
        assert write_only_state({"request.py": source}) == ["converted (request.py:4)"]

    def test_a_load_that_only_updates_itself_is_not_a_read(self):
        source = (
            "class Table:\n"
            "    def __init__(self):\n"
            "        self.peak = 0\n"
            "        self.high = 0\n"
            "        self.seen = 0\n"
            "    def allocate(self, occupancy):\n"
            "        if occupancy >= self.peak:\n"
            "            self.peak = occupancy + 1\n"
            "        self.high = max(self.high, occupancy)\n"
            "        if self.seen:\n"
            "            self.seen = 0\n"
            "            return occupancy\n"
        )
        # ``seen`` is read: its ``if`` body does more than assign it
        assert write_only_state({"table.py": source}) == [
            "high (table.py:4)",
            "peak (table.py:3)",
        ]
