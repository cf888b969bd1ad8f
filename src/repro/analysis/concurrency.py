"""Static thread-safety auditor for the serving-layer packages.

The serving front-end (:mod:`repro.serve`) runs
:class:`~repro.engine.SpMVEngine` batches on a worker pool behind a
dispatcher thread.  That is not safe unless the state those layers
share — the operand cache, the engine's stats, the metrics registry,
the breaker windows — is written under a declared lock discipline.
This module enforces that discipline *statically*, the way
:mod:`repro.analysis.lint` enforces the warp-synchronous idiom: an AST
pass over the audited packages (:data:`AUDITED_PACKAGES`), no runtime
import of the code it checks.

Three analyses, reported as structured :class:`ConcurrencyFinding`\\ s:

**Shared-state discovery.**  Any of the following is shared mutable
state and must carry a contract:

* an instance attribute *written* (``self.x = ...``, ``self.x += ...``,
  ``self.x[...] = ...``, ``self.x.y = ...``, ``del self.x[...]``)
  outside ``__init__`` / ``__post_init__`` → ``unguarded-mutable-state``
  unless declared ``guarded-by`` or waived;
* a module-level global bound to a mutable literal or a known mutable
  constructor (``list``/``dict``/``set``/``OrderedDict``/``deque``/
  ``defaultdict``/``Counter``) → ``mutable-global`` unless waived;
* a class attribute bound the same way (shared across every instance)
  → ``mutable-class-attribute`` unless waived.

**Lock-contract checking.**  A class declares its contract with a
pragma trailing (or standing immediately above) the field's
``__init__`` assignment::

    self._entries = OrderedDict()   # concurrency: guarded-by(self._lock)

Every read or write of a guarded field in any other method must then be
lexically inside a ``with self._lock:`` block (the exact expression
named by the pragma); an access outside it is a
``guarded-field-escape``.  Deliberately unshared (or deliberately
lock-free) state is waived with a justification, mirroring the lint's
waiver grammar::

    self._local = threading.local()   # concurrency: not-shared -- per-thread live stack

A waiver without the ``-- why`` text is itself a finding
(``missing-justification``) and waives nothing.

**Lock-ordering.**  Every lexically nested acquisition (``with a_lock:``
containing ``with b_lock:``) contributes an edge ``a → b`` to a
process-wide lock graph; a cycle in that graph is a potential deadlock
and is reported as ``lock-order-cycle``.  Re-entrant re-acquisition of
the same lock is not an edge (the hardened classes use ``RLock`` where
they self-nest through helper calls).

Known limitations, by design (mirroring the lint): the checker is
lexical and intra-procedural — a guarded access inside a helper that
callers invoke while holding the lock is still flagged (pass the data,
not the field: see ``OperandCache._publish_residency``), and lock
acquisitions across call boundaries do not contribute ordering edges.
Accesses from *outside* the owning class are invisible; the contract
covers the class's own methods, which is where the mutation lives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.astwalk import (
    format_findings,
    iter_python_files,
    parse_module,
    sort_findings,
)

__all__ = [
    "AUDITED_PACKAGES",
    "CONCURRENCY_RULES",
    "ConcurrencyFinding",
    "audit_package",
    "audit_paths",
    "audit_source",
    "format_findings",
]

#: ``src/repro`` sub-packages the serving arc touches from more than one
#: thread; ``repro.cli analyze --concurrency`` audits exactly these.
AUDITED_PACKAGES: tuple[str, ...] = (
    "engine",
    "exec",
    "obs",
    "persist",
    "plan",
    "resilience",
    "robustness",
    "serve",
)

CONCURRENCY_RULES: dict[str, str] = {
    "unguarded-mutable-state": (
        "instance attribute written outside __init__ with no guarded-by "
        "contract and no not-shared waiver"
    ),
    "guarded-field-escape": (
        "read/write of a guarded field lexically outside its declared "
        "`with <lock>:` block"
    ),
    "mutable-global": (
        "module-level mutable global; guard it behind an owning object "
        "or waive it as not-shared with a justification"
    ),
    "mutable-class-attribute": (
        "mutable class attribute shared by every instance; make it "
        "immutable or waive it as not-shared"
    ),
    "lock-order-cycle": (
        "nested lock acquisitions form a cycle; two threads taking the "
        "locks in opposite orders can deadlock"
    ),
    "missing-justification": (
        "a not-shared waiver requires `-- why`; an unjustified waiver "
        "waives nothing"
    ),
    "bad-pragma": "unrecognized or dangling `# concurrency:` pragma",
    "parse-error": "the file could not be parsed as Python",
}


@dataclass(frozen=True)
class ConcurrencyFinding:
    """One thread-safety violation at a source location."""

    path: str
    line: int
    rule: str
    message: str
    cls: str = ""
    field: str = ""

    def __str__(self) -> str:
        where = ".".join(p for p in (self.cls, self.field) if p)
        subject = f" {where}:" if where else ""
        return f"{self.path}:{self.line}: [{self.rule}]{subject} {self.message}"


# -- pragma grammar -----------------------------------------------------------

_PRAGMA = re.compile(
    r"#\s*concurrency:\s*(?P<kind>guarded-by\((?P<lock>[^)]+)\)|not-shared|[\w\-()./ ]*)"
    r"(?P<rest>.*)"
)

#: Constructors whose module-level / class-level result is mutable state.
_MUTABLE_CALLS = {"list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter"}

#: Methods whose writes *create* state rather than share it.
_INIT_METHODS = {"__init__", "__post_init__"}


@dataclass(frozen=True)
class _Pragma:
    """One resolved pragma: what it declares and the code line it covers."""

    kind: str  # "guarded-by" | "not-shared"
    lock: str | None
    target_line: int
    pragma_line: int


def _normalize(expr: str) -> str:
    return "".join(expr.split())


def _resolve_pragmas(source: str, path: str) -> tuple[list[_Pragma], list[ConcurrencyFinding]]:
    """Parse every ``# concurrency:`` pragma, resolving placement.

    A pragma trailing code covers its own line; a standalone pragma
    covers the next code line (comment continuation lines in between
    are fine) — identical to the lint's waiver placement rules.
    """
    lines = source.splitlines()
    pragmas: list[_Pragma] = []
    findings: list[ConcurrencyFinding] = []
    for lineno, text in enumerate(lines, start=1):
        if "# concurrency:" not in text and "#concurrency:" not in text:
            continue
        match = _PRAGMA.search(text)
        if match is None:  # pragma: no cover - regex accepts any tail
            continue
        kind = match.group("kind").strip()
        before = text[: match.start()].strip()
        if before and not before.startswith("#"):
            target = lineno
        else:
            target = None
            for later in range(lineno, len(lines)):
                candidate = lines[later].strip()
                if candidate and not candidate.startswith("#"):
                    target = later + 1
                    break
        if target is None:
            findings.append(
                ConcurrencyFinding(path, lineno, "bad-pragma", "pragma covers no code line")
            )
            continue
        if kind.startswith("guarded-by("):
            pragmas.append(_Pragma("guarded-by", _normalize(match.group("lock")), target, lineno))
        elif kind == "not-shared":
            justification = match.group("rest").strip()
            if not justification.startswith("--") or not justification.lstrip("- ").strip():
                findings.append(
                    ConcurrencyFinding(
                        path,
                        lineno,
                        "missing-justification",
                        "not-shared waiver without a `-- why` justification",
                    )
                )
                continue
            pragmas.append(_Pragma("not-shared", None, target, lineno))
        else:
            findings.append(
                ConcurrencyFinding(
                    path,
                    lineno,
                    "bad-pragma",
                    f"unrecognized concurrency pragma {kind!r}; expected "
                    "guarded-by(<lock>) or not-shared -- <why>",
                )
            )
    return pragmas, findings


# -- AST helpers --------------------------------------------------------------


def _is_dunder(name: str) -> bool:
    """``__all__``-style names: module/class protocol slots, written once
    at definition time by idiom, never mutated afterwards."""
    return name.startswith("__") and name.endswith("__")


def _is_mutable_value(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in _MUTABLE_CALLS
    return False


def _self_field(node: ast.expr) -> str | None:
    """The ``X`` of a ``self.X``-rooted expression, else ``None``.

    Descends through attribute/subscript chains so ``self.stats.hits``
    and ``self._entries[key]`` both resolve to their base field — a
    write through either mutates state reachable from ``self``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        parent = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(parent, ast.Name)
            and parent.id == "self"
        ):
            return node.attr
        node = parent
    return None


def _looks_like_lock(expr_text: str) -> bool:
    """Heuristic: is this ``with``-context expression a mutex?

    Covers ``Lock``/``RLock`` naming conventions and condition
    variables (``threading.Condition`` wraps a lock, and ``with cond:``
    acquires it — the serving front-end guards its bookkeeping that
    way so waiters and mutators share one mutex).
    """
    lowered = expr_text.lower()
    return "lock" in lowered or "cond" in lowered


@dataclass(frozen=True)
class _Access:
    field: str
    line: int
    write: bool
    held: tuple[str, ...]  # normalized lock expressions lexically held


class _MethodScanner(ast.NodeVisitor):
    """Collect ``self.<field>`` accesses and lock-order edges in one method.

    Tracks the lexically held ``with``-acquired locks; nested function
    definitions reset the stack (their bodies run when called, not where
    they are written).
    """

    def __init__(self, lock_edges: list):
        self.accesses: list[_Access] = []
        self.with_lines: dict[str, int] = {}
        self._held: list[str] = []
        self._edges = lock_edges

    # -- lock tracking -------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            try:
                text = _normalize(ast.unparse(item.context_expr))
            except Exception:  # pragma: no cover - unparse is total on parsed trees
                continue
            if _looks_like_lock(text):
                for held in self._held:
                    if held != text:
                        self._edges.append((held, text, node.lineno))
                self._held.append(text)
                acquired.append(text)
                self.with_lines.setdefault(text, node.lineno)
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self._held.pop()

    visit_AsyncWith = visit_With

    def _scan_detached(self, body) -> None:
        held, self._held = self._held, []
        for stmt in body:
            self.visit(stmt)
        self._held = held

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scan_detached(node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._scan_detached([ast.Expr(value=node.body)])

    # -- access collection ---------------------------------------------------
    def _record(self, field: str | None, line: int, write: bool) -> None:
        if field is not None:
            self.accesses.append(_Access(field, line, write, tuple(self._held)))

    def _record_targets(self, targets, line: int) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._record_targets(target.elts, line)
            elif isinstance(target, ast.Starred):
                self._record_targets([target.value], line)
            else:
                self._record(_self_field(target), line, write=True)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_targets(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_targets([node.target], node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_targets([node.target], node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._record_targets(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            self._record(node.attr, node.lineno, write=isinstance(node.ctx, ast.Store))
        self.generic_visit(node)


# -- per-module audit ---------------------------------------------------------


def _init_fields(cls: ast.ClassDef) -> dict[str, int]:
    """``{field: lineno}`` for every ``self.X = ...`` in init methods."""
    fields: dict[str, int] = {}
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name in _INIT_METHODS:
            for node in ast.walk(method):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        fields.setdefault(target.attr, target.lineno)
    return fields


def _audit_module(
    source: str, path: str
) -> tuple[list[ConcurrencyFinding], list[tuple[str, str, str, int]]]:
    """Audit one module; returns unwaived findings and lock-graph edges.

    Edges are ``(from_token, to_token, path, line)`` with tokens
    qualified by class name, so ``self._lock`` in two classes stays two
    distinct locks in the process-wide graph.
    """
    tree, error = parse_module(source, path)
    if tree is None:
        assert error is not None
        return (
            [ConcurrencyFinding(path, error.lineno or 0, "parse-error", str(error.msg))],
            [],
        )
    pragmas, findings = _resolve_pragmas(source, path)
    guards = {p.target_line: p for p in pragmas if p.kind == "guarded-by"}
    waived_lines = {p.target_line for p in pragmas if p.kind == "not-shared"}
    claimed_pragma_lines: set[int] = set()
    edges: list[tuple[str, str, str, int]] = []

    def waived(line: int) -> bool:
        return line in waived_lines

    # -- module-level globals -------------------------------------------------
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not targets or not _is_mutable_value(value):
            continue
        if waived(stmt.lineno):
            continue
        names = [
            t.id
            for t in targets
            if isinstance(t, ast.Name) and not _is_dunder(t.id)
        ]
        if names:
            findings.append(
                ConcurrencyFinding(
                    path,
                    stmt.lineno,
                    "mutable-global",
                    "module-level mutable global; every importing thread shares it",
                    field=", ".join(names),
                )
            )

    # -- classes --------------------------------------------------------------
    class_map = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def class_chain(cls: ast.ClassDef) -> list[ast.ClassDef]:
        """``cls`` plus every same-module base, subclass-first.

        A subclass inherits the base's ``__init__`` contract (``Counter``
        writes the ``_series`` that ``Metric.__init__`` declared
        guarded); bases defined in other modules are invisible, one more
        facet of the documented lexical scope.
        """
        chain: list[ast.ClassDef] = []
        queue, seen = [cls], set()
        while queue:
            current = queue.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            chain.append(current)
            for base in current.bases:
                if isinstance(base, ast.Name) and base.id in class_map:
                    queue.append(class_map[base.id])
        return chain

    for cls in class_map.values():
        init_lines: dict[str, int] = {}
        for member in class_chain(cls):
            for field_name, lineno in _init_fields(member).items():
                init_lines.setdefault(field_name, lineno)
        contracts: dict[str, str] = {}
        exempt_fields: set[str] = set()
        for field_name, lineno in init_lines.items():
            pragma = guards.get(lineno)
            if pragma is not None:
                contracts[field_name] = pragma.lock or ""
                claimed_pragma_lines.add(pragma.pragma_line)
            if waived(lineno):
                exempt_fields.add(field_name)

        # class attributes bound to mutable values
        for stmt in cls.body:
            targets, value = [], None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not targets or not _is_mutable_value(value) or waived(stmt.lineno):
                continue
            names = [
                t.id
                for t in targets
                if isinstance(t, ast.Name) and not _is_dunder(t.id)
            ]
            if names:
                findings.append(
                    ConcurrencyFinding(
                        path,
                        stmt.lineno,
                        "mutable-class-attribute",
                        "mutable class attribute is shared by every instance",
                        cls=cls.name,
                        field=", ".join(names),
                    )
                )

        # scan every non-init method
        local_edges: list[tuple[str, str, int]] = []
        accesses: list[_Access] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _INIT_METHODS:
                continue
            scanner = _MethodScanner(local_edges)
            for stmt in method.body:
                scanner.visit(stmt)
            accesses.extend(scanner.accesses)

        def qualify(token: str) -> str:
            return f"{cls.name}.{token}" if token.startswith("self.") else token

        for held, acquired, lineno in local_edges:
            edges.append((qualify(held), qualify(acquired), path, lineno))

        flagged: set[tuple[str, int, str]] = set()

        def flag(rule: str, access: _Access, message: str) -> None:
            key = (access.field, access.line, rule)
            if key in flagged or waived(access.line):
                return
            flagged.add(key)
            findings.append(
                ConcurrencyFinding(
                    path, access.line, rule, message, cls=cls.name, field=access.field
                )
            )

        for access in accesses:
            if access.field in exempt_fields:
                continue
            contract = contracts.get(access.field)
            if contract is not None:
                if contract not in access.held:
                    kind = "write" if access.write else "read"
                    flag(
                        "guarded-field-escape",
                        access,
                        f"{kind} outside `with {contract}:` (declared guarded-by)",
                    )
            elif access.write:
                flag(
                    "unguarded-mutable-state",
                    access,
                    "written outside __init__ with no guarded-by contract; "
                    "declare `# concurrency: guarded-by(<lock>)` on its "
                    "__init__ assignment or waive it as not-shared",
                )

    # guarded-by pragmas that attached to no __init__ field declaration
    for pragma in pragmas:
        if pragma.kind == "guarded-by" and pragma.pragma_line not in claimed_pragma_lines:
            findings.append(
                ConcurrencyFinding(
                    path,
                    pragma.pragma_line,
                    "bad-pragma",
                    f"guarded-by({pragma.lock}) attaches to no `self.<field> = ...` "
                    "assignment in an __init__/__post_init__ method",
                )
            )

    return findings, edges


# -- lock-order cycle detection -----------------------------------------------


def _lock_cycles(
    edges: list[tuple[str, str, str, int]]
) -> list[ConcurrencyFinding]:
    """DFS over the merged acquisition graph; one finding per cycle."""
    graph: dict[str, dict[str, tuple[str, int]]] = {}
    for src, dst, path, line in edges:
        graph.setdefault(src, {}).setdefault(dst, (path, line))
        graph.setdefault(dst, {})

    findings: list[ConcurrencyFinding] = []
    seen_cycles: set[frozenset[str]] = set()
    color: dict[str, int] = {}  # 0 unvisited / 1 on stack / 2 done
    stack: list[str] = []

    def visit(node: str) -> None:
        color[node] = 1
        stack.append(node)
        for succ in graph[node]:
            if color.get(succ, 0) == 0:
                visit(succ)
            elif color.get(succ) == 1:
                cycle = stack[stack.index(succ):] + [succ]
                key = frozenset(cycle)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    path, line = graph[node][succ]
                    findings.append(
                        ConcurrencyFinding(
                            path,
                            line,
                            "lock-order-cycle",
                            "nested acquisitions form the cycle "
                            + " -> ".join(cycle)
                            + "; a thread holding the later lock can deadlock "
                            "one holding the earlier",
                        )
                    )
        stack.pop()
        color[node] = 2

    for node in sorted(graph):
        if color.get(node, 0) == 0:
            visit(node)
    return findings


# -- public API ---------------------------------------------------------------


def audit_source(source: str, path: str = "<string>") -> list[ConcurrencyFinding]:
    """Audit one module's source text; returns unwaived findings."""
    findings, edges = _audit_module(source, path)
    findings.extend(_lock_cycles(edges))
    return sort_findings(findings)


def audit_paths(paths) -> list[ConcurrencyFinding]:
    """Audit files and/or directory trees, merging lock graphs.

    The acquisition graph spans every audited file, so an A→B edge in
    one module and a B→A edge in another still close a reported cycle.
    """
    findings: list[ConcurrencyFinding] = []
    edges: list[tuple[str, str, str, int]] = []
    for file in iter_python_files(paths):
        file_findings, file_edges = _audit_module(
            file.read_text(encoding="utf-8"), str(file)
        )
        findings.extend(file_findings)
        edges.extend(file_edges)
    findings.extend(_lock_cycles(edges))
    return sort_findings(findings)


def audit_package(package_root) -> list[ConcurrencyFinding]:
    """Audit :data:`AUDITED_PACKAGES` under an on-disk ``repro`` root.

    The root is passed in (``Path(repro.__path__[0])`` from callers that
    may import the package) because this module itself must stay
    importable without pulling in the code it audits.
    """
    root = Path(package_root)
    return audit_paths([root / name for name in AUDITED_PACKAGES if (root / name).is_dir()])
