"""Whole-program layer: project loading, symbol resolution, call graph.

The per-module rules (R001-R011) see one ``ast.Module`` at a time, so
they cannot check invariants that *span* modules: the anytime contract
needs ``budget=`` to reach every branch-and-bound subtree, and the
spawn fan-out only works if everything crossing the pool envelope is
picklable.  This module gives the program rules (R012+) the missing
view: parse the whole tree once, resolve imports and module-level
symbols, and build a call graph over it.

The graph is deliberately *under*-approximate — a missing edge means
"could not resolve statically", never "proven absent" — so rules built
on it only fire where resolution succeeded and stay quiet elsewhere.
Three resolution layers feed it:

* **direct calls** — ``f(...)`` and ``mod.f(...)`` through each
  module's symbol table (imports, aliases, and re-export chains, e.g.
  ``from ..dichromatic import solve_mdc`` chasing through the package
  ``__init__`` to the defining module);
* **dispatch seams** — conditional solver selection
  (``ego = _np if ctx.engine == "numpy" else _bits``) yields an edge
  to *both* candidates, and method calls on locally constructed or
  annotation-typed instances resolve through the class table
  (``dispatcher.run`` -> ``ResilientDispatcher.run``);
* **table registrations** — function references escaping into
  module-level dict literals or registration calls (the CLI
  ``_COMMANDS`` table) become ``table`` edges from the module scope,
  so registry-dispatched handlers are reachable in the graph.

Nothing here imports the solver stack (R006): the loader works on
:class:`~repro.analysis.engine.ModuleInfo` objects only, so a broken
tree can still be graphed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .engine import ModuleInfo

__all__ = [
    "CallEdge",
    "ClassNode",
    "FunctionNode",
    "Program",
    "ScopeBindings",
    "build_program",
    "call_passes_kwarg",
    "iter_scopes",
    "scan_bindings",
    "scope_walk",
]

#: Edge kinds: ``call`` is a resolved direct call, ``dispatch`` is a
#: seam (conditional solver selection, method-on-instance, or a
#: callable handed across a pool boundary), ``table`` is a function
#: reference escaping into a module-level registry.
EDGE_KINDS = ("call", "dispatch", "table")

#: Methods whose first callable argument crosses a process boundary
#: (mirrors R009's pool-dispatch list); used to add ``dispatch`` edges
#: for the runner argument of ``ResilientDispatcher.run`` and friends.
DISPATCH_METHODS = frozenset({
    "run", "imap", "imap_unordered", "map_async", "apply_async",
})

#: Receiver class names whose :data:`DISPATCH_METHODS` calls are pool
#: seams.  Matching is by class *name* so a fixture or test double that
#: mimics the dispatcher is policed the same way.
DISPATCH_CLASSES = frozenset({"ResilientDispatcher", "Pool"})


@dataclass(frozen=True)
class FunctionNode:
    """One function or method definition in the program."""

    module: str
    qualname: str
    path: str
    lineno: int
    params: tuple[str, ...]      # positional-capable, in order
    kwonly: tuple[str, ...]
    has_var_positional: bool
    has_var_keyword: bool
    is_method: bool = False
    is_classmethod: bool = False

    @property
    def key(self) -> str:
        """Graph node id: ``repro.core.pf:pf_star``."""
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    def accepts(self, param: str) -> bool:
        """Whether ``param`` is an explicit parameter (not ``**kw``)."""
        return param in self.params or param in self.kwonly

    def positional_index(self, param: str, bound: bool) -> int | None:
        """Index a positional argument must reach to cover ``param``.

        ``bound`` drops the implicit ``self``/``cls`` slot for method
        calls through an instance; a classmethod's ``cls`` is implicit
        however it is reached.
        """
        if param not in self.params:
            return None
        index = self.params.index(param)
        if (bound or self.is_classmethod) and self.is_method:
            index -= 1
        return index if index >= 0 else None


@dataclass(frozen=True)
class ClassNode:
    """One class definition plus its directly defined methods."""

    module: str
    qualname: str
    path: str
    lineno: int
    methods: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: caller scope -> callee function."""

    caller: str                  # FunctionNode.key, or "mod:<module>"
    callee: str                  # FunctionNode.key
    path: str                    # caller's file (anchors findings)
    lineno: int
    kind: str                    # one of EDGE_KINDS
    bound: bool = False          # True when called through an instance


@dataclass
class Program:
    """The resolved whole-program view handed to ``ProgramRule``s."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionNode] = field(default_factory=dict)
    classes: dict[str, ClassNode] = field(default_factory=dict)
    symbols: dict[str, dict[str, str]] = field(default_factory=dict)
    edges: list[CallEdge] = field(default_factory=list)
    #: edge -> the ``ast.Call`` it came from (kept out of the frozen
    #: edge so edges stay hashable/serialisable).
    calls: dict[int, ast.Call] = field(default_factory=dict)

    def call_node(self, edge: CallEdge) -> ast.Call | None:
        """The AST call expression behind ``edge`` (None for tables)."""
        return self.calls.get(id(edge))

    def function(self, key: str) -> FunctionNode | None:
        return self.functions.get(key)

    def reachable_from(self, roots: Iterable[str]) -> frozenset[str]:
        """Transitive closure of callees from ``roots`` (inclusive)."""
        out: dict[str, list[str]] = {}
        for edge in self.edges:
            out.setdefault(edge.caller, []).append(edge.callee)
        seen: set[str] = set()
        stack = [r for r in roots]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(out.get(node, ()))
        return frozenset(seen)

    def worker_entry_points(self) -> list[FunctionNode]:
        """The ``run_*_chunk*`` functions of the parallel package."""
        return sorted(
            (fn for fn in self.functions.values()
             if fn.module.startswith("repro.parallel")
             and fn.name.startswith("run_") and "chunk" in fn.name),
            key=lambda fn: fn.key)

    def resolve(self, module: str, dotted: str) -> str | None:
        """Resolve a dotted name seen in ``module`` to a graph key.

        Walks the module symbol table for the first component, then
        chases re-export chains (``from .mdc import solve_mdc`` in a
        package ``__init__``) until the defining module is found.
        """
        table = self.symbols.get(module, {})
        head, _, rest = dotted.partition(".")
        target = table.get(head)
        if target is None:
            if module in self.modules and not rest:
                # a bare name defined in this very module
                if f"{module}:{dotted}" in self.functions or \
                        f"{module}:{dotted}" in self.classes:
                    return f"{module}:{dotted}"
            return None
        fq = f"{target}.{rest}" if rest else target
        return self._resolve_fq(fq)

    def _resolve_fq(self, fq: str, depth: int = 0) -> str | None:
        """Fully-qualified dotted name -> graph key, chasing aliases."""
        if depth > 8:
            return None
        parts = fq.split(".")
        # longest module prefix wins so ``repro.core.pf.pf_star``
        # anchors at the defining module, not the package.
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod not in self.modules:
                continue
            rest = parts[cut:]
            key = f"{mod}:{'.'.join(rest)}"
            if key in self.functions or key in self.classes:
                return key
            table = self.symbols.get(mod, {})
            if rest and rest[0] in table:
                chained = table[rest[0]]
                tail = ".".join(rest[1:])
                return self._resolve_fq(
                    f"{chained}.{tail}" if tail else chained,
                    depth + 1)
            return None
        if fq in self.modules:
            return f"{fq}:<module>"
        return None

    def method_key(self, class_key: str, method: str) -> str | None:
        cls = self.classes.get(class_key)
        if cls is None or method not in cls.methods:
            return None
        return f"{cls.module}:{cls.qualname}.{method}"

    def classes_named(self, name: str) -> list[ClassNode]:
        return [c for c in self.classes.values() if c.name == name]


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def _resolve_relative(module: ModuleInfo, level: int,
                      target: str | None) -> str | None:
    """Absolute dotted base of a ``from ...x import y`` statement."""
    if module.module is None:
        return None
    base = module.module.split(".")
    if not module.is_package_init:
        base = base[:-1]
    if level > 1:
        cut = level - 1
        if cut >= len(base):
            return None
        base = base[:-cut]
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chain -> ``"a.b.c"``; anything else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _annotation_class_name(node: ast.expr | None) -> str | None:
    """Best-effort class name out of a parameter annotation.

    Handles ``C``, ``mod.C``, ``C | None``, ``Optional[C]`` and quoted
    forms; returns the *leaf* name only (matching is name-based).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_annotation_class_name(node.left)
                or _annotation_class_name(node.right))
    if isinstance(node, ast.Subscript):
        return _annotation_class_name(node.slice)
    dotted = _dotted_name(node)
    if dotted is None or dotted in ("None", "Any", "object"):
        return None
    return dotted.rpartition(".")[2]


def _function_node(module: ModuleInfo, qualname: str,
                   node: ast.FunctionDef | ast.AsyncFunctionDef,
                   is_method: bool) -> FunctionNode:
    args = node.args
    params = tuple(a.arg for a in args.posonlyargs + args.args)
    decorators = {
        dec.id for dec in node.decorator_list
        if isinstance(dec, ast.Name)}
    if "staticmethod" in decorators:
        is_method = False
    return FunctionNode(
        module=module.module or module.path,
        qualname=qualname,
        path=module.path,
        lineno=node.lineno,
        params=params,
        kwonly=tuple(a.arg for a in args.kwonlyargs),
        has_var_positional=args.vararg is not None,
        has_var_keyword=args.kwarg is not None,
        is_method=is_method,
        is_classmethod=is_method and "classmethod" in decorators,
    )


def _collect_definitions(program: Program, module: ModuleInfo) -> None:
    """Register every function/class and the module symbol table."""
    mod = module.module or module.path
    table: dict[str, str] = {}

    def register(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                fn = _function_node(module, qual, child, in_class)
                program.functions[fn.key] = fn
                register(child, f"{qual}.<locals>.", False)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}"
                methods = tuple(
                    stmt.name for stmt in child.body
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)))
                cls = ClassNode(
                    module=mod, qualname=qual, path=module.path,
                    lineno=child.lineno, methods=methods)
                program.classes[cls.key] = cls
                register(child, f"{qual}.", True)
            elif not isinstance(child, ast.Lambda):
                register(child, prefix, in_class)

    register(module.tree, "", False)

    for stmt in module.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else
                    alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level == 0:
                base = stmt.module
            else:
                base = _resolve_relative(module, stmt.level,
                                         stmt.module)
            if base is None:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = (
                    f"{base}.{alias.name}")
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            table[stmt.name] = f"{mod}.{stmt.name}"
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            source = _dotted_name(stmt.value)
            if isinstance(target, ast.Name) and source is not None:
                head = source.split(".")[0]
                if head in table:
                    resolved = table[head] + source[len(head):]
                    table[target.id] = resolved
                elif source != target.id:
                    table[target.id] = f"{mod}.{source}"
    program.symbols[mod] = table


class ScopeBindings:
    """Local names bound to callables or typed instances in a scope."""

    def __init__(self) -> None:
        self.callables: dict[str, list[str]] = {}   # name -> keys
        self.instances: dict[str, str] = {}         # name -> class name

    def candidates(self, name: str) -> list[str]:
        return self.callables.get(name, [])


def _callable_targets(program: Program, module: str,
                      node: ast.expr) -> list[str]:
    """Graph keys a value expression may refer to (functions only)."""
    if isinstance(node, ast.IfExp):
        return (_callable_targets(program, module, node.body)
                + _callable_targets(program, module, node.orelse))
    dotted = _dotted_name(node)
    if dotted is None:
        return []
    key = program.resolve(module, dotted)
    if key is not None and key in program.functions:
        return [key]
    return []


def _scan_bindings(program: Program, module: str,
                   scope: ast.AST,
                   owner: FunctionNode | None) -> ScopeBindings:
    bindings = ScopeBindings()
    if owner is not None:
        fn_node = scope
        if isinstance(fn_node, (ast.FunctionDef,
                                ast.AsyncFunctionDef)):
            args = fn_node.args
            for arg in (args.posonlyargs + args.args
                        + args.kwonlyargs):
                cls_name = _annotation_class_name(arg.annotation)
                if cls_name is not None:
                    bindings.instances[arg.arg] = cls_name
    for node in _scope_walk(scope):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        value = node.value
        if value is None or len(targets) != 1 or \
                not isinstance(targets[0], ast.Name):
            continue
        name = targets[0].id
        keys = _callable_targets(program, module, value)
        if keys:
            bindings.callables[name] = keys
            continue
        if isinstance(value, ast.Call):
            dotted = _dotted_name(value.func)
            if dotted is not None:
                resolved = program.resolve(module, dotted)
                if resolved is not None and \
                        resolved in program.classes:
                    bindings.instances[name] = (
                        program.classes[resolved].name)
        if isinstance(node, ast.AnnAssign):
            cls_name = _annotation_class_name(node.annotation)
            if cls_name is not None:
                bindings.instances[name] = cls_name
    return bindings


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested defs or classes.

    Lambdas are transparent — a call inside ``lambda: f(x)`` is
    attributed to the enclosing function, which is where its free
    variables live.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _iter_scopes(
    module: ModuleInfo,
) -> Iterator[tuple[str, ast.AST, str | None]]:
    """(qualname-or-<module>, scope node, enclosing class) triples."""
    yield "<module>", module.tree, None

    def visit(node: ast.AST, prefix: str,
              cls: str | None) -> Iterator[
                  tuple[str, ast.AST, str | None]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child, cls
                yield from visit(child, f"{qual}.<locals>.", None)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.",
                                 f"{prefix}{child.name}")
            elif not isinstance(child, ast.Lambda):
                yield from visit(child, prefix, cls)

    yield from visit(module.tree, "", None)


def _add_edge(program: Program, caller: str, callee: str, path: str,
              lineno: int, kind: str, bound: bool,
              call: ast.Call | None) -> None:
    edge = CallEdge(caller=caller, callee=callee, path=path,
                    lineno=lineno, kind=kind, bound=bound)
    program.edges.append(edge)
    if call is not None:
        program.calls[id(edge)] = call


def _resolve_call_targets(
    program: Program, module: str, call: ast.Call,
    bindings: ScopeBindings, enclosing_class: str | None,
) -> list[tuple[str, str, bool]]:
    """(callee key, kind, bound) candidates for one call expression."""
    func = call.func
    results: list[tuple[str, str, bool]] = []
    if isinstance(func, ast.Name):
        for key in bindings.candidates(func.id):
            results.append((key, "dispatch", False))
        if results:
            return results
        key = program.resolve(module, func.id)
        if key is not None:
            if key in program.classes:
                init = program.method_key(key, "__init__")
                if init is not None:
                    results.append((init, "call", True))
            elif key in program.functions:
                results.append((key, "call", False))
        return results
    if isinstance(func, ast.Attribute):
        base = func.value
        # self.method() inside a class body
        if isinstance(base, ast.Name) and base.id in ("self", "cls") \
                and enclosing_class is not None:
            key = program.method_key(
                f"{module}:{enclosing_class}", func.attr)
            if key is not None:
                results.append((key, "call", True))
            return results
        # instance.method() through a tracked local/annotated type
        if isinstance(base, ast.Name) and \
                base.id in bindings.instances:
            cls_name = bindings.instances[base.id]
            for cls in program.classes_named(cls_name):
                key = program.method_key(cls.key, func.attr)
                if key is not None:
                    results.append((key, "dispatch", True))
            return results
        # mod.func() / pkg.mod.func() through the symbol table
        dotted = _dotted_name(func)
        if dotted is not None:
            key = program.resolve(module, dotted)
            if key is not None:
                if key in program.classes:
                    init = program.method_key(key, "__init__")
                    if init is not None:
                        results.append((init, "call", True))
                elif key in program.functions:
                    results.append((key, "call", False))
    return results


def _table_values(node: ast.expr) -> Iterator[ast.expr]:
    """Expressions escaping into a module-level registry literal."""
    if isinstance(node, ast.Dict):
        for value in node.values:
            if value is not None:
                yield value
    elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        for elt in node.elts:
            yield elt
    elif isinstance(node, ast.Call):
        for arg in node.args:
            yield arg
            yield from _table_values(arg)
        for kw in node.keywords:
            yield kw.value
            yield from _table_values(kw.value)


def _collect_edges(program: Program, module: ModuleInfo) -> None:
    mod = module.module or module.path
    for qualname, scope, cls in _iter_scopes(module):
        caller_key = f"{mod}:{qualname}"
        owner = program.functions.get(caller_key)
        bindings = _scan_bindings(program, mod, scope, owner)
        for node in _scope_walk(scope):
            if not isinstance(node, ast.Call):
                continue
            targets = _resolve_call_targets(
                program, mod, node, bindings, cls)
            for callee, kind, bound in targets:
                _add_edge(program, caller_key, callee, module.path,
                          node.lineno, kind, bound, node)
            _collect_seam_edges(program, mod, caller_key,
                                module.path, node, bindings)
        if qualname == "<module>":
            # registry tables: function references escaping into
            # module-level literals or registration calls.
            for stmt in module.tree.body:
                if not isinstance(stmt, (ast.Assign, ast.Expr)):
                    continue
                value = stmt.value
                for escaped in _table_values(value):
                    for key in _callable_targets(
                            program, mod, escaped):
                        _add_edge(program, caller_key, key,
                                  module.path, escaped.lineno,
                                  "table", False, None)


def _collect_seam_edges(program: Program, mod: str, caller: str,
                        path: str, call: ast.Call,
                        bindings: ScopeBindings) -> None:
    """Edges for callables handed across a pool dispatch boundary."""
    func = call.func
    if not isinstance(func, ast.Attribute) or \
            func.attr not in DISPATCH_METHODS:
        return
    base = func.value
    if not (isinstance(base, ast.Name)
            and bindings.instances.get(base.id) in DISPATCH_CLASSES):
        return
    runner_exprs = list(call.args[:1]) + [
        kw.value for kw in call.keywords
        if kw.arg in ("runner", "func", "initializer")]
    for expr in runner_exprs:
        for key in _callable_targets(program, mod, expr):
            _add_edge(program, caller, key, path, call.lineno,
                      "dispatch", False, call)


def build_program(modules: Iterable[ModuleInfo]) -> Program:
    """Two passes: register definitions, then resolve call sites."""
    program = Program()
    ordered = [m for m in modules]
    for module in ordered:
        program.modules[module.module or module.path] = module
    for module in ordered:
        _collect_definitions(program, module)
    for module in ordered:
        _collect_edges(program, module)
    return program


# ---------------------------------------------------------------------------
# scope helpers shared with the program rules
# ---------------------------------------------------------------------------


def iter_scopes(
    module: ModuleInfo,
) -> Iterator[tuple[str, ast.AST, str | None]]:
    """(qualname or ``<module>``, scope node, enclosing class)."""
    return _iter_scopes(module)


def scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope, skipping nested defs (lambdas transparent)."""
    return _scope_walk(scope)


def scan_bindings(program: Program, module: str, scope: ast.AST,
                  owner: FunctionNode | None = None) -> ScopeBindings:
    """Local callable/instance bindings visible inside ``scope``."""
    return _scan_bindings(program, module, scope, owner)


# ---------------------------------------------------------------------------
# reaching-kwargs helper
# ---------------------------------------------------------------------------


def call_passes_kwarg(call: ast.Call, callee: FunctionNode,
                      param: str, bound: bool) -> bool:
    """Whether ``call`` forwards ``param`` to ``callee``.

    True when the keyword is given explicitly, a ``**`` splat may
    carry it, or enough positional arguments are supplied to cover the
    parameter's slot.  Unresolvable cases count as "passed" — the rule
    built on this must only fire on definite omissions.
    """
    for kw in call.keywords:
        if kw.arg is None or kw.arg == param:
            return True
    index = callee.positional_index(param, bound)
    if index is None:
        # keyword-only parameter and no explicit keyword: not passed.
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > index
