"""Project-wide symbol table, import graph, and approximate call graph.

Per-file rules see one ``ast.Module`` at a time; the determinism and
concurrency contracts they guard (ROADMAP PRs 2-4) are *whole-program*
properties: a seed stream spawned in ``engine.py`` flows through
``parallel.py`` into ``montecarlo.py``, and a shared dict written in
``cache.py`` is reached from a thread pool created two modules away.
This module builds the cross-file picture those rules need:

- **symbol table** — every module's top-level functions, classes (with
  methods), imports, and module-level mutable bindings;
- **import graph** — local alias → fully-qualified target, resolving
  relative imports against the module's dotted name;
- **approximate call graph** — edges between function *qualnames*
  (``repro.core.engine:RankingEngine.query``), resolved best-effort.

The call graph is deliberately an over-approximation (sound for
reachability-style rules, which only ever *narrow* their audit to the
reachable set):

- ``self.method(...)`` resolves to the same class's method when it
  exists, otherwise to every known method of that name;
- ``obj.method(...)`` resolves by name to every known method;
- ``alias.func(...)`` resolves through the import graph;
- a function containing ``getattr(self, ...)`` gets edges to *all*
  methods of its class — this is how the engine's string-keyed
  evaluator dispatch (``_EVAL`` + ``getattr``) stays visible;
- a bare ``Name`` reference to a known function (callback passing,
  e.g. ``pool.map(draw, blocks)``) adds an edge even without
  a direct call, as does defining a nested function.

Everything here is pure stdlib ``ast`` over already-parsed
:class:`~repro.lint.rules.FileContext` objects; no code is imported or
executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .rules import FileContext

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectContext",
    "terminal_name",
    "own_nodes",
]

#: Call targets that create worker threads; functions containing one
#: are treated as thread-dispatch roots by concurrency rules.
_THREAD_SPAWNERS = frozenset(
    {"ThreadPoolExecutor", "Thread", "ProcessPoolExecutor"}
)

#: Constructors whose module-level result is a mutable container.
_MUTABLE_CTORS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
     "Counter", "deque"}
)


def terminal_name(node: ast.AST) -> Optional[str]:
    """Rightmost name of a call target: ``np.random.default_rng`` →
    ``default_rng``; plain ``Name`` nodes return their id."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Full dotted path of a Name/Attribute chain, or ``None``."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function/class
    definitions (lambdas count as part of the enclosing function)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: FileContext
    is_generator: bool = False
    spawns_threads: bool = False
    nested: List[str] = field(default_factory=list)

    @property
    def params(self) -> Set[str]:
        args = self.node.args
        names = {a.arg for a in args.args}
        names.update(a.arg for a in args.posonlyargs)
        names.update(a.arg for a in args.kwonlyargs)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names


@dataclass
class ModuleInfo:
    """Symbol table for one source module."""

    name: str
    ctx: FileContext
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, Dict[str, str]] = field(default_factory=dict)
    mutable_globals: Set[str] = field(default_factory=set)
    global_names: Set[str] = field(default_factory=set)


def _module_name(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/core/engine.py`` → ``repro.core.engine``; fixture paths
    without a recognizable root fall back to the stem so test snippets
    still participate in a graph.
    """
    norm = path.replace("\\", "/")
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    parts = [p for p in norm.split("/") if p not in ("", ".")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:] if parts else ["<string>"]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or ["<pkg>"]
    return ".".join(parts)


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Resolve ``from ..mod import x`` against the importing module."""
    parts = module.split(".")
    # level 1 = current package: drop the module's own leaf name.
    base = parts[: len(parts) - level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class ProjectContext:
    """The whole-program view cross-module rules analyze.

    Build one with :meth:`build` from the per-file contexts the runner
    already parsed. Exposes the symbol tables, the call graph
    (``calls``), reachability queries, and a reusable per-call-site
    resolver so rules can ask "what might this specific call invoke?".
    """

    def __init__(self, config) -> None:
        self.config = config
        self.files: List[FileContext] = []
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        self.calls: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(
        cls, contexts: Sequence[FileContext], config
    ) -> "ProjectContext":
        project = cls(config)
        for ctx in contexts:
            project._index_file(ctx)
        for info in list(project.functions.values()):
            project.calls[info.qualname] = project._edges_for(info)
        return project

    def _index_file(self, ctx: FileContext) -> None:
        self.files.append(ctx)
        module = _module_name(ctx.path)
        info = ModuleInfo(name=module, ctx=ctx)
        # Last indexed file wins on module-name collision (test
        # fixtures routinely reuse a stem); real trees have no dupes.
        self.modules[module] = info
        self._index_imports(ctx.tree, info)
        self._index_globals(ctx.tree, info)
        self._index_scopes(ctx.tree, info, ctx, scope=(), cls=None)

    def _index_imports(self, tree: ast.Module, info: ModuleInfo) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = (
                    _resolve_relative(info.name, node.level, node.module)
                    if node.level
                    else (node.module or "")
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _index_globals(self, tree: ast.Module, info: ModuleInfo) -> None:
        for node in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    info.global_names.add(target.id)
            mutable = isinstance(
                value,
                (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                 ast.SetComp),
            ) or (
                isinstance(value, ast.Call)
                and terminal_name(value.func) in _MUTABLE_CTORS
            )
            if not mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    info.mutable_globals.add(target.id)

    def _index_scopes(
        self,
        node: ast.AST,
        info: ModuleInfo,
        ctx: FileContext,
        scope: Tuple[str, ...],
        cls: Optional[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{info.name}:{'.'.join((*scope, child.name))}"
                if qual in self.functions:
                    qual = f"{qual}@{child.lineno}"
                fn = FunctionInfo(
                    qualname=qual,
                    module=info.name,
                    name=child.name,
                    cls=cls,
                    node=child,
                    ctx=ctx,
                )
                for sub in own_nodes(child):
                    if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                        fn.is_generator = True
                    elif (
                        isinstance(sub, ast.Call)
                        and terminal_name(sub.func) in _THREAD_SPAWNERS
                    ):
                        fn.spawns_threads = True
                self.functions[qual] = fn
                if not scope:
                    info.functions[child.name] = qual
                elif cls is not None and len(scope) == 1:
                    info.classes.setdefault(cls, {})[child.name] = qual
                self.methods_by_name.setdefault(child.name, []).append(qual)
                self._index_scopes(
                    child, info, ctx, scope=(*scope, child.name), cls=None
                )
            elif isinstance(child, ast.ClassDef):
                info.classes.setdefault(child.name, {})
                self._index_scopes(
                    child,
                    info,
                    ctx,
                    scope=(*scope, child.name),
                    cls=child.name,
                )
            else:
                self._index_scopes(child, info, ctx, scope=scope, cls=cls)

    # ------------------------------------------------------------------
    # call resolution

    def _lookup_dotted(self, dotted: str) -> Set[str]:
        """Qualnames a fully-qualified symbol may denote (function, or a
        class — which resolves to its ``__init__``)."""
        if "." not in dotted:
            return set()
        mod_name, _, leaf = dotted.rpartition(".")
        mod = self.modules.get(mod_name)
        if mod is None:
            return set()
        out: Set[str] = set()
        if leaf in mod.functions:
            out.add(mod.functions[leaf])
        if leaf in mod.classes and "__init__" in mod.classes[leaf]:
            out.add(mod.classes[leaf]["__init__"])
        return out

    def _resolve_name(self, fn: FunctionInfo, name: str) -> Set[str]:
        """What a bare ``name(...)`` call inside ``fn`` may invoke."""
        # Nested function of fn or of an enclosing function.
        local_scope = fn.qualname.split(":", 1)[1]
        scope_parts = local_scope.split(".")
        for depth in range(len(scope_parts), -1, -1):
            prefix = ".".join(scope_parts[:depth])
            qual = (
                f"{fn.module}:{prefix}.{name}" if prefix
                else f"{fn.module}:{name}"
            )
            target = self.functions.get(qual)
            if target is not None and target.cls is None:
                return {qual}
        mod = self.modules.get(fn.module)
        if mod is None:
            return set()
        if name in mod.functions:
            return {mod.functions[name]}
        if name in mod.classes and "__init__" in mod.classes[name]:
            return {mod.classes[name]["__init__"]}
        if name in mod.imports:
            return self._lookup_dotted(mod.imports[name])
        return set()

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> Set[str]:
        """Possible targets of one call site inside ``fn``."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(fn, func.id)
        if isinstance(func, ast.Attribute):
            method = func.attr
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and fn.cls is not None:
                    mod = self.modules.get(fn.module)
                    if mod is not None:
                        own = mod.classes.get(fn.cls, {})
                        if method in own:
                            return {own[method]}
                    return set(self.methods_by_name.get(method, ()))
                mod = self.modules.get(fn.module)
                if mod is not None and base.id in mod.imports:
                    dotted = f"{mod.imports[base.id]}.{method}"
                    hit = self._lookup_dotted(dotted)
                    if hit:
                        return hit
                    # Imported but unknown module (numpy, stdlib): the
                    # target is outside the project; no edge.
                    return set()
            return set(self.methods_by_name.get(method, ()))
        return set()

    def _edges_for(self, fn: FunctionInfo) -> Set[str]:
        edges: Set[str] = set()
        mod = self.modules.get(fn.module)
        for node in own_nodes(fn.node):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "getattr"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in ("self", "cls")
                    and fn.cls is not None
                    and mod is not None
                ):
                    # String-keyed dispatch (`getattr(self, table[kind])`):
                    # assume any method of the class may be invoked.
                    edges.update(mod.classes.get(fn.cls, {}).values())
                edges.update(self.resolve_call(fn, node))
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                # Callback passing: referencing a function is treated
                # as a potential (deferred) call.
                edges.update(self._resolve_name(fn, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and fn.cls is not None
                and mod is not None
            ):
                own = mod.classes.get(fn.cls, {})
                if node.attr in own:
                    edges.add(own[node.attr])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Defining a closure makes it callable from here.
                nested = self._resolve_name(fn, node.name)
                edges.update(nested)
                fn.nested.extend(nested)
        edges.discard(fn.qualname)
        return edges

    # ------------------------------------------------------------------
    # queries

    def enclosing_functions(self, fn: FunctionInfo) -> List[FunctionInfo]:
        """Enclosing function chain for a nested function, nearest
        first (class scopes are skipped; they are not functions)."""
        module, _, local = fn.qualname.partition(":")
        parts = local.split(".")
        chain: List[FunctionInfo] = []
        for depth in range(len(parts) - 1, 0, -1):
            qual = f"{module}:{'.'.join(parts[:depth])}"
            parent = self.functions.get(qual)
            if parent is not None:
                chain.append(parent)
        return chain

    def resolve_roots(self, patterns: Iterable[str]) -> Set[str]:
        """Qualnames matching ``Class.method`` / ``function`` suffixes."""
        roots: Set[str] = set()
        for pattern in patterns:
            for qual in self.functions:
                if (
                    qual == pattern
                    or qual.endswith(f":{pattern}")
                    or qual.endswith(f".{pattern}")
                ):
                    roots.add(qual)
        return roots

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure of ``calls`` from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(self.calls.get(qual, ()))
        return seen

    def thread_entry_points(self) -> Set[str]:
        """Functions that construct thread pools / worker threads."""
        return {
            qual
            for qual, fn in self.functions.items()
            if fn.spawns_threads
        }

    def generator_functions(self) -> Set[str]:
        """Qualnames of generator functions (lazy producers)."""
        return {
            qual
            for qual, fn in self.functions.items()
            if fn.is_generator
        }
