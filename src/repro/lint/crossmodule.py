"""Cross-module dataflow rules over the project graph.

These rules audit whole-program invariants the per-file pass cannot
see: seed provenance across call chains (DET002), shared-state writes
reachable from both thread-pool and main paths (CON001), budget
polling along every loop path reachable from ``query()`` (ROB002),
and cache-key completeness at artifact construction sites (CACHE002).

All four anchor findings at a concrete *sink* node — the RNG
construction, the unsynchronized write, the loop, the ``artifact()``
call — so an ordinary line pragma at the sink silences the whole flow.
They are scoped by ``[tool.reprolint.paths]`` (falling back to each
rule's ``default_paths``) and, being determinism contracts, default to
requiring a ``-- justification`` on suppressions when the project
config says so.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .builtin import UnboundedLoopRule
from .findings import Finding
from .graph import (
    FunctionInfo,
    ProjectContext,
    dotted_name,
    own_nodes,
    terminal_name,
)
from .rules import ProjectRule, register

__all__ = [
    "RngProvenanceRule",
    "SharedStateAuditRule",
    "BudgetReachabilityRule",
    "CacheKeyCompletenessRule",
    "QUERY_ROOTS",
]

#: Public engine entry points; "reachable from the query path" means
#: reachable from any of these in the approximate call graph.
QUERY_ROOTS = (
    "RankingEngine.query",
    "RankingEngine.rank_distribution",
    "RankingEngine.explain",
)

_BUILTIN_NAMES = frozenset(dir(builtins))


def _query_reachable(project: ProjectContext) -> Set[str]:
    return project.reachable(project.resolve_roots(QUERY_ROOTS))


def _attr_root(node: ast.AST) -> Optional[str]:
    """Leftmost name of an attribute/subscript chain (``self`` for
    ``self._pieces[k]``)."""
    cur = node
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        cur = cur.value
    if isinstance(cur, ast.Name):
        return cur.id
    return None


def _local_deps(expr: ast.AST) -> Set[str]:
    """Local-variable dependency set of ``expr``: plain names, at
    root-name granularity (``ctx.mcmc_seed`` contributes ``ctx``;
    ``self`` state is excluded by design)."""
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and node.id not in ("self", "cls")
    }


# ----------------------------------------------------------------------
# DET002 — RNG provenance on the query path


@register
class RngProvenanceRule(ProjectRule):
    """Generators on the query path must use spawned/derived seeds.

    The worker-count-invariance contract (ROADMAP PR 2) holds only if
    every ``Generator`` reachable from ``RankingEngine.query`` draws
    from a stream derived via ``SeedSequence.spawn``, ``generate_state``
    / blake2b digests, or a seed threaded in from the engine. A fixed
    literal collides streams across call sites; an unseeded generator
    destroys replay entirely.
    """

    code = "DET002"
    name = "rng-provenance"
    description = (
        "Generator on the query path whose seed does not flow from a "
        "spawned or hash-derived seed stream"
    )
    rationale = (
        "bit-identical answers across methods, worker counts, and "
        "retries require every query-path RNG to sit on a disjoint, "
        "deterministically derived stream"
    )
    default_paths = ("repro/core",)

    _RNG_CTORS = frozenset({"default_rng", "Generator"})
    _SOURCE_CALLS = frozenset(
        {
            "spawn",
            "generate_state",
            "blake2b",
            "sha256",
            "from_bytes",
            "SeedSequence",
            "PCG64",
            "Philox",
            "integers",
        }
    )
    _SEEDISH = ("seed", "rng", "entropy", "stream", "spawn_key")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for qual in sorted(_query_reachable(project)):
            fn = project.functions[qual]
            if not self.in_scope(fn.ctx):
                continue
            if any(
                fragment in fn.ctx.norm_path()
                for fragment in fn.ctx.config.rng_allow
            ):
                continue
            yield from self._check_function(fn)

    def _check_function(self, fn: FunctionInfo) -> Iterator[Finding]:
        assigns = self._assignments(fn)
        for node in own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) not in self._RNG_CTORS:
                continue
            seed = self._seed_argument(node)
            if seed is None:
                yield self.finding(
                    fn.ctx,
                    node,
                    "unseeded generator reachable from "
                    "RankingEngine.query(); derive its seed from the "
                    "engine's SeedSequence streams",
                )
            elif isinstance(seed, ast.Constant):
                yield self.finding(
                    fn.ctx,
                    node,
                    f"fixed literal seed {seed.value!r} on the query "
                    "path risks stream collisions; derive it via "
                    "SeedSequence.spawn or a blake2b digest",
                )
            elif not self._derived(seed, fn, assigns, set()):
                yield self.finding(
                    fn.ctx,
                    node,
                    "generator seed on the query path does not flow "
                    "from a SeedSequence.spawn / hash-derived stream "
                    "or a threaded-in seed parameter",
                )

    @staticmethod
    def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
        if call.args:
            return call.args[0]
        for kw in call.keywords:
            if kw.arg in ("seed", "bit_generator"):
                return kw.value
        return None

    @staticmethod
    def _assignments(fn: FunctionInfo) -> Dict[str, List[ast.expr]]:
        table: Dict[str, List[ast.expr]] = {}
        for node in own_nodes(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in _flat_names(target):
                        table.setdefault(name, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    table.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    table.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, ast.For):
                for name in _flat_names(node.target):
                    table.setdefault(name, []).append(node.iter)
        return table

    def _derived(
        self,
        expr: ast.AST,
        fn: FunctionInfo,
        assigns: Dict[str, List[ast.expr]],
        visited: Set[str],
    ) -> bool:
        if isinstance(expr, ast.Constant):
            return False
        if isinstance(expr, ast.Name):
            if expr.id in fn.params:
                return True
            if expr.id in visited:
                return False
            values = assigns.get(expr.id)
            if not values:
                return False
            visited = visited | {expr.id}
            return all(
                self._derived(v, fn, assigns, visited) for v in values
            )
        if isinstance(expr, ast.Attribute):
            dotted = (dotted_name(expr) or expr.attr).lower()
            return any(token in dotted for token in self._SEEDISH)
        if isinstance(expr, ast.Call):
            name = terminal_name(expr.func) or ""
            if name in self._SOURCE_CALLS:
                return True
            if name == "int" and expr.args:
                return self._derived(expr.args[0], fn, assigns, visited)
            return any(token in name.lower() for token in self._SEEDISH)
        if isinstance(expr, ast.Subscript):
            return self._derived(expr.value, fn, assigns, visited)
        if isinstance(expr, ast.UnaryOp):
            return self._derived(expr.operand, fn, assigns, visited)
        if isinstance(expr, ast.BinOp):
            sides = [expr.left, expr.right]
            dynamic = [s for s in sides if not isinstance(s, ast.Constant)]
            return bool(dynamic) and all(
                self._derived(s, fn, assigns, visited) for s in dynamic
            )
        if isinstance(expr, ast.IfExp):
            return self._derived(
                expr.body, fn, assigns, visited
            ) and self._derived(expr.orelse, fn, assigns, visited)
        if isinstance(expr, (ast.Tuple, ast.List)):
            dynamic = [
                e for e in expr.elts if not isinstance(e, ast.Constant)
            ]
            return bool(dynamic) and all(
                self._derived(e, fn, assigns, visited) for e in dynamic
            )
        if isinstance(expr, ast.Starred):
            return self._derived(expr.value, fn, assigns, visited)
        return False


def _flat_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flat_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _flat_names(target.value)


# ----------------------------------------------------------------------
# CON001 — shared-state audit across thread-pool and main paths


@register
class SharedStateAuditRule(ProjectRule):
    """Shared mutables written on both thread and main paths need locks.

    A function is *thread-side* if it is reachable from any function
    that constructs a thread pool, and *main-side* if reachable from
    the engine's query entry points. Container mutations of
    module-level mutables or ``self``-held state inside the
    intersection must sit under a ``with <...lock...>:`` block (or
    carry a justified suppression explaining the external guard).
    ``__init__``-family methods are exempt: the instance is not yet
    shared while it is being built.
    """

    code = "CON001"
    name = "shared-state-audit"
    description = (
        "shared mutable state written on both thread-pool and main "
        "query paths without a lock idiom"
    )
    rationale = (
        "the cache, metrics registry, and rank-count blocks are "
        "reached concurrently; an unguarded write is a data race that "
        "only shows up as a wrong probability under load"
    )
    default_paths = ("repro/core",)

    _MUTATORS = frozenset(
        {
            "append",
            "add",
            "update",
            "setdefault",
            "pop",
            "popitem",
            "clear",
            "extend",
            "insert",
            "remove",
            "discard",
        }
    )
    _EXEMPT = frozenset({"__init__", "__new__", "__post_init__"})

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        main = _query_reachable(project)
        threaded = project.reachable(project.thread_entry_points())
        for qual in sorted(main & threaded):
            fn = project.functions[qual]
            if fn.name in self._EXEMPT or not self.in_scope(fn.ctx):
                continue
            module = project.modules.get(fn.module)
            globals_ = module.mutable_globals if module else set()
            declared_global = {
                name
                for node in own_nodes(fn.node)
                if isinstance(node, ast.Global)
                for name in node.names
            }
            for node, what in self._shared_writes(
                fn, globals_, declared_global
            ):
                if _lock_guarded(fn.node, node):
                    continue
                yield self.finding(
                    fn.ctx,
                    node,
                    f"write to {what} is reachable from both the "
                    "thread-pool and main query paths but is not "
                    "under a lock; guard it or justify the external "
                    "synchronization in a suppression",
                )

    def _shared_writes(
        self,
        fn: FunctionInfo,
        mutable_globals: Set[str],
        declared_global: Set[str],
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in own_nodes(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    what = self._shared_target(
                        target,
                        mutable_globals,
                        declared_global,
                        rebind_ok=isinstance(node, ast.Assign),
                    )
                    if what:
                        yield node, what
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
            ):
                base = node.func.value
                root = _attr_root(base)
                if root in ("self", "cls") and isinstance(
                    base, (ast.Attribute, ast.Subscript)
                ):
                    yield node, f"self-held container ({dotted_name(base) or 'attribute'}.{node.func.attr})"
                elif (
                    isinstance(base, ast.Name)
                    and base.id in mutable_globals
                ):
                    yield node, f"module-level mutable {base.id!r}"

    @staticmethod
    def _shared_target(
        target: ast.AST,
        mutable_globals: Set[str],
        declared_global: Set[str],
        rebind_ok: bool,
    ) -> Optional[str]:
        if isinstance(target, ast.Subscript):
            root = _attr_root(target)
            inner = target.value
            if root in ("self", "cls"):
                return (
                    f"self-held container ({dotted_name(inner) or 'attribute'}[...])"
                )
            if isinstance(inner, ast.Name) and inner.id in mutable_globals:
                return f"module-level mutable {inner.id!r}"
            return None
        if isinstance(target, ast.Name):
            # Plain local rebinds are thread-private; only rebinding a
            # declared module global is shared.
            if target.id in declared_global:
                return f"module-level binding {target.id!r}"
            return None
        if isinstance(target, ast.Attribute) and not rebind_ok:
            # AugAssign on an attribute is a read-modify-write race;
            # plain `self.x = value` rebinds stay out of scope.
            if _attr_root(target) in ("self", "cls"):
                return f"attribute {dotted_name(target) or target.attr!r} (+=)"
        return None


def _lock_guarded(root: ast.AST, target: ast.AST) -> bool:
    """Whether ``target`` sits inside a ``with <...lock...>:`` block."""
    found = False

    def lockish(expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None and (
                "lock" in name.lower() or "mutex" in name.lower()
            ):
                return True
        return False

    def visit(node: ast.AST, depth: int) -> None:
        nonlocal found
        if found:
            return
        if node is target:
            found = depth > 0
            return
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            lockish(item.context_expr) for item in node.items
        ):
            depth += 1
        for child in ast.iter_child_nodes(node):
            visit(child, depth)

    visit(root, 0)
    return found


# ----------------------------------------------------------------------
# ROB002 — budget polling reachable on every query-path loop


@register
class BudgetReachabilityRule(ProjectRule):
    """Unbounded loops on the query path must reach a budget check.

    Extends ROB001 across module boundaries: a loop passes if a budget
    / cancellation marker appears lexically inside it *or* inside any
    function its body can call (transitively). Candidates are loops
    with no structural bound — ``while True``, condition-polling
    ``while`` loops that never advance their tested variables, and
    ``for`` loops over project generator functions (lazy producers
    whose length nothing constrains). Arithmetic-bounded scans
    (binary searches, chunk counters) are structurally bounded and
    exempt.
    """

    code = "ROB002"
    name = "budget-reachability"
    description = (
        "unbounded loop reachable from query() with no Budget check "
        "on any call path"
    )
    rationale = (
        "the degradation ladder can only clip work it can interrupt; "
        "a query-path loop with no reachable budget poll turns "
        "overload into an unbounded stall"
    )
    default_paths = ("repro/core",)

    _MARKERS = UnboundedLoopRule._BUDGET_MARKERS

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        generators = project.generator_functions()
        marked_cache: Dict[str, bool] = {}
        for qual in sorted(_query_reachable(project)):
            fn = project.functions[qual]
            if not self.in_scope(fn.ctx):
                continue
            for loop in own_nodes(fn.node):
                if isinstance(loop, ast.While):
                    if not self._unbounded_while(loop):
                        continue
                elif isinstance(loop, ast.For):
                    if not self._generator_for(project, fn, loop, generators):
                        continue
                else:
                    continue
                if self._marker_in(loop):
                    continue
                if self._marker_reachable(
                    project, fn, loop, marked_cache
                ):
                    continue
                kind = (
                    "while-loop" if isinstance(loop, ast.While)
                    else "generator-driven for-loop"
                )
                yield self.finding(
                    fn.ctx,
                    loop,
                    f"{kind} on the query path neither consults a "
                    "budget nor calls anything that does; thread the "
                    "Budget through or bound the loop",
                )

    @staticmethod
    def _unbounded_while(loop: ast.While) -> bool:
        test = loop.test
        if isinstance(test, ast.Constant):
            return bool(test.value)
        tested = {
            node.id
            for node in ast.walk(test)
            if isinstance(node, ast.Name)
        }
        if not tested:
            return True
        # A loop that arithmetically advances one of its tested
        # variables is structurally bounded (counting scans, binary
        # searches); one that never moves them is condition polling.
        for node in own_nodes(loop):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                if node.target.id in tested:
                    return False
            elif isinstance(node, ast.Assign):
                for name in _flat_names_of_targets(node.targets):
                    if name in tested:
                        return False
        return True

    def _generator_for(
        self,
        project: ProjectContext,
        fn: FunctionInfo,
        loop: ast.For,
        generators: Set[str],
    ) -> bool:
        if not isinstance(loop.iter, ast.Call):
            return False
        name = terminal_name(loop.iter.func) or ""
        if name.startswith(("enumerate_", "iter_", "generate_")):
            return True
        targets = project.resolve_call(fn, loop.iter)
        return bool(targets & generators)

    def _marker_in(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is None:
                continue
            lowered = name.lower()
            if lowered in self._MARKERS or "budget" in lowered:
                return True
        return False

    def _marker_reachable(
        self,
        project: ProjectContext,
        fn: FunctionInfo,
        loop: ast.AST,
        cache: Dict[str, bool],
    ) -> bool:
        targets: Set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                targets.update(project.resolve_call(fn, node))
        for qual in project.reachable(targets):
            if qual not in cache:
                callee = project.functions[qual]
                cache[qual] = self._marker_in(callee.node)
            if cache[qual]:
                return True
        return False


def _flat_names_of_targets(targets: Sequence[ast.AST]) -> Iterator[str]:
    for target in targets:
        yield from _flat_names(target)


# ----------------------------------------------------------------------
# CACHE002 — artifact cache keys cover the builder's free inputs


@register
class CacheKeyCompletenessRule(ProjectRule):
    """Every free input of an artifact builder must be in its key.

    ``ComputationCache.artifact(kind, key, builder)`` promises that
    equal keys denote equal artifacts. A builder closure that captures
    a local not folded into ``key`` breaks that promise silently: two
    queries with different inputs share one cached artifact.

    Coverage is established by slicing the whole enclosing-function
    chain (closures capture from every enclosing scope):

    - direct mention in the key;
    - *backward* flow — the free name feeds an expression a key name
      was assigned from (``fp = fingerprint_records(subset)``);
    - *co-assignment* — the free name and a key name are produced by
      one call (``pruned, fp = self._pruned_entry(k)``);
    - *forward derivation* — every assignment to the free name depends
      only on covered names (``seed = a if b is None else b`` with
      ``b`` in the key); nullary producers count as constants;
    - *call-site delegation* — the free name is a parameter and the
      key contains a fingerprint-named parameter (``fp``), making the
      binding the callers' contract;
    - *control dependence* — the key is assigned under an ``if``
      testing the free name (each branch bakes the choice in).

    Dependencies are root-name granular (``ctx.mcmc_seed`` in the key
    covers everything read off ``ctx``), and ``self`` state is out of
    scope — it is pinned by the per-engine cache instance.
    """

    code = "CACHE002"
    name = "cache-key-completeness"
    description = (
        "artifact builder closes over inputs not folded into its "
        "cache key"
    )
    rationale = (
        "deterministically keyed artifacts are the reuse contract the "
        "session cache and the x-Relation-style sharing both rest on; "
        "an unkeyed free input makes cache hits silently wrong"
    )
    default_paths = ("repro/core",)

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for qual in sorted(project.functions):
            fn = project.functions[qual]
            if not self.in_scope(fn.ctx):
                continue
            for node in own_nodes(fn.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "artifact"
                    and len(node.args) >= 3
                ):
                    continue
                yield from self._check_site(project, fn, node)

    _FP_TOKENS = ("fp", "fingerprint", "digest", "hash", "version", "key")

    def _check_site(
        self,
        project: ProjectContext,
        fn: FunctionInfo,
        call: ast.Call,
    ) -> Iterator[Finding]:
        kind_node, key_expr, builder = call.args[0], call.args[1], call.args[2]
        kind = (
            kind_node.value
            if isinstance(kind_node, ast.Constant)
            else "<dynamic>"
        )
        free = self._free_inputs(project, fn, builder)
        if not free:
            return
        chain = [fn, *project.enclosing_functions(fn)]
        chain_params: Set[str] = set()
        for member in chain:
            chain_params |= member.params
        assigns, co_groups = self._chain_assignments(chain)
        covered = self._covered_names(key_expr, assigns, co_groups)
        fp_delegated = any(
            param in covered
            and any(tok in param.lower() for tok in self._FP_TOKENS)
            for param in chain_params
        )
        module = project.modules.get(fn.module)
        module_names: Set[str] = set()
        if module is not None:
            module_names.update(module.imports)
            module_names.update(module.functions)
            module_names.update(module.classes)
            module_names.update(module.mutable_globals)
            module_names.update(module.global_names)
        for name in sorted(free):
            if (
                name in covered
                or name in module_names
                or name in _BUILTIN_NAMES
                or name in ("self", "cls")
            ):
                continue
            if name in chain_params and fp_delegated:
                continue
            if self._forward_derivable(name, assigns, covered, set()):
                continue
            if self._control_dependent(chain, name, covered):
                continue
            yield self.finding(
                fn.ctx,
                call,
                f"builder for artifact {kind!r} closes over {name!r}, "
                "which is not folded into the cache key; equal keys "
                "would alias different artifacts",
            )

    def _free_inputs(
        self,
        project: ProjectContext,
        fn: FunctionInfo,
        builder: ast.expr,
    ) -> Set[str]:
        if isinstance(builder, ast.Lambda):
            bound = {a.arg for a in builder.args.args}
            bound.update(a.arg for a in builder.args.kwonlyargs)
            loads = {
                node.id
                for node in ast.walk(builder.body)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
            }
            return loads - bound
        if isinstance(builder, ast.Name):
            targets = project._resolve_name(fn, builder.id)
            free: Set[str] = set()
            for qual in targets:
                target = project.functions.get(qual)
                if target is None or target.module != fn.module:
                    continue
                free.update(self._function_free_names(target))
            return free
        # Attribute builders (self._build_x) read self state, which the
        # per-engine cache identity already pins.
        return set()

    @staticmethod
    def _function_free_names(fn: FunctionInfo) -> Set[str]:
        bound = set(fn.params)
        loads: Set[str] = set()
        for node in own_nodes(fn.node):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                else:
                    bound.add(node.id)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                bound.add(node.name)
        return loads - bound

    @staticmethod
    def _chain_assignments(
        chain: Sequence[FunctionInfo],
    ) -> Tuple[Dict[str, List[Set[str]]], List[Set[str]]]:
        """Per-name dependency sets and co-assignment groups over the
        whole enclosing-function chain."""
        assigns: Dict[str, List[Set[str]]] = {}
        co_groups: List[Set[str]] = []
        for member in chain:
            for node in own_nodes(member.node):
                if isinstance(node, ast.Assign):
                    names = set(_flat_names_of_targets(node.targets))
                    if not names:
                        continue
                    deps = _local_deps(node.value)
                    for name in names:
                        assigns.setdefault(name, []).append(deps)
                    if len(names) > 1:
                        co_groups.append(names)
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and isinstance(node.target, ast.Name)
                ):
                    assigns.setdefault(node.target.id, []).append(
                        _local_deps(node.value)
                    )
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name
                ):
                    assigns.setdefault(node.target.id, []).append(
                        _local_deps(node.value) | {node.target.id}
                    )
                elif isinstance(node, ast.For):
                    deps = _local_deps(node.iter)
                    for name in _flat_names(node.target):
                        assigns.setdefault(name, []).append(deps)
        return assigns, co_groups

    @staticmethod
    def _covered_names(
        key_expr: ast.expr,
        assigns: Dict[str, List[Set[str]]],
        co_groups: List[Set[str]],
    ) -> Set[str]:
        """Backward fixed point: names the key depends on, expanded
        through assignment flow and co-assignment."""
        covered = _local_deps(key_expr)
        changed = True
        while changed:
            changed = False
            for name in list(covered):
                for deps in assigns.get(name, ()):
                    if not deps <= covered:
                        covered |= deps
                        changed = True
            for group in co_groups:
                if group & covered and not group <= covered:
                    covered |= group
                    changed = True
        return covered

    def _forward_derivable(
        self,
        name: str,
        assigns: Dict[str, List[Set[str]]],
        covered: Set[str],
        visiting: Set[str],
    ) -> bool:
        """Whether every assignment to ``name`` depends only on
        covered (or transitively derivable) names. A name with no
        assignments is an input, not a derivation; a nullary producer
        (no local dependencies) counts as constant."""
        if name in covered:
            return True
        if name in visiting:
            return False
        values = assigns.get(name)
        if not values:
            return False
        visiting = visiting | {name}
        return all(
            all(
                self._forward_derivable(dep, assigns, covered, visiting)
                for dep in deps
            )
            for deps in values
        )

    @staticmethod
    def _control_dependent(
        chain: Sequence[FunctionInfo], name: str, covered: Set[str]
    ) -> bool:
        """Covered-by-branching: the key is assigned under an ``if``
        whose test mentions ``name`` (each branch bakes the choice
        into a different key)."""
        for member in chain:
            for node in own_nodes(member.node):
                if not isinstance(node, ast.If):
                    continue
                if name not in _local_deps(node.test):
                    continue
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign):
                        if (
                            set(_flat_names_of_targets(sub.targets))
                            & covered
                        ):
                            return True
        return False
