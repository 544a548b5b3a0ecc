"""The built-in rule set: the engine's real failure modes, mechanized.

Each rule encodes one invariant from ``docs/DEVELOPMENT.md`` /
``DESIGN.md`` that a silent numeric bug would violate. They are
deliberately syntactic — ``ast``-level, no type inference — so every
check is fast, deterministic, and explainable; genuinely legitimate
exceptions use suppression pragmas rather than weakening a rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding
from .rules import FileContext, Rule, register

__all__ = [
    "ProbabilityClampRule",
    "SeededRandomnessRule",
    "FloatEqualityRule",
    "SilentExceptRule",
    "PublicAnnotationsRule",
    "MutableDefaultRule",
    "ColumnarSamplingRule",
    "UnboundedLoopRule",
    "CachedArtifactRule",
    "UnboundedAwaitRule",
]

#: Function names treated as probability-returning: `probability_greater`,
#: `prefix_probability`, `_pi`-style helpers are excluded unless named.
_PROB_NAME = re.compile(r"(^|_)prob(ability|abilities)?(_|$)|probability")

#: Call targets accepted as clamping/bounding an expression into [0, 1].
_CLAMP_CALLS = frozenset({"clamp_probability", "clip", "min", "max"})

#: numpy attribute names that are fine under ``np.random.`` — explicit
#: generator construction and its seeding machinery, not global draws.
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Rightmost identifier of a ``Name`` / dotted ``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function/class defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _function_defs(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# PRB001 — probability outputs must be clamped into [0, 1]
# ----------------------------------------------------------------------


@register
class ProbabilityClampRule(Rule):
    """Probability-returning functions must clamp/validate into [0, 1].

    Applies to functions whose name contains a ``prob``/``probability``
    component *and* whose return annotation is ``float``. Every
    ``return`` must be a recognized clamping expression: a call to
    ``clamp_probability`` / ``np.clip`` / ``min`` / ``max`` (possibly
    wrapped in ``float(...)``), a constant already inside ``[0, 1]``, a
    delegation to another probability-named function, or a local name
    assigned from one of those.
    """

    code = "PRB001"
    name = "probability-clamp"
    description = (
        "probability-returning function returns an unclamped expression"
    )
    rationale = (
        "floating-point integration and sampling can step outside "
        "[0, 1]; an unclamped return silently corrupts every downstream "
        "comparison and aggregate"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in _function_defs(ctx.tree):
            if not _PROB_NAME.search(fn.name):
                continue
            if _terminal_name(fn.returns) != "float":
                continue
            clamped_names = self._clamp_assigned_names(fn)
            for node in _own_nodes(fn):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                if not self._is_clamped(node.value, clamped_names):
                    yield self.finding(
                        ctx,
                        node,
                        f"return in probability function {fn.name!r} is "
                        "not clamped into [0, 1]; wrap it in "
                        "clamp_probability(...) (repro.core.numeric) or "
                        "min/max/np.clip",
                    )

    def _clamp_assigned_names(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Set[str]:
        names: Set[str] = set()
        for node in _own_nodes(fn):
            value: Optional[ast.AST] = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not self._is_clamped(value, names):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _is_clamped(self, expr: ast.AST, clamped_names: Set[str]) -> bool:
        if isinstance(expr, ast.Constant) and isinstance(
            expr.value, (int, float)
        ):
            return 0.0 <= float(expr.value) <= 1.0
        if isinstance(expr, ast.Name):
            return expr.id in clamped_names
        if isinstance(expr, ast.IfExp):
            return self._is_clamped(expr.body, clamped_names) and (
                self._is_clamped(expr.orelse, clamped_names)
            )
        if isinstance(expr, ast.Call):
            callee = _terminal_name(expr.func)
            if callee in _CLAMP_CALLS:
                return True
            if callee == "float" and len(expr.args) == 1:
                return self._is_clamped(expr.args[0], clamped_names)
            # Delegation: calling another probability-named function is
            # fine — that function is itself subject to this rule.
            if callee is not None and _PROB_NAME.search(callee):
                return True
        return False


# ----------------------------------------------------------------------
# DET001 — all randomness is seeded and generator-based
# ----------------------------------------------------------------------


@register
class SeededRandomnessRule(Rule):
    """No unseeded generators, stdlib ``random``, or legacy numpy RNG.

    Fires on ``default_rng()`` / ``default_rng(None)``, on any
    ``random.*`` call or ``from random import ...`` (stdlib module),
    and on legacy global-state numpy calls (``np.random.rand``, ...).
    Paths listed under ``rng-allow`` in config may construct unseeded
    generators (deliberate OS-entropy plumbing).
    """

    code = "DET001"
    name = "seeded-randomness"
    description = "unseeded or global-state random number generation"
    rationale = (
        "every randomized result must be reproducible from an explicit "
        "seed; unseeded generators make experiment figures and bug "
        "reports unrepeatable"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = any(
            fragment in ctx.norm_path() for fragment in ctx.config.rng_allow
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    ctx,
                    node,
                    "stdlib random is banned; thread a seeded "
                    "numpy.random.Generator through the call chain",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = _terminal_name(node.func)
            if callee == "default_rng" and not allowed:
                if self._is_unseeded(node):
                    yield self.finding(
                        ctx,
                        node,
                        "unseeded np.random.default_rng(); accept a seed "
                        "or rng parameter and derive child generators "
                        "from it",
                    )
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                if func.value.id == "random":
                    yield self.finding(
                        ctx,
                        node,
                        f"stdlib random.{func.attr}() is banned; use a "
                        "seeded numpy.random.Generator",
                    )
                continue
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")
                and func.attr not in _NP_RANDOM_OK
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"legacy global numpy RNG np.random.{func.attr}(); "
                    "use a seeded numpy.random.Generator instance",
                )

    @staticmethod
    def _is_unseeded(call: ast.Call) -> bool:
        if not call.args and not call.keywords:
            return True
        if call.args and isinstance(call.args[0], ast.Constant):
            if call.args[0].value is None:
                return True
        for keyword in call.keywords:
            if keyword.arg == "seed" and isinstance(
                keyword.value, ast.Constant
            ):
                if keyword.value.value is None:
                    return True
        return False


# ----------------------------------------------------------------------
# NUM001 — no float equality
# ----------------------------------------------------------------------


@register
class FloatEqualityRule(Rule):
    """No ``==`` / ``!=`` against float expressions.

    Fires when an equality comparison has an operand that is a float
    literal, a negated float literal, or a ``float(...)`` call. Integer
    literals (``ndim == 0``, ``indegree[i] == 0``) never fire.
    Legitimate exact sentinel checks (IEEE-exact zero spreads, signed
    zero handling) carry a line pragma.
    """

    code = "NUM001"
    name = "float-equality"
    description = "equality comparison against a float expression"
    rationale = (
        "probabilities and scores come out of integration with rounding "
        "error; exact float comparison flips branches nondeterministically "
        "— use math.isclose or an explicit tolerance"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_float_expr(operand) for operand in operands):
                yield self.finding(
                    ctx,
                    node,
                    "float equality comparison; use math.isclose(...) or "
                    "an explicit tolerance (pragma the IEEE-exact "
                    "sentinel checks)",
                )

    @staticmethod
    def _is_float_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.operand, ast.Constant
        ):
            return isinstance(node.operand.value, float)
        if isinstance(node, ast.Call):
            return _terminal_name(node.func) == "float"
        return False


# ----------------------------------------------------------------------
# EXC001 — no bare or silent broad exception handlers
# ----------------------------------------------------------------------


@register
class SilentExceptRule(Rule):
    """No bare ``except:`` and no silent broad ``except Exception``.

    A broad handler must at least bind the exception (``as exc``) so it
    can be logged or re-raised; a handler whose body is a lone ``pass``
    fires regardless of what it catches.
    """

    code = "EXC001"
    name = "silent-except"
    description = "bare or silent broad exception handler"
    rationale = (
        "a swallowed exception in an estimator turns a crash into a "
        "silently wrong probability; catch the concrete expected "
        "exception and log the fallback"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except:; name the concrete exception type",
                )
                continue
            if self._only_pass(node.body):
                yield self.finding(
                    ctx,
                    node,
                    "exception handler silently passes; log the fallback "
                    "or narrow the handled type",
                )
                continue
            if node.name is None and self._is_broad(node.type):
                yield self.finding(
                    ctx,
                    node,
                    "broad except Exception without binding the "
                    "exception; catch the concrete type, or bind "
                    "(`as exc`) and log it",
                )

    def _is_broad(self, type_node: ast.AST) -> bool:
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return _terminal_name(type_node) in self._BROAD

    @staticmethod
    def _only_pass(body: Sequence[ast.stmt]) -> bool:
        return len(body) == 1 and isinstance(body[0], ast.Pass)


# ----------------------------------------------------------------------
# TYP001 — typed packages expose fully annotated public functions
# ----------------------------------------------------------------------


@register
class PublicAnnotationsRule(Rule):
    """Public functions in typed packages carry complete annotations.

    Applies to files whose path contains a fragment of the rule's
    ``[tool.reprolint.paths]`` scope
    (default ``repro/core`` and ``repro/db``). Public module-level
    functions and public methods of module-level classes must annotate
    every parameter (``self``/``cls`` excepted) and the return type, so
    the shipped ``py.typed`` marker is honest.
    """

    code = "TYP001"
    name = "public-annotations"
    description = "public function is missing type annotations"
    rationale = (
        "the package ships a py.typed marker; an unannotated public "
        "function downgrades every downstream call site to Any"
    )

    _DEFAULT_PATHS = ("repro/core", "repro/db")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        fragments = ctx.config.paths_for(self.code, self._DEFAULT_PATHS)
        if not any(fragment in ctx.norm_path() for fragment in fragments):
            return
        for fn, is_method in self._public_functions(ctx.tree):
            missing = self._missing(fn, is_method)
            if missing:
                yield self.finding(
                    ctx,
                    fn,
                    f"public function {fn.name!r} is missing annotations "
                    f"for: {', '.join(missing)}",
                )

    def _public_functions(
        self, tree: ast.Module
    ) -> Iterator[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
        def visit(
            body: Sequence[ast.stmt], in_class: bool
        ) -> Iterator[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
            for node in body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    if not node.name.startswith("_"):
                        yield node, in_class
                elif isinstance(node, ast.ClassDef):
                    yield from visit(node.body, True)

        yield from visit(tree.body, False)

    @staticmethod
    def _missing(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
    ) -> List[str]:
        missing: List[str] = []
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        skip_first = (
            is_method
            and positional
            and not any(
                _terminal_name(deco) == "staticmethod"
                for deco in fn.decorator_list
            )
        )
        if skip_first:
            positional = positional[1:]
        for arg in positional + args.kwonlyargs:
            if arg.annotation is None:
                missing.append(f"parameter {arg.arg!r}")
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"parameter '*{args.vararg.arg}'")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"parameter '**{args.kwarg.arg}'")
        if fn.returns is None:
            missing.append("return type")
        return missing


# ----------------------------------------------------------------------
# PERF001 — sampling hot paths stay columnar
# ----------------------------------------------------------------------


@register
class ColumnarSamplingRule(Rule):
    """No per-record distribution calls inside loops on sampling hot paths.

    Applies to files whose path contains a fragment of the rule's
    ``[tool.reprolint.paths]`` scope
    (default: the Monte-Carlo and MCMC evaluators). Fires once per
    ``for``/``while`` loop — or per comprehension — whose body calls a
    distribution method (``.cdf()`` / ``.sample()`` / ``.ppf()``): such
    a loop re-introduces the O(n)-Python-calls pattern the columnar
    ``SamplingPlan`` kernels exist to eliminate. Genuinely sequential
    loops (e.g. conditional draws that chain through the previous
    value) carry a line pragma explaining why they cannot batch.
    """

    code = "PERF001"
    name = "columnar-sampling"
    description = (
        "per-record distribution call inside a Python loop on a "
        "sampling hot path"
    )
    rationale = (
        "sampler throughput is the throughput of every sampled answer; "
        "one Python-level .cdf()/.sample()/.ppf() call per record turns "
        "a vectorized kernel into an O(n) interpreter loop — batch "
        "through the SamplingPlan kernels instead"
    )

    _DIST_CALLS = frozenset({"cdf", "sample", "ppf"})
    _LOOPS = (
        ast.For,
        ast.AsyncFor,
        ast.While,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )

    _DEFAULT_PATHS = (
        "repro/core/montecarlo.py",
        "repro/core/mcmc.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        fragments = ctx.config.paths_for(self.code, self._DEFAULT_PATHS)
        if not any(fragment in ctx.norm_path() for fragment in fragments):
            return
        # Manual descent: once a loop is flagged, its nested loops are
        # part of the same offending region and are not re-reported.
        stack: List[ast.AST] = [ctx.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, self._LOOPS):
                call = self._first_distribution_call(node)
                if call is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f".{call}() called per iteration inside a "
                        f"{self._describe(node)}; batch through the "
                        "SamplingPlan columnar kernels (or pragma a "
                        "genuinely sequential loop with the reason)",
                    )
                    continue
            stack.extend(ast.iter_child_nodes(node))

    def _first_distribution_call(self, loop: ast.AST) -> Optional[str]:
        """Name of the first ``.cdf``/``.sample``/``.ppf`` attribute call
        under ``loop``, or None."""
        for node in ast.walk(loop):
            if node is loop:
                continue
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in self._DIST_CALLS:
                    return node.func.attr
        return None

    @staticmethod
    def _describe(loop: ast.AST) -> str:
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            return "for loop"
        if isinstance(loop, ast.While):
            return "while loop"
        return "comprehension"


# ----------------------------------------------------------------------
# ROB001 — unbounded loops on robustness paths must consult a budget
# ----------------------------------------------------------------------


@register
class UnboundedLoopRule(Rule):
    """``while True`` loops on robustness paths must consult a budget.

    Applies to files whose path contains a fragment of the rule's
    ``[tool.reprolint.paths]`` scope
    (default: ``repro/core``). Fires on every ``while`` loop whose test
    is a constant truth (``while True:``, ``while 1:``) and whose body
    never touches the cooperative-cancellation machinery — an
    identifier or attribute among ``budget`` / ``token`` / ``deadline``
    / ``expired`` / ``cancelled`` / ``cancel`` / ``take_samples`` /
    ``consume_enumeration`` / ``time_remaining`` /
    ``exhausted_reason``. Such a loop can spin forever under an
    injected or real fault; either bound it against a
    :class:`~repro.core.budget.Budget` or pragma it with the reason it
    terminates.
    """

    code = "ROB001"
    name = "unbounded-loop"
    description = (
        "unbounded while-loop on a robustness path consults no budget "
        "or cancellation token"
    )
    rationale = (
        "degradation-ladder guarantees rest on every loop being "
        "interruptible; one un-budgeted while True turns a fault into "
        "a hang that no deadline can recover"
    )

    _BUDGET_MARKERS = frozenset(
        {
            "budget",
            "token",
            "deadline",
            "expired",
            "cancelled",
            "cancel",
            "take_samples",
            "consume_enumeration",
            "time_remaining",
            "exhausted_reason",
            "samples_remaining",
            "enumeration_remaining",
        }
    )

    _DEFAULT_PATHS = ("repro/core",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        fragments = ctx.config.paths_for(self.code, self._DEFAULT_PATHS)
        if not any(fragment in ctx.norm_path() for fragment in fragments):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            if not self._constant_true(node.test):
                continue
            if self._consults_budget(node):
                continue
            yield self.finding(
                ctx,
                node,
                "while-loop never terminates by its condition and "
                "never consults a Budget or CancellationToken; bound "
                "it (or pragma it with the reason it terminates)",
            )

    @staticmethod
    def _constant_true(test: ast.AST) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    def _consults_budget(self, loop: ast.While) -> bool:
        for node in ast.walk(loop):
            if node is loop:
                continue
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None and name.lower() in self._BUDGET_MARKERS:
                return True
        return False


# ----------------------------------------------------------------------
# CACHE001 — compiled artifacts are cached, not rebuilt per query
# ----------------------------------------------------------------------


@register
class CachedArtifactRule(Rule):
    """No cacheable-artifact construction inside loops or query methods.

    Applies to files whose path contains a fragment of the rule's
    ``[tool.reprolint.paths]`` scope
    (default: the query engine and the MCMC simulation). Fires when a
    cacheable compiled artifact — ``SamplingPlan`` /
    ``build_sampling_plan`` / ``compile_plan``, ``PairwiseCache``, or
    ``ExactEvaluator`` — is constructed inside a loop, or anywhere
    inside a per-query entry point (``query``, the ``_eval_*``
    evaluators, ``utop_*``, ``rank_*``, ``global_topk``,
    ``threshold_topk``, ``explain``) including its nested closures. Those artifacts depend only on the database
    fingerprint, so per-query construction silently repeats work the
    :class:`~repro.core.cache.ComputationCache` exists to share —
    route the construction through a cache handle
    (``ComputationCache.artifact`` / the engine's ``_exact`` /
    ``_plan_for`` / ``_pairwise_cache`` helpers) instead.
    """

    code = "CACHE001"
    name = "cached-artifact-construction"
    description = (
        "cacheable compiled artifact constructed inside a loop or "
        "per-query method"
    )
    rationale = (
        "sampling plans, pairwise integral caches, and exact evaluators "
        "are pure functions of the database fingerprint; rebuilding one "
        "per query (or per loop iteration) discards the §VI-D shared "
        "state and turns a cache hit into O(n) recompilation"
    )

    _BUILDERS = frozenset(
        {
            "SamplingPlan",
            "build_sampling_plan",
            "compile_plan",
            "PairwiseCache",
            "ExactEvaluator",
        }
    )
    _QUERY_NAME = re.compile(
        r"^(query|_eval_\w+|utop_\w+|rank_\w+|global_topk|"
        r"threshold_topk|explain)$"
    )
    _LOOPS = (
        ast.For,
        ast.AsyncFor,
        ast.While,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )

    _DEFAULT_PATHS = (
        "repro/core/engine.py",
        "repro/core/mcmc.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        fragments = ctx.config.paths_for(self.code, self._DEFAULT_PATHS)
        if not any(fragment in ctx.norm_path() for fragment in fragments):
            return
        yield from self._visit(ctx, ctx.tree, in_loop=False, in_query=False)

    def _visit(
        self, ctx: FileContext, node: ast.AST, in_loop: bool, in_query: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_loop = in_loop or isinstance(child, self._LOOPS)
            child_query = in_query
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A def body runs when called, not where it is written:
                # reset the loop context, but closures inside a query
                # method still execute once per query, so the query
                # context is inherited.
                child_loop = False
                child_query = in_query or bool(
                    self._QUERY_NAME.match(child.name)
                )
            if (
                isinstance(child, ast.Call)
                and _terminal_name(child.func) in self._BUILDERS
                and (child_loop or child_query)
            ):
                where = "a loop" if child_loop else "a per-query method"
                yield self.finding(
                    ctx,
                    child,
                    f"{_terminal_name(child.func)}(...) constructed "
                    f"inside {where}; fetch it through a "
                    "ComputationCache handle keyed by the database "
                    "fingerprint instead of rebuilding it",
                )
                continue
            yield from self._visit(ctx, child, child_loop, child_query)


# ----------------------------------------------------------------------
# ARG001 — no mutable default arguments
# ----------------------------------------------------------------------


@register
class MutableDefaultRule(Rule):
    """No mutable default arguments (list/dict/set literals or calls)."""

    code = "ARG001"
    name = "mutable-default"
    description = "mutable default argument"
    rationale = (
        "a mutable default is shared across calls; results then depend "
        "on call history, which breaks reproducibility"
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in _function_defs(ctx.tree):
            defaults = [
                *fn.args.defaults,
                *(d for d in fn.args.kw_defaults if d is not None),
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default in {fn.name!r}; default to None "
                        "and construct inside the function",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (
                ast.List,
                ast.Dict,
                ast.Set,
                ast.ListComp,
                ast.DictComp,
                ast.SetComp,
            ),
        ):
            return True
        if isinstance(node, ast.Call):
            return _terminal_name(node.func) in self._MUTABLE_CALLS
        return False


# ----------------------------------------------------------------------
# ROB003 — serve paths: bounded awaits, supervised tasks
# ----------------------------------------------------------------------


@register
class UnboundedAwaitRule(Rule):
    """Serve-path awaits must carry deadlines; spawned tasks a keeper.

    Applies to files whose path contains a ``ROB003`` scope fragment
    (default: ``repro/serve``). Two patterns fire:

    - ``await`` of an unbounded I/O primitive (stream ``read*`` /
      ``drain`` / ``wait_closed``, queue ``get`` / ``join``, lock
      ``acquire``, ``wait``, ``connect`` / ``open_connection`` /
      ``accept`` / ``recv``) that is not wrapped in
      ``asyncio.wait_for(...)`` and not lexically inside an
      ``async with asyncio.timeout(...)`` / ``timeout_at(...)`` block.
    - ``asyncio.create_task(...)`` / ``ensure_future(...)`` used as a
      bare expression statement, discarding the task handle.
    """

    code = "ROB003"
    name = "unbounded-await"
    description = (
        "await of an unbounded I/O primitive without a timeout, or an "
        "unsupervised asyncio task, on a serve path"
    )
    rationale = (
        "a service survives slow and vanishing clients only if every "
        "socket read, drain, and queue wait carries a deadline — one "
        "bare await pins a connection handler forever; a discarded "
        "create_task swallows its own exceptions at GC time"
    )

    _DEFAULT_PATHS = ("repro/serve",)

    #: Awaitable call names that block until the *peer* acts.
    _WAIT_CALLS = frozenset(
        {
            "read",
            "readline",
            "readexactly",
            "readuntil",
            "drain",
            "wait_closed",
            "get",
            "join",
            "acquire",
            "wait",
            "connect",
            "open_connection",
            "accept",
            "recv",
            "serve_forever",
        }
    )

    #: Call names that bound whatever they wrap with a deadline.
    _GUARD_CALLS = frozenset({"wait_for", "timeout", "timeout_at"})

    _SPAWN_CALLS = frozenset({"create_task", "ensure_future"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        fragments = ctx.config.paths_for(self.code, self._DEFAULT_PATHS)
        if not any(fragment in ctx.norm_path() for fragment in fragments):
            return
        yield from self._visit(ctx, ctx.tree, guarded=False)

    def _visit(
        self, ctx: FileContext, node: ast.AST, guarded: bool
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Await):
            yield from self._check_await(ctx, node, guarded)
        elif (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and _terminal_name(node.value.func) in self._SPAWN_CALLS
        ):
            yield self.finding(
                ctx,
                node,
                "task handle discarded; assign it and supervise (await, "
                "gather, or cancel on shutdown) so its failures surface",
            )
        elif isinstance(node, ast.AsyncWith):
            # `async with asyncio.timeout(...)` bounds everything in
            # its body; the guard does not cross into nested defs.
            body_guarded = guarded or any(
                isinstance(item.context_expr, ast.Call)
                and _terminal_name(item.context_expr.func)
                in self._GUARD_CALLS
                for item in node.items
            )
            for item in node.items:
                yield from self._visit(ctx, item, guarded)
            for stmt in node.body:
                yield from self._visit(ctx, stmt, body_guarded)
            return
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            # A nested function body runs later, outside the lexical
            # timeout block.
            guarded = False
        for child in ast.iter_child_nodes(node):
            yield from self._visit(ctx, child, guarded)

    def _check_await(
        self, ctx: FileContext, node: ast.Await, guarded: bool
    ) -> Iterator[Finding]:
        value = node.value
        if not isinstance(value, ast.Call):
            return
        name = _terminal_name(value.func)
        if name in self._GUARD_CALLS:
            return
        if name in self._WAIT_CALLS and not guarded:
            yield self.finding(
                ctx,
                node,
                f"await of {name}() has no deadline; wrap it in "
                "asyncio.wait_for(...) or an asyncio.timeout() block "
                "so a slow peer cannot hang the handler",
            )


# ----------------------------------------------------------------------
# CACHE003 — the table version counter is private to the delta API
# ----------------------------------------------------------------------


@register
class TableVersionAccessRule(Rule):
    """No direct ``table.version`` reads or writes outside ``db/table.py``.

    Applies to files whose path contains a ``CACHE003`` scope fragment
    (default: the core engine, db, serve, and experiments trees),
    excluding ``db/table.py`` itself — the counter's one legitimate
    owner. Fires on any ``.version`` attribute access (load or store)
    whose base expression names a table (terminal identifier containing
    ``table``): polling the bare counter can only say *that* the table
    changed, so code built on it invalidates wholesale and silently
    forfeits delta-aware cache migration — and writing it from outside
    desynchronizes every subscriber. Subscribe through
    ``table.changes_since(version)`` (whose reply carries the counter
    *and* the deltas) and mutate through ``table.mutate()`` instead.
    """

    code = "CACHE003"
    name = "direct-table-version-access"
    description = (
        "direct table.version read/write outside db/table.py; the "
        "changes_since/mutate delta API is the sanctioned path"
    )
    rationale = (
        "the version counter alone cannot name which records changed, "
        "so consumers polling it must discard every cached artifact on "
        "any edit; the delta API delivers the same freshness signal "
        "plus the touched keys that make pairwise/PPO carry-forward "
        "possible, and out-of-band counter writes break every "
        "subscriber's invalidation contract"
    )

    _DEFAULT_PATHS = (
        "repro/core",
        "repro/db",
        "repro/serve",
        "repro/experiments",
    )
    _OWNER_FILE = "repro/db/table.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        norm = ctx.norm_path()
        if self._OWNER_FILE in norm:
            return
        fragments = ctx.config.paths_for(self.code, self._DEFAULT_PATHS)
        if not any(fragment in norm for fragment in fragments):
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Attribute) and node.attr == "version"
            ):
                continue
            base = _terminal_name(node.value)
            if base is None or "table" not in base.lower():
                continue
            verb = (
                "written"
                if isinstance(node.ctx, (ast.Store, ast.Del))
                else "read"
            )
            yield self.finding(
                ctx,
                node,
                f"table version counter {verb} directly; subscribe via "
                "table.changes_since(version) and mutate via "
                "table.mutate() so deltas (and cache carry-forward) "
                "survive the edit",
            )
