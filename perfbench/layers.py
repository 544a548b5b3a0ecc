"""Per-layer attribution, timed from outside the ranking engine.

:class:`LayerTracer` interposes timing wrappers at the boundaries where
the engine calls into its layers -- module-level names the engine
imports and methods of the layer classes -- without changing any
program file. Each wrapper records the call's duration on a
thread-local stack, so a layer's *self* time excludes the time of the
traced layers it calls, and concurrent executor threads (the serving
workload) are attributed independently.

The wrappers are only installed for ``--trace 1`` runs; end-to-end runs
execute the program untouched. A target missing from the program (a
later refactor renamed it) is skipped, so the benchmark keeps running;
the layer then reads zero calls.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Timed layers: ``layer -> [(module, owner attribute or "", function)]``.
#: An empty owner patches a module-level name (the engine's imported
#: binding, so only engine -> layer calls are seen); otherwise the
#: method is patched on the class and every caller is seen.
TIMED: Dict[str, List[Tuple[str, str, str]]] = {
    # Relation layer: loading, scoring rows into records, committing
    # mutation batches.
    "table": [
        ("repro.db.table", "UncertainTable", "__init__"),
        ("repro.db.table", "UncertainTable", "to_records"),
        ("repro.db.table", "MutationBatch", "__exit__"),
    ],
    "validate": [
        ("repro.core.validation", "", "validate_records"),
        ("repro.core.engine", "", "validate_records"),
    ],
    "fingerprint": [("repro.core.engine", "", "fingerprint_records")],
    # k-dominance pruning (Algorithm 2).
    "prune": [("repro.core.engine", "", "shrink_database")],
    # Monte-Carlo rank counting: plan compilation, score draws, sort,
    # scatter (paper section VI-C).
    "sample": [
        ("repro.core.engine", "", "compile_plan"),
        ("repro.core.montecarlo", "MonteCarloEvaluator", "rank_counts"),
    ],
    # Computation cache bookkeeping: rank-count block lookup and merge,
    # delta migration, coverage probes, stats snapshots.
    "cache": [
        ("repro.core.cache", "ComputationCache", "rank_counts"),
        ("repro.core.cache", "ComputationCache", "rank_count_coverage"),
        ("repro.core.cache", "ComputationCache", "migrate"),
        ("repro.core.cache", "ComputationCache", "stats"),
    ],
    # MCMC walk over linear-extension prefixes (section VI-D) ...
    "mcmc": [("repro.core.mcmc", "TopKSimulation", "run")],
    # ... and the state-probability oracle it calls per new state.
    "oracle": [
        ("repro.core.montecarlo", "MonteCarloEvaluator", "prefix_probability_sis"),
        ("repro.core.montecarlo", "MonteCarloEvaluator", "top_set_probability_cdf"),
        ("repro.core.exact", "ExactEvaluator", "prefix_probability"),
        ("repro.core.exact", "ExactEvaluator", "top_set_probability"),
    ],
    # The query dispatcher itself; its self time is planning, evaluator
    # glue, answer assembly and artifacts built outside the layers above.
    "engine": [("repro.core.engine", "RankingEngine", "query")],
}

#: Counted-only calls (too fine-grained to time without distorting the
#: layer around them): Eq. 1 pairwise integrals actually computed.
COUNTED: Dict[str, List[Tuple[str, str, str]]] = {
    "pairwise": [("repro.core.pairwise", "", "probability_greater")],
}


class LayerTracer:
    """Self time and call counts per layer, accumulated across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.total_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_seconds[layer] += elapsed - children
                    self.total_seconds[layer] += elapsed
                    self.calls[layer] += 1

        return wrapper

    def _counted(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, targets, make: Callable) -> None:
        for layer, points in targets.items():
            for module_name, owner_name, attr in points:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name, None) if owner_name else module
                original = None if owner is None else vars(owner).get(attr)
                if original is None:
                    continue
                self._restore.append((owner, attr, original))
                setattr(owner, attr, make(layer, original))

    def __enter__(self) -> "LayerTracer":
        self._patch(TIMED, self._timed)
        self._patch(COUNTED, self._counted)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
