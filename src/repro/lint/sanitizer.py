"""Runtime determinism sanitizer (``python -m repro.lint.sanitize``).

The static cross-module rules (:mod:`repro.lint.crossmodule`) prove
properties of the *code*; this module checks the property the project
actually promises: **query answers are a pure function of (records,
seeds, query args)** — independent of thread scheduling, worker count,
and cache temperature. It replays a seeded mixed-query workload

- ``--repeats`` times under *thread-scheduling perturbation* (the span
  start hook in :mod:`repro.core.trace` injects pseudo-random
  microsecond sleeps at span boundaries — the natural preemption points
  between evaluation stages — which reorders worker interleavings
  without touching any engine code path);
- across a worker grid (default 1/2/4) so rank-count sample blocks
  and MCMC chain pools run both serial and concurrent (the workload's
  multi-block UTop-Rank query makes the block pool draw concurrently);
- twice per engine, so the second pass answers from a warm
  :class:`~repro.core.cache.ComputationCache`;
- across a mutation grid (the CLI's ``--mutate`` flag defaults to
  ``off,on``) asserting delta-aware incremental maintenance is
  answer-invisible: the ``on`` cells build the engine over an
  :class:`~repro.db.table.UncertainTable` whose initial content is
  *stale* (two perturbed rows plus two extras), then commit one
  ``table.mutate()`` batch restoring the canonical content, so every
  query runs through ``changes_since`` delta consumption and
  :meth:`~repro.core.cache.ComputationCache.migrate` — and must still
  be byte-identical to the direct-records baseline;
- once more in a subprocess with a different ``PYTHONHASHSEED``, for
  the baseline cell only, so answers that follow set or dict
  iteration order of hashed keys show up as divergences;

and every cell also runs a few stochastic queries over a second,
fixed table whose scores tie with positive probability (discrete
scores sharing atoms, point scores on those atoms), so pairwise
integrals and MCMC proposals are exercised on ties at every worker
count;

and diffs every :meth:`~repro.core.queries.QueryResult.to_dict` against
the unperturbed serial baseline **byte-for-byte** (canonicalized: the
wall-clock, per-query cache, and trace fields are stripped — everything
else, including diagnostics and float bit patterns, must match).

The report also carries ``baseline_digest``, the SHA-256 of the
baseline cell's canonical answers. Two checkouts whose sanitizer runs
(same options) print the same digest answer the workload
byte-identically, so one diff of two reports compares a change with
its parent.

On divergence the report names the query, the first differing JSON
path, and — because every engine runs with tracing on — the deepest
span at which the two executions' span trees structurally disagree,
which localizes the nondeterminism to an evaluation stage.

The workload deliberately carries **no budgets**: budget clipping is
wall-clock driven and therefore legitimately schedule-dependent; the
sanitizer checks the deterministic contract, not the degradation
ladder.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro.core import RankingEngine, certain, uniform
from repro.core.cache import SAMPLE_BLOCK
from repro.core.distributions import DiscreteScore
from repro.core.queries import Query, QueryResult
from repro.core.records import UncertainRecord
from repro.core.trace import set_span_start_hook

__all__ = [
    "DEFAULT_MUTATE_GRID",
    "DEFAULT_WORKER_GRID",
    "Divergence",
    "SanitizerReport",
    "SpanJitter",
    "answer_digest",
    "build_mutation_scenario",
    "build_records",
    "build_workload",
    "canonical_result",
    "run_sanitizer",
]

_MASK64 = (1 << 64) - 1
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407

#: Worker settings exercised per repeat: serial, small pool, wide pool.
DEFAULT_WORKER_GRID: Tuple[int, ...] = (1, 2, 4)

#: Mutation settings exercised per repeat. The library default keeps
#: tier-1 runs fast (direct records only); the sanitizer CLI widens
#: this to ``off,on`` so release checks assert delta-aware incremental
#: maintenance never changes an answer.
DEFAULT_MUTATE_GRID: Tuple[str, ...] = ("off",)

#: Result keys that legitimately vary run-to-run.
_VOLATILE_KEYS = ("elapsed", "cache", "trace")

#: Diagnostics keys (substring match) that carry timings, not answers.
_TIMING_TOKENS = ("elapsed", "seconds", "wall", "cpu", "time")


def _lcg(state: int) -> int:
    return (state * _LCG_MUL + _LCG_INC) & _MASK64


class SpanJitter:
    """Span-start hook injecting pseudo-random scheduling sleeps.

    Uses a lock-protected 64-bit LCG rather than :mod:`random` so the
    jitter stream is self-contained and the hook is safe to call from
    any worker thread. The *sleep amounts* are deterministic per seed,
    but which thread draws which amount depends on arrival order —
    exactly the scheduling perturbation we want.
    """

    def __init__(self, seed: int, max_us: int) -> None:
        self._state = _lcg((seed << 1) | 1)
        self._lock = threading.Lock()
        self.max_us = max(0, int(max_us))
        self.calls = 0

    def __call__(self, span: Any) -> None:
        if self.max_us == 0:
            return
        with self._lock:
            self._state = _lcg(self._state)
            draw = self._state >> 33
            self.calls += 1
        time.sleep((draw % (self.max_us + 1)) / 1e6)


def build_records(count: int = 12) -> List[UncertainRecord]:
    """A deterministic mixed database of ``count`` records.

    Interval bounds are generated arithmetically (no RNG involved) so
    the workload is a function of ``count`` alone. Every third record
    is certain; the rest carry overlapping uniform intervals so the
    partial order has real uncertainty to rank under.
    """
    if count < 4:
        raise ValueError("the workload needs at least 4 records")
    records: List[UncertainRecord] = []
    for i in range(count):
        rid = f"t{i:02d}"
        lo = float((i * 37) % 50) / 10.0
        if i % 3 == 2:
            records.append(certain(rid, lo))
        else:
            width = 0.5 + float((i * 13) % 7) / 2.0
            records.append(uniform(rid, lo, lo + width))
    return records


def build_tied_records() -> List[UncertainRecord]:
    """Nine records whose scores tie with positive probability.

    Three discrete scores share the atoms 1, 2 and 3, three point scores
    sit on those atoms, and three uniform intervals overlap them all.
    """
    records: List[UncertainRecord] = []
    for i in range(9):
        rid = f"d{i:02d}"
        if i % 3 == 0:
            score = DiscreteScore([1.0, 2.0, 3.0], [1.0, 2.0, 1.0 + i])
            records.append(UncertainRecord(rid, score))
        elif i % 3 == 1:
            records.append(certain(rid, float(1 + i // 3)))
        else:
            records.append(uniform(rid, 0.5 + 0.25 * i, 3.5))
    return records


def build_tied_workload(k: int = 3) -> List[Query]:
    """MCMC and Monte-Carlo queries for :func:`build_tied_records`."""
    return [
        Query(kind="utop_prefix", k=k, l=2, method="mcmc", seed=21),
        Query(kind="utop_set", k=k, l=2, method="mcmc", seed=22),
        Query(kind="utop_rank", i=1, j=k, l=2, method="montecarlo", seed=23),
    ]


#: Attribute domain used by the mutation-axis scoring function. The
#: power-of-two span makes ``AttributeScore.score_value`` the exact
#: identity on the workload's values (``16 * v / 16 == v`` bit-for-bit
#: in IEEE doubles), so the table path produces distributions that are
#: byte-identical to :func:`build_records`' direct constructors.
_MUTATE_DOMAIN: Tuple[float, float] = (0.0, 16.0)


def _canonical_cell(index: int) -> object:
    """The table cell whose scored distribution matches record ``index``."""
    lo = float((index * 37) % 50) / 10.0
    if index % 3 == 2:
        return lo
    width = 0.5 + float((index * 13) % 7) / 2.0
    return (lo, lo + width)


def build_mutation_scenario(count: int = 12) -> Tuple[Any, Any, Any]:
    """A stale table, its scoring rule, and the restoring mutation.

    Returns ``(table, scoring, restore)``. The table's *initial* rows
    deliberately disagree with :func:`build_records`: rows 1 and 2 (one
    interval, one certain) are perturbed and two extra rows are
    appended. Calling ``restore()`` commits a single ``table.mutate()``
    batch — two deletes plus two replaces — after which the scored
    records equal ``build_records(count)`` exactly, so an engine built
    over the stale table and mutated back must answer byte-identically
    to the direct-records baseline while exercising the delta
    consumption and cache-migration paths.
    """
    from repro.db.scoring import AttributeScore
    from repro.db.table import UncertainTable

    if count < 4:
        raise ValueError("the mutation scenario needs at least 4 records")
    rows: List[Dict[str, object]] = []
    for i in range(count):
        rows.append({"id": f"t{i:02d}", "score": _canonical_cell(i)})
    # Perturb one interval row and one certain row, and append extras
    # the restoring batch will delete.
    rows[1] = {"id": "t01", "score": (0.25, 6.25)}
    rows[2] = {"id": "t02", "score": 1.25}
    rows.append({"id": "zx98", "score": (0.5, 2.5)})
    rows.append({"id": "zx99", "score": 3.25})
    table = UncertainTable("sanitizer", ["id", "score"], rows)
    scoring = AttributeScore(
        "score", _MUTATE_DOMAIN, scale=_MUTATE_DOMAIN[1]
    )

    def restore() -> None:
        with table.mutate() as batch:
            batch.delete("zx98")
            batch.delete("zx99")
            batch.replace({"id": "t01", "score": _canonical_cell(1)})
            batch.replace({"id": "t02", "score": _canonical_cell(2)})

    return table, scoring, restore


def build_workload(k: int = 3) -> List[Query]:
    """The mixed-query workload: every kind, both stochastic methods.

    Each stochastic query pins an explicit ``seed`` so answers are
    addressable across engines built with different worker settings.
    One UTop-Rank and one UTop-Set query ask for more than two sample
    blocks, so their rank counts and top-k tallies are drawn on the
    block pool whatever the engine's default sample count.
    """
    return [
        Query(kind="utop_rank", i=1, j=2, l=2, method="exact"),
        Query(kind="utop_rank", i=1, j=k, l=2, method="montecarlo", seed=11),
        Query(
            kind="utop_rank",
            i=1,
            j=k,
            l=2,
            method="montecarlo",
            seed=19,
            samples=2 * SAMPLE_BLOCK + 500,
        ),
        Query(kind="utop_prefix", k=k, l=2, method="montecarlo", seed=12),
        Query(kind="utop_prefix", k=k, l=2, method="mcmc", seed=13),
        Query(kind="utop_set", k=k, l=2, method="montecarlo", seed=14),
        Query(
            kind="utop_set",
            k=k,
            l=2,
            method="montecarlo",
            seed=20,
            samples=2 * SAMPLE_BLOCK + 500,
        ),
        Query(kind="utop_set", k=k, l=2, method="mcmc", seed=17),
        Query(kind="rank_aggregation", method="montecarlo", seed=15),
        Query(kind="rank_aggregation", method="auto", seed=18),
        Query(
            kind="threshold_topk",
            k=k,
            threshold=0.05,
            method="auto",
            seed=16,
        ),
    ]


def _strip_timings(value: Any) -> Any:
    """Recursively drop timing-named keys from diagnostics payloads."""
    if isinstance(value, dict):
        return {
            key: _strip_timings(item)
            for key, item in value.items()
            if not any(token in str(key).lower() for token in _TIMING_TOKENS)
        }
    if isinstance(value, list):
        return [_strip_timings(item) for item in value]
    return value


def canonical_result(result: QueryResult) -> Dict[str, Any]:
    """The comparable rendition of a result: everything but timings."""
    data = result.to_dict()
    for key in _VOLATILE_KEYS:
        data.pop(key, None)
    data["diagnostics"] = _strip_timings(dict(data.get("diagnostics") or {}))
    return data


def _json_default(value: Any) -> Any:
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def encode_canonical(data: Dict[str, Any]) -> bytes:
    """Canonical bytes for the byte-for-byte comparison."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), default=_json_default
    ).encode("utf-8")


def answer_digest(encoded: Sequence[bytes]) -> str:
    """SHA-256 over canonical answers, one newline-terminated line each."""
    digest = hashlib.sha256()
    for line in encoded:
        digest.update(line)
        digest.update(b"\n")
    return digest.hexdigest()


def _diff_path(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """First JSON path at which two canonical values differ."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            sub = _diff_path(a[key], b[key], f"{path}.{key}")
            if sub is not None:
                return sub
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}.length"
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            sub = _diff_path(item_a, item_b, f"{path}[{index}]")
            if sub is not None:
                return sub
        return None
    if a != b:
        return path
    return None


def _span_skeleton(node: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Structure-only view of a span tree: names and child shapes."""
    if not node:
        return None
    return {
        "name": node.get("name"),
        "children": [
            _span_skeleton(child) for child in node.get("children") or []
        ],
    }


def _deepest_span_divergence(
    a: Optional[Dict[str, Any]],
    b: Optional[Dict[str, Any]],
    path: str = "",
) -> Optional[str]:
    """Deepest span path where two trace skeletons disagree."""
    if a is None and b is None:
        return None
    if a is None or b is None:
        return path or "<root>"
    here = f"{path}/{a.get('name')}" if path else str(a.get("name"))
    if a.get("name") != b.get("name"):
        return here
    children_a = a.get("children") or []
    children_b = b.get("children") or []
    deepest: Optional[str] = None
    for child_a, child_b in zip(children_a, children_b):
        sub = _deepest_span_divergence(child_a, child_b, here)
        if sub is not None:
            deepest = sub
    if deepest is not None:
        return deepest
    if len(children_a) != len(children_b):
        return here
    return None


@dataclass(frozen=True)
class Divergence:
    """One detected mismatch against the baseline execution."""

    label: str
    query_index: int
    query_kind: str
    json_path: str
    span_path: Optional[str]

    def describe(self) -> str:
        where = (
            f" (deepest differing span: {self.span_path})"
            if self.span_path
            else ""
        )
        return (
            f"{self.label}: query #{self.query_index} "
            f"[{self.query_kind}] diverged at {self.json_path}{where}"
        )


@dataclass
class SanitizerReport:
    """Aggregate outcome of one sanitizer run."""

    repeats: int
    worker_grid: Tuple[int, ...]
    queries: int
    mutate_grid: Tuple[str, ...] = DEFAULT_MUTATE_GRID
    runs: int = 0
    comparisons: int = 0
    hash_seed_comparisons: int = 0
    jitter_calls: int = 0
    baseline_digest: str = ""
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "repeats": self.repeats,
            "worker_grid": list(self.worker_grid),
            "mutate_grid": list(self.mutate_grid),
            "queries": self.queries,
            "runs": self.runs,
            "comparisons": self.comparisons,
            "hash_seed_comparisons": self.hash_seed_comparisons,
            "jitter_calls": self.jitter_calls,
            "baseline_digest": self.baseline_digest,
            "divergences": [
                {
                    "label": d.label,
                    "query_index": d.query_index,
                    "query_kind": d.query_kind,
                    "json_path": d.json_path,
                    "span_path": d.span_path,
                }
                for d in self.divergences
            ],
        }

    def render(self) -> str:
        lines = [
            f"determinism sanitizer: {self.runs} run(s), "
            f"{self.comparisons} comparison(s) over {self.queries} "
            f"queries ({self.hash_seed_comparisons} against a "
            f"subprocess with another PYTHONHASHSEED), "
            f"workers={'/'.join(map(str, self.worker_grid))}, "
            f"mutate={'/'.join(self.mutate_grid)}, "
            f"repeats={self.repeats}, "
            f"{self.jitter_calls} jitter sleep(s) injected",
            f"baseline answers sha256: {self.baseline_digest}",
        ]
        if self.ok:
            lines.append("all results byte-identical to the baseline")
        else:
            lines.append(f"{len(self.divergences)} divergence(s):")
            lines.extend("  " + d.describe() for d in self.divergences)
        return "\n".join(lines)


@dataclass
class _Execution:
    """One engine pass over the workload: canonical dicts + traces."""

    label: str
    canonical: List[Dict[str, Any]]
    encoded: List[bytes]
    traces: List[Optional[Dict[str, Any]]]


def _execute(
    label: str,
    records: Sequence[UncertainRecord],
    queries: Sequence[Query],
    *,
    workers: int,
    samples: int,
    mcmc_steps: int,
    mcmc_chains: int,
    engine_seed: int,
    mutate: bool = False,
) -> Tuple[_Execution, _Execution]:
    """Run the workload cold then warm on one freshly built engine.

    With ``mutate=True`` the engine is built over the stale table from
    :func:`build_mutation_scenario` and the restoring mutation batch is
    committed *before* the first query, so the cold pass consumes the
    table delta (and migrates surviving cache artifacts) on its way to
    what must be the byte-identical canonical answer.
    """
    if mutate:
        table, scoring, restore = build_mutation_scenario(len(records))
        engine = RankingEngine.from_table(
            table,
            scoring,
            seed=engine_seed,
            workers=workers,
            samples=samples,
            mcmc_chains=mcmc_chains,
            mcmc_steps=mcmc_steps,
            trace=True,
        )
        restore()
    else:
        engine = RankingEngine(
            records,
            seed=engine_seed,
            workers=workers,
            samples=samples,
            mcmc_chains=mcmc_chains,
            mcmc_steps=mcmc_steps,
            trace=True,
        )
    try:
        passes: List[_Execution] = []
        for temperature in ("cold", "warm"):
            canonical: List[Dict[str, Any]] = []
            encoded: List[bytes] = []
            traces: List[Optional[Dict[str, Any]]] = []
            for query in queries:
                result = engine.query(query)
                data = canonical_result(result)
                canonical.append(data)
                encoded.append(encode_canonical(data))
                traces.append(
                    _span_skeleton(
                        result.trace.to_dict() if result.trace else None
                    )
                )
            passes.append(
                _Execution(
                    f"{label} {temperature}", canonical, encoded, traces
                )
            )
    finally:
        # Release worker pools before the next grid cell; the matrix
        # builds dozens of engines.
        engine.close()
    return passes[0], passes[1]


def _execute_all(
    label: str, records: Sequence[UncertainRecord], k: int, **cell: Any
) -> Tuple[_Execution, _Execution]:
    """:func:`_execute` over the workload, then over the tied table.

    The tied table is always built from records: the mutate axis
    applies to the main workload only.
    """
    main = _execute(label, records, build_workload(k=k), **cell)
    cell["mutate"] = False
    tied = _execute(
        label, build_tied_records(), build_tied_workload(k=k), **cell
    )
    joined = [
        _Execution(
            one.label,
            one.canonical + two.canonical,
            one.encoded + two.encoded,
            one.traces + two.traces,
        )
        for one, two in zip(main, tied)
    ]
    return joined[0], joined[1]


def run_sanitizer(
    *,
    repeats: int = 3,
    records: int = 12,
    samples: int = 2000,
    worker_grid: Sequence[int] = DEFAULT_WORKER_GRID,
    mutate_grid: Sequence[str] = DEFAULT_MUTATE_GRID,
    jitter_us: int = 200,
    seed: int = 0,
    mcmc_steps: int = 150,
    mcmc_chains: int = 4,
    k: int = 3,
) -> SanitizerReport:
    """Replay the workload across the perturbation matrix and compare.

    ``repeats`` counts perturbed replays *in addition to* the
    unperturbed baseline (repeat 0 runs with no jitter hook). Every
    (repeat, workers, mutate, cache-temperature) cell is compared
    query-by-query against the baseline cell (repeat 0, first worker
    setting, first mutate setting, cold cache). After the grid, the
    baseline cell is replayed once in a subprocess under a different
    ``PYTHONHASHSEED`` and compared the same way (counted in
    ``hash_seed_comparisons``).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    grid = tuple(int(w) for w in worker_grid) or DEFAULT_WORKER_GRID
    mutates = tuple(mutate_grid) or DEFAULT_MUTATE_GRID
    for name in mutates:
        if name not in ("on", "off"):
            raise ValueError(f"unknown mutate setting {name!r}")
    database = build_records(records)
    queries = build_workload(k=k) + build_tied_workload(k=k)
    report = SanitizerReport(
        repeats=repeats,
        worker_grid=grid,
        queries=len(queries),
        mutate_grid=mutates,
    )

    def cell(workers: int, mutate_mode: str) -> Dict[str, Any]:
        return {
            "workers": workers,
            "samples": samples,
            "mcmc_steps": mcmc_steps,
            "mcmc_chains": mcmc_chains,
            "engine_seed": 7,
            "mutate": mutate_mode == "on",
        }

    baseline: Optional[_Execution] = None
    for repeat in range(repeats + 1):
        jitter: Optional[SpanJitter] = None
        if repeat > 0:
            jitter = SpanJitter(
                seed=(seed << 16) | repeat, max_us=jitter_us
            )
        previous = set_span_start_hook(jitter)
        try:
            for workers in grid:
                for mutate_mode in mutates:
                    label = (
                        f"repeat={repeat} workers={workers} "
                        f"mutate={mutate_mode}"
                    )
                    cold, warm = _execute_all(
                        label, database, k, **cell(workers, mutate_mode)
                    )
                    report.runs += 1
                    if baseline is None:
                        baseline = cold
                    for execution in (cold, warm):
                        if execution is baseline:
                            continue
                        _compare(report, baseline, execution, queries)
        finally:
            set_span_start_hook(previous)
        if jitter is not None:
            report.jitter_calls += jitter.calls
    assert baseline is not None
    report.baseline_digest = answer_digest(baseline.encoded)
    replay = _replay_with_other_hash_seed(
        records, k, cell(grid[0], mutates[0])
    )
    before = report.comparisons
    _compare(report, baseline, replay, queries)
    report.hash_seed_comparisons = report.comparisons - before
    return report


def _replay_with_other_hash_seed(
    records: int, k: int, cell: Dict[str, Any]
) -> _Execution:
    """The cold pass of one grid cell, run in a fresh interpreter.

    The child gets a ``PYTHONHASHSEED`` that differs from this
    process's, so string hashing (and with it set and dict iteration
    order over hashed keys) changes while everything the answers may
    depend on stays fixed.
    """
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (package_root, env.get("PYTHONPATH")) if path
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.lint.sanitizer import _replay_main; _replay_main()",
        ],
        input=json.dumps({"records": records, "k": k, **cell}),
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"PYTHONHASHSEED={hash_seed} replay failed:\n{proc.stderr}"
        )
    out = json.loads(proc.stdout)
    return _Execution(
        f"PYTHONHASHSEED={hash_seed} subprocess cold",
        [json.loads(line) for line in out["encoded"]],
        [line.encode("utf-8") for line in out["encoded"]],
        out["traces"],
    )


def _replay_main() -> None:
    """Subprocess side of the hash-seed leg: cell spec in, cold pass out."""
    spec = json.load(sys.stdin)
    records = build_records(spec.pop("records"))
    cold, _ = _execute_all("replay", records, spec.pop("k"), **spec)
    json.dump(
        {
            "encoded": [line.decode("utf-8") for line in cold.encoded],
            "traces": cold.traces,
        },
        sys.stdout,
    )


def _compare(
    report: SanitizerReport,
    baseline: _Execution,
    execution: _Execution,
    queries: Sequence[Query],
) -> None:
    for index, query in enumerate(queries):
        report.comparisons += 1
        if execution.encoded[index] == baseline.encoded[index]:
            continue
        report.divergences.append(
            Divergence(
                label=execution.label,
                query_index=index,
                query_kind=query.kind,
                json_path=_diff_path(
                    baseline.canonical[index], execution.canonical[index]
                )
                or "$",
                span_path=_deepest_span_divergence(
                    baseline.traces[index], execution.traces[index]
                ),
            )
        )
