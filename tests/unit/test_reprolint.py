"""Unit tests for the reprolint framework and every built-in rule.

Each rule gets at least one firing fixture and one suppressed fixture
(acceptance criterion of the lint subsystem); framework tests cover
pragmas, config filtering, reporters, and the CLI surface.
"""

import json
import textwrap
from dataclasses import replace

import pytest

from repro.lint import (
    DEFAULT_CONFIG,
    LintConfig,
    Severity,
    all_rules,
    get_rule,
    json_report,
    lint_source,
    load_config,
    text_report,
)
from repro.lint.cli import main as lint_main
from repro.lint.suppressions import parse_suppressions


def codes(result):
    return [finding.code for finding in result.findings]


def run(snippet, path="src/repro/core/fake.py", config=None):
    return lint_source(
        textwrap.dedent(snippet), path=path, config=config or DEFAULT_CONFIG
    )


class TestPRB001:
    def test_fires_on_unclamped_return(self):
        result = run(
            """
            def prefix_probability(x: float) -> float:
                return x * 2.0
            """
        )
        assert "PRB001" in codes(result)

    def test_clamped_returns_pass(self):
        result = run(
            """
            import numpy as np
            from repro.core.numeric import clamp_probability

            def prefix_probability(x: float) -> float:
                return clamp_probability(x)

            def set_probability(x: float) -> float:
                return min(max(x, 0.0), 1.0)

            def rank_probability(x: float) -> float:
                return float(np.clip(x, 0.0, 1.0))
            """
        )
        assert "PRB001" not in codes(result)

    def test_constant_and_delegation_pass(self):
        result = run(
            """
            def inner_probability(x: float) -> float:
                return min(x, 1.0)

            def outer_probability(x: float) -> float:
                if x < 0:
                    return 0.0
                return inner_probability(x)
            """
        )
        assert "PRB001" not in codes(result)

    def test_clamped_local_name_passes(self):
        result = run(
            """
            def top_probability(x: float) -> float:
                value = min(max(x, 0.0), 1.0)
                return value
            """
        )
        assert "PRB001" not in codes(result)

    def test_non_probability_function_ignored(self):
        result = run(
            """
            def score(x: float) -> float:
                return x * 2.0
            """
        )
        assert "PRB001" not in codes(result)

    def test_non_float_return_annotation_ignored(self):
        result = run(
            """
            import numpy as np

            def rank_probability_matrix(n: int) -> np.ndarray:
                return np.zeros(n)
            """
        )
        assert "PRB001" not in codes(result)

    def test_suppressed_by_line_pragma(self):
        result = run(
            """
            def prefix_probability(x: float) -> float:
                return x * 2.0  # reprolint: disable=PRB001
            """
        )
        assert "PRB001" not in codes(result)
        assert result.suppressed == 1


class TestDET001:
    def test_fires_on_unseeded_default_rng(self):
        result = run(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert "DET001" in codes(result)

    def test_fires_on_none_seed(self):
        result = run(
            """
            import numpy as np
            rng = np.random.default_rng(None)
            """
        )
        assert "DET001" in codes(result)

    def test_seeded_default_rng_passes(self):
        result = run(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            derived = np.random.default_rng(rng.integers(2**63))
            maybe = np.random.default_rng(seed)
            """
        )
        assert "DET001" not in codes(result)

    def test_fires_on_stdlib_random(self):
        result = run(
            """
            import random
            x = random.random()
            """
        )
        assert "DET001" in codes(result)

    def test_fires_on_from_random_import(self):
        result = run("from random import choice\n")
        assert "DET001" in codes(result)

    def test_fires_on_legacy_numpy_global(self):
        result = run(
            """
            import numpy as np
            x = np.random.rand(3)
            """
        )
        assert "DET001" in codes(result)

    def test_generator_method_named_random_passes(self):
        result = run(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            u = rng.random(10)
            """
        )
        assert "DET001" not in codes(result)

    def test_rng_allow_path_permits_unseeded(self):
        config = replace(DEFAULT_CONFIG, rng_allow=("repro/entropy",))
        result = run(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            path="src/repro/entropy/source.py",
            config=config,
        )
        assert "DET001" not in codes(result)

    def test_suppressed_by_file_pragma(self):
        result = run(
            """
            # reprolint: disable-file=DET001
            import numpy as np
            a = np.random.default_rng()
            b = np.random.default_rng()
            """
        )
        assert "DET001" not in codes(result)
        assert result.suppressed == 2


class TestNUM001:
    def test_fires_on_float_literal_equality(self):
        result = run("ok = x == 1.0\n")
        assert "NUM001" in codes(result)

    def test_fires_on_not_equal(self):
        result = run("ok = 0.5 != y\n")
        assert "NUM001" in codes(result)

    def test_fires_on_float_call(self):
        result = run("ok = float(x) == y\n")
        assert "NUM001" in codes(result)

    def test_integer_equality_passes(self):
        result = run(
            """
            ok = ndim == 0
            also = count != 10
            """
        )
        assert "NUM001" not in codes(result)

    def test_ordering_comparisons_pass(self):
        result = run("ok = x <= 1.0 and y >= 0.0\n")
        assert "NUM001" not in codes(result)

    def test_suppressed_by_line_pragma(self):
        result = run(
            "ok = spread == 0.0  # reprolint: disable=NUM001\n"
        )
        assert "NUM001" not in codes(result)
        assert result.suppressed == 1


class TestEXC001:
    def test_fires_on_bare_except(self):
        result = run(
            """
            try:
                work()
            except:
                fallback()
            """
        )
        assert "EXC001" in codes(result)

    def test_fires_on_silent_broad_except(self):
        result = run(
            """
            try:
                work()
            except Exception:
                fallback()
            """
        )
        assert "EXC001" in codes(result)

    def test_fires_on_pass_only_handler(self):
        result = run(
            """
            try:
                work()
            except ValueError:
                pass
            """
        )
        assert "EXC001" in codes(result)

    def test_bound_broad_except_passes(self):
        result = run(
            """
            try:
                work()
            except Exception as exc:
                log(exc)
            """
        )
        assert "EXC001" not in codes(result)

    def test_narrow_except_passes(self):
        result = run(
            """
            try:
                work()
            except ValueError:
                fallback()
            """
        )
        assert "EXC001" not in codes(result)

    def test_suppressed_by_line_pragma(self):
        result = run(
            """
            try:
                work()
            except Exception:  # reprolint: disable=EXC001
                fallback()
            """
        )
        assert "EXC001" not in codes(result)
        assert result.suppressed == 1


class TestTYP001:
    def test_fires_in_typed_path(self):
        result = run(
            """
            def evaluate(x, k: int):
                return x
            """
        )
        findings = [f for f in result.findings if f.code == "TYP001"]
        assert len(findings) == 1
        assert "'x'" in findings[0].message
        assert "return type" in findings[0].message

    def test_ignores_untyped_path(self):
        result = run(
            """
            def evaluate(x, k):
                return x
            """,
            path="src/repro/experiments/fake.py",
        )
        assert "TYP001" not in codes(result)

    def test_private_and_dunder_ignored(self):
        result = run(
            """
            class Engine:
                def __init__(self, seed=None):
                    self.seed = seed

                def _helper(self, x):
                    return x
            """
        )
        assert "TYP001" not in codes(result)

    def test_fully_annotated_method_passes(self):
        result = run(
            """
            class Engine:
                def evaluate(self, k: int, *args: int, **kw: object) -> float:
                    return float(k)

                @staticmethod
                def build(seed: int) -> "Engine":
                    return Engine()
            """
        )
        assert "TYP001" not in codes(result)

    def test_nested_functions_ignored(self):
        result = run(
            """
            def outer(k: int) -> int:
                def inner(x):
                    return x
                return inner(k)
            """
        )
        assert "TYP001" not in codes(result)

    def test_suppressed_by_line_pragma(self):
        result = run(
            """
            def evaluate(x):  # reprolint: disable=TYP001
                return x
            """
        )
        assert "TYP001" not in codes(result)
        assert result.suppressed == 1


class TestARG001:
    def test_fires_on_list_default(self):
        result = run("def f(items=[]):\n    return items\n")
        assert "ARG001" in codes(result)

    def test_fires_on_dict_call_default(self):
        result = run("def f(*, table=dict()):\n    return table\n")
        assert "ARG001" in codes(result)

    def test_none_default_passes(self):
        result = run("def f(items=None, k=3, name='x'):\n    return items\n")
        assert "ARG001" not in codes(result)

    def test_tuple_default_passes(self):
        result = run("def f(dims=(1, 2)):\n    return dims\n")
        assert "ARG001" not in codes(result)

    def test_suppressed_by_line_pragma(self):
        result = run(
            "def f(items=[]):  # reprolint: disable=ARG001\n"
            "    return items\n"
        )
        assert "ARG001" not in codes(result)
        assert result.suppressed == 1


class TestPERF001:
    PERF_PATH = "src/repro/core/montecarlo.py"

    def test_fires_on_for_loop_calling_cdf(self):
        result = run(
            """
            def probs(records, x):
                out = []
                for rec in records:
                    out.append(rec.score.cdf(x))
                return out
            """,
            path=self.PERF_PATH,
        )
        assert "PERF001" in codes(result)

    def test_fires_on_comprehension_calling_sample(self):
        result = run(
            "def draw(records, rng):\n"
            "    return [r.score.sample(rng) for r in records]\n",
            path=self.PERF_PATH,
        )
        assert "PERF001" in codes(result)

    def test_one_finding_per_outermost_loop(self):
        result = run(
            """
            def draw(records, rng, k):
                for _ in range(k):
                    for rec in records:
                        rec.score.sample(rng)
            """,
            path=self.PERF_PATH,
        )
        assert codes(result).count("PERF001") == 1

    def test_loop_without_distribution_calls_passes(self):
        result = run(
            """
            def ids(records):
                out = []
                for rec in records:
                    out.append(rec.record_id)
                return out
            """,
            path=self.PERF_PATH,
        )
        assert "PERF001" not in codes(result)

    def test_silent_outside_perf_paths(self):
        result = run(
            "def draw(records, rng):\n"
            "    return [r.score.sample(rng) for r in records]\n",
            path="src/repro/core/exact.py",
        )
        assert "PERF001" not in codes(result)

    def test_perf_paths_configurable(self):
        config = replace(
            DEFAULT_CONFIG, path_scopes={"PERF001": ("repro/core/exact.py",)}
        )
        result = run(
            "def draw(records, rng):\n"
            "    return [r.score.sample(rng) for r in records]\n",
            path="src/repro/core/exact.py",
            config=config,
        )
        assert "PERF001" in codes(result)

    def test_pyproject_paths_table_rescopes_rule(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.reprolint.paths]\nPERF001 = ["repro/core/exact.py"]\n'
        )
        config = load_config(pyproject)
        snippet = (
            "def draw(records, rng):\n"
            "    return [r.score.sample(rng) for r in records]\n"
        )
        inside = run(snippet, path="src/repro/core/exact.py", config=config)
        default = run(
            snippet, path="src/repro/core/montecarlo.py", config=config
        )
        assert "PERF001" in codes(inside)
        assert "PERF001" not in codes(default)

    def test_suppressed_by_line_pragma(self):
        result = run(
            "def draw(records, rng):\n"
            "    return [  # reprolint: disable=PERF001 -- test fixture\n"
            "        r.score.sample(rng) for r in records\n"
            "    ]\n",
            path=self.PERF_PATH,
        )
        assert "PERF001" not in codes(result)
        assert result.suppressed == 1


class TestCACHE001:
    CACHE_PATH = "src/repro/core/engine.py"

    def test_fires_on_builder_in_loop(self):
        result = run(
            """
            def warm(fps):
                plans = []
                for fp in fps:
                    plans.append(SamplingPlan(fp))
                return plans
            """,
            path=self.CACHE_PATH,
        )
        assert "CACHE001" in codes(result)

    def test_fires_in_per_query_method(self):
        result = run(
            """
            class Engine:
                def utop_rank(self, i, j):
                    cache = PairwiseCache(self.records)
                    return cache
            """,
            path=self.CACHE_PATH,
        )
        assert "CACHE001" in codes(result)

    def test_fires_in_closure_inside_query_method(self):
        result = run(
            """
            class Engine:
                def utop_prefix(self, k):
                    def build():
                        return ExactEvaluator(self.records)
                    return build()
            """,
            path=self.CACHE_PATH,
        )
        assert "CACHE001" in codes(result)

    def test_helper_method_passes(self):
        result = run(
            """
            class Engine:
                def _plan_for(self, fp):
                    return self.cache.artifact(
                        "plan", fp, lambda: build_sampling_plan(self.records)
                    )
            """,
            path=self.CACHE_PATH,
        )
        # the lambda is a function def: it resets loop context and
        # _plan_for is not a query-named method.
        assert "CACHE001" not in codes(result)

    def test_silent_outside_cache_paths(self):
        result = run(
            """
            def warm(fps):
                return [SamplingPlan(fp) for fp in fps]
            """,
            path="src/repro/core/exact.py",
        )
        assert "CACHE001" not in codes(result)

    def test_cache_paths_configurable(self):
        config = replace(
            DEFAULT_CONFIG, path_scopes={"CACHE001": ("repro/core/exact.py",)}
        )
        result = run(
            """
            def warm(fps):
                return [SamplingPlan(fp) for fp in fps]
            """,
            path="src/repro/core/exact.py",
            config=config,
        )
        assert "CACHE001" in codes(result)

    def test_suppressed_by_line_pragma(self):
        result = run(
            """
            def warm(fps):
                return [
                    SamplingPlan(fp)  # reprolint: disable=CACHE001
                    for fp in fps
                ]
            """,
            path=self.CACHE_PATH,
        )
        assert "CACHE001" not in codes(result)
        assert result.suppressed == 1


class TestCACHE003:
    SCOPED_PATH = "src/repro/core/engine.py"

    def test_fires_on_version_read(self):
        result = run(
            """
            def refresh(table, seen):
                return table.version != seen
            """,
            path=self.SCOPED_PATH,
        )
        assert "CACHE003" in codes(result)

    def test_fires_on_version_write(self):
        result = run(
            """
            def force(table):
                table.version += 1
            """,
            path=self.SCOPED_PATH,
        )
        assert "CACHE003" in codes(result)

    def test_fires_on_attribute_chain_base(self):
        result = run(
            """
            class Engine:
                def stale(self):
                    return self._table.version
            """,
            path=self.SCOPED_PATH,
        )
        assert "CACHE003" in codes(result)

    def test_changes_since_reply_passes(self):
        result = run(
            """
            def refresh(table, seen):
                changes = table.changes_since(seen)
                return changes.version, changes.deltas
            """,
            path=self.SCOPED_PATH,
        )
        assert "CACHE003" not in codes(result)

    def test_owner_file_exempt(self):
        result = run(
            """
            class UncertainTable:
                def _commit(self, table):
                    table.version += 1
            """,
            path="src/repro/db/table.py",
        )
        assert "CACHE003" not in codes(result)

    def test_silent_outside_scope(self):
        result = run(
            """
            def refresh(table, seen):
                return table.version != seen
            """,
            path="src/repro/lint/fake.py",
        )
        assert "CACHE003" not in codes(result)

    def test_unrelated_version_attributes_pass(self):
        result = run(
            """
            import sys

            def runtime():
                return sys.version
            """,
            path=self.SCOPED_PATH,
        )
        assert "CACHE003" not in codes(result)

    def test_suppressed_by_justified_pragma(self):
        config = replace(DEFAULT_CONFIG, justify=frozenset({"CACHE003"}))
        result = run(
            """
            def legacy(table):
                return table.version  # reprolint: disable=CACHE003 -- duck-typed table without the delta API
            """,
            path=self.SCOPED_PATH,
            config=config,
        )
        assert "CACHE003" not in codes(result)
        assert result.suppressed == 1


class TestROB001:
    def test_fires_on_bare_while_true(self):
        result = run(
            """
            def spin():
                while True:
                    pass
            """
        )
        assert "ROB001" in codes(result)

    def test_fires_on_while_one(self):
        result = run(
            """
            def spin():
                while 1:
                    pass
            """
        )
        assert "ROB001" in codes(result)

    def test_budget_consultation_passes(self):
        result = run(
            """
            def drain(budget):
                while True:
                    if budget.expired():
                        break
            """
        )
        assert "ROB001" not in codes(result)

    def test_token_consultation_passes(self):
        result = run(
            """
            def drain(token):
                while True:
                    if token.cancelled:
                        break
            """
        )
        assert "ROB001" not in codes(result)

    def test_bounded_condition_passes(self):
        result = run(
            """
            def drain(queue):
                while queue:
                    queue.pop()
            """
        )
        assert "ROB001" not in codes(result)

    def test_silent_outside_robust_paths(self):
        result = run(
            """
            def spin():
                while True:
                    pass
            """,
            path="src/repro/experiments/harness.py",
        )
        assert "ROB001" not in codes(result)

    def test_robust_paths_configurable(self):
        config = replace(
            DEFAULT_CONFIG, path_scopes={"ROB001": ("repro/experiments",)}
        )
        result = run(
            """
            def spin():
                while True:
                    pass
            """,
            path="src/repro/experiments/harness.py",
            config=config,
        )
        assert "ROB001" in codes(result)

    def test_suppressed_by_line_pragma(self):
        result = run(
            "def spin():\n"
            "    while True:  # reprolint: disable=ROB001 -- test fixture\n"
            "        pass\n"
        )
        assert "ROB001" not in codes(result)
        assert result.suppressed == 1


class TestROB003:
    SERVE_PATH = "src/repro/serve/fake.py"

    def test_fires_on_bare_stream_awaits(self):
        result = run(
            """
            async def handler(reader, queue):
                line = await reader.readline()
                item = await queue.get()
                return line, item
            """,
            path=self.SERVE_PATH,
        )
        assert codes(result).count("ROB003") == 2

    def test_fires_on_unsupervised_create_task(self):
        result = run(
            """
            import asyncio

            async def spawn(coro):
                asyncio.create_task(coro)
            """,
            path=self.SERVE_PATH,
        )
        assert "ROB003" in codes(result)

    def test_wait_for_and_timeout_block_pass(self):
        result = run(
            """
            import asyncio

            async def handler(reader, writer, queue):
                line = await asyncio.wait_for(reader.readline(), 1.0)
                async with asyncio.timeout(2.0):
                    item = await queue.get()
                    await writer.drain()
                task = asyncio.create_task(work(item))
                await task
                return line
            """,
            path=self.SERVE_PATH,
        )
        assert "ROB003" not in codes(result)

    def test_timeout_guard_does_not_cross_nested_defs(self):
        result = run(
            """
            import asyncio

            async def outer(reader):
                async with asyncio.timeout(1.0):
                    async def inner():
                        return await reader.readline()
                    return await inner()
            """,
            path=self.SERVE_PATH,
        )
        assert "ROB003" in codes(result)

    def test_scope_limited_to_serve_paths(self):
        result = run(
            """
            async def handler(reader):
                return await reader.readline()
            """,
            path="src/repro/core/fake.py",
        )
        assert "ROB003" not in codes(result)

    def test_harmless_awaits_pass(self):
        result = run(
            """
            import asyncio

            async def handler(supplier):
                await asyncio.sleep(0.01)
                return await supplier()
            """,
            path=self.SERVE_PATH,
        )
        assert "ROB003" not in codes(result)

    def test_suppressed_by_line_pragma(self):
        result = run(
            "async def wait(stop):\n"
            "    await stop.wait()  "
            "# reprolint: disable=ROB003 -- run-until-signal fixture\n",
            path=self.SERVE_PATH,
        )
        assert "ROB003" not in codes(result)
        assert result.suppressed == 1


class TestFramework:
    def test_syntax_error_becomes_finding(self):
        result = run("def broken(:\n")
        assert codes(result) == ["SYN001"]

    def test_findings_sorted_by_location(self):
        result = run(
            """
            b = x == 1.0
            try:
                work()
            except:
                pass
            a = y != 2.0
            """
        )
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines)

    def test_disable_all_pragma(self):
        result = run(
            "x = y == 1.0  # reprolint: disable=all\n"
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_pragma_in_string_literal_is_inert(self):
        table = parse_suppressions(
            's = "# reprolint: disable=NUM001"\nx = 1.0 == y\n'
        )
        assert not table.file_codes
        assert not table.line_codes

    def test_select_restricts_rules(self):
        config = replace(DEFAULT_CONFIG, select=frozenset({"NUM001"}))
        result = run(
            """
            import numpy as np
            rng = np.random.default_rng()
            x = y == 1.0
            """,
            config=config,
        )
        assert codes(result) == ["NUM001"]

    def test_ignore_removes_rule(self):
        config = replace(DEFAULT_CONFIG, ignore=frozenset({"NUM001"}))
        result = run("x = y == 1.0\n", config=config)
        assert "NUM001" not in codes(result)

    def test_severity_override_affects_exit_code(self):
        config = replace(
            DEFAULT_CONFIG, severity={"NUM001": Severity.WARNING}
        )
        result = run("x = y == 1.0\n", config=config)
        assert codes(result) == ["NUM001"]
        assert result.exit_code == 0

    def test_rule_catalog_complete(self):
        registered = {rule.code for rule in all_rules()}
        assert {
            "PRB001",
            "DET001",
            "NUM001",
            "EXC001",
            "TYP001",
            "ARG001",
            "PERF001",
            "ROB001",
            "ROB003",
            "CACHE001",
            "CACHE003",
        } <= registered
        for rule in all_rules():
            assert rule.description
            assert rule.rationale

    def test_get_rule_unknown_code(self):
        with pytest.raises(KeyError, match="known rules"):
            get_rule("ZZZ999")

    def test_text_report_mentions_code_and_count(self):
        result = run("x = y == 1.0\n")
        report = text_report(result)
        assert "NUM001" in report
        assert "1 finding(s)" in report

    def test_json_report_round_trips(self):
        result = run("x = y == 1.0\n")
        payload = json.loads(json_report(result))
        assert payload["error_count"] == 1
        assert payload["findings"][0]["code"] == "NUM001"
        assert payload["findings"][0]["line"] == 1


class TestCLI:
    @pytest.fixture(autouse=True)
    def _cache_in_tmp_path(self, tmp_path):
        # Each run keeps its lint cache under tmp_path instead of
        # replacing the one next to the repository's pyproject.toml.
        self.cache_file = tmp_path / ".reprolint_cache.json"

    def lint(self, *argv):
        return lint_main([*argv, "--cache-file", str(self.cache_file)])

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert self.lint(str(target)) == 0
        assert self.cache_file.exists()

    def test_violation_exits_one(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert self.lint(str(target)) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert self.lint(str(tmp_path / "absent.py")) == 2

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("x = y == 1.0\n")
        assert self.lint(str(target), "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "NUM001"

    def test_ignore_flag(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("x = y == 1.0\n")
        assert self.lint(str(target), "--ignore", "NUM001") == 0

    def test_unknown_rule_code_exits_two(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("x = y == 1.0\n")
        assert self.lint(str(target), "--select", "NUM01") == 2
        err = capsys.readouterr().err
        assert "NUM01" in err and "NUM001" in err

    def test_list_rules(self, capsys):
        assert self.lint("--list-rules") == 0
        out = capsys.readouterr().out
        for code in ("PRB001", "DET001", "NUM001", "EXC001", "TYP001", "ARG001"):
            assert code in out


class TestSuppressionTable:
    def test_justification_parsed_per_form(self):
        table = parse_suppressions(
            "# reprolint: disable-file=DET001 -- fixture entropy\n"
            "x = 1  # reprolint: disable=NUM001\n"
        )
        assert "DET001" in table.file_codes
        assert "DET001" in table.file_justified
        assert table.is_suppressed("NUM001", 2)
        assert not table.is_suppressed(
            "NUM001", 2, require_justification=True
        )
        assert table.is_suppressed(
            "DET001", 5, require_justification=True
        )

    def test_scope_pragma_binds_to_construct_extent(self):
        import ast as ast_module

        source = (
            "class Chain:  # reprolint: disable-scope=CON001 -- confined\n"
            "    def step(self):\n"
            "        self.total += 1\n"
            "        return self.total\n"
            "\n"
            "outside = 1\n"
        )
        table = parse_suppressions(source)
        table.bind_scopes(ast_module.parse(source))
        assert table.is_suppressed("CON001", 3)
        assert table.is_suppressed(
            "CON001", 3, require_justification=True
        )
        assert not table.is_suppressed("CON001", 6)

    def test_unbound_scope_pragma_degrades_to_line(self):
        table = parse_suppressions(
            "x = 1  # reprolint: disable-scope=NUM001\n"
        )
        # bind_scopes never runs (no def/class): the pragma still
        # suppresses its own line, nothing else.
        assert table.is_suppressed("NUM001", 1)
        assert not table.is_suppressed("NUM001", 2)
