"""Unit tests for the span-tree tracing subsystem and its CLI."""

import io
import json
import sys
import threading
import time

import pytest

from repro.core.engine import RankingEngine
from repro.core.records import certain, uniform
from repro.core.trace import (
    Span,
    accumulate,
    activate,
    annotate,
    current_span,
    render_trace,
    span,
    span_under,
    summarize_stages,
    walk_spans,
)
from repro.trace import main as trace_main


def _db():
    return [
        certain("a", 9.0),
        uniform("b", 5.0, 8.0),
        uniform("c", 4.0, 7.0),
    ]


class TestSpan:
    def test_lifecycle_and_timings(self):
        node = Span("work", kind="test")
        time.sleep(0.001)
        assert not node.ended
        live = node.wall
        assert live > 0
        node.end()
        assert node.ended
        frozen = node.wall
        assert frozen >= live
        # end() is idempotent: the first call wins.
        node.end()
        assert node.wall == frozen
        assert node.cpu >= 0

    def test_concurrent_spans_report_their_own_thread_cpu(self):
        spans = [None, None]
        barrier = threading.Barrier(3)

        def burn(slot):
            barrier.wait()
            node = Span(f"burn{slot}")
            total = 0
            for i in range(400_000):
                total += i * i
            node.end()
            spans[slot] = node

        threads = [threading.Thread(target=burn, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        started = time.process_time()
        barrier.wait()
        for thread in threads:
            thread.join()
        process = time.process_time() - started
        for node in spans:
            assert 0.0 < node.cpu < 0.75 * process

    def test_span_ended_on_another_thread_reads_its_opener_clock(self):
        node = Span("opened here")
        mine = time.thread_time()
        ender = threading.Thread(target=node.end)
        ender.start()
        ender.join()
        assert 0.0 <= node.cpu <= time.thread_time() - mine + 0.01

    def test_credited_cpu_replaces_the_opener_clock(self):
        node = Span("chain")
        node.credit_cpu(0.25)
        node.credit_cpu(0.5)
        node.end()
        assert node.cpu == 0.75
        assert node.to_dict()["cpu_seconds"] == 0.75

    def test_concurrent_credits_are_not_lost(self):
        node = Span("chain")

        def credit():
            for _ in range(20_000):
                node.credit_cpu(0.5)

        threads = [threading.Thread(target=credit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert node.cpu == 8 * 20_000 * 0.5

    def test_mcmc_chain_spans_carry_their_pool_threads_cpu(self):
        # Chain spans open on the dispatching thread, but the chains
        # step on the pool's two threads: without credited CPU a chain
        # span reported the idle dispatcher's clock, about a quarter of
        # the pool threads' CPU instead of about 90%. The reference is
        # CPU, not wall time, so a slow or busy host moves both sides.
        engine = RankingEngine(
            [uniform(f"u{i:02d}", i * 0.5, i * 0.5 + 30.0) for i in range(12)],
            seed=0,
            workers=2,
            mcmc_chains=2,
            trace=True,
        )
        process_begun, thread_begun = time.process_time(), time.thread_time()
        try:
            result = engine.utop_prefix(3, method="mcmc")
        finally:
            engine.close()
        pool_cpu = (time.process_time() - process_begun) - (
            time.thread_time() - thread_begun
        )
        dump = result.trace.to_dict()
        chains = [n for n in walk_spans(dump) if n["name"] == "chain"]
        assert len(chains) == 2
        chain_cpu = sum(node["cpu_seconds"] for node in chains)
        assert chain_cpu >= pool_cpu / 2

    def test_attributes_set_and_add(self):
        node = Span("work")
        node.set(records=3)
        node.set(records=4, outcome="ok")
        node.add("hits")
        node.add("hits", 2)
        assert node.attributes == {
            "records": 4,
            "outcome": "ok",
            "hits": 3,
        }

    def test_children_attach_thread_safely(self):
        root = Span("root")

        def attach(i):
            for _ in range(50):
                root.child("leaf", worker=i).end()

        threads = [
            threading.Thread(target=attach, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(root.children) == 200

    def test_to_dict_schema(self):
        root = Span("query", kind="utop_rank")
        root.child("prune", level=2).end()
        root.end()
        dump = root.to_dict()
        assert set(dump) == {
            "name",
            "wall_seconds",
            "cpu_seconds",
            "attributes",
            "children",
        }
        assert dump["name"] == "query"
        assert dump["attributes"] == {"kind": "utop_rank"}
        (child,) = dump["children"]
        assert child["name"] == "prune"
        assert child["children"] == []
        # Round-trips through JSON without a custom encoder.
        assert json.loads(json.dumps(dump)) == dump


class TestActiveSpanHelpers:
    def test_span_is_noop_without_active_root(self):
        assert current_span() is None
        with span("stage") as node:
            assert node is None
        annotate(ignored=1)
        accumulate("ignored")
        assert current_span() is None

    def test_span_nests_under_activated_root(self):
        root = Span("query")
        with activate(root):
            assert current_span() is root
            with span("stage", step=1) as stage:
                assert stage is not None
                assert current_span() is stage
                annotate(outcome="ok")
                accumulate("items", 5)
            assert stage.ended
        assert current_span() is None
        assert root.children == [stage]
        assert stage.attributes == {
            "step": 1,
            "outcome": "ok",
            "items": 5,
        }

    def test_activate_none_is_noop(self):
        with activate(None) as node:
            assert node is None
            with span("stage") as stage:
                assert stage is None

    def test_span_under_crosses_threads(self):
        root = Span("query")
        with activate(root):
            parent = current_span()
        seen = {}

        def worker():
            # Worker threads start with a fresh context...
            seen["before"] = current_span()
            with span_under(parent, "block", block=0) as child:
                seen["inside"] = current_span()
                seen["child"] = child

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["before"] is None
        assert seen["inside"] is seen["child"]
        assert root.children == [seen["child"]]
        assert seen["child"].ended

    def test_span_under_none_parent_is_noop(self):
        with span_under(None, "block") as child:
            assert child is None


class TestRenderTrace:
    def test_render_lines_and_percentages(self):
        root = Span("query", kind="utop_rank")
        stage = root.child("prune", level=2)
        stage.end()
        root.end()
        text = render_trace(root.to_dict())
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("query")
        assert "100.0%" in lines[0]
        assert "kind=utop_rank" in lines[0]
        assert lines[1].startswith("  prune")
        assert "level=2" in lines[1]

    def test_render_zero_wall_root(self):
        text = render_trace(
            {
                "name": "query",
                "wall_seconds": 0.0,
                "cpu_seconds": 0.0,
                "attributes": {},
                "children": [],
            }
        )
        assert "-" in text


class TestSummarizeStages:
    def test_summary_fields(self):
        stats = summarize_stages(
            {"montecarlo": [0.3, 0.1, 0.2], "prune": [0.05]}
        )
        mc = stats["montecarlo"]
        assert mc.count == 3
        assert mc.total_seconds == pytest.approx(0.6)
        assert mc.p50_seconds == pytest.approx(0.2)
        assert mc.max_seconds == pytest.approx(0.3)
        assert stats["prune"].count == 1


class TestTraceCli:
    def test_renders_queryresult_dump(self, tmp_path, capsys):
        engine = RankingEngine(_db(), seed=0)
        result = engine.utop_rank(1, 2, trace=True)
        path = tmp_path / "trace.json"
        path.write_text(result.to_json())
        assert trace_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("query")
        assert "prune" in out

    def test_renders_bare_span_dump(self, tmp_path, capsys):
        root = Span("query")
        root.end()
        path = tmp_path / "span.json"
        path.write_text(json.dumps(root.to_dict()))
        assert trace_main([str(path)]) == 0
        assert capsys.readouterr().out.startswith("query")

    def test_missing_trace_key_errors(self, tmp_path, capsys):
        engine = RankingEngine(_db(), seed=0)
        result = engine.utop_rank(1, 2)  # tracing off
        path = tmp_path / "notrace.json"
        path.write_text(result.to_json())
        assert trace_main([str(path)]) == 2
        assert "trace=True" in capsys.readouterr().err

    def test_stdin_is_the_default_argument(self, monkeypatch, capsys):
        engine = RankingEngine(_db(), seed=0)
        result = engine.utop_rank(1, 2, trace=True)
        monkeypatch.setattr("sys.stdin", io.StringIO(result.to_json()))
        assert trace_main([]) == 0
        assert capsys.readouterr().out.startswith("query")

    def test_stdin_renders_server_response_wrapper(
        self, monkeypatch, capsys
    ):
        # A /query response nests the QueryResult under "result"; the
        # CLI must dig the span tree out so `curl | python -m
        # repro.trace` works verbatim.
        engine = RankingEngine(_db(), seed=0)
        result = engine.utop_rank(1, 2, trace=True)
        response = {
            "result": json.loads(result.to_json()),
            "serve": {"role": "leader"},
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(response)))
        assert trace_main([]) == 0
        assert capsys.readouterr().out.startswith("query")

    def test_unreadable_and_invalid_inputs(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert trace_main([str(bad)]) == 2
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42")
        assert trace_main([str(scalar)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "not valid JSON" in err


@pytest.mark.bench
def test_traced_query_span_schema_smoke():
    """Tier-1 smoke: a traced query exports a valid JSON span tree."""
    engine = RankingEngine(_db(), seed=0, trace=True)
    result = engine.utop_rank(1, 2)
    dump = result.trace.to_dict()

    def check(node):
        assert isinstance(node["name"], str)
        assert isinstance(node["wall_seconds"], float)
        assert isinstance(node["cpu_seconds"], float)
        assert isinstance(node["attributes"], dict)
        assert isinstance(node["children"], list)
        for child in node["children"]:
            check(child)

    check(dump)
    assert dump["name"] == "query"
    assert dump["attributes"]["kind"] == "utop_rank"
    # The tree survives a JSON round-trip losslessly.
    assert json.loads(json.dumps(dump)) == dump
