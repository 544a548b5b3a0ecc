"""Unit tests for the exact piecewise-polynomial probability engine."""

import itertools
import json
import os
import pathlib
import sys
import threading

import numpy as np
import pytest

from repro.core import exact as exact_module
from repro.core.distributions import (
    HistogramScore,
    MixtureScore,
    PointScore,
    TriangularScore,
    TruncatedGaussianScore,
    UniformScore,
)
from repro.core.errors import EvaluationError, ModelError, QueryError
from repro.core.exact import ExactEvaluator, supports_exact
from repro.core.linext import enumerate_extensions, enumerate_prefixes
from repro.core.pairwise import probability_greater
from repro.core.ppo import ProbabilisticPartialOrder
from repro.core.records import UncertainRecord, certain, uniform

from conftest import random_interval_db


class TestSupportsExact:
    def test_uniforms_and_points_supported(self, paper_db):
        assert supports_exact(paper_db)

    def test_gaussian_not_supported(self):
        rec = UncertainRecord("g", TruncatedGaussianScore(0, 1, -1, 1))
        assert not supports_exact([rec])
        with pytest.raises(EvaluationError):
            ExactEvaluator([rec])

    def test_approximated_gaussian_supported(self):
        smooth = TruncatedGaussianScore(0, 1, -1, 1)
        rec = UncertainRecord("g", smooth.piecewise_approximation(64))
        assert supports_exact([rec])
        ExactEvaluator([rec, certain("c", 0.5)])


class TestExtensionProbability:
    def test_paper_example_probabilities(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}

        def prob(*ids):
            return evaluator.extension_probability([by_id[i] for i in ids])

        # Exact values; the paper's Fig. 4 shows Monte-Carlo estimates
        # 0.418 / 0.02 / 0.063 / 0.24 / 0.01 of these.
        assert prob("t5", "t1", "t2", "t3", "t4", "t6") == pytest.approx(
            0.41666667, abs=1e-6
        )
        assert prob("t5", "t1", "t2", "t4", "t3", "t6") == pytest.approx(
            0.02083333, abs=1e-6
        )
        assert prob("t5", "t1", "t3", "t2", "t4", "t6") == pytest.approx(
            0.0625, abs=1e-6
        )
        assert prob("t5", "t2", "t1", "t3", "t4", "t6") == pytest.approx(
            0.23958333, abs=1e-6
        )
        assert prob("t2", "t5", "t1", "t4", "t3", "t6") == pytest.approx(
            0.01041667, abs=1e-6
        )

    def test_probabilities_sum_to_one(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        total = sum(
            evaluator.extension_probability(ext)
            for ext in enumerate_extensions(ppo)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_intro_example(self, intro_db):
        evaluator = ExactEvaluator(intro_db)
        by_id = {r.record_id: r for r in intro_db}

        def prob(*ids):
            return evaluator.extension_probability([by_id[i] for i in ids])

        # The paper rounds these to 0.25/0.2/0.05; exact values below.
        assert prob("a1", "a2", "a3") == pytest.approx(0.24166667, abs=1e-6)
        assert prob("a1", "a3", "a2") == pytest.approx(0.20416667, abs=1e-6)
        assert prob("a2", "a1", "a3") == pytest.approx(0.05416667, abs=1e-6)
        assert prob("a2", "a3", "a1") == pytest.approx(0.20416667, abs=1e-6)
        assert prob("a3", "a1", "a2") == pytest.approx(0.05416667, abs=1e-6)
        assert prob("a3", "a2", "a1") == pytest.approx(0.24166667, abs=1e-6)

    def test_invalid_extension_raises(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        with pytest.raises(QueryError):
            evaluator.extension_probability(paper_db[:3])
        with pytest.raises(QueryError):
            evaluator.extension_probability(paper_db[:1] * 6)

    def test_impossible_ordering_has_zero_probability(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}
        order = [by_id[i] for i in ("t6", "t5", "t1", "t2", "t3", "t4")]
        assert evaluator.extension_probability(order) == pytest.approx(0.0)


class TestPrefixProbability:
    def test_paper_prefix(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}
        prefix = [by_id["t5"], by_id["t1"], by_id["t2"]]
        assert evaluator.prefix_probability(prefix) == pytest.approx(0.4375)

    def test_prefix_equals_sum_of_extensions(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        for prefix in enumerate_prefixes(ppo, 3):
            prefix_ids = tuple(r.record_id for r in prefix)
            total = sum(
                evaluator.extension_probability(ext)
                for ext in enumerate_extensions(ppo)
                if tuple(r.record_id for r in ext[:3]) == prefix_ids
            )
            assert evaluator.prefix_probability(prefix) == pytest.approx(
                total, abs=1e-9
            )

    def test_empty_prefix_is_certain(self, paper_db):
        assert ExactEvaluator(paper_db).prefix_probability([]) == 1.0

    def test_full_length_prefix_equals_extension(self, intro_db):
        evaluator = ExactEvaluator(intro_db)
        for perm in itertools.permutations(intro_db):
            assert evaluator.prefix_probability(perm) == pytest.approx(
                evaluator.extension_probability(perm), abs=1e-9
            )

    def test_duplicate_in_prefix_rejected(self, paper_db):
        with pytest.raises(QueryError):
            ExactEvaluator(paper_db).prefix_probability(
                [paper_db[0], paper_db[0]]
            )


class TestTopSetProbability:
    def test_paper_set(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}
        members = [by_id["t1"], by_id["t2"], by_id["t5"]]
        assert evaluator.top_set_probability(members) == pytest.approx(0.9375)

    def test_set_equals_sum_over_prefix_orderings(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        by_id = {r.record_id: r for r in paper_db}
        members = [by_id["t1"], by_id["t2"], by_id["t5"]]
        total = sum(
            evaluator.prefix_probability(perm)
            for perm in itertools.permutations(members)
        )
        assert evaluator.top_set_probability(members) == pytest.approx(
            total, abs=1e-9
        )

    def test_set_probabilities_sum_to_one(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        sets = {
            frozenset(r.record_id for r in p)
            for p in enumerate_prefixes(ppo, 3)
        }
        total = sum(evaluator.top_set_probability(s) for s in sets)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_whole_database_is_certain_top_set(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        assert evaluator.top_set_probability(paper_db) == pytest.approx(1.0)


class TestRankProbabilities:
    def test_rows_sum_to_one(self, paper_db):
        matrix = ExactEvaluator(paper_db).rank_probability_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_columns_sum_to_one(self, paper_db):
        matrix = ExactEvaluator(paper_db).rank_probability_matrix()
        assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-9)

    def test_paper_rank_range(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        assert evaluator.rank_range_probability("t5", 1, 2) == pytest.approx(
            1.0
        )

    def test_rank_probs_match_extension_aggregation(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        ppo = ProbabilisticPartialOrder(paper_db)
        extensions = list(enumerate_extensions(ppo))
        probs = [evaluator.extension_probability(e) for e in extensions]
        for rec in paper_db:
            for rank in range(1, 7):
                aggregated = sum(
                    p
                    for ext, p in zip(extensions, probs)
                    if ext[rank - 1].record_id == rec.record_id
                )
                assert evaluator.rank_probabilities(rec)[
                    rank - 1
                ] == pytest.approx(aggregated, abs=1e-9)

    def test_max_rank_truncation(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        full = evaluator.rank_probabilities("t2")
        truncated = evaluator.rank_probabilities("t2", max_rank=3)
        assert np.allclose(full[:3], truncated)

    def test_invalid_rank_range(self, paper_db):
        evaluator = ExactEvaluator(paper_db)
        with pytest.raises(QueryError):
            evaluator.rank_range_probability("t1", 0, 2)
        with pytest.raises(QueryError):
            evaluator.rank_range_probability("t1", 3, 2)

    def test_unknown_record_rejected(self, paper_db):
        with pytest.raises(QueryError):
            ExactEvaluator(paper_db).rank_probabilities("zz")


class TestDeterministicTies:
    def test_tied_points_ordered_by_tau(self):
        records = [certain("a", 5.0), certain("b", 5.0), certain("c", 1.0)]
        evaluator = ExactEvaluator(records)
        assert evaluator.extension_probability(records) == pytest.approx(
            1.0, abs=1e-6
        )
        swapped = [records[1], records[0], records[2]]
        assert evaluator.extension_probability(swapped) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_tied_points_with_overlapping_interval(self):
        records = [certain("a", 5.0), certain("b", 5.0), uniform("u", 4.0, 6.0)]
        evaluator = ExactEvaluator(records)
        ppo = ProbabilisticPartialOrder(records)
        total = sum(
            evaluator.extension_probability(ext)
            for ext in enumerate_extensions(ppo)
        )
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_tie_survives_gap_below_float_resolution(self):
        # The smallest gap (1e-105) is far below the ulp at 1.0, so a
        # ladder scaled from it would round back onto the tie.
        records = [
            certain("r0", 1e-105),
            certain("r1", 0.0),
            certain("r2", 1.0),
            certain("r3", 1.0),
        ]
        matrix = ExactEvaluator(records).rank_probability_matrix()
        expected = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
            dtype=float,
        )
        assert np.array_equal(matrix, expected)

    def test_tie_without_room_above_steps_down(self):
        # No float lies strictly between the tie at 0.0 and r2's score:
        # an upward ladder would land r0 on r2.
        records = [certain("r0", 0.0), certain("r1", 0.0), certain("r2", 5e-324)]
        matrix = ExactEvaluator(records).rank_probability_matrix()
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        assert np.array_equal(matrix, expected)

    def test_tie_without_room_on_either_side_raises(self):
        records = [
            certain("b", 0.0),
            certain("a", 0.0),
            certain("hi", 5e-324),
            certain("lo", -5e-324),
        ]
        with pytest.raises(ModelError, match=r"\['a', 'b'\]"):
            ExactEvaluator(records)


def _memo_db():
    """Overlapping intervals plus tied point scores (a perturbed tie)."""
    return [
        uniform("a", 0.0, 4.0),
        certain("b", 2.0),
        uniform("c", 1.0, 3.0),
        certain("d", 2.0),
        uniform("e", 1.5, 5.0),
        uniform("f", 0.5, 2.5),
        certain("g", 3.0),
    ]


def _states(records):
    """Every 2-prefix and 3-set, as ``(method name, key)`` pairs."""
    ids = [rec.record_id for rec in records]
    prefixes = [
        ("prefix_probability", list(p)) for p in itertools.permutations(ids, 2)
    ]
    sets = [
        ("top_set_probability", list(c)) for c in itertools.combinations(ids, 3)
    ]
    return prefixes + sets


def _fresh_values(records):
    """Each state answered by its own cold evaluator."""
    return [
        getattr(ExactEvaluator(records), method)(key)
        for method, key in _states(records)
    ]


class TestOracleMemo:
    """The lazily built node grid never changes an answer bit."""

    def test_warm_memo_in_another_order_matches_fresh(self):
        records = _memo_db()
        states = _states(records)
        fresh = _fresh_values(records)
        warm = ExactEvaluator(records)
        order = np.random.default_rng(4).permutation(len(states))
        got = {}
        for i in order:
            method, key = states[i]
            if method == "top_set_probability":
                key = list(reversed(key))
            got[i] = getattr(warm, method)(key)
        assert [got[i] for i in range(len(states))] == fresh
        assert warm._grid is not None

    @pytest.mark.parametrize("queries", [5, 512])
    def test_concurrent_callers_get_the_serial_values(
        self, monkeypatch, queries
    ):
        # More threads than cores and a tiny switch interval, so the
        # first calls race to build the grid; an unlocked build would
        # run more than once. A short burst per thread races mostly on
        # the build, a long one also interleaves reads of the built grid.
        records = _memo_db()
        states = _states(records)
        serial = _fresh_values(records)
        builds = []
        grid_class = exact_module._NodeGrid

        def counting_grid(evaluator):
            builds.append(evaluator)
            return grid_class(evaluator)

        monkeypatch.setattr(exact_module, "_NodeGrid", counting_grid)
        shared = ExactEvaluator(records)
        workers = 2 * (os.cpu_count() or 2)
        picks = [
            np.random.default_rng(w).integers(len(states), size=queries)
            for w in range(workers)
        ]
        results = [None] * workers
        barrier = threading.Barrier(workers)

        def hammer(worker):
            barrier.wait()
            results[worker] = [
                getattr(shared, states[i][0])(states[i][1])
                for i in picks[worker]
            ]

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[serial[i] for i in pick] for pick in picks]
        assert builds == [shared]

    def test_eta_and_states_share_one_grid(self, monkeypatch):
        builds = []
        grid_class = exact_module._NodeGrid

        def counting_grid(evaluator):
            builds.append(evaluator)
            return grid_class(evaluator)

        monkeypatch.setattr(exact_module, "_NodeGrid", counting_grid)
        evaluator = ExactEvaluator(_memo_db())
        evaluator.rank_probability_matrix(max_rank=2)
        evaluator.prefix_probability(["a", "b"])
        assert builds == [evaluator]


PARITY = pathlib.Path(__file__).parent / "data" / "exact_oracle_parity.json"


def _parity_score(spec):
    family = spec["family"]
    params = spec.get("params")
    if family == "point":
        return PointScore(*params)
    if family == "uniform":
        return UniformScore(*params)
    if family == "triangular":
        return TriangularScore(*params)
    if family == "histogram":
        return HistogramScore(spec["edges"], spec["masses"])
    if family == "mixture":
        return MixtureScore(
            [_parity_score(c) for c in spec["components"]], spec["weights"]
        )
    assert family == "gaussian_approx"
    return TruncatedGaussianScore(*params).piecewise_approximation(
        spec["segments"]
    )


def _parity_tables():
    tables = json.loads(PARITY.read_text())["tables"]
    return [pytest.param(table, id=name) for name, table in tables.items()]


def _parity_records(table):
    return [
        UncertainRecord(spec["id"], _parity_score(spec))
        for spec in table["records"]
    ]


class TestQuadratureParity:
    """The quadrature oracle against the symbolic algebra it replaced."""

    METHODS = {
        "prefix": "prefix_probability",
        "set": "top_set_probability",
        "extension": "extension_probability",
        "eta": "rank_probabilities",
    }

    @pytest.mark.parametrize("table", _parity_tables())
    def test_matches_symbolic_values(self, table):
        evaluator = ExactEvaluator(_parity_records(table))
        kinds = set()
        for kind, key, expected in table["states"]:
            kinds.add(kind)
            got = getattr(evaluator, self.METHODS[kind])(key)
            assert np.max(np.abs(got - np.asarray(expected))) <= 1e-12, (
                kind,
                key,
            )
        assert kinds == set(self.METHODS)

    @pytest.mark.parametrize("table", _parity_tables())
    def test_shallow_eta_is_a_slice_of_the_full_matrix(self, table):
        records = _parity_records(table)
        full = ExactEvaluator(records).rank_probability_matrix()
        shallow = ExactEvaluator(records).rank_probability_matrix(max_rank=2)
        assert np.array_equal(shallow, full[:, :2])

    def test_eta_matches_high_precision_reference(self):
        # 16 uniforms of width 30 at offsets of 0.1: the symbolic DP
        # missed this 40-digit reference by up to 1e-11.
        reference = json.loads(PARITY.read_text())["eta_reference"]
        expected = np.array(reference["eta"], dtype=float)
        matrix = ExactEvaluator(
            _parity_records(reference)
        ).rank_probability_matrix()
        assert np.max(np.abs(matrix - expected)) <= 1e-15
        assert np.max(np.abs(matrix.sum(axis=0) - 1.0)) <= 1e-14
        assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) <= 1e-14

    def test_integration_matrix_is_exact_at_its_degree(self):
        for m in (1, 2, 5, 12, 40):
            t, w, integ = exact_module._legendre_rule(m)
            for degree in range(m):
                running = integ @ t**degree
                exact = (t ** (degree + 1) - (-1.0) ** (degree + 1)) / (
                    degree + 1
                )
                assert np.allclose(running, exact, rtol=0, atol=1e-13)
            assert abs(w.sum() - 2.0) < 1e-13


class TestPairwiseConsistency:
    def test_matches_pairwise_module(self):
        records = random_interval_db(np.random.default_rng(9), 12)
        evaluator = ExactEvaluator(records)
        for a, b in itertools.combinations(records, 2):
            assert evaluator.probability_greater(a, b) == pytest.approx(
                probability_greater(a, b), abs=1e-9
            )
