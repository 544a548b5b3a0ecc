"""Unit tests for the typed query/answer objects."""

import pytest

from repro.core.errors import QueryError
from repro.core.queries import (
    PrefixAnswer,
    Query,
    QueryResult,
    RecordAnswer,
    SetAnswer,
)


class TestQueryValidation:
    def test_utop_rank_valid(self):
        q = Query(kind="utop_rank", i=1, j=5, l=2)
        assert (q.i, q.j, q.l) == (1, 5, 2)

    def test_utop_rank_invalid(self):
        with pytest.raises(QueryError):
            Query(kind="utop_rank", i=0, j=5)
        with pytest.raises(QueryError):
            Query(kind="utop_rank", i=3, j=2)
        with pytest.raises(QueryError):
            Query(kind="utop_rank", i=1, j=2, l=0)

    def test_utop_prefix_invalid(self):
        with pytest.raises(QueryError):
            Query(kind="utop_prefix", k=0)
        with pytest.raises(QueryError):
            Query(kind="utop_prefix", k=3, l=-1)

    def test_utop_set_invalid(self):
        with pytest.raises(QueryError):
            Query(kind="utop_set", k=0)

    def test_rank_agg_distance(self):
        # Rank-Agg is the footrule consensus (Theorem 2): the spec needs
        # no rank bounds and has no field to ask for another distance.
        assert Query(kind="rank_aggregation").k is None
        with pytest.raises(TypeError):
            Query(kind="rank_aggregation", distance="kendall")


class TestAnswers:
    def test_answers_are_frozen(self):
        answer = RecordAnswer("a", 0.5)
        with pytest.raises(AttributeError):
            answer.probability = 0.9  # type: ignore[misc]

    def test_prefix_answer_fields(self):
        answer = PrefixAnswer(("a", "b"), 0.25)
        assert answer.prefix == ("a", "b")

    def test_set_answer_fields(self):
        answer = SetAnswer(frozenset({"a", "b"}), 0.25)
        assert "a" in answer.members


class TestQueryResult:
    def test_top_returns_first(self):
        result = QueryResult(
            answers=[RecordAnswer("a", 0.9), RecordAnswer("b", 0.1)],
            method="exact",
            elapsed=0.01,
            database_size=10,
            pruned_size=5,
        )
        assert result.top.record_id == "a"

    def test_top_empty(self):
        result = QueryResult(
            answers=[], method="exact", elapsed=0.0,
            database_size=0, pruned_size=0,
        )
        assert result.top is None

    def test_to_dict_round_trips_through_json(self):
        import json

        from repro.core.queries import (
            PrefixAnswer,
            RankAggAnswer,
            SetAnswer,
        )

        result = QueryResult(
            answers=[
                RecordAnswer("a", 0.9),
                PrefixAnswer(("a", "b"), 0.5),
                SetAnswer(frozenset({"b", "a"}), 0.7),
                RankAggAnswer(("a", "b"), 1.5),
            ],
            method="exact",
            elapsed=0.01,
            database_size=5,
            pruned_size=3,
            error_bound=0.02,
            diagnostics={"converged": True},
        )
        encoded = json.dumps(result.to_dict())
        decoded = json.loads(encoded)
        assert decoded["method"] == "exact"
        assert decoded["answers"][0] == {
            "record_id": "a", "probability": 0.9,
        }
        assert decoded["answers"][2]["members"] == ["a", "b"]
        assert decoded["diagnostics"]["converged"] is True
