"""Property tests for the quadrature state oracle over mixed families."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import ExactEvaluator

from test_mixed_families_props import mixed_family_dbs


@given(mixed_family_dbs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_prefix_probabilities_sum_to_one(records, k):
    evaluator = ExactEvaluator(records)
    ids = [rec.record_id for rec in records]
    k = min(k, len(ids))
    total = sum(
        evaluator.prefix_probability(list(prefix))
        for prefix in itertools.permutations(ids, k)
    )
    assert abs(total - 1.0) < 1e-9


@given(mixed_family_dbs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_set_probabilities_sum_to_one(records, k):
    evaluator = ExactEvaluator(records)
    ids = [rec.record_id for rec in records]
    k = min(k, len(ids))
    total = sum(
        evaluator.top_set_probability(list(members))
        for members in itertools.combinations(ids, k)
    )
    assert abs(total - 1.0) < 1e-9


@given(mixed_family_dbs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_set_is_the_sum_of_its_orderings(records, k):
    evaluator = ExactEvaluator(records)
    ids = [rec.record_id for rec in records]
    k = min(k, len(ids))
    for members in itertools.combinations(ids, k):
        orderings = sum(
            evaluator.prefix_probability(list(order))
            for order in itertools.permutations(members)
        )
        direct = evaluator.top_set_probability(list(members))
        assert abs(direct - orderings) < 1e-9
