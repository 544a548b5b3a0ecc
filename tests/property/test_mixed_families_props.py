"""Property tests over databases mixing every exact density family."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    HistogramScore,
    MixtureScore,
    TriangularScore,
    UniformScore,
)
from repro.core.exact import ExactEvaluator
from repro.core.linext import enumerate_extensions, enumerate_prefixes
from repro.core.montecarlo import MonteCarloEvaluator
from repro.core.ppo import ProbabilisticPartialOrder
from repro.core.records import UncertainRecord, certain


@st.composite
def mixed_family_dbs(draw):
    """2-5 records drawing from all exact-capable families."""
    n = draw(st.integers(min_value=2, max_value=5))
    records = []
    for i in range(n):
        lo = draw(st.floats(min_value=0.0, max_value=10.0))
        width = draw(st.floats(min_value=0.5, max_value=6.0))
        family = draw(st.sampled_from(
            ["point", "uniform", "triangular", "histogram", "mixture"]
        ))
        rid = f"r{i}"
        if family == "point":
            records.append(certain(rid, lo))
        elif family == "uniform":
            records.append(
                UncertainRecord(rid, UniformScore(lo, lo + width))
            )
        elif family == "triangular":
            frac = draw(st.floats(min_value=0.0, max_value=1.0))
            records.append(
                UncertainRecord(
                    rid,
                    TriangularScore(lo, lo + frac * width, lo + width),
                )
            )
        elif family == "histogram":
            m1 = draw(st.floats(min_value=0.1, max_value=1.0))
            m2 = draw(st.floats(min_value=0.1, max_value=1.0))
            records.append(
                UncertainRecord(
                    rid,
                    HistogramScore(
                        [lo, lo + width / 2, lo + width], [m1, m2]
                    ),
                )
            )
        else:
            records.append(
                UncertainRecord(
                    rid,
                    MixtureScore(
                        [
                            UniformScore(lo, lo + width / 2),
                            UniformScore(lo + width / 4, lo + width),
                        ],
                        [1.0, 2.0],
                    ),
                )
            )
    return records


@given(mixed_family_dbs())
@settings(max_examples=30, deadline=None)
def test_extension_distribution_sums_to_one(records):
    evaluator = ExactEvaluator(records)
    ppo = ProbabilisticPartialOrder(records)
    total = sum(
        evaluator.extension_probability(ext)
        for ext in enumerate_extensions(ppo)
    )
    assert abs(total - 1.0) < 1e-6


@given(mixed_family_dbs())
@example(
    # The tie at 0.0 has no float above it below r2's score: the tie
    # ladder must step downward rather than onto r2.
    records=[certain("r0", 0.0), certain("r1", 0.0), certain("r2", 5e-324)]
)
@settings(max_examples=30, deadline=None)
def test_rank_matrix_doubly_stochastic(records):
    matrix = ExactEvaluator(records).rank_probability_matrix()
    assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-6)
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-6)


@given(mixed_family_dbs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_exact_matches_montecarlo(records, seed):
    evaluator = ExactEvaluator(records)
    sampler = MonteCarloEvaluator(records, rng=np.random.default_rng(seed))
    truth = evaluator.rank_probability_matrix()
    estimate = sampler.rank_probability_matrix(25_000)
    assert np.allclose(truth, estimate, atol=0.03)


@given(mixed_family_dbs())
@settings(max_examples=20, deadline=None)
def test_prefix_tree_conservation(records):
    """Each prefix's probability equals the sum of its extensions'."""
    evaluator = ExactEvaluator(records)
    ppo = ProbabilisticPartialOrder(records)
    k = min(2, len(records))
    for prefix in enumerate_prefixes(ppo, k):
        ids = tuple(r.record_id for r in prefix)
        aggregated = sum(
            evaluator.extension_probability(ext)
            for ext in enumerate_extensions(ppo)
            if tuple(r.record_id for r in ext[:k]) == ids
        )
        direct = evaluator.prefix_probability(prefix)
        assert abs(direct - aggregated) < 1e-7
