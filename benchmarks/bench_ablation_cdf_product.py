"""Ablation — Eq. 6's CDF-product shortcut vs naive alternatives.

The paper improves prefix-probability computation by folding all
remaining records into a single CDF product (Eq. 6) instead of
expanding the space below the prefix. This bench compares, for one
prefix:

1. exact Eq. 6 (CDF product, Gauss–Legendre quadrature on the
   evaluator's node grid),
2. exact summation over all completions of the prefix (no shortcut),
3. Monte-Carlo sequential importance sampling (CDF-product weights
   after conditional prefix draws),
4. plain indicator-frequency Monte-Carlo,

checking they agree and timing each.
"""

import time

import numpy as np
import pytest

from repro.core.exact import ExactEvaluator
from repro.core.linext import enumerate_extensions, enumerate_prefixes
from repro.core.montecarlo import MonteCarloEvaluator
from repro.core.ppo import ProbabilisticPartialOrder
from repro.core.pruning import shrink_database
from repro.datasets.synthetic import synthetic_records

from conftest import emit


@pytest.fixture(scope="module")
def workload():
    pool = synthetic_records("gaussian", 240, uncertain_fraction=0.6, seed=8)
    kept = shrink_database(pool, 4).kept
    kept.sort(key=lambda r: (-r.upper, r.record_id))
    records = kept[:9]
    evaluator = ExactEvaluator(records)
    ppo = ProbabilisticPartialOrder(records)
    # The most probable 3-prefix as the shared target.
    best = max(
        (tuple(p) for p in enumerate_prefixes(ppo, 3)),
        key=lambda p: evaluator.prefix_probability(p),
    )
    return records, evaluator, ppo, list(best)


def _sum_over_completions(evaluator, ppo, prefix):
    """Exact prefix probability without Eq. 6: sum all completions."""
    ids = tuple(r.record_id for r in prefix)
    total = 0.0
    for ext in enumerate_extensions(ppo):
        if tuple(r.record_id for r in ext[: len(ids)]) == ids:
            total += evaluator.extension_probability(ext)
    return total


@pytest.mark.benchmark(group="ablation-cdf-product")
def test_estimators_agree_and_report(benchmark, workload):
    records, evaluator, ppo, prefix = workload
    sampler = MonteCarloEvaluator(records, rng=np.random.default_rng(1))
    timings = []

    start = time.perf_counter()
    truth = benchmark.pedantic(
        evaluator.prefix_probability, args=(prefix,), rounds=1, iterations=1
    )
    timings.append(("exact Eq.6 (CDF product)", truth, time.perf_counter() - start))

    start = time.perf_counter()
    no_shortcut = _sum_over_completions(evaluator, ppo, prefix)
    timings.append(
        ("exact sum over completions", no_shortcut, time.perf_counter() - start)
    )

    for name, fn in (
        ("MC sequential importance", sampler.prefix_probability_sis),
        ("MC indicator frequency", sampler.prefix_probability),
    ):
        start = time.perf_counter()
        value = fn(prefix, 20_000)
        timings.append((name, value, time.perf_counter() - start))

    emit(
        "Ablation — prefix-probability computation strategies",
        ["strategy", "probability", "seconds"],
        timings,
    )
    assert no_shortcut == pytest.approx(truth, abs=1e-9)
    for _name, value, _elapsed in timings:
        assert value == pytest.approx(truth, abs=0.02)


@pytest.mark.benchmark(group="ablation-cdf-product")
def test_eq6_speed(benchmark, workload):
    _records, evaluator, _ppo, prefix = workload
    benchmark(evaluator.prefix_probability, prefix)


@pytest.mark.benchmark(group="ablation-cdf-product")
def test_no_shortcut_speed(benchmark, workload):
    _records, evaluator, ppo, prefix = workload
    benchmark.pedantic(
        _sum_over_completions,
        args=(evaluator, ppo, prefix),
        rounds=1,
        iterations=1,
    )
