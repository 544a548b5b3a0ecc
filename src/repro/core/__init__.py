"""Core model and query-evaluation algorithms of the reproduction.

Re-exports the main public names so ``repro.core`` is usable directly.
"""

from .distributions import (
    ConvolutionScore,
    DiscreteScore,
    HistogramScore,
    MixtureScore,
    PointScore,
    SamplingPlan,
    ScoreDistribution,
    TriangularScore,
    TruncatedExponentialScore,
    TruncatedGaussianScore,
    UniformScore,
    build_sampling_plan,
)
from .errors import (
    ConvergenceError,
    EvaluationError,
    InjectedFault,
    ModelError,
    QueryError,
    ReproError,
)
from .numeric import wilson_half_width
from .analysis import (
    comparability_ratio,
    expected_ranks,
    most_uncertain_pairs,
    rank_entropies,
    rank_variances,
    uncertainty_summary,
)
from .baseline import BaselineAlgorithm, BaselineStats
from .budget import Budget, CancellationToken, SampleCounts
from .cache import (
    CacheStats,
    ComputationCache,
    RankCountStore,
    fingerprint_records,
    shared_cache,
)
from .chaos import (
    FaultInjector,
    FaultSchedule,
    FaultyDistribution,
    FaultyOracle,
    crashing_evaluator,
)
from .correlation import CorrelatedMonteCarloEvaluator, GaussianCopula
from .diagnostics import ConvergenceTrace, gelman_rubin
from .engine import RankingEngine
from .exact import ExactEvaluator, supports_exact
from .mcmc import (
    MCMCResult,
    MetropolisHastingsChain,
    TopKSimulation,
    prefix_probability_upper_bound,
    set_probability_upper_bound,
)
from .metrics import (
    MetricsRegistry,
    active_registry,
    global_registry,
    use_registry,
)
from .montecarlo import MonteCarloEvaluator, compile_plan
from .naive import expected_score_ranking, mode_aggregation_ranking
from .parallel import resolve_workers
from .pairwise import PairwiseCache, probability_greater
from .queries import (
    DegradationEvent,
    PrefixAnswer,
    Query,
    QueryResult,
    RankAggAnswer,
    RecordAnswer,
    SetAnswer,
)
from .rank_agg import (
    empirical_rank_matrix,
    footrule_distance,
    kendall_tau_distance,
    optimal_rank_aggregation,
)
from .piecewise import PiecewisePolynomial
from .ppo import ProbabilisticPartialOrder, dominates
from .pruning import ShrinkResult, shrink_database, upper_bound_list
from .records import UncertainRecord, certain, tie_break, uniform
from .trace import (
    Span,
    current_span,
    render_trace,
    span,
)
from .validation import ValidationIssue, validate_distribution, validate_records

__all__ = [
    "BaselineAlgorithm",
    "BaselineStats",
    "Budget",
    "CacheStats",
    "CancellationToken",
    "ComputationCache",
    "RankCountStore",
    "fingerprint_records",
    "shared_cache",
    "ConvergenceError",
    "ConvergenceTrace",
    "ConvolutionScore",
    "CorrelatedMonteCarloEvaluator",
    "GaussianCopula",
    "DegradationEvent",
    "EvaluationError",
    "ExactEvaluator",
    "FaultInjector",
    "FaultSchedule",
    "FaultyDistribution",
    "FaultyOracle",
    "InjectedFault",
    "MCMCResult",
    "MetropolisHastingsChain",
    "MetricsRegistry",
    "MonteCarloEvaluator",
    "SampleCounts",
    "SamplingPlan",
    "build_sampling_plan",
    "resolve_workers",
    "PrefixAnswer",
    "Query",
    "QueryResult",
    "RankAggAnswer",
    "RankingEngine",
    "RecordAnswer",
    "SetAnswer",
    "TopKSimulation",
    "empirical_rank_matrix",
    "expected_ranks",
    "expected_score_ranking",
    "footrule_distance",
    "gelman_rubin",
    "kendall_tau_distance",
    "mode_aggregation_ranking",
    "most_uncertain_pairs",
    "optimal_rank_aggregation",
    "prefix_probability_upper_bound",
    "rank_entropies",
    "rank_variances",
    "set_probability_upper_bound",
    "uncertainty_summary",
    "HistogramScore",
    "MixtureScore",
    "ModelError",
    "PairwiseCache",
    "PiecewisePolynomial",
    "DiscreteScore",
    "PointScore",
    "ProbabilisticPartialOrder",
    "QueryError",
    "ReproError",
    "ScoreDistribution",
    "ShrinkResult",
    "TriangularScore",
    "TruncatedExponentialScore",
    "TruncatedGaussianScore",
    "UncertainRecord",
    "UniformScore",
    "certain",
    "comparability_ratio",
    "compile_plan",
    "crashing_evaluator",
    "dominates",
    "probability_greater",
    "shrink_database",
    "supports_exact",
    "tie_break",
    "uniform",
    "upper_bound_list",
    "wilson_half_width",
    "ValidationIssue",
    "validate_distribution",
    "validate_records",
    "Span",
    "active_registry",
    "current_span",
    "global_registry",
    "render_trace",
    "span",
    "use_registry",
]
