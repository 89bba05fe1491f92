"""Exact multiple-logarithm number families.

Truncated rational power series, the multiple logarithm, classical and
multi-indexed Stirling/Bernoulli/Lah numbers, their probabilistic
extensions for a random variable given by exact moments, and a
mechanical verifier for the identities connecting them.
"""

from .series import Series, exp_t, geometric, neg_log1m
from .multilog import index_tuple, multi_stirling1, multilog
from .classical import bernoulli_higher, bernoulli_higher_series, lah, stirling1, stirling2
from .moments import (
    DistributionSpec,
    MomentSequence,
    bernoulli,
    binomial,
    finite,
    geometric as geometric_dist,
    mgf,
    moments,
    parse_distribution,
    point,
    poisson,
    raw_moments,
    resolvent,
    sum_power_moment,
)
from .multi import (
    multi_bernoulli,
    multi_bernoulli_series,
    multi_lah,
    multi_lah_series,
    multi_stirling2,
    multi_stirling2_series,
)
from .probabilistic import (
    prob_fubini,
    prob_fubini_series,
    prob_lah,
    prob_lah_series,
    prob_multi_lah,
    prob_multi_lah_series,
    prob_multi_stirling2,
    prob_multi_stirling2_series,
    prob_stirling2,
    prob_stirling2_by_moments,
    prob_stirling2_series,
)
from .report import Mismatch, VerificationReport
from .identities import (
    ALL_IDENTITIES,
    IDENTITIES,
    check_append_one_deterministic,
    check_derivative_rules,
    default_grid,
    run_full_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Series",
    "exp_t",
    "geometric",
    "neg_log1m",
    "index_tuple",
    "multilog",
    "multi_stirling1",
    "check_derivative_rules",
    "stirling1",
    "stirling2",
    "lah",
    "bernoulli_higher",
    "bernoulli_higher_series",
    "MomentSequence",
    "DistributionSpec",
    "point",
    "bernoulli",
    "binomial",
    "poisson",
    "geometric_dist",
    "finite",
    "raw_moments",
    "parse_distribution",
    "moments",
    "mgf",
    "resolvent",
    "sum_power_moment",
    "multi_stirling2",
    "multi_stirling2_series",
    "multi_bernoulli",
    "multi_bernoulli_series",
    "multi_lah",
    "multi_lah_series",
    "check_append_one_deterministic",
    "prob_stirling2",
    "prob_stirling2_series",
    "prob_stirling2_by_moments",
    "prob_multi_stirling2",
    "prob_multi_stirling2_series",
    "prob_lah",
    "prob_lah_series",
    "prob_multi_lah",
    "prob_multi_lah_series",
    "prob_fubini",
    "prob_fubini_series",
    "Mismatch",
    "VerificationReport",
    "ALL_IDENTITIES",
    "IDENTITIES",
    "default_grid",
    "run_full_suite",
]
