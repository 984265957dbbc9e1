"""Probability and statistics substrate.

Implements the tail bounds the paper's analysis relies on (Appendix A),
streaming statistics collectors used by the simulation engine, confidence
intervals for the experiment harness, empirical stochastic-dominance tests
for validating the coupling lemmas, and occupancy (empty-bin) formulas.
"""

from repro.stats.association import (
    empty_bin_indicators,
    pairwise_covariance_report,
)
from repro.stats.dominance import (
    coupled_dominance_report,
    empirical_cdf,
    stochastically_dominates,
)
from repro.stats.intervals import bootstrap_ci, normal_ci
from repro.stats.markov import (
    expected_hitting_times,
    mixing_time,
    stationary_distribution,
    total_variation,
)
from repro.stats.occupancy import (
    expected_empty_bins,
    miss_probability,
    expected_occupied_bins,
)
from repro.stats.streaming import Histogram, RunningStats
from repro.stats.tail_bounds import (
    binomial_domination_tail,
    chernoff_2exp_bound,
    chernoff_multiplicative_bound,
    empty_bins_concentration,
)

__all__ = [
    "chernoff_2exp_bound",
    "chernoff_multiplicative_bound",
    "empty_bins_concentration",
    "binomial_domination_tail",
    "RunningStats",
    "Histogram",
    "normal_ci",
    "bootstrap_ci",
    "empirical_cdf",
    "stochastically_dominates",
    "coupled_dominance_report",
    "pairwise_covariance_report",
    "empty_bin_indicators",
    "stationary_distribution",
    "total_variation",
    "mixing_time",
    "expected_hitting_times",
    "expected_empty_bins",
    "expected_occupied_bins",
    "miss_probability",
]
