"""Exact pattern matching on uncertain sequences.

Profile matching, weighted (PWM) pattern matching, weighted consensus
and the underlying two-threshold Multichoice Knapsack solver, all
computing in an exact fixed-point log-probability domain.
"""

from .consensus import (
    GwpmResult,
    WcInstance,
    gwpm,
    gwpm_witness,
    knapsack_to_wc,
    wc_to_knapsack,
    weighted_consensus,
)
from .errors import CapacityError, DomainError, ParseError
from .knapsack import (
    KnapsackInstance,
    brute_force,
    count_feasible,
    is_feasible,
    make_instance,
    solve,
    solve_k,
)
from .lcp import CrossLcpIndex, build_cross_index
from .profile import ScoringMatrix, count_matching_strings, profile_match, score
from .sdwc import SdwcInstance
from .weighted import (
    ProbThreshold,
    WeightedSequence,
    from_probabilities,
    heavy_string,
    match_neglog,
    maximal_solid_prefixes,
    prune,
    wpm,
)

__version__ = "1.0.0"

__all__ = [
    "CapacityError",
    "CrossLcpIndex",
    "DomainError",
    "GwpmResult",
    "KnapsackInstance",
    "ParseError",
    "ProbThreshold",
    "ScoringMatrix",
    "SdwcInstance",
    "WcInstance",
    "WeightedSequence",
    "brute_force",
    "build_cross_index",
    "count_feasible",
    "count_matching_strings",
    "from_probabilities",
    "gwpm",
    "gwpm_witness",
    "heavy_string",
    "is_feasible",
    "knapsack_to_wc",
    "make_instance",
    "match_neglog",
    "maximal_solid_prefixes",
    "profile_match",
    "prune",
    "score",
    "solve",
    "solve_k",
    "wc_to_knapsack",
    "weighted_consensus",
    "wpm",
]
