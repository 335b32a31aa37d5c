"""plpmcmc: MCMC-based conditional inference for PRISM-style probabilistic
logic programs, with Q-value proposal adaptation and exact brute-force oracles.
"""

from .lang import (
    ParseError,
    PlpError,
    Program,
    ProgramError,
    parse_goal,
    parse_program,
    term_to_str,
)
from .evaluator import (
    EvalError,
    EvalResult,
    StepLimitExceeded,
    UnsatisfiableEvidence,
    initial_sample,
    sample_eval,
)
from .adapt import AdaptedSource, QStore, independent_sampler
from .mcmc import ChainConfig, ChainResult, MultiSwitch, SingleSwitch, run_chain
from .oracle import (
    BranchLimitExceeded,
    ExactResult,
    exact_conditional,
    exact_conditional_worlds,
    exact_prob,
    exact_prob_worlds,
)
from . import bench

__all__ = [
    "AdaptedSource",
    "BranchLimitExceeded",
    "ChainConfig",
    "ChainResult",
    "EvalError",
    "EvalResult",
    "ExactResult",
    "MultiSwitch",
    "ParseError",
    "PlpError",
    "Program",
    "ProgramError",
    "QStore",
    "SingleSwitch",
    "StepLimitExceeded",
    "UnsatisfiableEvidence",
    "bench",
    "exact_conditional",
    "exact_conditional_worlds",
    "exact_prob",
    "exact_prob_worlds",
    "independent_sampler",
    "initial_sample",
    "parse_goal",
    "parse_program",
    "run_chain",
    "sample_eval",
    "term_to_str",
]
