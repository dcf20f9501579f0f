"""Symmetric Bayes-Nash equilibria of single-item first-price auctions.

Solvers for three input models -- black-box cdf oracles, explicit
piecewise-polynomial cdfs, and finite bid grids -- plus independent verifiers
that certify the regret of any candidate strategy.
"""

from .cdf import (
    CdfOracle,
    PiecewisePolyCdf,
    ValidationReport,
    cdf_from_json,
    make_adversarial_cdf,
    oracle_from_piecewise,
    power_cdf,
    strongly_increasing_transform,
    uniform_cdf,
)
from .blackbox import BidEvaluation, BlackBoxPlan, bid, precompute
from .discrete import (
    BidGrid,
    Certificate,
    JumpPointStrategy,
    SolveResult,
    check_conditions,
    compute_strategy,
    delta_win_prob,
    solve,
)
from .errors import DomainError, PrecisionError
from .explicit import (
    RationalBidFunction,
    canonical_bid_function,
    eval_canonical,
    integral_coefficients,
    power_coefficients,
    rbf_from_json,
    rbf_to_json,
)
from .poly import PiecewisePoly
from .verify import (
    PropertyCheck,
    RegretReport,
    epsilon_bne_check_ccfpa,
    epsilon_bne_check_cdfpa,
    monotone_no_overbid_check,
    monte_carlo_regret,
)

__version__ = "0.1.0"
