"""fraccert: numerical certification toolkit for the fractional Laplacian.

Pointwise principal-value evaluation of (-Delta)^s, a catalog of comparison
barriers built from cut fundamental solutions, sign and rate certificates
for their operator estimates, a 1-d nonlocal Dirichlet solver with a
discrete comparison principle, sampled checks of nonlinearity growth
hypotheses, and a nonexistence scan over candidate supersolution families.
"""

from .params import FracParams, normalization_constant
from .profiles import (
    BarrierConstants,
    BarrierKind,
    Branch,
    RadialProfile,
    SignVariant,
    make_barrier,
    make_fundamental,
    positive_fundamental,
)
from .operator import (OperatorValue, QuadSpec, eval_pointwise, eval_radial, eval_radial_jobs, eval_radial_many,
                       scaling_identity_check)
from .constants import choose_constants
from .chains import ChainId, SamplePolicy, VerificationReport, Verdict, fit_rate, measure_rate, verify_chain
from .dirichlet import (
    DiscreteSolution,
    ExteriorData,
    GridProblem,
    apply_operator,
    solve_dirichlet,
    verify_comparison,
    verify_hopf_ratio,
    verify_kslap,
    verify_measure_lemma,
    verify_qsmp,
)
from .hypotheses import (
    HypothesisReport,
    NonlinearitySpec,
    alpha_tilde_star,
    builtin_g,
    check_f2,
    check_f2prime,
    check_f3prime,
    check_f4prime,
    h_of_k,
    psi_k,
)
from .liouville import (
    CandidateFamily,
    ScanReport,
    annulus_inf,
    nonexistence_scan,
    power_symbol,
    proof_quantity_trace,
    supersolution_residual,
    verify_growth_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "FracParams", "normalization_constant",
    "BarrierConstants", "BarrierKind", "Branch",
    "RadialProfile", "SignVariant", "make_barrier", "make_fundamental",
    "positive_fundamental",
    "OperatorValue", "QuadSpec", "eval_pointwise", "eval_radial", "eval_radial_many",
    "eval_radial_jobs", "scaling_identity_check",
    "choose_constants",
    "ChainId", "SamplePolicy", "VerificationReport", "Verdict",
    "fit_rate", "measure_rate", "verify_chain",
    "DiscreteSolution", "ExteriorData", "GridProblem", "apply_operator",
    "solve_dirichlet", "verify_comparison", "verify_hopf_ratio",
    "verify_kslap", "verify_measure_lemma", "verify_qsmp",
    "HypothesisReport", "NonlinearitySpec", "alpha_tilde_star", "builtin_g",
    "check_f2", "check_f2prime", "check_f3prime", "check_f4prime",
    "h_of_k", "psi_k",
    "CandidateFamily", "ScanReport", "annulus_inf",
    "nonexistence_scan", "power_symbol", "proof_quantity_trace",
    "supersolution_residual", "verify_growth_bounds",
]
