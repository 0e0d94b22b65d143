"""Dickman's function, smooth-number counts, ranked prime-factor statistics,
Poisson-Dirichlet sampling, and a finite-n harness for the box convergence
criterion — with exact cross-checking identities throughout.
"""

__version__ = "0.1.0"

from .convergence import (BoxCriterion, ConvergenceReport, box_admissible,
                          distance_to_complement, inf_density_on_box, run_criterion)
from .dickman import (DickmanTable, QuadratureConfig, build_rho_table, h_function,
                      recursion_residual, rho, rho_via_alternating_sum)
from .errors import (BillingsleyError, DomainError, NumericalError, ParameterError,
                     ResourceError)
from .factor_stats import (BoxSpec, EmpiricalEstimate, ExactProbability, FactorVector,
                           box_probability_exact, box_probability_via_psi,
                           factor_vector, marginal_L1_cdf, prime_bounds,
                           ranked_factors, sample_box_probability,
                           sample_factor_vectors)
from .pd_process import (PDSample, pd_box_probability, pd_box_probability_refined,
                         pd_density, pd_sample, pd_sample_batch)
from .primes import (PrimeSieve, build_sieve, mertens_constant_estimate, mertens_sum,
                     power_ceil, power_floor)
from .rng import DEFAULT_SEED
from .smoothcount import psi_bruteforce, psi_dickman, psi_exact

__all__ = [
    "BillingsleyError", "BoxCriterion", "BoxSpec", "ConvergenceReport",
    "DEFAULT_SEED", "DickmanTable", "DomainError", "EmpiricalEstimate",
    "ExactProbability", "FactorVector", "NumericalError", "PDSample",
    "ParameterError", "PrimeSieve", "QuadratureConfig", "ResourceError",
    "box_admissible", "box_probability_exact", "box_probability_via_psi",
    "build_rho_table", "build_sieve", "distance_to_complement", "factor_vector",
    "h_function",
    "inf_density_on_box", "marginal_L1_cdf", "mertens_constant_estimate",
    "mertens_sum", "pd_box_probability",
    "pd_box_probability_refined", "pd_density", "pd_sample", "pd_sample_batch",
    "power_ceil", "power_floor", "prime_bounds", "psi_bruteforce", "psi_dickman",
    "psi_exact", "ranked_factors", "recursion_residual", "rho",
    "rho_via_alternating_sum", "run_criterion", "sample_box_probability",
    "sample_factor_vectors",
]
