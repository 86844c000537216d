"""Finite-dimensional Gaussian Wick calculus with a verification workbench.

Functions on R^n under the standard Gaussian measure are represented two
ways: sparse Hermite chaos expansions (polynomials) and finite
combinations of stochastic exponentials.  Both carry an exact operator
calculus (Wick/pointwise/interpolating products, second quantization,
gradients, convolution-measure integrals), and a harness sweeps the
inequality and positivity checks built on top of it.
"""

from .chaos import (
    ChaosExpansion,
    dirichlet_energy,
    eval_chaos,
    gamma_apply,
    gradient,
    l2_inner,
    l2_norm,
    number_apply,
    ou_apply,
)
from .checks import (
    CHECK_REGISTRY,
    DEFAULT_TOLS,
    run_check,
)
from .expspan import (
    ExpCombo,
    alpha_exp,
    exp_eval,
    gammas_exp,
    mu_inner_exp,
    pointwise_exp,
    to_chaos,
    to_chaos_tail_bound,
    wick_exp,
)
from .measures import (
    DiscreteMeasure,
    char_gram,
    convolutions,
    densities_xi,
    g_lambda_norms,
    rho_integral_chaos,
    rho_integral_exp,
    sample_rho,
)
from .products import (
    HolderParams,
    alpha_chaos,
    pointwise_chaos,
    wick_chaos,
)
from .quadrature import (
    default_grid,
    gauss_hermite_grid,
    integrate_rho,
    lp_norm_exp,
    mc_integral_rho,
)
from .report import InequalityReport
from .suite import ConfigError, SuiteConfig, build_tasks, load_config, run_suite, write_reports

__version__ = "0.1.0"

__all__ = [
    "CHECK_REGISTRY",
    "ChaosExpansion",
    "ConfigError",
    "DEFAULT_TOLS",
    "DiscreteMeasure",
    "ExpCombo",
    "HolderParams",
    "InequalityReport",
    "SuiteConfig",
    "alpha_chaos",
    "alpha_exp",
    "build_tasks",
    "char_gram",
    "convolutions",
    "default_grid",
    "densities_xi",
    "dirichlet_energy",
    "eval_chaos",
    "exp_eval",
    "g_lambda_norms",
    "gamma_apply",
    "gammas_exp",
    "gauss_hermite_grid",
    "gradient",
    "integrate_rho",
    "l2_inner",
    "l2_norm",
    "load_config",
    "lp_norm_exp",
    "mc_integral_rho",
    "mu_inner_exp",
    "number_apply",
    "ou_apply",
    "pointwise_chaos",
    "pointwise_exp",
    "rho_integral_chaos",
    "rho_integral_exp",
    "run_check",
    "run_suite",
    "sample_rho",
    "to_chaos",
    "to_chaos_tail_bound",
    "wick_chaos",
    "wick_exp",
    "write_reports",
]
