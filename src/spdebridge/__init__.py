"""Spectral simulation and change-of-measure toolkit for semilinear SPDEs."""

from ._kernels import BACKEND
from .errors import DomainError
from .forward import (
    Nonlinearity,
    Path,
    PathEnsemble,
    apply_nonlinearity,
    bounded_rational,
    forward_snapshots,
    linear_scale,
    replay_path,
    sample_stationary,
    simulate_ensemble,
    sine_nemytskii,
    zero,
)
from .grids import TimeGrid, geometric_grid, uniform_grid
from .guided import (
    GuidedSpec,
    WeightedPath,
    effective_sample_size,
    simulate_guided,
)
from .htransform import (
    ExpTestFunction,
    HFunction,
    bridge_h,
    dynkin_residual,
    exp_martingale_from_definition,
    exp_martingale_from_girsanov,
    l0_exp_test,
    novikov_estimate,
)
from .ou import (
    chapman_kolmogorov_residual,
    grad_log_ptilde,
    log_ptilde,
    bridge_marginal_mean_var,
)
from .spectral import (
    SpectralModel,
    covariance_qinf,
    dirichlet_model,
    gamma_hs_norm_sq,
    semigroup_apply,
)

__version__ = "0.1.0"
