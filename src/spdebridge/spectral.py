"""Truncated diagonal realization of the linear SPDE data.

A model is the triple (eigenvalues of the drift operator, noise intensities,
truncation level) expressed in a fixed orthonormal basis that diagonalizes
both the semigroup and the noise covariance. Every derived operator
(semigroup, time-t covariance, stationary covariance, whitened semigroup)
is then an explicit per-mode scalar formula, evaluated with stable
one-minus-exponential primitives.

States ("fields") are plain float64 arrays of coefficients in that basis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def one_minus_exp(a):
    """Stable 1 - exp(a) for a <= 0, via expm1."""
    return -np.expm1(a)


@dataclass(frozen=True)
class SpectralModel:
    """Diagonal model: drift eigenvalues ``lam`` (< 0), noise intensities ``q`` (> 0).

    Defaults elsewhere in the package use the Dirichlet Laplacian on
    (0, domain_length) with lam_j = -(j*pi/L)^2 and q_j = j^{-rho}.
    """

    lam: np.ndarray
    q: np.ndarray
    domain_length: float = 1.0

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.float64)
        q = np.asarray(self.q, dtype=np.float64)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "q", q)
        if lam.ndim != 1 or q.shape != lam.shape:
            raise DomainError("lam and q must be 1-d arrays of equal length")
        if lam.size == 0:
            raise DomainError("model needs at least one mode")
        if not np.all(lam < 0.0):
            raise DomainError("all eigenvalues must be strictly negative")
        if np.any(np.diff(lam) > 0.0):
            raise DomainError("eigenvalues must be nonincreasing in the mode index")
        if not np.all(q > 0.0):
            raise DomainError("all noise intensities must be strictly positive")
        if not (self.domain_length > 0.0):
            raise DomainError("domain_length must be positive")
        trace = float(np.sum(covariance_qinf(self)))
        if not np.isfinite(trace):
            raise DomainError("stationary covariance trace is not finite")
        lam.setflags(write=False)
        q.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.lam.size

    def validate_field(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_modes:
            raise DomainError(
                f"field has {x.shape[-1]} modes, model has {self.n_modes}"
            )
        if not np.all(np.isfinite(x)):
            raise DomainError("field has non-finite entries")
        return x


def dirichlet_model(n_modes: int, rho: float = 0.0, domain_length: float = 1.0) -> SpectralModel:
    """Dirichlet-Laplacian model on (0, L): lam_j = -(j pi / L)^2, q_j = j^{-rho}."""
    j = np.arange(1, n_modes + 1, dtype=np.float64)
    lam = -((j * np.pi / domain_length) ** 2)
    q = j ** (-float(rho))
    return SpectralModel(lam=lam, q=q, domain_length=domain_length)


def semigroup_apply(model: SpectralModel, t: float, x) -> np.ndarray:
    """Apply the linear flow at time t >= 0: entrywise exp(lam_j t) x_j."""
    if t < 0.0:
        raise DomainError("semigroup time must be nonnegative")
    x = model.validate_field(x)
    if t == 0.0:
        return x.copy()
    return np.exp(model.lam * t) * x


def covariance_qt_diag(model: SpectralModel, t) -> np.ndarray:
    """Per-mode variances of the stochastic convolution at time(s) t > 0.

    q_{j,t} = q_j (1 - exp(2 lam_j t)) / (2 |lam_j|), broadcast over an
    array-valued t (returns shape t.shape + (J,)).
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr <= 0.0):
        raise DomainError("covariance time must be strictly positive")
    lam = model.lam
    expo = 2.0 * lam * t_arr[..., None] if t_arr.ndim else 2.0 * lam * t_arr
    return model.q * one_minus_exp(expo) / (2.0 * np.abs(lam))


def covariance_qinf(model: SpectralModel) -> np.ndarray:
    """Per-mode stationary variances q_j / (2 |lam_j|)."""
    return model.q / (2.0 * np.abs(model.lam))


def gamma_diag(model: SpectralModel, r) -> np.ndarray:
    """Per-mode entries exp(lam_j r) / sqrt(q_{j,r}) of the whitened semigroup."""
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr <= 0.0):
        raise DomainError("gamma requires r > 0 (unbounded at r = 0)")
    qr = covariance_qt_diag(model, r)
    expo = model.lam * (r_arr[..., None] if r_arr.ndim else r_arr)
    return np.exp(expo) / np.sqrt(qr)


def gamma_hs_norm_sq(model: SpectralModel, r: float) -> float:
    """Squared Hilbert-Schmidt norm of the whitened semigroup at lag r > 0."""
    g = gamma_diag(model, float(r))
    return float(np.sum(g * g))


def sine_basis(model: SpectralModel, n_grid: int):
    """Synthesis matrix B (n_grid x J) and analysis matrix C (J x n_grid).

    Grid points are s_g = g L / (n_grid + 1), g = 1..n_grid; basis functions
    sqrt(2/L) sin(j pi s / L). Discrete sine orthogonality makes C @ B the
    identity whenever n_grid >= J.
    """
    if n_grid < model.n_modes:
        raise DomainError("n_grid must be at least the number of modes")
    length = model.domain_length
    s = np.arange(1, n_grid + 1, dtype=np.float64) * length / (n_grid + 1)
    j = np.arange(1, model.n_modes + 1, dtype=np.float64)
    basis = np.sqrt(2.0 / length) * np.sin(np.outer(s, j) * np.pi / length)
    analysis = basis.T * (length / (n_grid + 1))
    return basis, analysis

