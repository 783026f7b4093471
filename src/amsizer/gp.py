"""Gaussian-process regression with a squared-exponential kernel.

Fixed hyperparameters, no marginal-likelihood fitting: inputs are
normalized to the unit cube by the caller, where a lengthscale of 0.2
is a reasonable default at desk-scale dimensionality.  The prior mean
is the mean of the training targets, so predictions far from all data
revert to the average observed value rather than zero.

`gp_fit` caches the training rows' squared norms on the model, and
`gp_predict` calls LAPACK `dtrtrs` on the (Fortran-ordered) Cholesky
factor exactly as `scipy.linalg.solve_triangular` would: predictions are
bit-identical to `kernel` plus `solve_triangular`, without their
per-call overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrtrs

JITTER_LADDER = (1e-10, 1e-8, 1e-6)


class GpError(RuntimeError):
    pass


@dataclass(frozen=True)
class GpHyper:
    lengthscale: float = 0.2
    signal_var: float = 1.0
    noise_var: float = 1e-6

    def __post_init__(self):
        if self.lengthscale <= 0 or self.signal_var <= 0 or self.noise_var < 0:
            raise ValueError("lengthscale and signal_var must be > 0, noise_var >= 0")


@dataclass(frozen=True)
class GpModel:
    x: np.ndarray  # (n, d), unit cube
    y: np.ndarray  # (n,)
    prior_mean: float
    chol: np.ndarray  # lower Cholesky factor of K + noise*I (+ jitter)
    alpha: np.ndarray  # (K + noise*I)^-1 (y - prior_mean)
    hyper: GpHyper
    x_sq: np.ndarray  # (n,) squared norms of the rows of x


def _se_kernel(a: np.ndarray, b: np.ndarray, bb: np.ndarray, hyper: GpHyper) -> np.ndarray:
    # ||a_i - b_j||^2 without forming the full difference tensor; bb = row norms of b
    d2 = np.sum(a * a, axis=1)[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return hyper.signal_var * np.exp(-0.5 * np.maximum(d2, 0.0) / (hyper.lengthscale ** 2))


def kernel(a: np.ndarray, b: np.ndarray, hyper: GpHyper) -> np.ndarray:
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return _se_kernel(a, b, np.sum(b * b, axis=1), hyper)


def gp_fit(points: np.ndarray, values: np.ndarray, hyper: GpHyper | None = None) -> GpModel:
    """Exact GP regression; escalates diagonal jitter if Cholesky fails."""
    hyper = hyper or GpHyper()
    x = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(values, dtype=float).ravel()
    if len(x) == 0:
        raise GpError("need at least one training point")
    if len(x) != len(y):
        raise GpError(f"{len(x)} points but {len(y)} values")
    prior_mean = float(np.mean(y))
    x_sq = np.sum(x * x, axis=1)
    k = _se_kernel(x, x, x_sq, hyper)
    k[np.diag_indices_from(k)] += hyper.noise_var
    chol = None
    for jitter in (0.0,) + JITTER_LADDER:
        try:
            chol = scipy.linalg.cholesky(
                k + jitter * np.eye(len(x)), lower=True, check_finite=False
            )
            break
        except scipy.linalg.LinAlgError:
            continue
    if chol is None:
        raise GpError(
            f"kernel matrix not positive definite even with jitter {JITTER_LADDER[-1]:g}"
        )
    resid = y - prior_mean
    alpha = scipy.linalg.cho_solve((chol, True), resid, check_finite=False)
    return GpModel(
        x=x, y=y, prior_mean=prior_mean, chol=chol, alpha=alpha, hyper=hyper, x_sq=x_sq
    )


def gp_predict(model: GpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (mean, latent variance) at query points (m, d) -> (m,), (m,)."""
    xq = np.atleast_2d(np.asarray(x, dtype=float))
    k_star = _se_kernel(xq, model.x, model.x_sq, model.hyper)  # (m, n)
    mean = model.prior_mean + k_star @ model.alpha
    v, info = dtrtrs(model.chol, k_star.T, lower=1)
    if info > 0:
        raise scipy.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    var = model.hyper.signal_var - np.sum(v * v, axis=0)
    return mean, np.maximum(var, 0.0)
