"""Rank-one covariance matrix adaptation.

A deliberately small CMA-ES: Gaussian sampling around a mean with step size
sigma and covariance C, weighted recombination of the top-mu samples for the
mean, and a rank-one update C' = (1 - c) C + c v v^T with v = sum_i w_i y_i.
No evolution paths, no rank-mu term, no step-size adaptation. Scale adapts
only through the covariance contraction, and only where c is large: on the
5-dimensional sphere (c = 0.08) and on the copy task (``c_cov=0.1``, set
explicitly). At the default c = 2/L^2 it does not: at L = 2006, after 750
updates, the rank-one part's largest eigenvalue stays below 3.3e-4 against
a = 0.9996, so samples stay within 0.02% of N(m, sigma^2 I) in standard
deviation in any direction and sigma stays near its initial 0.3.

C is never stored as a matrix. Starting from C_0 = I, t updates give exactly

    C_t = a I + sum_j w_j v_j v_j^T,   a = (1 - c)^t,   w_j = c (1 - c)^(t-1-j),

so the state keeps only the update vectors v_0 .. v_{t-1} (``cov_steps``,
oldest first) and derives a and w from ``c_cov`` and t. Memory is O(t L)
instead of O(L^2) and nothing is factorized. A draw is

    theta = m + sigma (sqrt(a) z + sum_j sqrt(w_j) n_j v_j)

with z ~ N(0, I_L) and n ~ N(0, I_t) independent, so its covariance is
sigma^2 C. The sampler takes the (lambda, L) block z off the epoch's stream
before the (lambda, t) block n. C is positive semi-definite by construction.

Both updates use mean-centered, sigma-normalized steps
y_i = (theta_i - m) / sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


def default_lambda(n_dims: int) -> int:
    return 4 + int(3 * math.log(n_dims)) if n_dims > 1 else 8


def default_weights(mu: int) -> np.ndarray:
    """Log-decreasing positive weights, normalized to sum 1."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    w = np.log(mu + 1.0) - np.log(np.arange(1, mu + 1, dtype=float))
    return w / w.sum()


def default_c_cov(n_dims: int) -> float:
    return min(0.5, 2.0 / n_dims**2)


@dataclass(frozen=True)
class CmaState:
    """Search distribution state plus the selection/update constants.

    ``cov_steps`` is the (t, L) array of rank-one update vectors, oldest
    first; see the module docstring for the covariance it stands for.
    """

    mean: np.ndarray
    cov_steps: np.ndarray
    sigma: float
    lambda_pop: int
    mu: int
    c_cov: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        steps = np.asarray(self.cov_steps, dtype=float)
        n = mean.size
        if steps.ndim != 2 or steps.shape[1] != n:
            raise ValueError(f"covariance steps must be t x {n}, got {steps.shape}")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0 (0 only degenerates sampling to the mean)")
        if self.lambda_pop < 2:
            raise ValueError("population size must be >= 2")
        if not 1 <= self.mu < self.lambda_pop:
            raise ValueError(f"mu must satisfy 1 <= mu < lambda, got mu={self.mu} lambda={self.lambda_pop}")
        if not 0.0 <= self.c_cov < 1.0 + 1e-12:
            raise ValueError(f"c_cov must lie in [0, 1], got {self.c_cov}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov_steps", steps)

    @property
    def n_dims(self) -> int:
        return self.mean.size

    @classmethod
    def initial(cls, n_dims: int, mean=None, sigma: float = 0.3, lambda_pop=None,
                mu=None, c_cov=None) -> "CmaState":
        lam = int(lambda_pop) if lambda_pop is not None else default_lambda(n_dims)
        m = int(mu) if mu is not None else max(1, lam // 2)
        return cls(
            mean=np.zeros(n_dims) if mean is None else np.asarray(mean, dtype=float),
            cov_steps=np.empty((0, n_dims)),
            sigma=float(sigma),
            lambda_pop=lam,
            mu=m,
            c_cov=float(c_cov) if c_cov is not None else default_c_cov(n_dims),
        )


def covariance_weights(state: CmaState) -> tuple[float, np.ndarray]:
    """(a, w) with C = a I + sum_j w_j v_j v_j^T over the rows v_j of cov_steps."""
    keep = max(0.0, 1.0 - state.c_cov)
    t = state.cov_steps.shape[0]
    return keep**t, state.c_cov * keep ** np.arange(t - 1, -1, -1, dtype=float)


def sample_population(state: CmaState, seed) -> np.ndarray:
    """Draw lambda parameter vectors m + sigma * N(0, C); fixed seed, fixed result."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((state.lambda_pop, state.n_dims))
    if state.sigma == 0.0:
        return np.tile(state.mean, (state.lambda_pop, 1))
    a, w = covariance_weights(state)
    n = rng.standard_normal((state.lambda_pop, w.size))
    # m + sigma (sqrt(a) z + (n sqrt(w)) V), built in z's block in that order
    z *= math.sqrt(a)
    z += (n * np.sqrt(w)) @ state.cov_steps
    z *= state.sigma
    z += state.mean
    return z


def ranked_steps(state: CmaState, top_params: np.ndarray) -> np.ndarray:
    """Steps y_i = (theta_i - m) / sigma of the top-mu parameter vectors
    (already sorted best-first); zero steps when sigma == 0, where every
    sample equals the mean."""
    top = np.atleast_2d(np.asarray(top_params, dtype=float))
    if top.shape[0] < state.mu:
        raise ValueError(f"need at least mu={state.mu} ranked candidates, got {top.shape[0]}")
    top = top[: state.mu]
    if state.sigma == 0.0:
        return np.zeros_like(top)
    return (top - state.mean) / state.sigma


def update_covariance(state: CmaState, v: np.ndarray) -> np.ndarray:
    """C' = (1 - c_cov) C + c_cov v v^T for the weighted step v, as the new
    cov_steps: the old ones with v appended."""
    return np.vstack([state.cov_steps, v])


def evolve(state: CmaState, ranked_params: np.ndarray) -> CmaState:
    """One full distribution update from the top-mu parameter vectors: the
    weighted step v = sum_i w_i y_i, with w = default_weights(mu), moves the
    mean, m' = m + sigma * v, and joins the covariance."""
    v = default_weights(state.mu) @ ranked_steps(state, ranked_params)
    return replace(state, mean=state.mean + state.sigma * v,
                   cov_steps=update_covariance(state, v))

