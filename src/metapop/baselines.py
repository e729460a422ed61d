"""Reference optimizers behind the same episode interface as the policy.

Batch random search samples uniformly from the domain each generation.
CMA-ES follows the standard tutorial formulation (rank-mu and rank-one
covariance updates with cumulative step-size adaptation). Both see exactly
what any optimizer sees: previous points, their fitness values, and the
generation index. Each draws from one generator seeded in ``reset``, one
``lam x d`` block per generation, in generation order.

Boundary rule for CMA-ES: points are clamped to [-1, 1] for evaluation, but
the strategy updates use the unclamped samples, which keeps the update
equations exact. The sampling cache returned by ``cma_act`` carries those
unclamped points between the two calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .env import ActionBatch, Observation
from .seeding import derive_seed, rng_from  # derive_seed: unused, in perfbench's SITES until ROADMAP item 1

__all__ = [
    "default_cma_lambda",
    "RandomSearch",
    "CmaState",
    "cma_init",
    "cma_act",
    "cma_update",
    "CmaEs",
]


def default_cma_lambda(dimension: int) -> int:
    """Canonical default population size 4 + floor(3 ln d)."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    return 4 + int(3 * math.log(dimension))


def random_search_act(rng: np.random.Generator, lam: int, dimension: int) -> ActionBatch:
    """One generation of uniform samples: the next ``lam x dimension`` draws of ``rng``."""
    return ActionBatch(rng.uniform(-1.0, 1.0, (lam, dimension)))


class RandomSearch:
    """Batch random search; its only state is the episode's generator."""

    def reset(self, lam: int, dimension: int, seed: int) -> None:
        self._lam = lam
        self._dim = dimension
        self._rng = rng_from(seed)

    def act(self, obs: Observation) -> ActionBatch:
        return random_search_act(self._rng, self._lam, self._dim)


@dataclass(frozen=True, eq=False)
class CmaState:
    """Full strategy state plus the constants derived from (d, lam)."""

    dim: int
    lam: int
    mean: np.ndarray
    step_size: float
    cov: np.ndarray
    p_sigma: np.ndarray
    p_c: np.ndarray
    generation: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c1: float
    c_mu: float
    chi_d: float
    eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)  # of cov, made anew by every replace

    def __post_init__(self) -> None:
        object.__setattr__(self, "eig", _cov_eig(self.cov))


def cma_init(
    dimension: int,
    lam: int | None = None,
    mean: np.ndarray | None = None,
    step_size: float = 0.3,
) -> CmaState:
    """Fresh strategy state with tutorial-standard constants."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    lam = default_cma_lambda(dimension) if lam is None else lam
    if lam < 2:
        raise ValueError("lam must be at least 2")
    if step_size <= 0.0:
        raise ValueError("step_size must be positive")
    d = dimension
    mu = lam // 2
    raw = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights**2)
    c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
    c1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
    chi_d = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))
    mean = np.zeros(d) if mean is None else np.asarray(mean, dtype=float).copy()
    eye, zeros = np.eye(d), np.zeros(d)
    for a in (weights, mean, eye, zeros):
        a.flags.writeable = False
    return CmaState(
        dim=d,
        lam=lam,
        mean=mean,
        step_size=step_size,
        cov=eye,
        p_sigma=zeros,
        p_c=zeros,
        generation=0,
        weights=weights,
        mu_eff=float(mu_eff),
        c_sigma=float(c_sigma),
        d_sigma=float(d_sigma),
        c_c=float(c_c),
        c1=float(c1),
        c_mu=float(c_mu),
        chi_d=float(chi_d),
    )


def _cov_eig(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with flooring so the factor is always usable."""
    floor = 1e-14 * float(cov.trace())
    if floor <= 0.0:
        floor = 1e-300
    try:
        vals, vecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov + floor * np.eye(cov.shape[0]))
    return np.maximum(vals, floor), vecs


def cma_act(state: CmaState, lam: int, rng: np.random.Generator) -> tuple[ActionBatch, np.ndarray]:
    """Sample lam points from the next lam x d normals of ``rng``.

    Returns the clamped batch and the raw samples, the cache that must be
    passed back to ``cma_update`` with the fitness of the clamped batch.
    """
    if lam < 1:
        raise ValueError("lam must be positive")
    vals, vecs = state.eig
    sqrt_cov = (vecs * np.sqrt(vals)) @ vecs.T
    z = rng.standard_normal((lam, state.dim))
    raw = state.mean + state.step_size * (z @ sqrt_cov.T)
    return ActionBatch(raw.clip(-1.0, 1.0)), raw


def cma_update(state: CmaState, sampled_points: np.ndarray, fitness: np.ndarray) -> CmaState:
    """Advance the strategy by one generation of (points, fitness).

    ``sampled_points`` are the unclamped samples from ``cma_act``. Ties in
    fitness are broken by original index (stable sort).
    """
    pts = np.asarray(sampled_points, dtype=float)
    fit = np.asarray(fitness, dtype=float)
    if pts.shape != (state.lam, state.dim) or fit.shape != (state.lam,):
        raise ValueError("points/fitness shape does not match the state")
    if not np.isfinite(fit).all():
        raise ValueError("fitness values must be finite")

    d = state.dim
    mu = state.lam // 2
    selected = pts[fit.argsort(kind="stable")[:mu]]
    y = (selected - state.mean) / state.step_size
    y_w = state.weights @ y
    new_mean = state.mean + state.step_size * y_w

    vals, vecs = state.eig
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    c_s, d_s = state.c_sigma, state.d_sigma
    p_sigma = (1.0 - c_s) * state.p_sigma + math.sqrt(
        c_s * (2.0 - c_s) * state.mu_eff
    ) * (inv_sqrt @ y_w)
    gen = state.generation + 1
    norm_ps = math.sqrt(p_sigma @ p_sigma)  # what np.linalg.norm computes for a vector
    hsig = norm_ps / math.sqrt(1.0 - (1.0 - c_s) ** (2 * gen)) / state.chi_d < 1.4 + 2.0 / (d + 1.0)
    p_c = (1.0 - state.c_c) * state.p_c
    if hsig:
        p_c = p_c + math.sqrt(state.c_c * (2.0 - state.c_c) * state.mu_eff) * y_w

    rank_mu = (state.weights[:, None, None] * (y[:, :, None] * y[:, None, :])).sum(axis=0)
    delta = (1.0 - int(hsig)) * state.c_c * (2.0 - state.c_c)
    cov = (
        (1.0 - state.c1 - state.c_mu) * state.cov
        + state.c1 * (p_c[:, None] * p_c + delta * state.cov)
        + state.c_mu * rank_mu
    )
    cov = (cov + cov.T) / 2.0

    # exponent capped at 1 so pathological path lengths cannot blow sigma up
    step = state.step_size * math.exp(min(1.0, (c_s / d_s) * (norm_ps / state.chi_d - 1.0)))

    for a in (new_mean, p_sigma, p_c, cov):
        a.flags.writeable = False
    return replace(
        state,
        mean=new_mean,
        step_size=step,
        cov=cov,
        p_sigma=p_sigma,
        p_c=p_c,
        generation=gen,
    )


def _boundary_shaped(raw: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """Selection fitness with out-of-box samples demoted below all others.

    Out-of-box samples clamp onto a face where the observed fitness carries
    no signal about the violated coordinates; ranking them by violation
    instead (and strictly worse than any in-box sample) pulls the strategy
    back into the domain without touching in-box dynamics.
    """
    if (np.abs(raw) <= 1.0).all():  # no violation to rank: skip computing it
        return np.asarray(fitness, dtype=float)
    viol = ((raw - raw.clip(-1.0, 1.0)) ** 2).sum(axis=1)
    out = viol > 0.0
    shaped = np.array(fitness, dtype=float)
    shaped[out] = shaped.max() + viol[out]
    return shaped


class CmaEs:
    """Episode-facing CMA-ES driver.

    The population size comes from ``reset`` (the episode's lam), so the
    baseline can run either at its canonical default or at the learned
    policy's lam for like-for-like comparisons.
    """

    def __init__(self, step_size: float = 0.3):
        self._step_size = step_size
        self._state: CmaState | None = None
        self._cache: np.ndarray | None = None

    def reset(self, lam: int, dimension: int, seed: int) -> None:
        self._state = cma_init(dimension, lam=lam, step_size=self._step_size)
        self._cache = None
        self._rng = rng_from(seed)

    def act(self, obs: Observation) -> ActionBatch:
        if self._state is None:
            raise RuntimeError("reset must be called before act")
        if not obs.is_empty:
            if self._cache is None:
                raise RuntimeError("observation arrived before any sample was drawn")
            self._state = cma_update(
                self._state, self._cache, _boundary_shaped(self._cache, obs.prev_fitness)
            )
        batch, self._cache = cma_act(self._state, self._state.lam, self._rng)
        return batch
