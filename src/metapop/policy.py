"""The learned population-based optimizer: a coordinate-wise recurrent policy.

Every (individual, dimension) pair gets its own hidden-state slot and is fed
through the same stacked recurrent network, so the parameter count does not
depend on the population size or the problem dimension. The per-slot input is
the pair (previous coordinate value, normalized fitness rank of the whole
individual); only ranks enter the network, never raw fitness values, which
makes the policy invariant to monotone transformations of the objective.

The readout is a stochastic linear layer: output weights are sampled fresh
per slot from N(mean, exp(log_sigma)) on every forward pass, and the emitted
coordinate is tanh of the sampled projection, so actions always lie in
[-1, 1]. An episode draws every sample from one generator seeded in
``reset``, one fixed-size block per generation, in generation order.

Gate sigmoids are computed in the overflow-free form ``exp(-|x|)`` over the
whole gate block at once. This is bit-identical to the masked form that
evaluates ``1/(1+exp(-x))`` and ``exp(x)/(1+exp(x))`` on each sign
separately; ``tests/oracles.py`` keeps that form as the reference.

Flat parameter layout (the mutation target of the outer loop), in order:
layer 1 ``w_x`` row-major, ``w_h`` row-major, bias; layer 2 likewise; then
readout means, then readout log-sigmas. Gate rows inside each weight matrix
are packed [input, forget, candidate, output], ``hidden_size`` rows each.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import load_json, save_json
from .env import ActionBatch, Observation, Optimizer
from .seeding import derive_seed, rng_from  # derive_seed: unused, in perfbench's SITES until ROADMAP item 1

__all__ = [
    "PolicyConfig",
    "PolicyParams",
    "param_count",
    "init_params",
    "init_state",
    "rank_transform",
    "flatten",
    "unflatten",
    "LearnedOptimizer",
    "save_params",
    "load_params",
]

#: Per-slot network input (coordinate, rank) and output (coordinate): fixed by design.
INPUT_SIZE = 2
OUTPUT_SIZE = 1


@dataclass(frozen=True)
class PolicyConfig:
    """Architecture hyperparameters.

    ``lam`` is at least 2, since the fitness ranks need two individuals.
    """

    lam: int
    hidden_size: int = 32
    num_layers: int = 2

    def __post_init__(self) -> None:
        if self.lam < 2:
            raise ValueError(f"lam must be >= 2 to rank fitness values, got {self.lam}")
        if self.hidden_size < 1 or self.num_layers < 1:
            raise ValueError("hidden_size and num_layers must be positive")

    def to_json(self) -> dict:
        """The artifact block; its key order is part of the files' bytes."""
        return {
            "lambda": self.lam,
            "hidden_size": self.hidden_size,
            "num_layers": self.num_layers,
            "input_size": INPUT_SIZE,
            "output_size": OUTPUT_SIZE,
        }

    @classmethod
    def from_json(cls, data: dict) -> PolicyConfig:
        if (data["input_size"], data["output_size"]) != (INPUT_SIZE, OUTPUT_SIZE):
            raise ValueError(f"the architecture is fixed to {INPUT_SIZE} inputs and {OUTPUT_SIZE} output")
        return cls(data["lambda"], data["hidden_size"], data["num_layers"])


@dataclass(frozen=True, eq=False)
class LayerParams:
    """One recurrent cell: gate rows packed [input, forget, candidate, output]."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray


@dataclass(frozen=True, eq=False)
class PolicyParams:
    layers: tuple[LayerParams, ...]
    out_mean: np.ndarray
    out_log_sigma: np.ndarray


@dataclass(frozen=True, eq=False)
class PolicyState:
    """Per-episode recurrent state: one slot per (individual, dimension)."""

    lam: int
    dim: int
    h: np.ndarray
    c: np.ndarray
    prev_point: np.ndarray | None


def _layer_sizes(config: PolicyConfig) -> list[tuple[int, int]]:
    sizes = []
    n_in = INPUT_SIZE
    for _ in range(config.num_layers):
        sizes.append((n_in, config.hidden_size))
        n_in = config.hidden_size
    return sizes


def param_count(config: PolicyConfig) -> int:
    """Total scalar parameters; independent of lam and problem dimension."""
    total = 0
    for n_in, h in _layer_sizes(config):
        total += 4 * h * n_in + 4 * h * h + 4 * h
    return total + 2 * (config.hidden_size + 1)


def flatten(params: PolicyParams) -> np.ndarray:
    """Concatenate all parameters in the documented stable order."""
    parts = []
    for layer in params.layers:
        parts.extend([layer.w_x.ravel(), layer.w_h.ravel(), layer.b])
    parts.extend([params.out_mean, params.out_log_sigma])
    return np.concatenate(parts)


def unflatten(config: PolicyConfig, vector: np.ndarray) -> PolicyParams:
    """Inverse of flatten. Rejects vectors of the wrong length."""
    vec = np.asarray(vector, dtype=float)
    if vec.shape != (param_count(config),):
        raise ValueError(f"expected {param_count(config)} parameters, got {vec.shape}")
    h = config.hidden_size
    pos = 0

    def take(n: int) -> np.ndarray:
        nonlocal pos
        out = np.array(vec[pos : pos + n])
        pos += n
        return out

    layers = []
    for n_in, _ in _layer_sizes(config):
        w_x = take(4 * h * n_in).reshape(4 * h, n_in)
        w_h = take(4 * h * h).reshape(4 * h, h)
        b = take(4 * h)
        for a in (w_x, w_h, b):
            a.flags.writeable = False
        layers.append(LayerParams(w_x, w_h, b))
    out_mean = take(h + 1)
    out_log_sigma = take(h + 1)
    out_mean.flags.writeable = False
    out_log_sigma.flags.writeable = False
    return PolicyParams(tuple(layers), out_mean, out_log_sigma)


def init_params(config: PolicyConfig, seed: int) -> PolicyParams:
    """Draw every parameter i.i.d. N(0, 0.5), then stabilize the forget gate.

    The +1 added to forget-gate biases is the one deliberate deviation from
    the pure Gaussian init; it keeps early cell memories from washing out.
    """
    rng = np.random.default_rng(seed)
    flat = rng.normal(0.0, 0.5, param_count(config))
    h = config.hidden_size
    pos = 0
    for n_in, _ in _layer_sizes(config):
        pos += 4 * h * n_in + 4 * h * h
        flat[pos + h : pos + 2 * h] += 1.0
        pos += 4 * h
    return unflatten(config, flat)


def init_state(config: PolicyConfig, lam: int, dimension: int) -> PolicyState:
    """Zeroed recurrent state with lam * dimension slots."""
    shape = (config.num_layers, lam * dimension, config.hidden_size)
    h = np.zeros(shape)
    c = np.zeros(shape)
    h.flags.writeable = False
    c.flags.writeable = False
    return PolicyState(lam=lam, dim=dimension, h=h, c=c, prev_point=None)


def rank_transform(fitness: np.ndarray) -> np.ndarray:
    """Map fitness values to normalized ascending ranks in [0, 1].

    Best value gets 0, worst gets 1; ties keep original index order.
    """
    v = np.asarray(fitness, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("rank_transform needs a 1-d vector of length >= 2")
    if not np.isfinite(v).all():
        raise ValueError("fitness values must be finite")
    ranks = np.empty(v.size)
    ranks[v.argsort(kind="stable")] = np.arange(v.size, dtype=float)
    ranks /= v.size - 1
    return ranks


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; per sign this is 1/(1+exp(-x)) or
    # exp(x)/(1+exp(x)), the same IEEE operations as a masked evaluation
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    num /= e
    return num


def act(
    params: PolicyParams,
    state: PolicyState,
    obs: Observation,
    rng: np.random.Generator,
) -> tuple[ActionBatch, PolicyState]:
    """One policy step: propose the next population and advance the state.

    Deterministic given (params, state, obs, rng state); it draws exactly
    n_slots x (hidden + 1) normals. At generation 0 the observation is empty,
    the input pair is (0, 0), and the state must be fresh.
    """
    lam, d = state.lam, state.dim
    n_slots = lam * d
    hidden = params.layers[0].w_h.shape[1]

    if obs.is_empty:
        if state.prev_point is not None:
            raise ValueError("generation 0 requires a freshly initialized state")
        inputs = np.zeros((n_slots, 2))
    else:
        pts = np.asarray(obs.prev_points, dtype=float)
        fit = np.asarray(obs.prev_fitness, dtype=float)
        if pts.shape != (lam, d) or fit.shape != (lam,):
            raise ValueError(
                f"observation shape {pts.shape}/{fit.shape} does not match state ({lam}, {d})"
            )
        # per slot: (coordinate, rank of its individual), slots ordered (i, j)
        pairs = np.empty((lam, d, 2))
        pairs[:, :, 0] = pts
        pairs[:, :, 1] = rank_transform(fit)[:, None]
        inputs = pairs.reshape(n_slots, 2)

    h_new = np.empty_like(state.h)
    c_new = np.empty_like(state.c)
    layer_in = inputs
    for li, layer in enumerate(params.layers):
        # two matmuls, not one on stacked inputs: that would reorder the sums
        gates = layer_in @ layer.w_x.T
        gates += state.h[li] @ layer.w_h.T
        gates += layer.b
        # one sigmoid over the block serves i, f and o; g takes tanh instead
        sig = _sigmoid(gates)
        c = np.multiply(sig[:, hidden : 2 * hidden], state.c[li], out=c_new[li])
        c += sig[:, :hidden] * np.tanh(gates[:, 2 * hidden : 3 * hidden])
        layer_in = np.multiply(sig[:, 3 * hidden :], np.tanh(c), out=h_new[li])

    # one fresh readout-weight sample per slot, indexed by slot position so
    # the result is independent of any internal evaluation order
    weights = rng.standard_normal((n_slots, hidden + 1))
    weights *= np.exp(params.out_log_sigma)
    weights += params.out_mean
    weights[:, :hidden] *= layer_in  # the readout's bias input is 1
    points = np.tanh(weights.sum(axis=1)).reshape(lam, d)

    for a in (h_new, c_new, points):
        a.flags.writeable = False
    new_state = PolicyState(lam=lam, dim=d, h=h_new, c=c_new, prev_point=points)
    return ActionBatch(points), new_state


class LearnedOptimizer:
    """Episode-facing wrapper holding immutable params and per-episode state."""

    def __init__(self, params: PolicyParams, config: PolicyConfig):
        self._params = params
        self._config = config
        self._state: PolicyState | None = None

    def reset(self, lam: int, dimension: int, seed: int) -> None:
        self._state = init_state(self._config, lam, dimension)
        self._rng = rng_from(seed)

    def act(self, obs: Observation) -> ActionBatch:
        if self._state is None:
            raise RuntimeError("reset must be called before act")
        batch, self._state = act(self._params, self._state, obs, self._rng)
        return batch


_OPTIMIZER_CHECK: type[Optimizer] = LearnedOptimizer  # interface conformance


def save_params(path: str | Path, config: PolicyConfig, params: PolicyParams) -> None:
    """Write a policy checkpoint as JSON (exact float round-trip)."""
    save_json(path, {"policy_config": config.to_json(), "flat_params": [float(v) for v in flatten(params)]})


def load_params(path: str | Path) -> tuple[PolicyConfig, PolicyParams]:
    payload = load_json(path, "parameter")
    config = PolicyConfig.from_json(payload["policy_config"])
    flat = np.asarray(payload["flat_params"], dtype=float)
    if not np.isfinite(flat).all():
        raise ValueError(f"parameter file {path}: flat_params contains non-finite values")
    return config, unflatten(config, flat)
