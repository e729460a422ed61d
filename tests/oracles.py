"""Independent reference implementations used to cross-check the package.

Everything here is written in plain Python (loops, math module) on purpose,
separately from the vectorized library code, so agreement between the two is
meaningful. Keep these naive and slow. The one exception is the reference
policy step at the end, a frozen copy of the original vectorized step that
optimized versions must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from metapop.env import ActionBatch, Observation
from metapop.policy import PolicyParams, PolicyState, rank_transform


def naive_evaluate(task, x) -> float:
    """Loop-based re-implementation of task evaluation."""
    d = task.dimension
    half = {"schwefel": 500.0}.get(task.family.value, 5.0)
    x_nat = [float(x[i]) * half for i in range(d)]
    shift_nat = [float(task.config.shift[i]) * half for i in range(d)]
    diff = [x_nat[i] - shift_nat[i] for i in range(d)]
    rot = task.config.rotation
    z = [sum(float(rot[i][j]) * diff[j] for j in range(d)) for i in range(d)]
    name = task.family.value
    if name == "sphere":
        raw = sum(v * v for v in z)
    elif name == "rastrigin":
        raw = 10.0 * d + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in z)
    elif name == "schwefel":
        t_star = 420.96874635998205
        g_star = t_star * math.sin(math.sqrt(t_star))
        raw = 0.0
        for v in z:
            t = v + t_star
            tc = min(500.0, max(-500.0, t))
            raw += g_star - tc * math.sin(math.sqrt(abs(tc)))
            over = abs(t) - 500.0
            if over > 0.0:
                raw += 0.01 * over * over
    elif name == "lunacek-bi-rastrigin":
        mu0 = 2.5
        s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
        mu1 = -math.sqrt((mu0 * mu0 - 1.0) / s)
        xs = [v + mu0 for v in z]
        s0 = sum((v - mu0) ** 2 for v in xs)
        s1 = 1.0 * d + s * sum((v - mu1) ** 2 for v in xs)
        osc = 10.0 * (d - sum(math.cos(2.0 * math.pi * (v - mu0)) for v in xs))
        raw = min(s0, s1) + osc
    elif name == "griewank-rosenbrock":
        xs = [v + 1.0 for v in z]
        raw = 0.0
        for i in range(d - 1):
            c = 100.0 * (xs[i] ** 2 - xs[i + 1]) ** 2 + (xs[i] - 1.0) ** 2
            raw += c / 4000.0 - math.cos(c) + 1.0
        raw *= 10.0 / (d - 1)
    elif name == "linear-slope":
        raw = 0.0
        for i in range(d):
            mag = 10.0 ** (i / (d - 1)) if d > 1 else 1.0
            raw += -float(task.config.shift[i]) * mag * z[i]
    else:
        raise ValueError(f"unknown family {name}")
    return raw + task.config.value_offset


def naive_rank_transform(values) -> list[float]:
    """Ascending ranks scaled to [0, 1], ties broken by input position."""
    n = len(values)
    order = sorted(range(n), key=lambda i: (float(values[i]), i))
    out = [0.0] * n
    for rank, idx in enumerate(order):
        out[idx] = rank / (n - 1)
    return out


def naive_expected_fe(p_succ: float, fe_max: float, mean_fe_succ: float) -> float:
    """Restart-algorithm expectation: failures cost fe_max each."""
    return (1.0 - p_succ) / p_succ * fe_max + mean_fe_succ


def evals_to_success(best_gaps, lam: int, fe_max: int, tolerance: float) -> int | None:
    """Evaluations an episode spent up to its first best gap at most ``tolerance``.

    The episode loop's own bookkeeping, replayed: each generation adds the
    evaluations it spent, ``lam`` or whatever budget is left, and the count
    freezes at the first generation whose best gap reaches the tolerance.
    """
    evals_used = 0
    for gap in best_gaps:
        evals_used += min(lam, fe_max - evals_used)
        if gap <= tolerance:
            return evals_used
    return None


def simulate_restart_fe(p_succ: float, fe_max: float, mean_fe_succ: float, n_sims: int, rng) -> float:
    """Monte-Carlo estimate of the conceptual restart algorithm's cost."""
    total = 0.0
    for _ in range(n_sims):
        cost = 0.0
        while rng.random() >= p_succ:
            cost += fe_max
        total += cost + mean_fe_succ
    return total / n_sims


def naive_lstm_step(x, h_prev, c_prev, w_x, w_h, b, hidden: int):
    """One LSTM cell step with [i, f, g, o] gate packing, plain loops."""
    n_in = len(x)
    h = [0.0] * hidden
    c = [0.0] * hidden
    for u in range(hidden):
        acts = []
        for gate in range(4):
            row = gate * hidden + u
            a = b[row]
            for j in range(n_in):
                a += w_x[row][j] * x[j]
            for j in range(hidden):
                a += w_h[row][j] * h_prev[j]
            acts.append(a)
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i_g, f_g, g_g, o_g = sig(acts[0]), sig(acts[1]), math.tanh(acts[2]), sig(acts[3])
        c[u] = f_g * c_prev[u] + i_g * g_g
        h[u] = o_g * math.tanh(c[u])
    return h, c


def lstm_param_count(n_input: int, hidden: int, layers: int) -> int:
    """Parameter count for a stacked LSTM plus a scalar Bayesian readout."""
    total = 0
    n_in = n_input
    for _ in range(layers):
        total += 4 * hidden * n_in + 4 * hidden * hidden + 4 * hidden
        n_in = hidden
    total += 2 * (hidden + 1)  # readout mean and log-sigma, each with bias
    return total


def naive_auc(budgets, fractions, fe_max: float) -> float:
    """Trapezoid area of the step polyline over log10 budget, normalized.

    The curve is piecewise constant between hit budgets (right-continuous),
    evaluated from budget 1 to fe_max.
    """
    span = math.log10(fe_max) - math.log10(1.0)
    if span <= 0.0:
        return fractions[-1] if fractions else 0.0
    area = 0.0
    prev_b, prev_f = 1.0, 0.0
    for b, f in zip(budgets, fractions):
        bc = min(max(b, 1.0), fe_max)
        area += prev_f * (math.log10(bc) - math.log10(prev_b))
        prev_b, prev_f = bc, f
    area += prev_f * (math.log10(fe_max) - math.log10(prev_b))
    return area / span


# ---------------------------------------------------------------------------
# Reference policy step: the masked-sigmoid forward pass exactly as first
# written, kept verbatim so a faster ``policy.act`` can be checked against it
# byte for byte. The one change since: like ``act``, it draws its readout
# sample from the episode's generator instead of seeding one per step.
# Unlike the rest of this file it is vectorized on purpose: the point is
# identical IEEE operations, not an independent formulation.


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_act(
    params: PolicyParams,
    state: PolicyState,
    obs: Observation,
    rng: np.random.Generator,
) -> tuple[ActionBatch, PolicyState]:
    lam, d = state.lam, state.dim
    n_slots = lam * d
    hidden = params.layers[0].w_h.shape[1]

    if obs.is_empty:
        if state.prev_point is not None:
            raise ValueError("generation 0 requires a freshly initialized state")
        x_val = np.zeros(n_slots)
        rank_rep = np.zeros(n_slots)
    else:
        pts = np.asarray(obs.prev_points, dtype=float)
        fit = np.asarray(obs.prev_fitness, dtype=float)
        if pts.shape != (lam, d) or fit.shape != (lam,):
            raise ValueError(
                f"observation shape {pts.shape}/{fit.shape} does not match state ({lam}, {d})"
            )
        x_val = pts.ravel()
        rank_rep = np.repeat(rank_transform(fit), d)

    inputs = np.stack([x_val, rank_rep], axis=1)
    h_new = np.empty_like(state.h)
    c_new = np.empty_like(state.c)
    layer_in = inputs
    for li, layer in enumerate(params.layers):
        gates = layer_in @ layer.w_x.T + state.h[li] @ layer.w_h.T + layer.b
        gi = reference_sigmoid(gates[:, :hidden])
        gf = reference_sigmoid(gates[:, hidden : 2 * hidden])
        gg = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        go = reference_sigmoid(gates[:, 3 * hidden :])
        c = gf * state.c[li] + gi * gg
        h = go * np.tanh(c)
        h_new[li] = h
        c_new[li] = c
        layer_in = h

    # one fresh readout-weight sample per slot, indexed by slot position so
    # the result is independent of any internal evaluation order
    noise = rng.standard_normal((n_slots, hidden + 1))
    weights = params.out_mean + np.exp(params.out_log_sigma) * noise
    h_with_bias = np.concatenate([layer_in, np.ones((n_slots, 1))], axis=1)
    points = np.tanh(np.sum(weights * h_with_bias, axis=1)).reshape(lam, d)

    for a in (h_new, c_new, points):
        a.flags.writeable = False
    new_state = PolicyState(lam=lam, dim=d, h=h_new, c=c_new, prev_point=points)
    return ActionBatch(points), new_state
