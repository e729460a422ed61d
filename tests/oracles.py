"""Independent reference implementations used to cross-check the package.

Everything here is written in plain Python (loops, math module) on purpose,
separately from the vectorized library code, so agreement between the two is
meaningful. Keep these naive and slow. The exceptions are the two sections
at the end, frozen copies of earlier vectorized code (the policy step and
the rest of the per-generation path) that optimized versions must match bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from metapop.baselines import CmaState
from metapop.env import ActionBatch, Observation
from metapop.policy import PolicyParams, PolicyState
from metapop.problems import DomainError


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
        rank_rep = np.repeat(reference_rank_transform(fit), d)

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


# ---------------------------------------------------------------------------
# Frozen per-generation path: ``rank_transform``, ``evaluate_batch`` with its
# six family forms, ``cma_update`` and ``_boundary_shaped`` exactly as written
# before the generation step was made lean, kept verbatim so the lean
# versions can be checked against them byte for byte (and for the same
# exception type and message). Vectorized on purpose, like the reference
# policy step above.


def reference_rank_transform(fitness: np.ndarray) -> np.ndarray:
    v = np.asarray(fitness, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("rank_transform needs a 1-d vector of length >= 2")
    if not np.all(np.isfinite(v)):
        raise ValueError("fitness values must be finite")
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    ranks[order] = np.arange(v.size, dtype=float)
    return ranks / (v.size - 1)


def _reference_form_sphere(z, task):
    return np.sum(z * z, axis=1)


def _reference_form_rastrigin(z, task):
    d = z.shape[1]
    return 10.0 * d + np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z), axis=1)


_REFERENCE_T_STAR = 420.96874635998205
_REFERENCE_G_STAR = _REFERENCE_T_STAR * math.sin(math.sqrt(_REFERENCE_T_STAR))


def _reference_form_schwefel(z, task):
    t = z + _REFERENCE_T_STAR
    tc = np.clip(t, -500.0, 500.0)
    well = _REFERENCE_G_STAR - tc * np.sin(np.sqrt(np.abs(tc)))
    pen = 0.01 * np.maximum(0.0, np.abs(t) - 500.0) ** 2
    return np.sum(well + pen, axis=1)


def _reference_form_lunacek(z, task):
    d = z.shape[1]
    mu0 = 2.5
    s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
    mu1 = -math.sqrt((mu0 * mu0 - 1.0) / s)
    x = z + mu0
    sphere0 = np.sum((x - mu0) ** 2, axis=1)
    sphere1 = 1.0 * d + s * np.sum((x - mu1) ** 2, axis=1)
    osc = 10.0 * (d - np.sum(np.cos(2.0 * np.pi * (x - mu0)), axis=1))
    return np.minimum(sphere0, sphere1) + osc


def _reference_form_griewank_rosenbrock(z, task):
    d = z.shape[1]
    x = z + 1.0
    chain = 100.0 * (x[:, :-1] ** 2 - x[:, 1:]) ** 2 + (x[:, :-1] - 1.0) ** 2
    return (10.0 / (d - 1)) * np.sum(chain / 4000.0 - np.cos(chain) + 1.0, axis=1)


def _reference_form_linear_slope(z, task):
    slopes = task.config.shift * 10.0 ** np.linspace(0.0, 1.0, task.dimension)
    return -np.sum(z * slopes, axis=1)


_REFERENCE_FORMS = {
    "sphere": _reference_form_sphere,
    "linear-slope": _reference_form_linear_slope,
    "rastrigin": _reference_form_rastrigin,
    "schwefel": _reference_form_schwefel,
    "lunacek-bi-rastrigin": _reference_form_lunacek,
    "griewank-rosenbrock": _reference_form_griewank_rosenbrock,
}


def reference_evaluate_batch(task, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != task.dimension:
        raise ValueError(f"points must have shape (n, {task.dimension})")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points contain non-finite coordinates")
    if np.any(np.abs(pts) > 1.0):
        raise DomainError("coordinates must lie in [-1, 1]; clamp before evaluating")
    half = {"schwefel": 500.0}.get(task.family.value, 5.0)
    x_nat = pts * half
    shift_nat = task.config.shift * half
    diff = x_nat - shift_nat
    z = np.sum(task.config.rotation[None, :, :] * diff[:, None, :], axis=2)
    return _REFERENCE_FORMS[task.family.value](z, task) + task.config.value_offset


def reference_cov_eig(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    floor = 1e-14 * float(np.trace(cov))
    if floor <= 0.0:
        floor = 1e-300
    try:
        vals, vecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov + floor * np.eye(cov.shape[0]))
    return np.maximum(vals, floor), vecs


def reference_cma_update(state: CmaState, sampled_points: np.ndarray, fitness: np.ndarray) -> CmaState:
    """The CMA-ES update; it decomposes ``state.cov`` itself instead of reading ``state.eig``."""
    pts = np.asarray(sampled_points, dtype=float)
    fit = np.asarray(fitness, dtype=float)
    if pts.shape != (state.lam, state.dim) or fit.shape != (state.lam,):
        raise ValueError("points/fitness shape does not match the state")
    if not np.all(np.isfinite(fit)):
        raise ValueError("fitness values must be finite")

    d = state.dim
    mu = state.lam // 2
    order = np.argsort(fit, kind="stable")
    selected = pts[order[:mu]]
    y = (selected - state.mean) / state.step_size
    y_w = state.weights @ y
    new_mean = state.mean + state.step_size * y_w

    vals, vecs = reference_cov_eig(state.cov)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    c_s, d_s = state.c_sigma, state.d_sigma
    p_sigma = (1.0 - c_s) * state.p_sigma + math.sqrt(
        c_s * (2.0 - c_s) * state.mu_eff
    ) * (inv_sqrt @ y_w)
    gen = state.generation + 1
    norm_ps = float(np.linalg.norm(p_sigma))
    hsig = norm_ps / math.sqrt(1.0 - (1.0 - c_s) ** (2 * gen)) / state.chi_d < 1.4 + 2.0 / (d + 1.0)
    p_c = (1.0 - state.c_c) * state.p_c
    if hsig:
        p_c = p_c + math.sqrt(state.c_c * (2.0 - state.c_c) * state.mu_eff) * y_w

    rank_mu = (state.weights[:, None, None] * (y[:, :, None] * y[:, None, :])).sum(axis=0)
    delta = (1.0 - int(hsig)) * state.c_c * (2.0 - state.c_c)
    cov = (
        (1.0 - state.c1 - state.c_mu) * state.cov
        + state.c1 * (np.outer(p_c, p_c) + delta * state.cov)
        + state.c_mu * rank_mu
    )
    cov = (cov + cov.T) / 2.0

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


def reference_boundary_shaped(raw: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    viol = ((raw - np.clip(raw, -1.0, 1.0)) ** 2).sum(axis=1)
    if not np.any(viol > 0.0):
        return np.asarray(fitness, dtype=float)
    shaped = np.array(fitness, dtype=float)
    shaped[viol > 0.0] = shaped.max() + viol[viol > 0.0]
    return shaped
