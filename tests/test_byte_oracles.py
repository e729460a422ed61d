"""Byte equality of the per-generation path against its frozen copies.

``tests/oracles.py`` keeps ``rank_transform``, ``evaluate_batch`` (with its
six family forms), ``cma_update`` and ``_boundary_shaped`` as first written.
The library versions may be rewritten for speed, but must return the same
bytes, and raise the same exception type with the same message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from metapop.baselines import _boundary_shaped, cma_act, cma_init, cma_update
from metapop.policy import rank_transform
from metapop.problems import Family, evaluate_batch, make_instance

ONE_UP = float(np.nextafter(1.0, 2.0))

#: Coordinates a batch is built from: the box edges and its centre, plus
#: uniform values drawn by hypothesis.
EDGE_COORDS = (-1.0, 1.0, 0.0, -0.0)
BAD_COORDS = (np.nan, np.inf, -np.inf, ONE_UP, -ONE_UP)


def _outcome(fn, *args):
    """The returned bytes, or the exception type and message."""
    try:
        return fn(*args).tobytes()
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return type(exc), str(exc)


#: Families that cannot be evaluated at d=1: griewank-rosenbrock rejects it at
#: construction, and lunacek-bi-rastrigin's s = 1 - 1/(2 sqrt(21) - 8.2) is
#: negative there, so its form raises ``ValueError`` (checked on its own below).
NEEDS_D2 = (Family.GRIEWANK_ROSENBROCK, Family.LUNACEK_BI_RASTRIGIN)


@st.composite
def _family_dim(draw):
    family = draw(st.sampled_from(list(Family)))
    dims = (2, 5, 10) if family in NEEDS_D2 else (1, 2, 5, 10)
    return family, draw(st.sampled_from(dims))


def _coords(bad: bool):
    good = st.one_of(st.sampled_from(EDGE_COORDS), st.floats(-1.0, 1.0))
    return st.one_of(good, st.sampled_from(BAD_COORDS)) if bad else good


class TestEvaluateBatch:
    @settings(max_examples=150, deadline=None)
    @given(fd=_family_dim(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_bytes_match_in_the_box(self, fd, seed, data):
        family, d = fd
        task = make_instance(family, d, seed)
        n = data.draw(st.integers(1, 12))
        pts = np.array(data.draw(st.lists(_coords(False), min_size=n * d, max_size=n * d))).reshape(n, d)
        got = evaluate_batch(task, pts)
        assert got.tobytes() == oracles.reference_evaluate_batch(task, pts).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(fd=_family_dim(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_same_error_outside_the_box(self, fd, seed, data):
        """NaN, ±inf and 1 + ulp raise the oracle's ``DomainError`` and message."""
        family, d = fd
        task = make_instance(family, d, seed)
        n = data.draw(st.integers(1, 12))
        flat = data.draw(st.lists(_coords(True), min_size=n * d, max_size=n * d))
        flat[data.draw(st.integers(0, n * d - 1))] = data.draw(st.sampled_from(BAD_COORDS))
        pts = np.array(flat).reshape(n, d)
        got = _outcome(evaluate_batch, task, pts)
        assert isinstance(got, tuple)
        assert got == _outcome(oracles.reference_evaluate_batch, task, pts)

    def test_same_error_for_lunacek_at_d1(self):
        task = make_instance(Family.LUNACEK_BI_RASTRIGIN, 1, 3)
        pts = np.zeros((2, 1))
        got = _outcome(evaluate_batch, task, pts)
        assert got == _outcome(oracles.reference_evaluate_batch, task, pts)
        assert got[0] is ValueError

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3)])
    def test_same_error_on_wrong_shape(self, shape):
        task = make_instance(Family.SPHERE, 3, 9)
        pts = np.zeros(shape)
        got = _outcome(evaluate_batch, task, pts)
        assert got == _outcome(oracles.reference_evaluate_batch, task, pts)
        assert got[0] is ValueError


class TestRankTransform:
    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e300)), st.floats(-1e6, 1e6)),
            min_size=2,
            max_size=40,
        )
    )
    def test_bytes_match(self, values):
        v = np.array(values)
        assert rank_transform(v).tobytes() == oracles.reference_rank_transform(v).tobytes()

    @pytest.mark.parametrize(
        "values", [[1.0, np.nan], [np.inf, 0.0], [0.0, -np.inf, 2.0], [3.0], [[1.0, 2.0]]]
    )
    def test_same_error(self, values):
        v = np.array(values)
        got = _outcome(rank_transform, v)
        assert got == _outcome(oracles.reference_rank_transform, v)
        assert got[0] is ValueError


def _state_bytes(state) -> tuple:
    return (
        state.mean.tobytes(),
        state.cov.tobytes(),
        state.p_sigma.tobytes(),
        state.p_c.tobytes(),
        state.step_size.hex(),
        state.generation,
    )


class TestCmaUpdate:
    """30-generation trajectories of the live and frozen updates, side by side.

    Both sides sample with the live ``cma_act`` from their own copy of one
    generator, so any difference in a state shows up in every later batch.
    """

    def _run(self, task, lam, seed, mean, step_size):
        """Number of generations that sampled outside the box."""
        d = task.dimension
        state = ref = cma_init(d, lam=lam, mean=mean, step_size=step_size)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out_of_box = 0
        for g in range(30):
            batch, raw = cma_act(state, lam, rng)
            _, ref_raw = cma_act(ref, lam, ref_rng)
            assert raw.tobytes() == ref_raw.tobytes(), f"generation {g}"
            fitness = evaluate_batch(task, batch.points)
            shaped = _boundary_shaped(raw, fitness)
            ref_shaped = oracles.reference_boundary_shaped(ref_raw, fitness)
            assert shaped.tobytes() == ref_shaped.tobytes(), f"generation {g}"
            out_of_box += int((np.abs(raw) > 1.0).any())
            state = cma_update(state, raw, shaped)
            ref = oracles.reference_cma_update(ref, ref_raw, ref_shaped)
            assert _state_bytes(state) == _state_bytes(ref), f"generation {g}"
        return out_of_box

    @settings(max_examples=25, deadline=None)
    @given(fd=_family_dim(), lam=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_trajectory_bytes_match_with_out_of_box_samples(self, fd, lam, seed):
        family, d = fd
        task = make_instance(family, d, seed)
        assert self._run(task, lam, seed, mean=None, step_size=2.0) > 0

    @settings(max_examples=25, deadline=None)
    @given(d=st.sampled_from((1, 2, 5, 10)), lam=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_trajectory_bytes_match_in_the_box(self, d, lam, seed):
        """A tiny step started at the sphere's optimum never leaves the box."""
        task = make_instance(Family.SPHERE, d, seed)
        assert self._run(task, lam, seed, mean=task.config.shift, step_size=1e-3) == 0

    @pytest.mark.parametrize("fitness", [[0.0, np.nan, 1.0, 2.0], [np.inf, 0.0, 1.0, 2.0], [0.0, 1.0]])
    def test_same_error(self, fitness):
        state = cma_init(3, lam=4)
        raw = np.zeros((4, 3))
        got = _outcome(cma_update, state, raw, np.array(fitness))
        want = _outcome(oracles.reference_cma_update, state, raw, np.array(fitness))
        assert got[0] is ValueError
        assert got == want


class TestBoundaryShaped:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 12),
        d=st.integers(1, 10),
    )
    def test_bytes_match(self, data, n, d):
        coord = st.one_of(
            st.sampled_from((-1.0, 1.0, ONE_UP, -ONE_UP, 0.0, 3.0, -1e6, np.nan)), st.floats(-2.0, 2.0)
        )
        raw = np.array(data.draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
        fitness = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        got = _boundary_shaped(raw, fitness)
        assert got.tobytes() == oracles.reference_boundary_shaped(raw, fitness).tobytes()
