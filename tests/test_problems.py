"""Tests for task generation and objective evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from metapop.problems import (
    DomainError,
    Family,
    InstanceConfig,
    Split,
    Task,
    evaluate,
    evaluate_batch,
    linear_slope_vector,
    make_instance,
    make_suite,
    random_orthogonal,
)

ALL_FAMILIES = list(Family)


def _fresh_task(family: Family, dimension: int, seed: int = 0) -> Task:
    return make_instance(family, dimension, seed)


class TestRandomOrthogonal:
    def test_orthogonality(self):
        """Q^T Q stays within 1e-10 of the identity across dimensions."""
        for d in (1, 2, 5, 20):
            q = random_orthogonal(d, seed=d)
            np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-10)

    def test_determinant_magnitude(self):
        """An orthogonal matrix has determinant +-1."""
        for seed in range(5):
            q = random_orthogonal(6, seed)
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-9

    def test_seed_determinism(self):
        """Same seed gives the identical matrix, different seeds differ."""
        a = random_orthogonal(4, 99)
        b = random_orthogonal(4, 99)
        c = random_orthogonal(4, 100)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 1e-3

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            random_orthogonal(0, 1)


class TestSuiteGeneration:
    def test_split_sizes_match_ratios(self):
        """1000 instances at (0.1, 0.1, 0.8) split into 100/100/800."""
        suite = make_suite([Family.SPHERE], 2, 1000, (0.1, 0.1, 0.8), master_seed=7)
        assert len(suite.train_tasks) == 100
        assert len(suite.validation_tasks) == 100
        assert len(suite.test_tasks) == 800
        assert len(suite) == 1000

    def test_degenerate_split_all_train(self):
        suite = make_suite([Family.SPHERE], 2, 10, (1.0, 0.0, 0.0), master_seed=7)
        assert len(suite.train_tasks) == 10
        assert len(suite.validation_tasks) == 0
        assert len(suite.test_tasks) == 0

    def test_family_blocks_in_given_order(self):
        """Tasks appear grouped by family, in the order families were given."""
        fams = [Family.RASTRIGIN, Family.SPHERE]
        suite = make_suite(fams, 2, 3, (1.0, 0.0, 0.0), master_seed=0)
        assert [t.family for t in suite.tasks[:3]] == [Family.RASTRIGIN] * 3
        assert [t.family for t in suite.tasks[3:]] == [Family.SPHERE] * 3

    def test_split_assignment_by_index_ranges(self):
        """Within each family the first block is train, then val, then test."""
        suite = make_suite([Family.SPHERE, Family.SCHWEFEL], 2, 4, (0.5, 0.25, 0.25), 3)
        per_family = [suite.splits[:4], suite.splits[4:]]
        for block in per_family:
            assert block == (Split.TRAIN, Split.TRAIN, Split.VALIDATION, Split.TEST)

    def test_same_seed_bit_identical(self):
        """Regeneration with the same master seed reproduces every array."""
        a = make_suite(ALL_FAMILIES, 3, 3, master_seed=42)
        b = make_suite(ALL_FAMILIES, 3, 3, master_seed=42)
        for ta, tb in zip(a.tasks, b.tasks):
            assert ta.task_id == tb.task_id
            assert ta.config.instance_seed == tb.config.instance_seed
            assert ta.config.value_offset == tb.config.value_offset
            np.testing.assert_array_equal(ta.config.shift, tb.config.shift)
            np.testing.assert_array_equal(ta.config.rotation, tb.config.rotation)

    def test_different_master_seeds_differ(self):
        a = make_suite([Family.SPHERE], 2, 3, master_seed=1)
        b = make_suite([Family.SPHERE], 2, 3, master_seed=2)
        assert not np.array_equal(a.tasks[0].config.shift, b.tasks[0].config.shift)

    def test_instance_seeds_distinct(self):
        suite = make_suite(ALL_FAMILIES, 2, 5, master_seed=0)
        seeds = [t.config.instance_seed for t in suite.tasks]
        assert len(set(seeds)) == len(seeds)

    def test_shift_ranges(self):
        """Shifts stay within 80% of the box; slope shifts sit on corners."""
        suite = make_suite(ALL_FAMILIES, 4, 5, master_seed=5)
        for task in suite.tasks:
            if task.family is Family.LINEAR_SLOPE:
                assert set(np.abs(task.config.shift)) == {1.0}
            else:
                assert np.abs(task.config.shift).max() <= 0.8

    def test_value_offset_range(self):
        suite = make_suite([Family.SPHERE], 2, 50, master_seed=5)
        offs = [t.config.value_offset for t in suite.tasks]
        assert all(-100.0 <= v <= 100.0 for v in offs)
        assert max(offs) != min(offs)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_suite([], 2, 3)
        with pytest.raises(ValueError):
            make_suite([Family.SPHERE], 0, 3)
        with pytest.raises(ValueError):
            make_suite([Family.SPHERE], 2, 2)
        with pytest.raises(ValueError):
            make_suite([Family.SPHERE], 2, 3, (0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            make_suite([Family.SPHERE], 2, 3, (1.2, -0.1, -0.1))

    def test_griewank_rosenbrock_needs_two_dims(self):
        with pytest.raises(ValueError):
            make_instance(Family.GRIEWANK_ROSENBROCK, 1, 0)


class TestEvaluation:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_exact_zero_gap_at_optimum(self, family):
        """The optimum location evaluates to the offset bit-exactly."""
        for seed in range(5):
            task = _fresh_task(family, 4, seed)
            assert evaluate(task, task.optimum_location()) == task.optimum_value
            assert task.optimum_value == task.config.value_offset

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_naive_oracle(self, family):
        """Vectorized evaluation agrees with the loop-based reference."""
        task = _fresh_task(family, 4, 77)
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.uniform(-1.0, 1.0, 4)
            expected = oracles.naive_evaluate(task, x)
            np.testing.assert_allclose(evaluate(task, x), expected, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_never_below_optimum(self, family):
        """No in-box point beats the declared optimum (within 1e-9)."""
        task = _fresh_task(family, 5, 3)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.0, 1.0, (1000, 5))
        vals = evaluate_batch(task, pts)
        assert vals.min() >= task.optimum_value - 1e-9

    def test_batch_matches_single(self, sphere_task):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.0, 1.0, (10, 3))
        batch = evaluate_batch(sphere_task, pts)
        singles = np.array([evaluate(sphere_task, p) for p in pts])
        np.testing.assert_array_equal(batch, singles)

    def test_repeated_evaluation_bit_identical(self, sphere_task):
        """Evaluation is pure: 100 repeats give one distinct value."""
        x = np.array([0.3, -0.2, 0.9])
        vals = {evaluate(sphere_task, x) for _ in range(100)}
        assert len(vals) == 1

    def test_sphere_is_rotation_invariant(self):
        """Sphere values depend only on the distance to the shift."""
        base = make_instance(Family.SPHERE, 3, 5)
        plain = InstanceConfig(
            instance_seed=base.config.instance_seed,
            shift=base.config.shift,
            rotation=np.eye(3),
            value_offset=base.config.value_offset,
        )
        unrotated = Task(Family.SPHERE, plain, 3, base.optimum_value, "sphere-id")
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 3)
            np.testing.assert_allclose(evaluate(base, x), evaluate(unrotated, x), rtol=1e-12)

    def test_rotation_changes_nonspherical_values(self):
        """Rastrigin instances with different rotations disagree off-optimum."""
        a = make_instance(Family.RASTRIGIN, 3, 5)
        plain = InstanceConfig(a.config.instance_seed, a.config.shift, np.eye(3), a.config.value_offset)
        b = Task(Family.RASTRIGIN, plain, 3, a.optimum_value, "rastrigin-id")
        x = np.array([0.5, -0.4, 0.1])
        assert evaluate(a, x) != evaluate(b, x)

    def test_linear_slope_corner_beats_interior(self):
        """The corner optimum undercuts 1000 random interior points."""
        task = make_instance(Family.LINEAR_SLOPE, 4, 9)
        corner_val = evaluate(task, task.optimum_location())
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.999, 0.999, (1000, 4))
        assert (evaluate_batch(task, pts) > corner_val).all()

    def test_linear_slope_vector_bytes_match_per_call_formula(self):
        """Per-dimension cached magnitudes give the bits of recomputing them."""
        for d in (1, 2, 3, 5, 10, 40):
            task = make_instance(Family.LINEAR_SLOPE, d, 17 + d)
            want = task.config.shift * 10.0 ** np.linspace(0.0, 1.0, d)
            for _ in range(2):
                assert linear_slope_vector(task).tobytes() == want.tobytes()

    def test_schwefel_well_constant(self):
        """The per-coordinate well value matches the classic constant."""
        t_star = 420.96874635998205
        g_star = t_star * math.sin(math.sqrt(t_star))
        assert abs(g_star - 418.9828872724339) < 1e-10
        grid = np.linspace(-500.0, 500.0, 2_000_001)
        g = grid * np.sin(np.sqrt(np.abs(grid)))
        assert g.max() <= g_star + 1e-9

    def test_rejects_out_of_domain(self, sphere_task):
        with pytest.raises(DomainError):
            evaluate(sphere_task, np.array([0.0, 1.0001, 0.0]))
        with pytest.raises(DomainError):
            evaluate(sphere_task, np.array([0.0, np.nan, 0.0]))
        with pytest.raises(ValueError):
            evaluate(sphere_task, np.array([0.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3))
    def test_property_no_point_beats_optimum(self, coords):
        """Property: arbitrary in-box points never beat the optimum."""
        for family in (Family.SPHERE, Family.RASTRIGIN, Family.SCHWEFEL):
            task = _fresh_task(family, 3, 1)
            assert evaluate(task, np.array(coords)) >= task.optimum_value - 1e-9

    def test_constructor_rejects_bad_config(self):
        base = make_instance(Family.SPHERE, 2, 0)
        skewed = InstanceConfig(0, base.config.shift, np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0)
        with pytest.raises(ValueError):
            Task(Family.SPHERE, skewed, 2, 0.0, "bad")
        edge = InstanceConfig(0, np.array([1.0, 0.0]), np.eye(2), 0.0)
        with pytest.raises(ValueError):
            Task(Family.SPHERE, edge, 2, 0.0, "bad")
