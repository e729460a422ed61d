"""Synthetic objective-function families and the task distribution over them.

A task is one concrete instance of a function family: a shift of the optimum,
an orthogonal rotation of the search space, and an additive value offset. All
tasks are evaluated on the unified normalized domain ``[-1, 1]^d``; the
evaluation maps points affinely into the family's natural domain first.

Family forms are the standard textbook/BBOB shapes, re-centered so that the
global minimum sits at ``z = 0`` with value exactly ``0``:

===================  =======================  ==============================
family               natural domain           canonical form on z
===================  =======================  ==============================
sphere               [-5, 5]^d                sum(z_i^2)
linear-slope         [-5, 5]^d                sum of per-coordinate slopes,
                                              optimum pinned to a box corner
rastrigin            [-5, 5]^d                10 d + sum(z_i^2 - 10 cos(2 pi z_i))
schwefel             [-500, 500]^d            deep-well sine form, see below
lunacek-bi-rastrigin [-5, 5]^d                two-funnel Rastrigin hybrid
griewank-rosenbrock  [-5, 5]^d                Griewank of Rosenbrock chain
===================  =======================  ==============================

The Schwefel form uses the per-coordinate well ``g(t) = t sin(sqrt(|t|))``
with its argument clamped to ``[-500, 500]`` plus a quadratic penalty outside;
this keeps the global minimum at ``z = 0`` even for rotated/shifted instances
whose reachable ``z`` range extends beyond the natural box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .seeding import derive_seed

__all__ = [
    "Family",
    "Split",
    "InstanceConfig",
    "Task",
    "TaskSuite",
    "DomainError",
    "random_orthogonal",
    "make_instance",
    "make_suite",
    "evaluate",
    "evaluate_batch",
]


class DomainError(ValueError):
    """A point lies outside the normalized domain [-1, 1]^d."""


class Family(str, Enum):
    SPHERE = "sphere"
    LINEAR_SLOPE = "linear-slope"
    RASTRIGIN = "rastrigin"
    SCHWEFEL = "schwefel"
    LUNACEK_BI_RASTRIGIN = "lunacek-bi-rastrigin"
    GRIEWANK_ROSENBROCK = "griewank-rosenbrock"


class Split(str, Enum):
    TRAIN = "train"
    VALIDATION = "val"
    TEST = "test"


#: Half-width of each family's natural domain (symmetric about 0).
NATURAL_HALF_WIDTH: dict[Family, float] = {
    Family.SPHERE: 5.0,
    Family.LINEAR_SLOPE: 5.0,
    Family.RASTRIGIN: 5.0,
    Family.SCHWEFEL: 500.0,
    Family.LUNACEK_BI_RASTRIGIN: 5.0,
    Family.GRIEWANK_ROSENBROCK: 5.0,
}

#: Shifts are drawn uniformly from this fraction of the normalized domain.
SHIFT_FRACTION = 0.8

#: Value offsets are drawn uniformly from [-VALUE_OFFSET_RANGE, +VALUE_OFFSET_RANGE].
VALUE_OFFSET_RANGE = 100.0

# argmax of g(t) = t sin(sqrt(|t|)) on [-500, 500]; the bottom of Schwefel's
# deepest well. g(T_STAR) matches the classic 418.9828872724339 constant.
T_STAR = 420.96874635998205

_ROTATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class InstanceConfig:
    """Per-instance transformation parameters (the task's configuration)."""

    instance_seed: int
    shift: np.ndarray
    rotation: np.ndarray
    value_offset: float


@dataclass(frozen=True, eq=False)
class Task:
    """One objective-function instance with a known optimum value."""

    family: Family
    config: InstanceConfig
    dimension: int
    optimum_value: float
    task_id: str

    def __post_init__(self) -> None:
        d = self.dimension
        if d < 1:
            raise ValueError("dimension must be positive")
        if self.family is Family.GRIEWANK_ROSENBROCK and d < 2:
            raise ValueError("griewank-rosenbrock requires dimension >= 2")
        cfg = self.config
        if cfg.shift.shape != (d,) or cfg.rotation.shape != (d, d):
            raise ValueError("instance config shapes do not match dimension")
        err = np.abs(cfg.rotation.T @ cfg.rotation - np.eye(d)).max()
        if err > _ROTATION_TOL:
            raise ValueError(f"rotation is not orthogonal (max error {err:.2e})")
        if self.family is Family.LINEAR_SLOPE:
            if not np.all(np.abs(cfg.shift) == 1.0):
                raise ValueError("linear-slope shift must be a domain corner")
        elif not np.all(np.abs(cfg.shift) < 1.0):
            raise ValueError("shift must lie strictly inside (-1, 1)^d")

    def optimum_location(self) -> np.ndarray:
        """Normalized coordinates of the global optimum (the shift)."""
        return self.config.shift


@dataclass(frozen=True)
class TaskSuite:
    """Ordered tasks with train/validation/test split labels."""

    tasks: tuple[Task, ...]
    splits: tuple[Split, ...]

    def __post_init__(self) -> None:
        if len(self.tasks) != len(self.splits):
            raise ValueError("tasks and splits must have equal length")

    def __len__(self) -> int:
        return len(self.tasks)

    def tasks_in(self, split: Split) -> tuple[Task, ...]:
        return tuple(t for t, s in zip(self.tasks, self.splits) if s is split)

    @property
    def train_tasks(self) -> tuple[Task, ...]:
        return self.tasks_in(Split.TRAIN)

    @property
    def validation_tasks(self) -> tuple[Task, ...]:
        return self.tasks_in(Split.VALIDATION)

    @property
    def test_tasks(self) -> tuple[Task, ...]:
        return self.tasks_in(Split.TEST)


def random_orthogonal(dimension: int, seed: int) -> np.ndarray:
    """Seeded random orthogonal matrix.

    QR-orthogonalization of a Gaussian matrix with the sign of R's diagonal
    fixed, which makes the result unique and Haar-distributed.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dimension, dimension))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def make_instance(family: Family, dimension: int, instance_seed: int, task_id: str | None = None) -> Task:
    """Construct one task instance deterministically from its seed.

    Draw order is fixed: shift first, then value offset; the rotation comes
    from a sub-seed. Linear-slope instances project the shift to the nearest
    domain corner and carry the identity rotation so the optimum stays at
    that corner.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(instance_seed)
    shift = rng.uniform(-SHIFT_FRACTION, SHIFT_FRACTION, dimension)
    value_offset = float(rng.uniform(-VALUE_OFFSET_RANGE, VALUE_OFFSET_RANGE))
    if family is Family.LINEAR_SLOPE:
        shift = np.where(shift >= 0.0, 1.0, -1.0)
        rotation = np.eye(dimension)
    else:
        rotation = random_orthogonal(dimension, derive_seed(instance_seed, 1))
    config = InstanceConfig(
        instance_seed=instance_seed,
        shift=_frozen(shift),
        rotation=_frozen(rotation),
        value_offset=value_offset,
    )
    if task_id is None:
        task_id = f"{family.value}-d{dimension}-s{instance_seed:x}"
    return Task(
        family=family,
        config=config,
        dimension=dimension,
        optimum_value=value_offset,
        task_id=task_id,
    )


def _split_counts(n: int, ratio: tuple[float, float, float]) -> tuple[int, int, int]:
    if len(ratio) != 3:
        raise ValueError("split_ratio must have three entries")
    if any(r < 0 for r in ratio):
        raise ValueError("split fractions must be non-negative")
    if abs(sum(ratio) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {sum(ratio)}")
    n_train = int(round(n * ratio[0]))
    n_val = int(round(n * ratio[1]))
    n_test = n - n_train - n_val
    if n_test < 0:
        raise ValueError("split rounding produced a negative test count")
    return n_train, n_val, n_test


def make_suite(
    families: list[Family],
    dimension: int,
    instances_per_family: int,
    split_ratio: tuple[float, float, float] = (0.1, 0.1, 0.8),
    master_seed: int = 0,
) -> TaskSuite:
    """Generate a deterministic task suite over the given families.

    Instances are split by index ranges: the first block of each family is
    Train, then Validation, then Test.
    """
    if not families:
        raise ValueError("families must be non-empty")
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if instances_per_family < 3:
        raise ValueError("instances_per_family must be at least 3")
    n_train, n_val, _ = _split_counts(instances_per_family, split_ratio)

    tasks: list[Task] = []
    splits: list[Split] = []
    for f_idx, family in enumerate(families):
        for i in range(instances_per_family):
            instance_seed = derive_seed(master_seed, f_idx, i)
            task_id = f"{family.value}-d{dimension}-{i:04d}"
            tasks.append(make_instance(family, dimension, instance_seed, task_id))
            if i < n_train:
                splits.append(Split.TRAIN)
            elif i < n_train + n_val:
                splits.append(Split.VALIDATION)
            else:
                splits.append(Split.TEST)
    seeds = [t.config.instance_seed for t in tasks]
    if len(set(seeds)) != len(seeds):
        raise RuntimeError("instance seed collision; change master_seed")
    return TaskSuite(tasks=tuple(tasks), splits=tuple(splits))


# ---------------------------------------------------------------------------
# family forms on the centered variable z (global minimum 0 at z = 0)
# ---------------------------------------------------------------------------


def _form_sphere(z: np.ndarray, task: Task) -> np.ndarray:
    return (z * z).sum(axis=1)


def _form_rastrigin(z: np.ndarray, task: Task) -> np.ndarray:
    d = z.shape[1]
    return 10.0 * d + (z * z - 10.0 * np.cos(2.0 * np.pi * z)).sum(axis=1)


_G_STAR = T_STAR * math.sin(math.sqrt(T_STAR))


def _form_schwefel(z: np.ndarray, task: Task) -> np.ndarray:
    t = z + T_STAR
    tc = t.clip(-500.0, 500.0)
    well = _G_STAR - tc * np.sin(np.sqrt(np.abs(tc)))
    pen = 0.01 * np.maximum(0.0, np.abs(t) - 500.0) ** 2
    return (well + pen).sum(axis=1)


def _form_lunacek(z: np.ndarray, task: Task) -> np.ndarray:
    d = z.shape[1]
    mu0 = 2.5
    s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
    mu1 = -math.sqrt((mu0 * mu0 - 1.0) / s)
    x = z + mu0
    x0 = x - mu0  # not z: the round trip through x rounds
    sphere0 = (x0 * x0).sum(axis=1)
    sphere1 = 1.0 * d + s * ((x - mu1) ** 2).sum(axis=1)
    osc = 10.0 * (d - np.cos(2.0 * np.pi * x0).sum(axis=1))
    return np.minimum(sphere0, sphere1) + osc


def _form_griewank_rosenbrock(z: np.ndarray, task: Task) -> np.ndarray:
    d = z.shape[1]
    x = z + 1.0
    chain = 100.0 * (x[:, :-1] ** 2 - x[:, 1:]) ** 2 + (x[:, :-1] - 1.0) ** 2
    return (10.0 / (d - 1)) * (chain / 4000.0 - np.cos(chain) + 1.0).sum(axis=1)


@lru_cache(maxsize=None)
def _slope_magnitudes(dimension: int) -> np.ndarray:
    mags = 10.0 ** np.linspace(0.0, 1.0, dimension)
    mags.flags.writeable = False
    return mags


def linear_slope_vector(task: Task) -> np.ndarray:
    """Signed slope vector in natural coordinates; magnitudes 10^(i/(d-1))."""
    return task.config.shift * _slope_magnitudes(task.dimension)


def _form_linear_slope(z: np.ndarray, task: Task) -> np.ndarray:
    # z = x_nat - half * corner, so -s.z >= 0 on the box, 0 at the corner
    return -(z * linear_slope_vector(task)).sum(axis=1)


_FORMS = {
    Family.SPHERE: _form_sphere,
    Family.LINEAR_SLOPE: _form_linear_slope,
    Family.RASTRIGIN: _form_rastrigin,
    Family.SCHWEFEL: _form_schwefel,
    Family.LUNACEK_BI_RASTRIGIN: _form_lunacek,
    Family.GRIEWANK_ROSENBROCK: _form_griewank_rosenbrock,
}


def evaluate_batch(task: Task, points: np.ndarray) -> np.ndarray:
    """Evaluate a batch of normalized points, shape (n, d) -> (n,)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != task.dimension:
        raise ValueError(f"points must have shape (n, {task.dimension})")
    # one pass: the comparison is false for NaN and +-inf as well
    if not (np.abs(pts) <= 1.0).all():
        if not np.isfinite(pts).all():
            raise DomainError("points contain non-finite coordinates")
        raise DomainError("coordinates must lie in [-1, 1]; clamp before evaluating")
    half = NATURAL_HALF_WIDTH[task.family]
    cfg = task.config
    diff = pts * half - cfg.shift * half
    # row-wise reduction instead of matmul so results are bit-identical for
    # any batch size (BLAS kernels vary with shape)
    z = (cfg.rotation[None, :, :] * diff[:, None, :]).sum(axis=2)
    return _FORMS[task.family](z, task) + cfg.value_offset


def evaluate(task: Task, x: np.ndarray) -> float:
    """Evaluate one normalized point in [-1, 1]^d."""
    return float(evaluate_batch(task, np.asarray(x, dtype=float)[None, :])[0])
