"""Deterministic seed derivation and order-stable parallel mapping.

Every random draw in the toolkit comes from a ``numpy`` generator seeded
through :func:`derive_seed`, so results depend only on the master seed and
on integer indices (task key, run index, generation, ...) -- never on
execution order or worker count.
"""

from __future__ import annotations

import hashlib
from multiprocessing import get_context
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

__all__ = ["derive_seed", "stable_key", "rng_from", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def derive_seed(*parts: int) -> int:
    """Fold non-negative integer parts into a single 64-bit seed.

    Uses ``numpy.random.SeedSequence`` hashing, which is specified and stable
    across numpy versions and platforms.
    """
    if not parts:
        raise ValueError("derive_seed needs at least one part")
    for p in parts:
        if p < 0:
            raise ValueError(f"seed parts must be non-negative, got {p}")
    seq = np.random.SeedSequence(list(parts))
    return int(seq.generate_state(1, np.uint64)[0])


def stable_key(text: str) -> int:
    """Map a string (e.g. a task id) to a stable non-negative 63-bit integer."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_from(*parts: int) -> np.random.Generator:
    """Fresh generator seeded by the derived seed of ``parts``."""
    return np.random.default_rng(derive_seed(*parts))


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    workers: int = 0,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across a process pool.

    Output order always matches input order, so the result is independent of
    scheduling. ``workers <= 1`` runs serially in-process.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = get_context("fork")
    with ctx.Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items)
