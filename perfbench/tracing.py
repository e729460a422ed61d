"""In-memory span tracing of metapop's layers, by wrapping functions where
their callers look them up.

``from .x import y`` binds ``y`` in the importing module, so a function is
wrapped at every module attribute its callers read (``SITES``), never at its
definition. Each call records one span: name, start, end (``perf_counter_ns``)
and the id of the innermost enclosing span. Spans stay in flat arrays until
the run ends; :meth:`Tracer.layer_metrics` turns them into per-layer numbers
and :meth:`Tracer.write_spans` writes them out.

Processes forked while the wrappers are installed inherit them, but their
spans stay in the child, so only parent-side spans are kept.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

#: (module, attribute, span name). Several sites may share one span name.
SITES: tuple[tuple[str, str, str], ...] = (
    ("metapop.env", "evaluate_batch", "problems.evaluate_batch"),
    ("metapop.ert", "run_episode", "env.run_episode"),
    ("metapop.policy", "act", "policy.act"),
    ("metapop.ga", "decode", "ga.decode"),
    ("metapop.cli", "decode", "ga.decode"),
    ("metapop.ga", "evolve_step", "ga.evolve_step"),
    ("metapop.ga", "meta_fitness", "ert.meta_fitness"),
    ("metapop.ert", "collect_records", "ert.collect_records"),
    ("metapop.bench", "collect_records", "ert.collect_records"),
    ("metapop.ert", "estimate", "ert.estimate"),
    ("metapop.bench", "estimate", "ert.estimate"),
    ("metapop.ert", "parallel_map", "seeding.parallel_map"),
    ("metapop.ga", "parallel_map", "seeding.parallel_map"),
    ("metapop.baselines", "cma_act", "baselines.cma_act"),
    ("metapop.baselines", "cma_update", "baselines.cma_update"),
    ("metapop.baselines", "random_search_act", "baselines.random_search_act"),
    ("metapop.bench", "first_hits", "bench.first_hits"),
    ("metapop.bench", "run_ecdf", "bench.run_ecdf"),
    ("metapop.cli", "run_ecdf", "bench.run_ecdf"),
    ("metapop.cli", "ert_table", "bench.ert_table"),
    ("metapop.cli", "load_config", "config.load_config"),
    ("metapop.policy", "derive_seed", "seeding.derive_seed"),
    ("metapop.policy", "rng_from", "seeding.rng_from"),
    ("metapop.baselines", "derive_seed", "seeding.derive_seed"),
    ("metapop.baselines", "rng_from", "seeding.rng_from"),
    ("metapop.ert", "derive_seed", "seeding.derive_seed"),
    ("metapop.ga", "derive_seed", "seeding.derive_seed"),
    ("metapop.ga", "rng_from", "seeding.rng_from"),
)

#: Span names reported per layer, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in SITES))

FAMILIES: tuple[str, ...] = (
    "sphere", "linear-slope", "rastrigin", "schwefel",
    "lunacek-bi-rastrigin", "griewank-rosenbrock",
)

#: Layers called at least 1000 times in every traced run, so their 99th
#: percentile has at least ten samples beyond it.
P99_LAYERS: tuple[str, ...] = ("problems.evaluate_batch", "seeding.derive_seed", "seeding.rng_from")


def per_layer_metric_names() -> list[str]:
    """Every metric :meth:`Tracer.layer_metrics` reports, in order."""
    names: list[str] = []
    for layer in LAYERS:
        if layer == "env.run_episode":
            names += [f"{layer}.calls", f"{layer}.self_us_p50", f"{layer}.self_share"]
            continue
        names += [f"{layer}.calls", f"{layer}.us_p50", f"{layer}.share", f"{layer}.self_share"]
        if layer in P99_LAYERS:
            names.append(f"{layer}.us_p99")
    names += [f"problems.evaluate_batch.{family}.us_p50" for family in FAMILIES]
    names += ["ga.decode.mutations_mean", "bench.unique_episode_ratio"]
    return names


def _union_ns(starts: np.ndarray, ends: np.ndarray) -> int:
    """Length of the union of [start, end) intervals (nested calls count once)."""
    if starts.size == 0:
        return 0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    new_block = np.ones(s.size, dtype=bool)
    new_block[1:] = s[1:] >= reach[:-1]
    first = np.flatnonzero(new_block)
    block_end = np.maximum.reduceat(e, first)
    return int(np.sum(block_end - s[first]))


class Tracer:
    """Records spans while installed; restores every original on exit."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.mutation_counts: list[int] = []
        self.episodes_run = 0
        self.distinct_episodes: set[tuple] = set()
        self._last_params: tuple[object, str] | None = None
        self.originals: list[tuple[object, str, object]] = []
        self.missing_sites: list[str] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name: str):
        nid = self._nid(span_name)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        pick = note = None
        if span_name == "problems.evaluate_batch":
            by_family = {f: self._nid(f"{span_name}.{f}") for f in FAMILIES}
            pick = lambda args: by_family[args[0].family.value]  # noqa: E731
        elif span_name == "env.run_episode":
            note = self._note_episode
        elif span_name == "ga.decode":
            note = lambda args: self.mutation_counts.append(len(args[0].mutations))  # noqa: E731

        def wrapper(*args, **kwargs):
            sid = len(name)
            name.append(nid if pick is None else pick(args))
            parent.append(stack[-1] if stack else -1)
            if note is not None:
                note(args)
            stack.append(sid)
            end.append(0)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _note_episode(self, args) -> None:
        optimizer, task, config = args[:3]
        self.episodes_run += 1
        self.distinct_episodes.add((self._optimizer_key(optimizer), task.task_id, config.episode_seed))

    def _optimizer_key(self, optimizer) -> str:
        """Learned optimizers are identified by their parameter values, so
        two objects built from one genome run the same episodes."""
        params = getattr(optimizer, "_params", None)
        if params is None:
            return type(optimizer).__name__
        if self._last_params is None or self._last_params[0] is not params:
            from metapop.policy import flatten

            digest = hashlib.sha256(flatten(params).tobytes()).hexdigest()
            self._last_params = (params, digest)
        return self._last_params[1]

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        self.originals, self.missing_sites = [], []
        try:
            for module_name, attr, span_name in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:  # the layer would silently read 0; run.py fails a check
                    self.missing_sites.append(f"{module_name}.{attr}")
                    continue
                self.originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(self.originals):
                setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every wrapped site holds its original function again."""
        return all(getattr(module, attr) is original for module, attr, original in self.originals)

    def _arrays(self):
        return tuple(np.array(a, dtype=np.int64) for a in (self.name, self.parent, self.start, self.end))

    def layer_metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer calls, per-call times, and inclusive and self shares of
        ``traced_wall_s`` (the summed timed sections that ran under trace)."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        wall_ns = traced_wall_s * 1e9

        def ids(span_name: str) -> list[int]:
            return [i for n, i in self._name_ids.items() if n == span_name or n.startswith(span_name + ".")]

        out: dict[str, float] = {}
        for layer in LAYERS:
            mask = np.isin(name, ids(layer))
            calls = int(mask.sum())
            out[f"{layer}.calls"] = calls
            if layer == "env.run_episode":
                out[f"{layer}.self_us_p50"] = float(np.median(self_ns[mask])) / 1e3 if calls else 0.0
                out[f"{layer}.self_share"] = float(self_ns[mask].sum()) / wall_ns
                continue
            out[f"{layer}.us_p50"] = float(np.median(dur[mask])) / 1e3 if calls else 0.0
            out[f"{layer}.share"] = _union_ns(start[mask], end[mask]) / wall_ns
            out[f"{layer}.self_share"] = float(self_ns[mask].sum()) / wall_ns
            if layer in P99_LAYERS:
                out[f"{layer}.us_p99"] = float(np.percentile(dur[mask], 99)) / 1e3 if calls else 0.0
        for family in FAMILIES:
            mask = name == self._name_ids.get(f"problems.evaluate_batch.{family}", -1)
            out[f"problems.evaluate_batch.{family}.us_p50"] = (
                float(np.median(dur[mask])) / 1e3 if mask.any() else 0.0
            )
        counts = self.mutation_counts
        out["ga.decode.mutations_mean"] = sum(counts) / len(counts) if counts else 0.0
        out["bench.unique_episode_ratio"] = (
            len(self.distinct_episodes) / self.episodes_run if self.episodes_run else 0.0
        )
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as gzipped CSV: span_id, name, start_ns, end_ns, parent_id."""
        name, parent, start, end = self._arrays()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span_id,name,start_ns,end_ns,parent_id\n")
            names = self.span_names
            for i in range(name.size):
                fh.write(f"{i},{names[name[i]]},{start[i]},{end[i]},{parent[i]}\n")
