"""Command-line interface: train, eval, compare, list-suite, decode.

Exit codes: 0 success, 2 usage or configuration error, 1 runtime error.
Worker count is resolved flag > METAPOP_WORKERS > config > cpu count and
never changes numerical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json import JSONDecodeError
from pathlib import Path

from .baselines import CmaEs, RandomSearch
from .bench import collect, compare, ecdf_auc, ert_table, run_ecdf, write_ecdf_csv, write_ert_csv
from .config import FORMAT_VERSION, ConfigError, RunConfig, config_hash, load_config
from .ga import decode, load_genome, save_genome, train, write_history_csv
from .policy import LearnedOptimizer, load_params, save_params
from .problems import Split, TaskSuite

BASELINE_NAMES = ("cma-es", "rs")


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metapop",
        description="Train and benchmark learned population-based optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_split: bool = False) -> None:
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--workers", type=int, help="worker processes (0 or 1 = serial)")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a config entry, e.g. ga.generations=2",
        )
        if with_split:
            p.add_argument(
                "--split", choices=[s.value for s in Split], default=Split.TEST.value,
                help="task split to use (default: test)",
            )

    p_train = sub.add_parser("train", help="run the outer training loop")
    add_common(p_train)
    p_train.add_argument("--generations", type=int, help="override ga.generations")
    p_train.add_argument("--checkpoint-every", type=_positive_int, default=10, metavar="N",
                         help="checkpoint cadence in generations (default: 10)")

    p_eval = sub.add_parser("eval", help="benchmark a trained policy on one split")
    add_common(p_eval, with_split=True)
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--genome", help="genome file from train/decode")
    source.add_argument("--params", help="raw parameter file from decode")

    p_cmp = sub.add_parser("compare", help="learned policy vs baselines")
    add_common(p_cmp, with_split=True)
    p_cmp.add_argument("--genome", required=True, help="genome file from train")
    p_cmp.add_argument("--baselines", default="rs,cma-es",
                       help="comma-separated baseline names (default: rs,cma-es)")

    p_list = sub.add_parser("list-suite", help="print the task suite as CSV")
    add_common(p_list)
    p_list.add_argument("--split", choices=[s.value for s in Split],
                        help="restrict to one split (default: all)")

    p_dec = sub.add_parser("decode", help="expand a genome into raw parameters")
    p_dec.add_argument("genome", help="genome file")
    p_dec.add_argument("--out", required=True, help="output parameter file")
    return parser


def _non_negative(value: int, source: str) -> int:
    if value < 0:
        raise ConfigError(f"{source}: must be non-negative, got {value}")
    return value


def _resolve_workers(flag_value: int | None, config: RunConfig) -> int:
    if flag_value is not None:
        return _non_negative(flag_value, "--workers")
    env = os.environ.get("METAPOP_WORKERS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"METAPOP_WORKERS: expected an integer, got {env!r}") from None
        return _non_negative(value, "METAPOP_WORKERS")
    if config.workers is not None:
        return config.workers
    return os.cpu_count() or 1


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"master_seed={args.seed}")
    if args.out is not None:
        overrides.append(f"output_dir={args.out}")
    if getattr(args, "generations", None) is not None:
        overrides.append(f"ga.generations={args.generations}")
    return load_config(args.config, tuple(overrides))


def _load_artifact(genome_path: str | None, params_path: str | None):
    """Load a policy from either a genome or a raw-parameter file."""
    try:
        if genome_path is not None:
            genome, policy_config = load_genome(genome_path)
            return policy_config, decode(genome, policy_config)
        policy_config, params = load_params(params_path)
        return policy_config, params
    except JSONDecodeError as exc:
        raise RuntimeError(f"failed to parse {genome_path or params_path}: {exc}") from None


def _write_metadata(out_dir: Path, command: str, config: RunConfig, **extra) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "config_hash": config_hash(config),
        "master_seed": config.master_seed,
        **extra,
    }
    path = out_dir / "metadata.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _split_tasks(config: RunConfig, split_name: str):
    tasks = config.suite.build().tasks_in(Split(split_name))
    if not tasks:
        raise ConfigError(
            f"suite.split_ratio: split {split_name!r} has no tasks for this suite"
        )
    return tasks


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    workers = _resolve_workers(args.workers, config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = config.suite.build()

    def progress(generation, train_best, val_best, sigma, elapsed):
        print(
            f"generation {generation:4d}  train_best {train_best:12.6g}  "
            f"val_best {val_best:12.6g}  sigma {sigma:.4f}  elapsed {elapsed:7.1f}s",
            flush=True,
        )

    best, history = train(
        config.ga, config.policy, suite, config.episode_config(),
        config.runs_per_task, config.master_seed, workers=workers,
        checkpoint_dir=out_dir / "checkpoints", checkpoint_every=args.checkpoint_every,
        progress=progress,
    )
    write_history_csv(out_dir / "history.csv", history)
    save_genome(out_dir / "best_genome.json", best, config.policy)
    _write_metadata(out_dir, "train", config)
    print(f"best train fitness {history.rows[-1].train_best!r}")
    print(f"wrote {out_dir / 'best_genome.json'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    workers = _resolve_workers(args.workers, config)
    policy_config, params = _load_artifact(args.genome, args.params)
    tasks = _split_tasks(config, args.split)
    episode = config.episode_config(lam=policy_config.lam)
    targets = config.targets()
    optimizer = LearnedOptimizer(params, policy_config)

    grouped = collect(optimizer, tasks, targets, episode, config.runs_per_task,
                      config.master_seed, workers=workers)
    curve = run_ecdf(tasks, grouped, targets, episode)
    rows = ert_table(tasks, grouped, targets, episode)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ecdf_csv(out_dir / "ecdf.csv", [("learned", curve)])
    write_ert_csv(out_dir / "ert.csv", [("learned", rows)])
    _write_metadata(out_dir, "eval", config, split=args.split,
                    artifact=str(args.genome or args.params))
    fe_max = max(episode.resolve_fe_max(t.dimension) for t in tasks)
    print(f"tasks {len(tasks)}  pairs {curve.n_pairs}  "
          f"final_fraction {curve.final_fraction:.4f}  auc {ecdf_auc(curve, fe_max):.4f}")
    return 0


def _parse_baselines(raw: str):
    names = [name.strip() for name in raw.split(",") if name.strip()]
    for name in names:
        if name not in BASELINE_NAMES:
            valid = ", ".join(BASELINE_NAMES)
            raise ConfigError(f"unknown baseline {name!r}; valid names: {valid}")
    if len(names) != len(set(names)):
        raise ConfigError("duplicate baseline names")
    return names


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    workers = _resolve_workers(args.workers, config)
    baselines = _parse_baselines(args.baselines)
    policy_config, params = _load_artifact(args.genome, None)
    tasks = _split_tasks(config, args.split)
    episode = config.episode_config(lam=policy_config.lam)
    targets = config.targets()

    optimizers = [("learned", LearnedOptimizer(params, policy_config))]
    for name in baselines:
        optimizers.append((name, RandomSearch() if name == "rs" else CmaEs()))

    # compare() benchmarks a suite's test tasks; relabel the chosen split.
    sub_suite = TaskSuite(tasks, (Split.TEST,) * len(tasks))
    report = compare(optimizers, sub_suite, targets, episode,
                     config.runs_per_task, config.master_seed, workers=workers)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ecdf_csv(out_dir / "ecdf.csv", [(e.name, e.curve) for e in report.entries])
    _write_metadata(out_dir, "compare", config, split=args.split,
                    baselines=baselines, artifact=str(args.genome))
    print(f"{'optimizer':<12} {'auc':>8} {'final_fraction':>15}")
    for entry in report.entries:
        print(f"{entry.name:<12} {entry.auc:>8.4f} {entry.final_fraction:>15.4f}")
    return 0


def cmd_list_suite(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    suite = config.suite.build()
    wanted = Split(args.split) if args.split else None
    print("task_id,family,dimension,split")
    for task, split in zip(suite.tasks, suite.splits):
        if wanted is not None and split is not wanted:
            continue
        print(f"{task.task_id},{task.family.value},{task.dimension},{split.value}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    policy_config, params = _load_artifact(args.genome, None)
    save_params(args.out, policy_config, params)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "list-suite": cmd_list_suite,
    "decode": cmd_decode,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
