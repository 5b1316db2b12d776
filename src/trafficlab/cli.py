"""Command-line front end: train / sweep / adapt / eval.

Every flag mirrors a config-file key; flags override file values. Exit
status is 0 only when every grid cell succeeded; a config that cannot be
read or holds a bad value, or a flag value that does not parse, is
reported in one line before any cell runs, with exit status 2. ``eval``
reports a bad flag value the same way.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from trafficlab.adapt import DeploymentConfig
from trafficlab.agents import CheckpointError, ObservationShapeError
from trafficlab.config import (
    _COERCERS,
    ConfigBundle,
    ExperimentSpec,
    load_config_file,
)
from trafficlab.harness import (
    cmd_adapt,
    cmd_eval,
    cmd_sweep,
    cmd_train,
    default_agent_config,
)

_SPEC_KEYS = {f.name for f in fields(ExperimentSpec)}
_DEPLOY_KEYS = {f.name for f in fields(DeploymentConfig)}


def _flag_type(name: str):
    """The config coercer of key ``name`` as a flag type: a value it
    rejects fails the parse with the coercer's own message."""
    coerce = _COERCERS[name]

    def parse(raw: str):
        try:
            return coerce(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    # each flag's dest is its config key; flags not given stay unset
    p.add_argument("--config", help="experiment config file (INI sections)")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--algo", dest="algorithms", type=_flag_type("algorithms"),
                   help="comma-separated algorithm list")
    p.add_argument("--rates", type=_flag_type("rates"),
                   help="comma-separated detection rates")
    p.add_argument("--seed", dest="seeds", type=_flag_type("seeds"),
                   help="comma-separated seed list")
    p.add_argument("--scenario", help="flow preset: sparse, medium or dense")
    p.add_argument("--steps", dest="train_steps", type=int,
                   help="training steps per cell (default: each "
                        "algorithm's own budget)")
    p.add_argument("--episodes", dest="eval_episodes", type=int,
                   help="evaluation episodes")
    p.add_argument("--workers", type=int, help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficlab",
        description="Detection-limited traffic signal control experiments.",
        exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)
    grid = dict(argument_default=argparse.SUPPRESS, exit_on_error=False)

    p_train = sub.add_parser("train", help="train agents over the grid", **grid)
    _add_grid_flags(p_train)

    p_sweep = sub.add_parser("sweep",
                             help="evaluate trained agents per detection rate",
                             **grid)
    _add_grid_flags(p_sweep)
    p_sweep.add_argument("--train-missing", action="store_true",
                         help="train cells whose checkpoint is absent")

    p_adapt = sub.add_parser("adapt",
                             help="deploy agents on a drifting detection rate",
                             **grid)
    _add_grid_flags(p_adapt)
    p_adapt.add_argument("--schedule", type=_flag_type("schedule"),
                         help="detection schedule as t0:r0,t1:r1,...")
    p_adapt.add_argument("--total-steps", type=int, dest="total_steps")
    p_adapt.add_argument("--update-period", dest="update_period",
                         type=_flag_type("update_period"),
                         help="steps between online updates, or 'none'")
    p_adapt.add_argument("--window", type=int, dest="instability_window")
    p_adapt.add_argument("--threshold", type=float,
                         dest="instability_threshold")

    p_eval = sub.add_parser("eval", help="evaluate one checkpoint",
                            exit_on_error=False)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--scenario", default="medium")
    p_eval.add_argument("--rate", type=float, default=1.0)
    p_eval.add_argument("--episodes", type=int, default=20)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", help="JSON metrics output path")
    return parser


def _resolve(args) -> tuple[ExperimentSpec, dict, DeploymentConfig | None]:
    """The grid command's experiment spec, [agent] overrides and (for adapt)
    deployment config, each built once so a bad value fails here."""
    given = vars(args)
    bundle = (load_config_file(args.config) if "config" in given
              else ConfigBundle())
    spec = bundle.experiment_spec(
        **{k: v for k, v in given.items() if k in _SPEC_KEYS})
    if args.command == "adapt":
        return spec, {}, bundle.deployment_config(
            **{k: v for k, v in given.items() if k in _DEPLOY_KEYS})
    overrides = bundle.agent_overrides()
    for algorithm in spec.algorithms:
        default_agent_config(algorithm, overrides=overrides)
    return spec, overrides, None


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:  # a flag value that does not parse
        print(f"trafficlab: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "eval":
        return _eval(args)
    try:
        spec, agent_overrides, deploy = _resolve(args)
    except (OSError, ValueError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2

    if args.command == "train":
        results = cmd_train(spec, agent_overrides)
        failures = [r for r in results if r.error]
        for r in results:
            status = r.error or f"ok -> {r.checkpoint}"
            print(f"train {r.algorithm} r={r.rate:g} s={r.seed}: {status}")
        return 1 if failures else 0

    if args.command == "sweep":
        records, results = cmd_sweep(spec, agent_overrides)
        failures = [r for r in results if r.error]
        for rec in records:
            print(f"sweep {rec.algorithm} r={rec.detection_rate:g} "
                  f"s={rec.seed}: wait_all="
                  f"{rec.wait_all if rec.wait_all is not None else 'n/a'}")
        for r in failures:
            print(f"sweep {r.algorithm} r={r.rate:g} s={r.seed}: "
                  f"FAILED ({r.error})", file=sys.stderr)
        return 1 if failures else 0

    results = cmd_adapt(spec, deploy)
    for r in results:
        status = f"flags={r.instability_flags}"
        if r.aborted:
            status += f" ABORTED ({r.error})"
        print(f"adapt {r.algorithm} s={r.seed}: {status}")
    return 1 if any(r.error for r in results) else 0


def _eval(args) -> int:
    try:
        stats = cmd_eval(
            checkpoint=args.checkpoint, scenario=args.scenario,
            detection_rate=args.rate, episodes=args.episodes,
            seed=args.seed, out_path=args.out)
    except (CheckpointError, ObservationShapeError, OSError) as exc:
        print(f"eval failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a bad flag value
        print(f"eval failed: {exc}", file=sys.stderr)
        return 2
    print(f"episodes: {stats.episodes}")
    print(f"mean return: {stats.mean_return:.3f}")
    for label, value in (("wait_all", stats.wait_all),
                         ("wait_detected", stats.wait_detected),
                         ("wait_undetected", stats.wait_undetected)):
        print(f"{label}: {value:.3f}" if value is not None
              else f"{label}: n/a")
    print(f"mean queue: {stats.mean_queue:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
