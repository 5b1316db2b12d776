"""Command-line front end: train / sweep / adapt / eval.

Every flag mirrors a config-file key; flags override file values. Exit
status is 0 only when every grid cell succeeded; a config that cannot be
read or holds a bad value, a command line that does not parse, ``adapt``
``rates`` that train no checkpoint at the schedule's first rate, or an
output directory that cannot be made is reported in one line before any
cell runs, with exit status 2. ``eval`` reports a bad flag value or an
unusable ``--out`` the same way, before it reads the checkpoint.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from trafficlab.adapt import DeploymentConfig
from trafficlab.agents import CheckpointError, ObservationShapeError
from trafficlab.config import _COERCERS, ExperimentSpec, load_config_file
from trafficlab.harness import (check_adapt_rates, cmd_adapt, cmd_eval,
                                cmd_sweep, cmd_train)

_SPEC_KEYS = {f.name for f in fields(ExperimentSpec)}
_DEPLOY_KEYS = {f.name for f in fields(DeploymentConfig)}
# the annotation of each [experiment] and [deploy] key, its kind
_KINDS = {f.name: f.type for cls in (ExperimentSpec, DeploymentConfig)
          for f in fields(cls)}

# (flag, config key, help) of every grid command and of adapt alone
_GRID_FLAGS = (
    ("--out", "out_dir", "output directory"),
    ("--algo", "algorithms", "comma-separated algorithm list"),
    ("--rates", "rates", "comma-separated detection rates"),
    ("--seed", "seeds", "comma-separated seed list"),
    ("--scenario", "scenario", "flow preset: sparse, medium or dense"),
    ("--steps", "train_steps", "training steps per cell, or 'none' for "
                               "each algorithm's own budget (the default)"),
    ("--episodes", "eval_episodes", "evaluation episodes"),
    ("--workers", "workers", "parallel worker processes"),
)
_ADAPT_FLAGS = (
    ("--schedule", "schedule", "detection schedule as t0:r0,t1:r1,..."),
    ("--total-steps", "total_steps", None),
    ("--update-period", "update_period",
     "steps between online updates, or 'none'"),
    ("--window", "instability_window", None),
    ("--threshold", "instability_threshold", None),
)


def _flag_type(name: str):
    """The config coercer of key ``name``'s kind as a flag type: a value
    it rejects fails the parse with the coercer's own message."""
    coerce = _COERCERS[_KINDS[name]]

    def parse(raw: str):
        try:
            return coerce(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_key_flags(p: argparse.ArgumentParser, flags) -> None:
    # each flag's dest is its config key; flags not given stay unset
    for flag, key, what in flags:
        p.add_argument(flag, dest=key, type=_flag_type(key), help=what)


class _Parser(argparse.ArgumentParser):
    """Raises each parse error for ``main`` to report in one line."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trafficlab",
        description="Detection-limited traffic signal control experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    grid = dict(argument_default=argparse.SUPPRESS)

    commands = {}
    for command, what in (
            ("train", "train agents over the grid"),
            ("sweep", "evaluate trained agents per detection rate"),
            ("adapt", "deploy agents on a drifting detection rate")):
        p = commands[command] = sub.add_parser(command, help=what, **grid)
        p.add_argument("--config",
                       help="experiment config file (INI sections)")
        _add_key_flags(p, _GRID_FLAGS)
    _add_key_flags(commands["adapt"], _ADAPT_FLAGS)

    p_eval = sub.add_parser("eval", help="evaluate one checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--scenario", default="medium")
    p_eval.add_argument("--rate", type=float, default=1.0)
    p_eval.add_argument("--episodes", type=int, default=20)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", help="JSON metrics output path")
    return parser


def _resolve(args) -> tuple[ExperimentSpec, DeploymentConfig | None]:
    """The grid command's spec, [agent] included, and (for adapt) its
    deployment config, each built once so a bad value fails here."""
    given = vars(args)
    sections = load_config_file(args.config) if "config" in given else {}

    def merged(section: str, keys: set[str]) -> dict:
        # the file's [section] values, the flags among keys laid over them
        return {**sections.get(section, {}),
                **{k: v for k, v in given.items() if k in keys}}

    spec = ExperimentSpec(**merged("experiment", _SPEC_KEYS),
                          agent=sections.get("agent", {}))
    if args.command != "adapt":
        return spec, None
    deploy = merged("deploy", _DEPLOY_KEYS)
    if "schedule" not in deploy:
        raise ValueError("deployment needs a schedule")
    deploy = DeploymentConfig(**deploy)
    check_adapt_rates(spec, deploy)
    return spec, deploy


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:  # a command line that does not parse
        print(f"trafficlab: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "eval":
        return _eval(args)
    try:
        spec, deploy = _resolve(args)
        os.makedirs(spec.out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2

    if args.command == "train":
        results = cmd_train(spec)
        failures = [r for r in results if r.error]
        for r in results:
            status = r.error or f"ok -> {r.checkpoint}"
            print(f"train {r.algorithm} r={r.rate:g} s={r.seed}: {status}")
        return 1 if failures else 0

    if args.command == "sweep":
        records, results = cmd_sweep(spec)
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
        status = f"flags={r.output.instability_flags if r.output else 0}"
        if r.error:
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
