"""Sectioned key-value config files (INI syntax) for experiments.

Every dataclass field name doubles as a config key; CLI flags override
file values, file values override dataclass defaults. Unknown keys are
rejected so typos fail loudly.

Sections: [agent] -> agent hyperparameter overrides, [deploy] ->
DeploymentConfig, [experiment] -> ExperimentSpec. The road and the reward
come from the experiment's scenario preset; there is no [sim] or [env]
section.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from trafficlab.adapt import DeploymentConfig, DetectionSchedule
from trafficlab.agents import ALGORITHMS, AgentConfig

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _list_of(item):
    """A parser of comma-separated ``item`` values; its name is what
    argparse shows when a flag's value does not parse."""
    def parse(raw: str) -> list:
        return [item(p.strip()) for p in raw.split(",") if p.strip()]
    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def parse_schedule(raw: str) -> DetectionSchedule:
    """``t0:r0,t1:r1,...`` pairs in simulated seconds."""
    points = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            t, r = chunk.split(":")
            points.append((float(t), float(r)))
        except ValueError:
            raise ValueError(
                f"bad schedule element {chunk!r}; expected time:rate") from None
    return DetectionSchedule(points)


# Training budget each algorithm needs to escape the never-switch basin
# reliably across seeds (measured, not guessed).
TRAIN_STEPS_BY_ALGORITHM = {"ppo": 100_000, "dql": 100_000,
                            "a2c": 250_000, "acktr": 250_000,
                            "fixed_time": 0}


@dataclass
class ExperimentSpec:
    """One experiment's grid: algorithms x detection rates x seeds.

    ``train_steps`` set (by file or flag) applies to every algorithm;
    left unset, each algorithm trains for its own budget in
    ``TRAIN_STEPS_BY_ALGORITHM``."""

    name: str = "experiment"
    scenario: str = "medium"
    algorithms: list[str] = field(default_factory=lambda: ["ppo"])
    rates: list[float] = field(default_factory=lambda: [1.0])
    seeds: list[int] = field(default_factory=lambda: [0])
    train_steps: int | None = None
    eval_episodes: int = 20
    episode_length: float = 3600.0
    out_dir: str = "results"
    workers: int = 1
    train_missing: bool = False

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("algorithm list must be non-empty")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}")
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if any(not 0.0 <= r <= 1.0 for r in self.rates):
            raise ValueError("detection rates must lie in [0, 1]")
        if self.eval_episodes < 1:
            raise ValueError(f"eval_episodes must be at least 1, "
                             f"got {self.eval_episodes}")

    def steps_for(self, algorithm: str) -> int:
        """The training steps of one ``algorithm`` cell."""
        if self.train_steps is not None:
            return self.train_steps
        return TRAIN_STEPS_BY_ALGORITHM[algorithm]

    def cells(self):
        """Deterministically ordered (algorithm, rate, seed) grid."""
        for algo in self.algorithms:
            for rate in self.rates:
                for seed in self.seeds:
                    yield algo, rate, seed


_COERCERS = {
    "algorithms": _list_of(str),
    "rates": _list_of(float),
    "seeds": _list_of(int),
    "hidden_sizes": _list_of(int),
    "schedule": parse_schedule,
    "update_period": lambda raw: (None if raw.strip().lower() in {"none", "off"}
                                  else int(raw)),
}


def _coerce(name: str, annotation: str, raw: str):
    if name in _COERCERS:
        return _COERCERS[name](raw)
    if "bool" in annotation:
        return _parse_bool(raw)
    if "int" in annotation:
        return int(raw)
    if "float" in annotation:
        return float(raw)
    return raw


def section_to_kwargs(cls, section: dict[str, str], section_name: str) -> dict:
    known = {f.name: str(f.type) for f in fields(cls)}
    kwargs = {}
    for key, raw in section.items():
        if key not in known:
            raise ValueError(f"unknown key {key!r} in section [{section_name}]")
        try:
            kwargs[key] = _coerce(key, known[key], raw)
        except ValueError as exc:
            raise ValueError(f"[{section_name}] {key}: {exc}") from None
    return kwargs


@dataclass
class ConfigBundle:
    agent: dict = field(default_factory=dict)
    deploy: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)

    def agent_overrides(self, **overrides) -> dict:
        return {**self.agent, **overrides}

    def deployment_config(self, **overrides) -> DeploymentConfig:
        merged = {**self.deploy, **overrides}
        if "schedule" not in merged:
            raise ValueError("deployment needs a schedule")
        return DeploymentConfig(**merged)

    def experiment_spec(self, **overrides) -> ExperimentSpec:
        return ExperimentSpec(**{**self.experiment, **overrides})


_SECTION_TYPES = {
    "agent": AgentConfig,
    "deploy": DeploymentConfig,
    "experiment": ExperimentSpec,
}


def load_config_file(path) -> ConfigBundle:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file {path} not found")
    bundle = ConfigBundle()
    for section_name in parser.sections():
        if section_name not in _SECTION_TYPES:
            raise ValueError(
                f"unknown config section [{section_name}]; the sections are "
                + ", ".join(f"[{name}]" for name in _SECTION_TYPES))
        kwargs = section_to_kwargs(_SECTION_TYPES[section_name],
                                   dict(parser.items(section_name)),
                                   section_name)
        setattr(bundle, section_name, kwargs)
    return bundle
