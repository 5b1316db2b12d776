"""Sectioned key-value config files (INI syntax) for experiments.

Every dataclass field name doubles as a config key; CLI flags override
file values, file values override dataclass defaults. Unknown keys are
rejected so typos fail loudly.

Sections: [sim] -> SimConfig, [env] -> EnvConfig extras, [agent] -> agent
hyperparameter overrides, [deploy] -> DeploymentConfig, [experiment] ->
ExperimentSpec.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from trafficlab.adapt import DeploymentConfig, DetectionSchedule
from trafficlab.agents import AgentConfig
from trafficlab.env import EnvConfig, RewardMode
from trafficlab.sim import SimConfig

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_list(raw: str, item):
    items = [p.strip() for p in raw.split(",") if p.strip()]
    return [item(p) for p in items]


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


@dataclass
class ExperimentSpec:
    """One experiment's grid: algorithms x detection rates x seeds."""

    name: str = "experiment"
    scenario: str = "medium"
    algorithms: list[str] = field(default_factory=lambda: ["ppo"])
    rates: list[float] = field(default_factory=lambda: [1.0])
    seeds: list[int] = field(default_factory=lambda: [0])
    train_steps: int = 100_000
    eval_episodes: int = 20
    episode_length: float = 3600.0
    out_dir: str = "results"
    workers: int = 1
    train_missing: bool = False

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("algorithm list must be non-empty")
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if any(not 0.0 <= r <= 1.0 for r in self.rates):
            raise ValueError("detection rates must lie in [0, 1]")

    def cells(self):
        """Deterministically ordered (algorithm, rate, seed) grid."""
        for algo in self.algorithms:
            for rate in self.rates:
                for seed in self.seeds:
                    yield algo, rate, seed


_COERCERS = {
    "algorithms": lambda raw: _parse_list(raw, str),
    "rates": lambda raw: _parse_list(raw, float),
    "seeds": lambda raw: _parse_list(raw, int),
    "hidden_sizes": lambda raw: _parse_list(raw, int),
    "reward_mode": lambda raw: RewardMode(raw.strip().lower()),
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
        kwargs[key] = _coerce(key, known[key], raw)
    return kwargs


@dataclass
class ConfigBundle:
    sim: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    agent: dict = field(default_factory=dict)
    deploy: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)

    def sim_config(self, **overrides) -> SimConfig:
        return SimConfig(**{**self.sim, **overrides})

    def env_config(self, sim: SimConfig | None = None, **overrides) -> EnvConfig:
        return EnvConfig(sim=sim or self.sim_config(),
                         **{**self.env, **overrides})

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
    "sim": SimConfig,
    "env": EnvConfig,
    "agent": AgentConfig,
    "deploy": DeploymentConfig,
    "experiment": ExperimentSpec,
}

# EnvConfig's nested sim comes from [sim]; it is not a key of [env].
_EXCLUDED_KEYS = {"env": {"sim"}, "deploy": set(), "sim": set(),
                  "agent": set(), "experiment": set()}


def load_config_file(path) -> ConfigBundle:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file {path} not found")
    bundle = ConfigBundle()
    for section_name in parser.sections():
        if section_name not in _SECTION_TYPES:
            raise ValueError(f"unknown config section [{section_name}]")
        cls = _SECTION_TYPES[section_name]
        raw = dict(parser.items(section_name))
        for key in raw:
            if key in _EXCLUDED_KEYS[section_name]:
                raise ValueError(
                    f"key {key!r} cannot be set in section [{section_name}]")
        kwargs = section_to_kwargs(cls, raw, section_name)
        setattr(bundle, section_name, kwargs)
    return bundle
