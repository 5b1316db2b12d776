"""Sectioned key-value config files (INI syntax) for experiments.

Every dataclass field name doubles as a config key; CLI flags override
file values, file values override dataclass defaults. Unknown keys are
rejected so typos fail loudly.

Sections: [agent] -> ExperimentSpec.agent, the hyperparameters every cell
sets over its algorithm's defaults; [deploy] -> DeploymentConfig;
[experiment] -> the other ExperimentSpec fields. The road and the reward
come from the experiment's scenario preset; there is no [sim] or [env]
section.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from trafficlab.adapt import DeploymentConfig, DetectionSchedule
from trafficlab.agents import ALGORITHMS, AgentConfig, default_agent_config
from trafficlab.env import EnvConfig
from trafficlab.sim import check_fields, scenario_preset

def _list_of(item):
    """A parser of comma-separated ``item`` values; its name is what
    argparse shows when a flag's value does not parse."""
    def parse(raw: str) -> list:
        return [item(p.strip()) for p in raw.split(",") if p.strip()]
    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def _breakpoint(chunk: str) -> tuple[float, float]:
    try:
        t, r = chunk.split(":")
        return float(t), float(r)
    except ValueError:
        raise ValueError(
            f"bad schedule element {chunk!r}; expected time:rate") from None


def parse_schedule(raw: str) -> DetectionSchedule:
    """``t0:r0,t1:r1,...`` pairs in simulated seconds."""
    return DetectionSchedule(_list_of(_breakpoint)(raw))


def checkpoint_name(algorithm: str, scenario: str, rate: float,
                    seed: int) -> str:
    """The checkpoint file name of one grid cell; its curve and its sweep
    row are named after it too."""
    return f"{algorithm}_{scenario}_r{rate:.2f}_s{seed}.ckpt"


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
    ``TRAIN_STEPS_BY_ALGORITHM``. ``agent`` holds the [agent] values that
    every cell's ``AgentConfig`` takes (see ``agent_config``). Every cell
    must have a checkpoint name of its own, so no list may repeat a value
    and no two rates may round to one name."""

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
    agent: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)
        # every cell's env config but rate and seed: a bad one fails here
        EnvConfig(sim=scenario_preset(self.scenario),
                  episode_length=self.episode_length)
        for name in ("algorithms", "rates", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]!r} more than once")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative, got {self.seeds}")
        if any(not 0.0 <= r <= 1.0 for r in self.rates):
            raise ValueError("detection rates must lie in [0, 1]")
        names = {}
        for rate in self.rates:
            name = checkpoint_name(self.algorithms[0], self.scenario, rate,
                                   self.seeds[0])
            if name in names:
                raise ValueError(f"rates {names[name]!r} and {rate!r} share "
                                 f"the checkpoint name {name}")
            names[name] = rate
        for name in ("eval_episodes", "workers"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.train_steps is not None and self.train_steps < 0:
            raise ValueError(f"train_steps must be non-negative, "
                             f"got {self.train_steps}")
        for algorithm in self.algorithms:
            self.agent_config(algorithm, self.seeds[0])

    def steps_for(self, algorithm: str) -> int:
        """The training steps of one ``algorithm`` cell."""
        if self.train_steps is not None:
            return self.train_steps
        return TRAIN_STEPS_BY_ALGORITHM[algorithm]

    def agent_config(self, algorithm: str, seed: int) -> AgentConfig:
        """One cell's config: ``agent`` over the algorithm's defaults."""
        return default_agent_config(algorithm, seed, self.steps_for(algorithm),
                                    self.agent)

    def cells(self):
        """The (algorithm, rate, seed) grid; cells run in sorted order."""
        for algo in sorted(self.algorithms):
            for rate in sorted(self.rates):
                for seed in sorted(self.seeds):
                    yield algo, rate, seed


# the parser of a raw value by its key's annotation, the kind that
# ``sim.check_value`` then checks the parsed value against
_COERCERS = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": lambda raw: (None if raw.strip().lower() in {"none", "off"}
                               else int(raw)),
    "list[str]": _list_of(str),
    "list[int]": _list_of(int),
    "list[float]": _list_of(float),
    "DetectionSchedule": parse_schedule,
}


def section_to_kwargs(cls, section: dict[str, str], section_name: str) -> dict:
    # a field named after a section (ExperimentSpec.agent) is set there
    known = {f.name: str(f.type) for f in fields(cls)
             if f.name not in _SECTION_TYPES}
    kwargs = {}
    for key, raw in section.items():
        if key not in known:
            raise ValueError(f"unknown key {key!r} in section [{section_name}]")
        try:
            kwargs[key] = _COERCERS[known[key]](raw)
        except ValueError as exc:
            raise ValueError(f"[{section_name}] {key}: {exc}") from None
    return kwargs


_SECTION_TYPES = {
    "agent": AgentConfig,
    "deploy": DeploymentConfig,
    "experiment": ExperimentSpec,
}


def load_config_file(path) -> dict[str, dict]:
    """The typed values of each of the file's sections, by section name."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: dict(parser.items(name))
                    for name in parser.sections()}
    except configparser.Error as exc:
        # no section header, a repeated key or section, or a lone "%" (a
        # value is interpolated as it is read)
        raise ValueError(f"config file {path} is malformed: "
                         + " ".join(str(exc).split())) from None
    if not read:
        raise FileNotFoundError(f"config file {path} not found")
    for section_name, section in sections.items():
        if section_name not in _SECTION_TYPES:
            raise ValueError(
                f"unknown config section [{section_name}]; the sections are "
                + ", ".join(f"[{name}]" for name in _SECTION_TYPES))
        sections[section_name] = section_to_kwargs(
            _SECTION_TYPES[section_name], section, section_name)
    return sections
