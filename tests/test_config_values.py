"""Every value a config holds is checked by its annotation: counts,
numbers, strings, lists of them and class-typed fields.

The cases are generated from ``dataclasses.fields()`` of the five
configs, so a field added later is covered without a new test.
"""

import dataclasses
import math

import pytest

from trafficlab.adapt import DeploymentConfig, DetectionSchedule
from trafficlab.agents import AgentConfig, agent_to_bytes, make_agent
from trafficlab.cli import build_parser
from trafficlab.config import (_COERCERS, _SECTION_TYPES, ExperimentSpec,
                               load_config_file)
from trafficlab.env import EnvConfig, TrafficSignalEnv
from trafficlab.harness import build_env_config, evaluate_agent
from trafficlab.sim import SimConfig


def deployment_config(**kwargs):
    kwargs.setdefault("schedule", DetectionSchedule([(0.0, 1.0)]))
    return DeploymentConfig(**kwargs)


CONFIGS = {SimConfig: SimConfig, EnvConfig: EnvConfig,
           AgentConfig: AgentConfig, DeploymentConfig: deployment_config,
           ExperimentSpec: ExperimentSpec}
COUNT_KINDS = ("int", "int | None", "list[int]")
NUMBER_KINDS = ("float", "list[float]")
TEXT_KINDS = ("str", "list[str]")
# a class-typed field holds an instance of the class its annotation names
CLASS_KINDS = {"dict": dict, "SimConfig": SimConfig,
               "DetectionSchedule": DetectionSchedule}
INFINITE_FIELDS = {"trust_region_radius", "kl_budget"}


def number_fields(kinds):
    return [(cls, f.name, f.type) for cls in CONFIGS
            for f in dataclasses.fields(cls) if f.type in kinds]


def cases(kinds, bad_values):
    return [pytest.param(cls, name,
                         [value] if kind.startswith("list") else value,
                         id=f"{cls.__name__}.{name}={value!r}")
            for cls, name, kind in number_fields(kinds)
            for value in bad_values]


def test_every_config_field_is_of_a_kind_the_check_knows():
    # a field of another kind (say float | None) would go unchecked
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            assert f.type in (COUNT_KINDS + NUMBER_KINDS + TEXT_KINDS
                              + tuple(CLASS_KINDS)), (
                cls.__name__, f.name, f.type)


def test_the_generated_cases_cover_every_config():
    assert {cls for cls, _, _ in number_fields(COUNT_KINDS)} == set(CONFIGS) - {
        EnvConfig}
    assert {cls for cls, _, _ in number_fields(NUMBER_KINDS)} == set(CONFIGS)
    assert {cls for cls, _, _ in number_fields(TEXT_KINDS
                                               + tuple(CLASS_KINDS))} == (
        set(CONFIGS) - {SimConfig})
    assert {param.values[0] for param in integral_numbers()} == set(
        CONFIGS.values())


@pytest.mark.parametrize("cls, name, value",
                         cases(COUNT_KINDS, [True, 2.5, "3"]))
def test_a_count_that_is_not_an_int_is_refused_by_name(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an int, got "):
        CONFIGS[cls](**{name: value})


@pytest.mark.parametrize("cls, name, value",
                         cases(NUMBER_KINDS, [True, "x"]))
def test_a_number_that_is_not_an_int_or_a_float_is_refused_by_name(
        cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got "):
        CONFIGS[cls](**{name: value})


@pytest.mark.parametrize("cls, name, value",
                         cases(NUMBER_KINDS, [math.nan, math.inf]))
def test_a_number_that_is_not_finite_is_refused_by_name(cls, name, value):
    if name in INFINITE_FIELDS:
        if value == math.inf:
            CONFIGS[cls](**{name: value})  # inf turns the limit off
            return
        message = rf"^{name} must be "  # nan fails the field's range rule
    else:
        message = rf"^{name} must be finite, got "
    with pytest.raises(ValueError, match=message):
        CONFIGS[cls](**{name: value})


LIST_FIELDS = [(cls, name) for cls, name, kind in number_fields(
    ("list[int]", "list[float]", "list[str]"))]


@pytest.mark.parametrize("cls, name", LIST_FIELDS)
def test_a_list_field_that_is_not_a_list_is_refused_by_name(cls, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a list, got 1$"):
        CONFIGS[cls](**{name: 1})


@pytest.mark.parametrize("cls, name", LIST_FIELDS)
@pytest.mark.parametrize("value", ["1", None])
def test_a_string_or_none_is_no_list(cls, name, value):
    # a string used to pass as a list of its characters
    with pytest.raises(ValueError,
                       match=rf"^{name} must be a list, got {value!r}$"):
        CONFIGS[cls](**{name: value})


@pytest.mark.parametrize("cls, name, value",
                         cases(TEXT_KINDS, [3, None, b"x", ["x"]]))
def test_a_string_that_is_not_a_str_is_refused_by_name(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a str, got "):
        CONFIGS[cls](**{name: value})


@pytest.mark.parametrize("cls, name, kind, value", [
    pytest.param(cls, name, kind, value,
                 id=f"{cls.__name__}.{name}={value!r}")
    for cls, name, kind in number_fields(tuple(CLASS_KINDS))
    for value in [None, "x", [(0.0, 1.0)], {"gamma": 0.9}]
    if not isinstance(value, CLASS_KINDS[kind])])
def test_a_class_typed_field_that_holds_no_instance_is_refused_by_name(
        cls, name, kind, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a {kind}, got "):
        CONFIGS[cls](**{name: value})


@pytest.mark.parametrize("make, message", [
    (lambda: ExperimentSpec(algorithms="ppo"),
     "^algorithms must be a list, got 'ppo'$"),
    (lambda: ExperimentSpec(agent="gamma"),
     "^agent must be a dict, got 'gamma'$"),
    (lambda: ExperimentSpec(agent=None), "^agent must be a dict, got None$"),
    (lambda: ExperimentSpec(name=3), "^name must be a str, got 3$"),
    (lambda: ExperimentSpec(out_dir=5), "^out_dir must be a str, got 5$"),
    (lambda: ExperimentSpec(scenario=["medium"]),
     r"^scenario must be a str, got \['medium'\]$"),
    (lambda: DeploymentConfig(schedule=[(0.0, 1.0)]),
     r"^schedule must be a DetectionSchedule, got \[\(0.0, 1.0\)\]$"),
    (lambda: AgentConfig(algorithm=None), "^algorithm must be a str, got None$"),
], ids=["spec-string-algorithms", "spec-string-agent",
        "spec-none-agent", "spec-int-name", "spec-int-out-dir",
        "spec-list-scenario", "deploy-list-schedule", "agent-none-algorithm"])
def test_a_value_of_another_type_is_refused_by_name(make, message):
    # each was accepted, or refused by a message that named a character of
    # a string or no field at all
    with pytest.raises(ValueError, match=message):
        make()


def test_every_kind_takes_its_valid_values():
    ExperimentSpec(name="n", scenario="dense", algorithms=["dql", "ppo"],
                   out_dir="out", agent={"gamma": 0.9})
    deployment_config(update_period=None)
    EnvConfig(sim=SimConfig(rng_seed=3))


@pytest.mark.parametrize("make, message", [
    (lambda: ExperimentSpec(seeds=[0, 1.5]), "^seeds must be an int, got 1.5$"),
    (lambda: ExperimentSpec(eval_episodes=2.5),
     "^eval_episodes must be an int, got 2.5$"),
    (lambda: SimConfig(lane_length="150"),
     "^lane_length must be a number, got '150'$"),
    (lambda: SimConfig(rng_seed=1.5), "^rng_seed must be an int, got 1.5$"),
    (lambda: SimConfig(rng_seed=-1), "^rng_seed must be at least 0$"),
    (lambda: AgentConfig(seed=-1), "^seed must be at least 0$"),
], ids=["spec-fractional-seed", "spec-fractional-eval-episodes",
        "sim-string-lane-length", "sim-fractional-rng-seed",
        "sim-negative-rng-seed", "agent-negative-seed"])
def test_a_bad_seed_or_count_is_refused_when_the_config_is_built(make,
                                                                  message):
    # each used to be accepted and to fail later, in a cell or when a
    # state or an agent was built, naming no field
    with pytest.raises(ValueError, match=message):
        make()


def test_seeds_of_zero_are_accepted():
    SimConfig(rng_seed=0)
    make_agent(AgentConfig(seed=0), 11)


@pytest.mark.parametrize("episodes, message", [
    (True, "^episodes must be an int, got True$"),
    (1.5, "^episodes must be an int, got 1.5$"),
], ids=["bool", "fraction"])
def test_evaluate_agent_refuses_an_episode_count_that_is_not_an_int(
        episodes, message):
    # True played one episode and reported episodes: True; 1.5 raised a
    # stray TypeError
    cfg = build_env_config("medium", 0.5, 0, episode_length=20.0)
    agent = make_agent(AgentConfig(algorithm="fixed_time"),
                       cfg.observation_size)
    with pytest.raises(ValueError, match=message):
        evaluate_agent(agent, cfg, episodes)


@pytest.mark.parametrize("rate, message", [
    (True, "^detection rate must be a number, got True$"),
    ("0.5", "^detection rate must be a number, got '0.5'$"),
    (1.5, r"^detection rate must lie in \[0, 1\]$"),
], ids=["bool", "string", "out-of-range"])
def test_set_detection_rate_refuses_a_non_number_by_name(rate, message):
    # True was stored in the env's config, and a string raised a bare
    # TypeError from the range comparison
    env = TrafficSignalEnv(EnvConfig())
    with pytest.raises(ValueError, match=message):
        env.set_detection_rate(rate)
    assert env.config.sim.detection_rate == 1.0


@pytest.mark.parametrize("rate", [0, 1, 0.25])
def test_set_detection_rate_takes_an_int_or_a_float(rate):
    env = TrafficSignalEnv(EnvConfig())
    env.set_detection_rate(rate)
    assert env.config.sim.detection_rate is rate


@pytest.mark.parametrize("breakpoints, message", [
    ([0.0], r"^breakpoint 0.0 is not a \(time, rate\) pair$"),
    ([(0.0, 1.0, 2.0)],
     r"^breakpoint \(0.0, 1.0, 2.0\) is not a \(time, rate\) pair$"),
    ([("0", 1.0)], "^breakpoint times must be a number, got '0'$"),
    ([(0.0, True)], "^breakpoint rates must be a number, got True$"),
], ids=["bare-number", "triple", "string-time", "bool-rate"])
def test_schedule_refuses_a_breakpoint_that_is_no_pair_of_numbers(
        breakpoints, message):
    with pytest.raises(ValueError, match=message):
        DetectionSchedule(breakpoints)


def test_schedule_takes_a_list_pair_as_a_breakpoint():
    assert DetectionSchedule([[0, 1], [10.0, 0.5]]).rate_at(5.0) == 0.75


def integral_numbers():
    """Each number field whose default is a whole number (each item, for
    a list of numbers), with that default spelt as an int."""
    params = []
    for cls, make in CONFIGS.items():
        base = make()
        for f in dataclasses.fields(cls):
            value = getattr(base, f.name)
            values = value if f.type == "list[float]" else [value]
            if f.type in NUMBER_KINDS and all(
                    math.isfinite(v) and v == int(v) for v in values):
                spelt = [int(v) for v in values]
                params.append(pytest.param(
                    make, f.name, spelt if f.type == "list[float]" else spelt[0],
                    id=f"{cls.__name__}.{f.name}"))
    return params


@pytest.mark.parametrize("make, name, value", integral_numbers())
def test_a_number_spelt_as_an_int_is_stored_as_a_float(make, name, value):
    # it was stored as the int, which a CSV row, a timeline or a
    # checkpoint header then wrote as 1 where 1.0 writes 1.0
    stored = getattr(make(**{name: value}), name)
    assert repr(stored) == repr(
        [float(v) for v in value] if type(value) is list else float(value))


def test_a_schedule_stores_its_breakpoints_as_float_pairs():
    schedule = DetectionSchedule([(0, 1), [10, 0]])
    assert repr(schedule.breakpoints) == "[(0.0, 1.0), (10.0, 0.0)]"
    assert [repr(schedule.rate_at(t)) for t in (-1, 0, 10, 11)] == [
        "1.0", "1.0", "0.0", "0.0"]


def test_an_int_valued_agent_number_writes_the_checkpoint_of_its_float():
    blobs = [agent_to_bytes(make_agent(
        AgentConfig(algorithm="fixed_time", fixed_time_green=green), 11))
        for green in (30, 30.0)]
    assert blobs[0] == blobs[1]


def test_every_file_key_parses_by_its_kind():
    # a section's field named after another section is set there
    for cls in _SECTION_TYPES.values():
        for f in dataclasses.fields(cls):
            assert f.name in _SECTION_TYPES or f.type in _COERCERS, (
                cls.__name__, f.name, f.type)


def test_a_count_or_none_takes_none_in_a_file_and_as_a_flag(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\ntrain_steps = none\n"
                    "[deploy]\nupdate_period = Off\n")
    sections = load_config_file(path)
    assert sections["experiment"] == {"train_steps": None}
    assert sections["deploy"] == {"update_period": None}
    args = build_parser().parse_args(
        ["adapt", "--steps", "none", "--update-period", "none"])
    assert args.train_steps is None and args.update_period is None
    spec = ExperimentSpec(algorithms=["ppo", "a2c"], train_steps=None)
    assert [spec.steps_for(a) for a in spec.algorithms] == [100_000, 250_000]
    path.write_text("[experiment]\ntrain_steps = no\n")
    with pytest.raises(ValueError, match="train_steps: invalid literal"):
        load_config_file(path)
