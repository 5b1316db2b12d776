import argparse
import hashlib
import math
import os
import re
import shutil
import xml.etree.ElementTree as ET
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from eval_reference import reference_evaluation
from rollout_reference import Transition, as_rollout
from trafficlab.adapt import DeploymentConfig, DetectionSchedule, TimelinePoint
from trafficlab.agents import (
    ALGORITHMS,
    FixedTimeAgent,
    ObservationShapeError,
    PpoAgent,
    load_agent,
    make_agent,
    save_agent,
)
from trafficlab.charts import ChartError, Series, line_chart
from trafficlab.cli import _resolve, build_parser
from trafficlab.cli import main as cli_main
from trafficlab.config import (
    _COERCERS,
    TRAIN_STEPS_BY_ALGORITHM,
    ExperimentSpec,
    load_config_file,
    parse_schedule,
)
from trafficlab.env import EnvConfig, EpisodeDoneError, TrafficSignalEnv
from trafficlab.harness import (
    CURVE_HEADER,
    SWEEP_HEADER,
    TIMELINE_HEADER,
    EpisodeRecord,
    SweepRecord,
    build_env_config,
    checkpoint_name,
    cmd_adapt,
    cmd_eval,
    cmd_sweep,
    cmd_train,
    default_agent_config,
    emit_csv,
    evaluate_agent,
    read_csv,
    read_sweep_csv,
    train_agent,
)
from trafficlab.nn import Mlp
from trafficlab.sim import class_means, scenario_preset
from sim_oracle import road_census, settled_waits

# Tiny budgets: these tests exercise plumbing, not learning quality.
TINY = dict(train_steps=300, eval_episodes=2, episode_length=120.0)


def tiny_spec(out_dir, **kw):
    base = dict(name="tiny", scenario="medium", algorithms=["ppo"],
                rates=[0.5], seeds=[0], out_dir=str(out_dir), **TINY)
    base.update(kw)
    return ExperimentSpec(**base)


FAST_AGENT = {"rollout_length": 64, "hidden_sizes": [16, 16]}


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_chart_is_valid_self_contained_svg():
    svg = line_chart(
        [Series("detected", [0.1, 0.5, 1.0], [20.0, 12.0, 9.0]),
         Series("undetected", [0.1, 0.5, 1.0], [25.0, 16.0, 9.5])],
        title="sweep", x_label="rate", y_label="wait")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    body = svg
    assert body.count("<polyline") == 2
    assert "detected" in body and "undetected" in body
    assert "http://www.w3.org/2000/svg" in body
    # the two series must be visually distinct
    assert "stroke-dasharray" in body


def test_chart_refuses_empty_input():
    with pytest.raises(ChartError):
        line_chart([])
    with pytest.raises(ChartError):
        line_chart([Series("empty", [], [])])


def test_chart_skips_missing_values():
    svg = line_chart([Series("a", [0, 1, 2], [1.0, None, 3.0])])
    assert svg.count("<polyline") == 1


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_sweep_csv_round_trip(tmp_path):
    records = [
        SweepRecord("ppo", "medium", 0.5, 0, 12.25, 11.5, 13.75, 20),
        SweepRecord("dql", "medium", 0.0, 1, 30.123456789, None, 30.123456789, 20),
        SweepRecord("a2c", "sparse", 1.0, 2, 9.0, 9.0, None, 5),
    ]
    path = tmp_path / "sweep.csv"
    emit_csv(path, SWEEP_HEADER, map(astuple, records))
    assert read_sweep_csv(path) == records


@pytest.mark.parametrize("header, record", [
    (SWEEP_HEADER, SweepRecord), (TIMELINE_HEADER, TimelinePoint),
    (CURVE_HEADER, EpisodeRecord)], ids=["sweep", "timeline", "curve"])
def test_each_header_names_its_records_fields_in_order(header, record):
    # a row is its record's fields in order; two columns keep older names
    renamed = {"episode_return": "return", "instability": "instability_flag"}
    assert header == [renamed.get(f.name, f.name) for f in fields(record)]


def test_csv_header_only_when_no_records(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(path, SWEEP_HEADER, [])
    header, rows = read_csv(path)
    assert header == SWEEP_HEADER
    assert rows == []


def test_csv_floats_survive_exactly(tmp_path):
    value = 1.0 / 3.0
    path = tmp_path / "f.csv"
    emit_csv(path, ["x"], [[value]])
    _, rows = read_csv(path)
    assert float(rows[0][0]) == value


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

CONFIG_TEXT = """
[agent]
gamma = 0.9
hidden_sizes = 32,32

[deploy]
schedule = 0:0.1,5000:1.0
total_steps = 5000
update_period = none

[experiment]
scenario = sparse
algorithms = ppo,fixed_time
rates = 0.1,0.75
seeds = 1,2
train_steps = 1000
eval_episodes = 3
out_dir = runs
"""


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    sections = load_config_file(path)
    assert sections["agent"] == {"gamma": 0.9, "hidden_sizes": [32, 32]}
    deploy = DeploymentConfig(**sections["deploy"])
    assert deploy.total_steps == 5000
    assert deploy.update_period is None
    assert deploy.schedule.rate_at(2500) == pytest.approx(0.55)
    spec = ExperimentSpec(**sections["experiment"])
    assert spec.algorithms == ["ppo", "fixed_time"]
    assert spec.rates == [0.1, 0.75]
    assert spec.seeds == [1, 2]


def test_config_defaults_fill_unspecified_keys(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text("[experiment]\nscenario = dense\n")
    spec = ExperimentSpec(**load_config_file(path)["experiment"])
    assert spec.scenario == "dense"
    assert spec.train_steps is None  # default kept: each algorithm's budget
    assert spec.steps_for("ppo") == 100_000
    assert spec.episode_length == 3600.0


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nepisode_lenth = 100\n")
    with pytest.raises(ValueError, match="episode_lenth"):
        load_config_file(path)


OLD_SECTIONS = {"sim": "arrival_rate = 0.5\nlane_length = 60\n",
                "env": "reward_mode = full\n"}


@pytest.mark.parametrize("section", sorted(OLD_SECTIONS))
def test_config_rejects_sim_and_env_sections(tmp_path, section):
    # no command reads them, so accepting them would silently drop the values
    path = tmp_path / "old.ini"
    path.write_text(f"[{section}]\n{OLD_SECTIONS[section]}")
    with pytest.raises(ValueError, match=rf"\[{section}\]"):
        load_config_file(path)


def test_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[simulator]\nlane_length = 100\n")
    with pytest.raises(ValueError, match="simulator"):
        load_config_file(path)


@pytest.mark.parametrize("episodes", [0, -1])
def test_spec_rejects_fewer_than_one_eval_episode(tmp_path, episodes):
    with pytest.raises(ValueError, match="eval_episodes must be at least 1"):
        tiny_spec(tmp_path, eval_episodes=episodes)


SCENARIO_ERROR = ("unknown scenario preset 'bogus'; expected one of "
                  "['dense', 'medium', 'sparse']")
LENGTH_ERROR = "episode_length must be finite and positive, got "


@pytest.mark.parametrize("name, value, message", [
    ("train_steps", -5, "train_steps must be non-negative, got -5"),
    ("workers", 0, "workers must be at least 1, got 0"),
    ("episode_length", 0.0, LENGTH_ERROR + "0.0"),
    ("episode_length", -3.0, LENGTH_ERROR + "-3.0"),
    ("episode_length", math.nan, "episode_length must be finite, got nan"),
    ("episode_length", math.inf, "episode_length must be finite, got inf"),
    ("scenario", "bogus", SCENARIO_ERROR),
])
def test_spec_rejects_bad_grid_value_by_name(tmp_path, name, value, message):
    with pytest.raises(ValueError) as info:
        tiny_spec(tmp_path, **{name: value})
    assert str(info.value) == message


def test_spec_checks_its_agent_values_last_for_every_algorithm(tmp_path):
    # fixed_time reads no gamma, yet a bad one is refused for its cells
    with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\)$"):
        tiny_spec(tmp_path, algorithms=["fixed_time"], agent={"gamma": 2.0})
    with pytest.raises(ValueError, match="^detection rates must lie in"):
        tiny_spec(tmp_path, rates=[1.5], agent={"gamma": 2.0})


@pytest.mark.parametrize("agent, message", [
    ({"bogus": 1}, r"^unknown key 'bogus' in section \[agent\]$"),
    ({"gamma": "x"}, r"^gamma must be a number, got 'x'$"),
    ({"hidden_sizes": 64}, r"^hidden_sizes must be a list, got 64$"),
], ids=["unknown-key", "gamma-not-a-number", "hidden_sizes-not-a-list"])
def test_spec_refuses_a_bad_agent_value_by_key(tmp_path, agent, message):
    # each used to escape AgentConfig as a bare TypeError; the CLI refuses
    # them earlier, when it parses the [agent] section
    with pytest.raises(ValueError, match=message):
        tiny_spec(tmp_path, agent=agent)


def test_trained_checkpoint_holds_the_spec_agent_config(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["a2c"], seeds=[4],
                     agent={**FAST_AGENT, "gamma": 0.9})
    agent = load_agent(cmd_train(spec)[0].checkpoint)
    assert agent.config == spec.agent_config("a2c", 4)
    assert agent.config.gamma == 0.9
    assert agent.config.critic_epochs == 10  # a2c's own default
    assert agent.config.train_steps_budget == 300


def test_cli_flags_override_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    spec, deploy = _resolve(build_parser().parse_args(
        ["adapt", "--config", str(path), "--scenario", "dense", "--seed", "9",
         "--total-steps", "300"]))
    assert spec.scenario == "dense"
    assert spec.seeds == [9]
    assert spec.train_steps == 1000  # untouched file value
    assert spec.agent == {"gamma": 0.9, "hidden_sizes": [32, 32]}
    assert deploy.total_steps == 300
    assert deploy.update_period is None  # untouched file value


def test_cli_flags_parse_with_the_config_coercers():
    args = build_parser().parse_args(
        ["adapt", "--algo", "ppo, a2c", "--rates", "0.25,0.5", "--seed", "1,2",
         "--steps", "10", "--update-period", "none",
         "--schedule", "0:0.1,100:1.0"])
    assert args.algorithms == ["ppo", "a2c"]
    assert args.rates == [0.25, 0.5]
    assert args.seeds == [1, 2]
    assert args.train_steps == 10
    assert args.update_period is None
    assert args.schedule.breakpoints == [(0.0, 0.1), (100.0, 1.0)]
    assert not hasattr(args, "workers")  # flags not given leave file values
    assert build_parser().parse_args(
        ["adapt", "--update-period", "64"]).update_period == 64


GRID_COMMANDS = ("train", "sweep", "adapt")
# the keys a grid command's flag may set, by their kind
GRID_KEYS = {f.name: f.type for cls in (ExperimentSpec, DeploymentConfig)
             for f in fields(cls)}
# a value of each kind as a flag spells it
RAW_VALUES = {"int": "3", "float": "0.25", "str": "dense", "int | None": "none",
              "list[str]": "ppo, a2c", "list[int]": "1,2",
              "list[float]": "0.5,1", "DetectionSchedule": "0:1,100:0.5"}


def grid_options(command):
    """Every option of a grid command but ``-h``."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return [a for a in sub.choices[command]._actions if a.dest != "help"]


def test_every_grid_flag_is_a_key_flag_parsed_by_its_keys_coercer():
    # sweep alone had --train-missing, a store_true flag
    flags = {}
    for command in GRID_COMMANDS:
        options = [a for a in grid_options(command) if a.dest != "config"]
        flags[command] = {a.option_strings[0]: a.dest for a in options}
        for action in options:
            assert type(action) is argparse._StoreAction, action.dest
            kind = GRID_KEYS[action.dest]
            for raw in (RAW_VALUES[kind], "x!"):
                try:
                    expected = _COERCERS[kind](raw)
                except ValueError as exc:
                    with pytest.raises(argparse.ArgumentTypeError,
                                       match=f"^{re.escape(str(exc))}$"):
                        action.type(raw)
                else:
                    assert action.type(raw) == expected
    spec_keys = {f.name for f in fields(ExperimentSpec)}
    assert flags["train"] == flags["sweep"] == {
        flag: key for flag, key in flags["adapt"].items() if key in spec_keys}


def test_readme_names_exactly_the_keys_that_have_no_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    (sentence,) = re.findall(
        r"Not every key has a flag: (.*?) are set in the file only", readme,
        re.S)
    named = set(re.findall(r"`([^`]+)`", sentence)) - {"[agent]"}
    flagged = {a.dest for command in GRID_COMMANDS
               for a in grid_options(command)}
    # ExperimentSpec.agent is the [agent] section
    assert named == set(GRID_KEYS) - flagged - {"agent"}


def assert_one_line_parse_error(capsys, rc, names):
    """A parse error: exit status 2 and one stderr line naming ``names``."""
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("trafficlab: error: ")
    assert len(captured.err.splitlines()) == 1 and names in captured.err


def test_cli_sweep_has_no_train_missing_flag(tmp_path, capsys):
    # sweep trained a cell whose checkpoint was absent; only train trains
    rc = cli_main(["sweep", "--out", str(tmp_path / "run"), "--train-missing"])
    assert_one_line_parse_error(capsys, rc, "--train-missing")
    assert not (tmp_path / "run").exists()


def test_cli_eval_has_no_config_flag(tmp_path, capsys):
    rc = cli_main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"),
                   "--config", str(tmp_path / "exp.ini")])
    assert_one_line_parse_error(capsys, rc, "--config")


def test_cli_eval_has_no_time_of_day_flag(tmp_path, capsys):
    # no command trains an agent on the time-of-day slot
    rc = cli_main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"),
                   "--time-of-day"])
    assert_one_line_parse_error(capsys, rc, "--time-of-day")


@pytest.mark.parametrize("argv, names", [
    (["sweep", "--out", "o", "--algo", "ppo", "--bogus"], "--bogus"),
    (["eval", "--episodes", "1"], "--checkpoint"),
    ([], "command"),
    (["adapt", "--window"], "--window"),
    (["retrain", "--out", "o"], "retrain"),
], ids=["unknown-flag", "missing-required-flag", "missing-command",
        "missing-value", "unknown-command"])
def test_cli_flag_that_does_not_parse_is_one_line_error(tmp_path, capsys,
                                                        monkeypatch, argv,
                                                        names):
    # argparse used to print its usage line too, and raise SystemExit(2)
    # out of main
    monkeypatch.chdir(tmp_path)
    assert_one_line_parse_error(capsys, cli_main(argv), names)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["adapt", "--help"]])
def test_cli_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 0
    assert "usage: trafficlab" in capsys.readouterr().out


def nan_checkpoint(path):
    """Save at ``path`` a PPO agent on the medium observation whose first
    actor weight is NaN."""
    agent = make_agent(default_agent_config("ppo", overrides=FAST_AGENT),
                       build_env_config("medium", 0.5, 0).observation_size)
    agent.actor.params[0] = math.nan
    save_agent(agent, path)


def test_cli_eval_of_a_non_finite_checkpoint_is_one_line_error(tmp_path,
                                                               capsys):
    path = tmp_path / "nan.ckpt"
    nan_checkpoint(path)
    rc = cli_main(["eval", "--checkpoint", str(path), "--episodes", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("eval failed: ")
    assert "not finite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["sweep", "adapt"])
def test_grid_cell_of_a_non_finite_checkpoint_reports_a_checkpoint_error(
        tmp_path, command):
    spec = tiny_spec(tmp_path)
    os.makedirs(tmp_path / "checkpoints")
    nan_checkpoint(tmp_path / "checkpoints" / checkpoint_name(
        "ppo", "medium", 0.5, 0))
    if command == "sweep":
        _, results = cmd_sweep(spec)
    else:
        results = cmd_adapt(spec, DeploymentConfig(
            schedule=DetectionSchedule([(0.0, 0.5)]), total_steps=64))
    assert [r.error.split(":")[0] for r in results] == ["CheckpointFormatError"]
    assert "not finite" in results[0].error


def test_schedule_string_round_trip():
    sched = parse_schedule("0:0.1,200000:1.0")
    assert sched.breakpoints == [(0.0, 0.1), (200000.0, 1.0)]
    with pytest.raises(ValueError):
        parse_schedule("nonsense")


def test_train_steps_default_to_each_algorithm_budget(tmp_path):
    def resolved(*argv):
        spec, _ = _resolve(build_parser().parse_args(["train", *argv]))
        return {a: spec.steps_for(a) for a in spec.algorithms}

    assert resolved("--algo", "a2c,dql") == {"a2c": 250_000, "dql": 100_000}
    assert resolved("--algo", "a2c,dql", "--steps", "256") == {"a2c": 256,
                                                               "dql": 256}
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nalgorithms = a2c\ntrain_steps = 300\n")
    assert resolved("--config", str(ini)) == {"a2c": 300}


# ---------------------------------------------------------------------------
# cmd_train
# ---------------------------------------------------------------------------

def test_train_zero_steps_emits_initial_checkpoint_and_empty_curve(tmp_path):
    spec = tiny_spec(tmp_path, train_steps=0, agent=FAST_AGENT)
    results = cmd_train(spec)
    assert len(results) == 1 and results[0].error is None
    ckpt = results[0].checkpoint
    assert os.path.exists(ckpt)
    agent = load_agent(ckpt, expected_algorithm="ppo")
    assert agent.train_steps == 0
    curve = tmp_path / "curves" / f"train_{checkpoint_name('ppo', 'medium', 0.5, 0)[:-5]}.csv"
    header, rows = read_csv(curve)
    assert rows == []  # empty curve


def test_train_cell_without_steps_trains_the_algorithm_budget(tmp_path,
                                                              monkeypatch):
    monkeypatch.setitem(TRAIN_STEPS_BY_ALGORITHM, "a2c", 128)
    spec = tiny_spec(tmp_path, algorithms=["a2c"], train_steps=None,
                     agent=FAST_AGENT)
    results = cmd_train(spec)
    agent = load_agent(results[0].checkpoint, expected_algorithm="a2c")
    assert agent.train_steps == 128
    assert agent.config.train_steps_budget == 128


def test_train_fixed_time_is_untrained_baseline(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["fixed_time"], train_steps=500)
    results = cmd_train(spec)
    assert results[0].error is None
    agent = load_agent(results[0].checkpoint, expected_algorithm="fixed_time")
    assert agent.train_steps == 0  # no training performed


def test_train_two_seeds_give_distinct_reproducible_checkpoints(tmp_path):
    spec = tiny_spec(tmp_path / "a", seeds=[0, 1], agent=FAST_AGENT)
    results = cmd_train(spec)
    blobs = [Path(r.checkpoint).read_bytes() for r in results]
    assert blobs[0] != blobs[1]
    spec2 = tiny_spec(tmp_path / "b", seeds=[0, 1], agent=FAST_AGENT)
    results2 = cmd_train(spec2)
    blobs2 = [Path(r.checkpoint).read_bytes() for r in results2]
    assert blobs == blobs2


def test_training_actually_updates_parameters(tmp_path):
    spec = tiny_spec(tmp_path, train_steps=400, agent=FAST_AGENT)
    results = cmd_train(spec)
    trained = load_agent(results[0].checkpoint)
    untrained_spec = tiny_spec(tmp_path / "zero", train_steps=0,
                               agent=FAST_AGENT)
    base = load_agent(cmd_train(untrained_spec)[0].checkpoint)
    assert trained.train_steps >= 384  # full rollouts consumed
    assert not np.array_equal(trained.actor.flatten(), base.actor.flatten())


# ---------------------------------------------------------------------------
# cmd_sweep
# ---------------------------------------------------------------------------

def test_sweep_full_detection_classes_coincide(tmp_path):
    spec = tiny_spec(tmp_path, rates=[1.0], algorithms=["fixed_time"])
    cmd_train(spec)
    records, results = cmd_sweep(spec)
    assert all(r.error is None for r in results)
    rec = records[0]
    assert rec.wait_undetected is None  # nothing undetected at rate 1.0
    assert rec.wait_all == rec.wait_detected
    assert (tmp_path / "sweep.csv").exists()
    parsed = read_sweep_csv(tmp_path / "sweep.csv")
    assert parsed == records


def test_sweep_zero_detection_has_empty_detected_columns(tmp_path):
    spec = tiny_spec(tmp_path, rates=[0.0], algorithms=["fixed_time"])
    cmd_train(spec)
    records, results = cmd_sweep(spec)
    assert all(r.error is None for r in results)
    rec = records[0]
    assert rec.wait_detected is None
    assert rec.wait_all == rec.wait_undetected
    raw_header, raw_rows = read_csv(tmp_path / "sweep.csv")
    detected_col = raw_header.index("wait_detected")
    assert raw_rows[0][detected_col] == ""  # absent, not zero


def test_sweep_missing_checkpoint_recorded_and_continues(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["fixed_time", "ppo"], rates=[0.5])
    only_fixed = tiny_spec(tmp_path, algorithms=["fixed_time"], rates=[0.5])
    cmd_train(only_fixed)
    records, results = cmd_sweep(spec)
    errors = [r for r in results if r.error]
    assert len(errors) == 1 and errors[0].algorithm == "ppo"
    assert errors[0].error.startswith("FileNotFoundError: missing checkpoint")
    assert len(records) == 1 and records[0].algorithm == "fixed_time"


def test_sweep_coherence_wait_all_between_classes(tmp_path):
    spec = tiny_spec(tmp_path, rates=[0.5], algorithms=["fixed_time"],
                     eval_episodes=3, episode_length=600.0)
    cmd_train(spec)
    records, _ = cmd_sweep(spec)
    rec = records[0]
    assert rec.wait_detected is not None and rec.wait_undetected is not None
    lo = min(rec.wait_detected, rec.wait_undetected)
    hi = max(rec.wait_detected, rec.wait_undetected)
    assert lo <= rec.wait_all <= hi


def test_sweep_chart_emitted(tmp_path):
    spec = tiny_spec(tmp_path, rates=[0.2, 0.8], algorithms=["fixed_time"])
    cmd_train(spec)
    cmd_sweep(spec)
    svg_path = tmp_path / "sweep_fixed_time_medium.svg"
    assert svg_path.exists()
    ET.fromstring(svg_path.read_text())


def test_sweep_charts_and_summary_equal_ones_drawn_from_the_sweep_csv(
        tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["ppo", "fixed_time"],
                     rates=[1.0, 0.0], seeds=[1, 0], agent=FAST_AGENT)
    cmd_train(spec)
    cmd_sweep(spec)
    header, rows = read_csv(tmp_path / "sweep.csv")

    def means(algorithm, column):
        # each rate's mean over the seeds' non-empty values, rates sorted
        per_rate = {}
        for row in rows:
            if row[0] == algorithm and row[column] != "":
                per_rate.setdefault(float(row[2]), []).append(
                    float(row[column]))
        return {x: per_rate[x] for x in sorted(per_rate)}

    summary = []
    for algorithm in sorted(spec.algorithms):
        series = []
        for label in ("all", "detected", "undetected"):
            per_rate = means(algorithm, header.index(f"wait_{label}"))
            series.append(Series(label, list(per_rate), [
                float(np.mean(v)) for v in per_rate.values()]))
        # no vehicle is detected at rate 0.0 and none undetected at 1.0
        assert [s.xs for s in series] == [[0.0, 1.0], [1.0], [0.0]]
        expected = line_chart(series, title=f"{algorithm} on medium",
                              x_label="detection rate",
                              y_label="mean waiting time (s)")
        svg = tmp_path / f"sweep_{algorithm}_medium.svg"
        assert svg.read_bytes() == expected.encode()
        for rate, values in means(algorithm,
                                  header.index("wait_all")).items():
            summary.append([algorithm, "medium", repr(rate),
                            repr(float(np.mean(values))),
                            repr(float(np.std(values))), "2"])
    assert read_csv(tmp_path / "sweep_summary.csv")[1] == summary


def test_every_command_reports_and_writes_in_sorted_cell_order(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["ppo", "fixed_time"],
                     rates=[1.0, 0.0], seeds=[1, 0], train_steps=0,
                     eval_episodes=1)
    cells = [(a, r, s) for a in ("fixed_time", "ppo") for r in (0.0, 1.0)
             for s in (0, 1)]
    assert list(spec.cells()) == cells
    assert [(r.algorithm, r.rate, r.seed) for r in cmd_train(spec)] == cells
    records, swept = cmd_sweep(spec)
    assert [(r.algorithm, r.detection_rate, r.seed) for r in records] == cells
    assert [(r.algorithm, r.rate, r.seed) for r in swept] == cells
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert [(a, float(r), int(s)) for a, _, r, s, *_ in rows] == cells
    _, rows = read_csv(tmp_path / "sweep_summary.csv")
    assert [(a, float(r)) for a, _, r, *_ in rows] == sorted(
        {(a, r) for a, r, _ in cells})
    deploy = DeploymentConfig(schedule=DetectionSchedule([(0.0, 1.0)]),
                              total_steps=20, update_period=None,
                              instability_window=10)
    adapted = cmd_adapt(spec, deploy)
    runs = [(a, s) for a in ("fixed_time", "ppo") for s in (0, 1)]
    assert [(r.algorithm, r.seed, r.error) for r in adapted] == [
        (a, s, None) for a, s in runs]
    _, rows = read_csv(tmp_path / "adapt_summary.csv")
    assert [(a, int(s)) for a, s, *_ in rows] == runs


def test_grid_files_do_not_depend_on_the_order_of_its_lists(tmp_path):
    # the adapt chart's legend followed the order of algorithms
    deploy = DeploymentConfig(
        schedule=DetectionSchedule([(0.0, 1.0), (200.0, 0.5)]),
        total_steps=200, update_period=None, instability_window=50)
    written = []
    for order, lists in enumerate([
            dict(algorithms=["fixed_time", "ppo"], rates=[0.5, 1.0],
                 seeds=[0, 1]),
            dict(algorithms=["ppo", "fixed_time"], rates=[1.0, 0.5],
                 seeds=[1, 0])]):
        out = tmp_path / str(order)
        spec = tiny_spec(out, train_steps=128, eval_episodes=1,
                         agent=FAST_AGENT, **lists)
        cmd_train(spec)
        cmd_sweep(spec)
        assert not any(r.error for r in cmd_adapt(spec, deploy))
        written.append({path.relative_to(out).as_posix(): path.read_bytes()
                        for path in sorted(out.rglob("*")) if path.is_file()})
    assert written[0] == written[1]
    svg = written[0]["adapt_medium.svg"].decode()
    assert svg.count("<polyline") == 2  # both algorithms have a series


def test_sweep_reproducible_byte_identical(tmp_path):
    def run(where):
        spec = tiny_spec(where, rates=[0.5], algorithms=["fixed_time"])
        cmd_train(spec)
        cmd_sweep(spec)
        return (where / "sweep.csv").read_bytes()

    assert run(tmp_path / "x") == run(tmp_path / "y")


def test_every_cell_error_is_an_errored_row_naming_the_type(tmp_path):
    # undamped ACKTR on a fresh batch at detection rate 0: no vehicle is
    # seen, so the count slots of every observation are 0 and the first
    # layer's A factor is exactly singular; the failed cell saves no
    # checkpoint, so sweep and adapt find it missing
    singular = {**FAST_AGENT, "kfac_damping": 0.0, "kfac_decay": 0.0}
    spec = tiny_spec(tmp_path, algorithms=["acktr", "fixed_time"], rates=[0.0],
                     agent=singular)
    trained = cmd_train(spec)
    assert [r.algorithm for r in trained] == ["acktr", "fixed_time"]
    assert trained[0].error.startswith("SingularCurvatureError: ")
    assert trained[1].error is None
    missing = ("FileNotFoundError: missing checkpoint "
               + str(tmp_path / "checkpoints" / checkpoint_name(
                   "acktr", "medium", 0.0, 0)))
    records, swept = cmd_sweep(spec)
    assert [r.error for r in swept] == [missing, None]
    assert [r.algorithm for r in records] == ["fixed_time"]
    deploy = DeploymentConfig(
        schedule=DetectionSchedule.ramp(0.0, 0.0, 400.0, 1.0),
        total_steps=400, update_period=None, instability_window=100)
    adapted = cmd_adapt(spec, deploy)
    assert [r.error for r in adapted] == [missing, None]


def test_every_command_gives_equal_results_and_files_on_one_and_two_workers(
        tmp_path):
    # the undamped ACKTR cells at rate 0 fail in train, so sweep and adapt
    # find their checkpoints missing; both runs write into one out_dir, so
    # the paths in the results and their errors are the same
    singular = {**FAST_AGENT, "kfac_damping": 0.0, "kfac_decay": 0.0}
    deploy = DeploymentConfig(
        schedule=DetectionSchedule.ramp(0.0, 0.0, 200.0, 1.0),
        total_steps=200, update_period=None, instability_window=50)
    out = tmp_path / "grid"
    runs = []
    for workers in (1, 2):
        spec = tiny_spec(out, algorithms=["acktr", "fixed_time"],
                         rates=[0.0], seeds=[0, 1], agent=singular,
                         workers=workers)
        results = (cmd_train(spec), cmd_sweep(spec), cmd_adapt(spec, deploy))
        files = {path.relative_to(out).as_posix(): path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        runs.append((results, files))
        shutil.rmtree(out)
    trained, (records, swept), adapted = runs[0][0]
    assert [r.error is None for r in trained + swept + adapted] == [
        False, False, True, True] * 3
    assert len(records) == 2 and "adapt_summary.csv" in runs[0][1]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_an_aborted_deployment_is_an_errored_cell_that_keeps_its_timeline(
        tmp_path, capsys, workers):
    # an update on a batch at rate 0 meets an exactly singular A factor
    spec = tiny_spec(tmp_path, algorithms=["acktr"], rates=[0.0],
                     seeds=[0, 1], train_steps=0, workers=workers,
                     agent={**FAST_AGENT, "kfac_damping": 0.0,
                            "kfac_decay": 0.0})
    cmd_train(spec)
    deploy = DeploymentConfig(schedule=DetectionSchedule([(0.0, 0.0)]),
                              total_steps=200, update_period=64,
                              instability_window=50)
    results = cmd_adapt(spec, deploy)
    _, summary = read_csv(tmp_path / "adapt_summary.csv")
    for res, row in zip(results, summary, strict=True):
        deployment = res.output
        assert deployment.failure_step == 64
        assert res.error == deployment.failure_message
        assert res.error.startswith("SingularCurvatureError: ")
        assert res.checkpoint == str(tmp_path / "checkpoints" / checkpoint_name(
            "acktr", "medium", 0.0, res.seed))
        _, rows = read_csv(tmp_path / f"timeline_acktr_s{res.seed}.csv")
        assert [int(r[0]) for r in rows] == [50, 64]
        assert [p.step for p in deployment.timeline] == [50, 64]
        assert row == ["acktr", str(res.seed),
                       str(deployment.instability_flags), "1", res.error]


# ---------------------------------------------------------------------------
# cmd_adapt
# ---------------------------------------------------------------------------

def adapt_deploy(total=800):
    return DeploymentConfig(
        schedule=DetectionSchedule.ramp(0.0, 0.5, float(total), 1.0),
        total_steps=total, update_period=None, instability_window=200)


def test_adapt_runs_and_emits_timelines(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["fixed_time"], rates=[0.5])
    cmd_train(spec)
    results = cmd_adapt(spec, adapt_deploy())
    assert len(results) == 1
    res = results[0]
    assert res.error is None
    assert res.checkpoint == str(tmp_path / "checkpoints" / checkpoint_name(
        "fixed_time", "medium", 0.5, 0))
    _, rows = read_csv(tmp_path / "timeline_fixed_time_s0.csv")
    assert len(rows) == 4  # 800 steps / 200 window
    assert rows[0][0] == "200"
    assert [p.step for p in res.output.timeline] == [200, 400, 600, 800]
    assert (tmp_path / "adapt_summary.csv").exists()
    assert (tmp_path / "adapt_medium.svg").exists()


def test_adapt_missing_checkpoint_reports_error(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["ppo"], rates=[0.5])
    results = cmd_adapt(spec, adapt_deploy())
    assert results[0].output is None
    assert results[0].error == (
        "FileNotFoundError: missing checkpoint "
        + str(tmp_path / "checkpoints" / checkpoint_name("ppo", "medium",
                                                         0.5, 0)))


def test_adapt_refuses_rates_that_train_no_checkpoint_at_the_first_rate(
        tmp_path):
    # it used to run every cell into a missing checkpoint and write
    # adapt_summary.csv; the CLI refuses the same grid by the same check
    spec = tiny_spec(tmp_path, algorithms=["fixed_time"], rates=[0.5])
    cmd_train(spec)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    deploy = DeploymentConfig(schedule=DetectionSchedule([(0.0, 1.0)]),
                              total_steps=10, update_period=None,
                              instability_window=5)
    with pytest.raises(ValueError, match=r"^rates \[0\.5\] train no r1\.00 "
                       "checkpoint, which the schedule's first rate loads$"):
        cmd_adapt(spec, deploy)
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_an_int_rate_writes_the_sweep_rows_of_its_float(tmp_path):
    # rates=[1] wrote the row fixed_time,medium,1,0,... where [1.0] writes
    # fixed_time,medium,1.0,0,...
    written = []
    for k, rates in enumerate(([1], [1.0])):
        spec = tiny_spec(tmp_path / f"run{k}", algorithms=["fixed_time"],
                         rates=rates)
        cmd_train(spec)
        cmd_sweep(spec)
        written.append((tmp_path / f"run{k}" / "sweep.csv").read_bytes())
    assert written[0] == written[1]


def test_adapt_chart_equals_one_drawn_from_the_timeline_csvs(tmp_path):
    spec = tiny_spec(tmp_path, scenario="sparse",
                     algorithms=["fixed_time", "ppo"], seeds=[0, 1],
                     agent=FAST_AGENT)
    cmd_train(spec)
    deploy = DeploymentConfig(
        schedule=DetectionSchedule.ramp(0.0, 0.5, 300.0, 1.0),
        total_steps=300, update_period=None, instability_window=5)
    results = cmd_adapt(spec, deploy)
    assert [(r.algorithm, r.seed, r.error) for r in results] == [
        ("fixed_time", 0, None), ("fixed_time", 1, None),
        ("ppo", 0, None), ("ppo", 1, None)]
    # the chart as drawn from the CSVs before it was drawn in memory
    series = []
    empty_windows = 0
    for algorithm in sorted(spec.algorithms):
        per_step = {}
        for res in results:
            if res.algorithm != algorithm:
                continue
            header, rows = read_csv(
                tmp_path / f"timeline_{res.algorithm}_s{res.seed}.csv")
            wait_col = header.index("wait_all")
            for row in rows:
                if row[wait_col] == "":
                    empty_windows += 1
                else:
                    per_step.setdefault(int(row[0]), []).append(
                        float(row[wait_col]))
        xs = sorted(per_step)
        series.append(Series(label=algorithm, xs=[float(x) for x in xs],
                             ys=[float(np.mean(per_step[x])) for x in xs]))
    assert empty_windows > 0  # a window with no exits has a None wait
    expected = line_chart(series, title="deployment on sparse",
                          x_label="step", y_label="mean waiting time (s)")
    assert (tmp_path / "adapt_sparse.svg").read_bytes() == expected.encode()


def test_adapt_timeline_reproducible(tmp_path):
    def run(where):
        spec = tiny_spec(where, algorithms=["fixed_time"], rates=[0.5])
        cmd_train(spec)
        assert cmd_adapt(spec, adapt_deploy())[0].error is None
        return (where / "timeline_fixed_time_s0.csv").read_bytes()

    assert run(tmp_path / "m") == run(tmp_path / "n")


# ---------------------------------------------------------------------------
# cmd_eval
# ---------------------------------------------------------------------------

def test_eval_same_seed_identical_metrics(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["fixed_time"])
    results = cmd_train(spec)
    ckpt = results[0].checkpoint
    a = cmd_eval(ckpt, "medium", 0.5, episodes=2, seed=3,
                 episode_length=120.0)
    b = cmd_eval(ckpt, "medium", 0.5, episodes=2, seed=3,
                 episode_length=120.0)
    assert a == b


@pytest.mark.parametrize("episodes", [0, -1])
def test_evaluate_agent_rejects_fewer_than_one_episode(episodes):
    cfg = build_env_config("medium", 0.5, 0, episode_length=120.0)
    agent = make_agent(default_agent_config("fixed_time"),
                       cfg.observation_size)
    with pytest.raises(ValueError, match=f"episodes must be at least 1, "
                                         f"got {episodes}"):
        evaluate_agent(agent, cfg, episodes)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be at least 0, got -1"),
    (1.5, "seed must be an int, got 1.5"),
    ("3", "seed must be an int, got '3'"),
    (True, "seed must be an int, got True"),
    (None, "seed must be an int, got None")], ids=repr)
def test_evaluate_agent_refuses_a_bad_seed_by_name(seed, message):
    # numpy raised its own errors, True ran as seed 1 and None drew OS
    # entropy, so the stats could not be reproduced
    cfg = build_env_config("medium", 0.5, 0, episode_length=120.0)
    agent = make_agent(default_agent_config("fixed_time"),
                       cfg.observation_size)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_agent(agent, cfg, 1, seed=seed)


def test_eval_mean_queue_equals_a_per_step_metrics_loop():
    cfg = build_env_config("dense", 0.5, 6, episode_length=300.0)
    agent = make_agent(default_agent_config("ppo", seed=6,
                                            overrides=FAST_AGENT),
                       cfg.observation_size)
    stats = evaluate_agent(agent, cfg, episodes=2, seed=6)

    env = TrafficSignalEnv(cfg, seed=6)
    queue_total = 0.0
    samples = 0
    for _ in range(2):
        obs, done = env.reset(), False
        while not done:
            obs, _, done, _ = env.step(agent.act(obs, explore=False))
            queue_total += road_census(env.state, cfg.sim).queue
            samples += 1
    assert samples == 600
    assert repr(stats.mean_queue) == repr(queue_total / samples)


def curve_wait(state):
    """The mean wait of every vehicle that entered: the exit totals plus
    the vehicles still on the road."""
    return class_means(*settled_waits(state))[0]


class NeverSwitch(PpoAgent):
    """Keeps the current phase at every step and learns nothing."""

    def act(self, obs, explore=False):
        self.last_logprob = 0.0
        return 0

    def update(self, transitions):
        return {}


def test_train_curve_counts_the_vehicles_still_on_the_road():
    # never switching starves the cross approaches: every exit comes from
    # the served ones, which never wait, so an exits-only mean reads 0.0
    cfg = build_env_config("medium", 1.0, 3)
    env = TrafficSignalEnv(cfg, seed=3)
    records = train_agent(NeverSwitch(default_agent_config("ppo", seed=3),
                                      cfg.observation_size), env, 3600)
    state = env.state
    assert (state.exited_count, state.vehicle_count()) == (737, 46)
    assert state.exited_wait_detected + state.exited_wait_undetected == 0.0
    [record] = records
    assert record.mean_wait == curve_wait(state)
    assert record.mean_wait == pytest.approx(188.83, abs=0.01)


def test_train_mean_waits_equal_a_per_step_metrics_loop():
    cfg = build_env_config("dense", 0.5, 8, episode_length=120.0)

    def fresh_agent():
        return make_agent(default_agent_config("ppo", seed=8,
                                               overrides=FAST_AGENT),
                          cfg.observation_size)

    records = train_agent(fresh_agent(), TrafficSignalEnv(cfg, seed=8), 500)

    agent, env = fresh_agent(), TrafficSignalEnv(cfg, seed=8)
    obs = env.reset()
    pending, waits, returns, ep_return = [], [], [], 0.0
    for _ in range(500):
        action = agent.act(obs, explore=True)
        next_obs, reward, done, _ = env.step(action)
        ep_return += reward
        wait = curve_wait(env.state)
        pending.append(Transition(obs, action, reward, next_obs,
                                  log_prob=agent.last_logprob))
        if len(pending) >= agent.needs_rollout:
            agent.update(as_rollout(pending))
            pending = []
        if done:
            waits.append(wait)
            returns.append(ep_return)
            ep_return = 0.0
            obs = env.reset()
        else:
            obs = next_obs
    assert len(waits) == 4
    assert repr([r.mean_wait for r in records]) == repr(waits)
    assert repr([r.episode_return for r in records]) == repr(returns)


def test_train_whose_last_step_ends_an_episode_records_it_and_stops():
    cfg = build_env_config("medium", 0.5, 3, episode_length=120.0)
    agent = make_agent(default_agent_config("ppo", seed=3,
                                            overrides=FAST_AGENT),
                       cfg.observation_size)
    env = TrafficSignalEnv(cfg, seed=3)
    records = train_agent(agent, env, 360)
    assert [(r.episode, r.end_step) for r in records] == [
        (0, 120), (1, 240), (2, 360)]
    assert records[-1].mean_wait == curve_wait(env.state)
    with pytest.raises(EpisodeDoneError):  # left as it ended
        env.step(0)
    assert agent.train_steps > 0


def greedy_agent(algorithm, obs_size):
    """A seeded agent whose nets are perturbed, so that its greedy policy
    takes both actions."""
    agent = make_agent(default_agent_config(
        algorithm, seed=5, overrides={"hidden_sizes": [16, 16]}), obs_size)
    rng = np.random.default_rng(5)
    for net in vars(agent).values():
        if isinstance(net, Mlp):
            net.params += rng.normal(size=net.params.size)
    return agent


# "blind": no vehicle is detected, so the observation holds only the
# signal's slots and every wait is an undetected one
@pytest.mark.parametrize("rate", [0.5, 0.0], ids=["base", "blind"])
@pytest.mark.parametrize("episodes", [1, 3])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_lockstep_evaluation_equals_the_sequential_reference(
        algorithm, episodes, rate):
    cfg = EnvConfig(sim=scenario_preset("dense", detection_rate=rate, rng_seed=7),
                    episode_length=120.0)
    got = evaluate_agent(greedy_agent(algorithm, cfg.observation_size), cfg,
                         episodes, seed=7)
    want, actions = reference_evaluation(
        greedy_agent(algorithm, cfg.observation_size), cfg, episodes, seed=7)
    assert repr(got) == repr(want)
    assert set(actions) == {0, 1}
    assert (got.exited_detected == 0) == (rate == 0.0)


def test_evaluate_agent_builds_every_env_before_the_first_step(monkeypatch):
    events = []
    init, step = TrafficSignalEnv.__init__, TrafficSignalEnv.step

    def recording_init(env, *args, **kwargs):
        init(env, *args, **kwargs)
        events.append(("init", env))

    def recording_step(env, action):
        events.append(("step", env))
        return step(env, action)

    monkeypatch.setattr(TrafficSignalEnv, "__init__", recording_init)
    monkeypatch.setattr(TrafficSignalEnv, "step", recording_step)
    cfg = build_env_config("medium", 0.5, 2, episode_length=30.0)
    agent = make_agent(default_agent_config("ppo"), cfg.observation_size)
    evaluate_agent(agent, cfg, episodes=4, seed=2)
    kinds = [kind for kind, _ in events]
    first_step = kinds.index("step")
    assert kinds[:first_step] == ["init"] * 4
    assert "init" not in kinds[first_step:]
    built = [id(env) for kind, env in events if kind == "init"]
    assert [id(env) for _, env in events[first_step:]] == built * 30


def test_evaluate_agent_runs_exactly_the_episodes_asked_for():
    class CountingAgent(FixedTimeAgent):
        acts = 0

        def greedy_actions(self, obs):
            self.acts += len(obs)
            return super().greedy_actions(obs)

    cfg = build_env_config("medium", 0.5, 4, episode_length=120.0)
    agent = CountingAgent(default_agent_config("fixed_time"),
                          cfg.observation_size)
    stats = evaluate_agent(agent, cfg, episodes=3, seed=4)
    assert stats.episodes == 3
    assert agent.acts == 3 * 120


def test_eval_observation_shape_mismatch_explicit(tmp_path):
    # an agent built for one slot more than the observation holds
    ckpt = tmp_path / "wide.ckpt"
    save_agent(make_agent(default_agent_config("fixed_time"),
                          EnvConfig().observation_size + 1), ckpt)
    with pytest.raises(ObservationShapeError, match="length"):
        cmd_eval(str(ckpt), "medium", 0.5, episodes=1, seed=0,
                 episode_length=120.0)


def test_eval_writes_json_metrics(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["fixed_time"])
    ckpt = cmd_train(spec)[0].checkpoint
    out = tmp_path / "metrics.json"
    stats = cmd_eval(ckpt, "medium", 0.5, episodes=1, seed=0,
                     episode_length=120.0, out_path=str(out))
    import json
    payload = json.loads(out.read_text())
    assert payload["episodes"] == 1
    assert payload["wait_all"] == stats.wait_all


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def test_config_file_kl_budget_inf_trains_an_acktr_cell(tmp_path):
    # inf, a float a config file can spell, turns the budget off
    ini = tmp_path / "exp.ini"
    ini.write_text("[agent]\nkl_budget = inf\nrollout_length = 64\n"
                   "hidden_sizes = 16,16\n[experiment]\nepisode_length = 120\n")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(ini), "--out", str(out),
                     "--algo", "acktr", "--rates", "0.5", "--steps", "128"]) == 0
    agent = load_agent(out / "checkpoints" / checkpoint_name(
        "acktr", "medium", 0.5, 0))
    assert agent.config.kl_budget == math.inf
    assert agent.train_steps == 128


def test_cli_train_sweep_adapt_eval_pipeline(tmp_path, capsys):
    out = str(tmp_path / "run")
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[agent]\nrollout_length = 64\nhidden_sizes = 16,16\n"
        "[deploy]\nschedule = 0:0.5,500:1.0\ntotal_steps = 500\n"
        "update_period = none\ninstability_window = 100\n"
        "[experiment]\nepisode_length = 120\n")
    base = ["--config", str(ini), "--out", out, "--scenario", "medium",
            "--algo", "fixed_time", "--rates", "0.5", "--seed", "0",
            "--steps", "200", "--episodes", "1"]
    assert cli_main(["train", *base]) == 0
    assert cli_main(["sweep", *base]) == 0
    assert cli_main(["adapt", *base]) == 0
    ckpt = os.path.join(out, "checkpoints",
                        checkpoint_name("fixed_time", "medium", 0.5, 0))
    assert cli_main(["eval", "--checkpoint", ckpt, "--scenario", "medium",
                     "--rate", "0.5", "--episodes", "1"]) == 0
    captured = capsys.readouterr()
    assert "wait_all" in captured.out


GRID_FILE = ("[experiment]\nepisode_length = 120\n"
             "[deploy]\nschedule = 0:0.5\ntotal_steps = 64\n")


@pytest.mark.parametrize("command", ["sweep", "adapt"])
def test_cli_refuses_a_checkpoint_without_the_agent_value_of_the_file(
        tmp_path, capsys, command):
    # the cells were trained at the default 30-s green; scoring or
    # deploying them under a file that sets 5 s used to exit 0
    ini = tmp_path / "exp.ini"
    ini.write_text(GRID_FILE)
    out = tmp_path / "run"
    base = ["--config", str(ini), "--out", str(out), "--algo", "fixed_time",
            "--rates", "0.5", "--seed", "0,1", "--episodes", "1"]
    assert cli_main(["train", *base]) == 0
    ini.write_text(GRID_FILE + "[agent]\nfixed_time_green = 5\n")
    capsys.readouterr()
    assert cli_main([command, *base]) == 1
    captured = capsys.readouterr()
    errors = [line for line in (captured.out + captured.err).splitlines()
              if "fixed_time_green" in line]
    assert len(errors) == 2  # one per cell
    for seed, line in enumerate(errors):
        ckpt = out / "checkpoints" / checkpoint_name("fixed_time", "medium",
                                                     0.5, seed)
        assert f"[agent] fixed_time_green = 5.0, but checkpoint {ckpt} " \
               f"holds 30.0" in line
    if command == "sweep":
        assert read_csv(out / "sweep.csv")[1] == []  # no row for either cell
    else:
        assert not list(out.glob("timeline_*.csv"))


def test_cli_sweep_compares_only_the_agent_keys_the_file_sets(tmp_path,
                                                              capsys):
    # the training budget comes from --steps, not from [agent], so a sweep
    # without --steps still scores the cell
    ini = tmp_path / "exp.ini"
    ini.write_text(GRID_FILE + "[agent]\nrollout_length = 64\n"
                   "hidden_sizes = 16,16\n")
    base = ["--config", str(ini), "--out", str(tmp_path / "run"),
            "--algo", "ppo", "--rates", "0.5", "--episodes", "1"]
    assert cli_main(["train", *base, "--steps", "128"]) == 0
    assert cli_main(["sweep", *base]) == 0
    assert cli_main(["adapt", *base]) == 0
    assert capsys.readouterr().err == ""


# every controller through train, sweep and adapt; a warmup below the 256
# training steps makes DQL take gradient steps
FIVE_CONTROLLER_GRID = (
    "[experiment]\nscenario = medium\nalgorithms = dql,a2c,ppo,acktr,fixed_time\n"
    "rates = 1.0\nseeds = 0\ntrain_steps = 256\neval_episodes = 1\n"
    "episode_length = 256.0\n"
    "[agent]\nwarmup = 64\n"
    "[deploy]\nschedule = 0:1.0,512:0.2\ntotal_steps = 512\n"
    "update_period = 256\ninstability_window = 256\n")
# SHA-256 of every CSV and SVG the grid writes, by path under out_dir;
# recorded while the vehicle record still held an id, approach, spawn time
# and top speed of its own, and unchanged by their removal; the adapt chart
# was re-recorded once, when its legend came to list the algorithms in
# sorted order rather than in the order the file lists them
GOLDEN_FIVE_CONTROLLER_GRID = {
    "adapt_medium.svg":
        "181714e168ed37658cd140ae0dc413edbf374a3910a8c468ca8a646f60667994",
    "adapt_summary.csv":
        "7bfdee909525e3ff47bc182816a15fd8c661b2f1ebdd54658fc37e0001504c46",
    "curves/train_a2c_medium_r1.00_s0.csv":
        "f6a64f7df661ebc95033b1616f869da2dffeeb01687f612071a28a30a19e8018",
    "curves/train_acktr_medium_r1.00_s0.csv":
        "f6a64f7df661ebc95033b1616f869da2dffeeb01687f612071a28a30a19e8018",
    "curves/train_dql_medium_r1.00_s0.csv":
        "2c40606aa33bb1a1f2e9a7630c04a72d33d0a482f6f4c6eb018aea5340d000fd",
    "curves/train_fixed_time_medium_r1.00_s0.csv":
        "da8f5a9f5930f9653e6e38f534f446971fc4cdf0811e309467610f4680a476ff",
    "curves/train_ppo_medium_r1.00_s0.csv":
        "f6a64f7df661ebc95033b1616f869da2dffeeb01687f612071a28a30a19e8018",
    "sweep.csv":
        "7064d9bdaa0b487aa4e7c60a3880767361480c2522f18b22d84125e388dcae8f",
    "sweep_a2c_medium.svg":
        "022ff7c1cfedc6a85b4ebb1dcfac95a268457e220e77c538411a561b83f3ada1",
    "sweep_acktr_medium.svg":
        "54bd7c82b0f5ee62691116b94b0a6d1fa64ba3cceb0a010d27306d0dce399795",
    "sweep_dql_medium.svg":
        "c98142491f06e049cce084b82c77c7bd5ec9f4e382e495ecdfd5441849eb22b9",
    "sweep_fixed_time_medium.svg":
        "83a8f4f7fb992ea62786624e27db4b682a9f998109d200878de1ce17e6cd8961",
    "sweep_ppo_medium.svg":
        "04823d2f3b43b21e2e60111149e1c62e4d3abc463fdd9e15f68fbcc2f2d5305f",
    "sweep_summary.csv":
        "b1623c8c4360ceefe27b1197bf3b32c827a84f8f83392ddbe5ba246c5e99bf9f",
    "timeline_a2c_s0.csv":
        "a4536d6d0874d265ed6809b35dd0c779924492c9dcd62bc18e17294c72e19110",
    "timeline_acktr_s0.csv":
        "5863547a326399edd2100d63d3f56d59455e1cce00054ea0dacc85a28cdc63d6",
    "timeline_dql_s0.csv":
        "76a1aabcbd69bade19a3d710d04423a539715a2b435df4cf684df4d08d709629",
    "timeline_fixed_time_s0.csv":
        "447620fc6ada4fa5ec813f7d951f1046be0cb544b80c8398062d77cf898e60dc",
    "timeline_ppo_s0.csv":
        "9f1f131bbbac39b9cbf68a25a34235676d7bf67281a41e0792f74208c10ea28f",
}


def test_five_controller_grid_outputs_match_golden_digests(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(FIVE_CONTROLLER_GRID)
    out = tmp_path / "run"
    for command in ("train", "sweep", "adapt"):
        assert cli_main([command, "--config", str(ini), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert sum(" ok -> " in line for line in lines) == 5  # train cells
    assert sum(line.startswith("sweep ") for line in lines) == 5
    assert sum(line.startswith("adapt ") and "ABORTED" not in line
               for line in lines) == 5
    written = {path.relative_to(out).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.rglob("*"))
               if path.suffix in (".csv", ".svg")}
    assert written == GOLDEN_FIVE_CONTROLLER_GRID


BAD_CONFIGS = {
    # file text (None: no file at all) -> the commands that read the value
    "missing": (None, ["train", "sweep", "adapt"]),
    "agent-type": ("[agent]\ngamma = fast\n", ["train", "sweep", "adapt"]),
    "agent-range": ("[agent]\ngamma = 2\n", ["train", "sweep", "adapt"]),
    "agent-nan": ("[agent]\nactor_lr = nan\n", ["train", "sweep", "adapt"]),
    # set per cell by [experiment] seeds and algorithms
    "agent-seed": ("[agent]\nseed = 99\n", ["train", "sweep", "adapt"]),
    "agent-algorithm": ("[agent]\nalgorithm = dql\n",
                        ["train", "sweep", "adapt"]),
    # a field of ExperimentSpec that only the [agent] section sets
    "experiment-agent": ("[experiment]\nagent = gamma\n",
                         ["train", "sweep", "adapt"]),
    "experiment": ("[experiment]\nrates = 1.5\n", ["train", "sweep", "adapt"]),
    "algorithm": ("[experiment]\nalgorithms = ppo,sarsa\n",
                  ["train", "sweep", "adapt"]),
    "deploy": ("[deploy]\nschedule = 0:0.5\ntotal_steps = -5\n", ["adapt"]),
    "episode-length": ("[experiment]\nepisode_length = nan\n",
                       ["train", "sweep", "adapt"]),
    "episode-steps": ("[experiment]\nepisode_length = 100.5\n",
                      ["train", "sweep", "adapt"]),
    "no-section": ("rates = 0.5\n", ["train", "sweep", "adapt"]),
    "repeated-key": ("[experiment]\nrates = 0.5\nrates = 0.7\n",
                     ["train", "sweep", "adapt"]),
    "stray-percent": ("[experiment]\nname = 50%\n", ["train", "sweep", "adapt"]),
    # keys of options that were removed
    "optimizer": ("[agent]\noptimizer = adam\n", ["train", "sweep", "adapt"]),
    "kfac_augment_bias": ("[agent]\nkfac_augment_bias = false\n",
                          ["train", "sweep", "adapt"]),
    "explore_floor_init": ("[agent]\nexplore_floor_init = 0.25\n",
                           ["train", "sweep", "adapt"]),
    "center_advantages": ("[agent]\ncenter_advantages = true\n",
                          ["train", "sweep", "adapt"]),
    "train_missing": ("[experiment]\ntrain_missing = yes\n",
                      ["train", "sweep", "adapt"]),
    # a ring that never holds max(warmup, batch_size) = 1000 transitions
    "replay-capacity": ("[agent]\nreplay_capacity = 500\n",
                        ["train", "sweep", "adapt"]),
}
REMOVED_AGENT_KEYS = ("optimizer", "kfac_augment_bias", "explore_floor_init",
                      "center_advantages")


@pytest.mark.parametrize("case, command", [
    pytest.param(case, command, id=f"{case}-{command}")
    for case, (_, commands) in BAD_CONFIGS.items() for command in commands])
def test_cli_bad_config_file_is_one_line_error(tmp_path, capsys, case, command):
    text = BAD_CONFIGS[case][0]
    ini = tmp_path / "exp.ini"
    if text is not None:
        ini.write_text(text)
    out = tmp_path / "run"
    # with a schedule, adapt reaches every value the file sets
    schedule = ["--schedule", "0:1.0"] if command == "adapt" else []
    rc = cli_main([command, "--config", str(ini), "--out", str(out),
                   "--steps", "10", "--episodes", "1", *schedule])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    if case == "agent-type":
        assert "[agent] gamma" in err
    if case == "agent-range":
        assert "gamma" in err
    if case == "agent-nan":
        assert "actor_lr" in err
    if case == "replay-capacity":
        assert err == (f"{command} failed: replay_capacity must be at least "
                       f"max(warmup, batch_size) = 1000, got 500\n")
    if case == "experiment-agent":
        assert "unknown key 'agent' in section [experiment]" in err
    if case in ("no-section", "repeated-key", "stray-percent"):
        assert f"config file {ini} is malformed: " in err
    if case in REMOVED_AGENT_KEYS:
        assert f"unknown key {case!r} in section [agent]" in err
    if case == "train_missing":
        assert err == (f"{command} failed: unknown key 'train_missing' in "
                       f"section [experiment]\n")
    if case == "agent-seed":
        assert "[agent] seed" in err and "[experiment] seeds" in err
    if case == "agent-algorithm":
        assert "[agent] algorithm" in err and "[experiment] algorithms" in err
    assert not out.exists()  # rejected before any cell ran


@pytest.mark.parametrize("command", ["train", "sweep", "adapt"])
def test_cli_zero_eval_episodes_is_one_line_error(tmp_path, capsys, command):
    out = tmp_path / "run"
    rc = cli_main([command, "--out", str(out), "--steps", "10",
                   "--episodes", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"{command} failed: eval_episodes must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--steps", "-5"], "train_steps must be non-negative, got -5"),
    (["--workers", "-3"], "workers must be at least 1, got -3"),
    (["--scenario", "bogus"], SCENARIO_ERROR),
    (["--rates", ","], "rates must be non-empty"),
    (["--algo", "ppo,a2c,ppo"], "algorithms lists 'ppo' more than once"),
    (["--rates", "0.5,0.50"], "rates lists 0.5 more than once"),
    (["--seed", "0,0"], "seeds lists 0 more than once"),
    (["--rates", "0.501,0.504"], "rates 0.501 and 0.504 share the "
                                 "checkpoint name ppo_medium_r0.50_s0.ckpt"),
    (["--seed", "-1"], "seeds must be non-negative, got [-1]"),
], ids=["steps", "workers", "scenario", "no-rates", "repeated-algo",
        "repeated-rate", "repeated-seed", "rate-name", "negative-seed"])
@pytest.mark.parametrize("command", ["train", "sweep", "adapt"])
def test_cli_bad_grid_value_is_one_line_error(tmp_path, capsys, command, flags,
                                              message):
    out = tmp_path / "run"
    schedule = ["--schedule", "0:1,100:0.5"] if command == "adapt" else []
    rc = cli_main([command, "--out", str(out), *schedule, *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"{command} failed: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep", "adapt"])
def test_cli_out_naming_a_file_is_one_line_error(tmp_path, capsys, command):
    out = tmp_path / "exp.ini"
    out.write_text("[experiment]\n")
    schedule = ["--schedule", "0:1,100:0.5"] if command == "adapt" else []
    rc = cli_main([command, "--out", str(out), "--algo", "fixed_time",
                   "--steps", "0", "--episodes", "1", *schedule])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"{command} failed: ") and str(out) in err
    assert len(err.strip().splitlines()) == 1
    assert out.read_text() == "[experiment]\n"


def test_train_cell_whose_checkpoint_directory_is_a_file_is_an_errored_cell(
        tmp_path, capsys):
    (tmp_path / "checkpoints").write_text("")
    rc = cli_main(["train", "--out", str(tmp_path), "--algo", "fixed_time",
                   "--rates", "0.5", "--steps", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("train fixed_time r=0.5 s=0: FileExistsError: ")
    assert len(out.strip().splitlines()) == 1


def test_cli_adapt_update_period_below_one_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli_main(["adapt", "--out", str(out), "--schedule", "0:1,100:0.5",
                   "--update-period", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "adapt failed: update_period must be at least 1, got 0\n"
    assert not out.exists()


def test_cli_adapt_non_finite_schedule_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli_main(["adapt", "--out", str(out), "--schedule", "nan:0.5,100:1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("trafficlab: error: argument --schedule: breakpoint times "
                   "must be finite, got nan\n")
    assert not out.exists()


@pytest.mark.parametrize("rates, first", [
    ("0.5", "1.0"), ("0.2,0.5", "0.994"), ("0.5", "0.494")])
def test_cli_adapt_whose_rates_name_no_checkpoint_at_the_first_rate_is_refused(
        tmp_path, capsys, rates, first):
    # it used to run every cell into a missing checkpoint, exit 1 and
    # write adapt_summary.csv
    out = tmp_path / "run"
    assert cli_main(["train", "--out", str(out), "--algo", "fixed_time",
                     "--rates", rates, "--steps", "0"]) == 0
    before = sorted(p.relative_to(out) for p in out.rglob("*"))
    capsys.readouterr()
    rc = cli_main(["adapt", "--out", str(out), "--algo", "fixed_time",
                   "--rates", rates, "--seed", "0", "--schedule",
                   f"0:{first},100:0.5", "--total-steps", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    name = f"r{float(first):.2f}"
    assert captured.err.startswith("adapt failed: ")
    assert name in captured.err and len(captured.err.splitlines()) == 1
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == before


def test_cli_adapt_first_rate_may_round_to_a_trained_rates_name(tmp_path,
                                                                capsys):
    # 0.501 trains r0.50, the checkpoint a schedule starting at 0.5 loads
    out = tmp_path / "run"
    assert cli_main(["train", "--out", str(out), "--algo", "fixed_time",
                     "--rates", "0.501", "--steps", "0"]) == 0
    rc = cli_main(["adapt", "--out", str(out), "--algo", "fixed_time",
                   "--rates", "0.501", "--schedule", "0:0.5",
                   "--total-steps", "10", "--window", "5"])
    assert rc == 0, capsys.readouterr().err
    assert (out / "adapt_summary.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "adapt"])
def test_cli_missing_checkpoint_is_the_cells_named_error(tmp_path, capsys,
                                                         command):
    # adapt used to report a raw errno, sweep this text
    out = tmp_path / "nothing"
    schedule = ["--schedule", "0:0.5"] if command == "adapt" else []
    rc = cli_main([command, "--out", str(out), "--algo", "ppo", "--rates",
                   "0.5", "--seed", "0,1", "--episodes", "1", *schedule])
    captured = capsys.readouterr()
    printed = captured.out + captured.err
    assert rc == 1
    assert "Traceback" not in printed
    errors = [line for line in printed.splitlines() if "missing" in line]
    assert [line.split(" (", 1)[1] for line in errors] == [
        f"FileNotFoundError: missing checkpoint "
        f"{out / 'checkpoints' / checkpoint_name('ppo', 'medium', 0.5, seed)})"
        for seed in (0, 1)]


def test_cli_eval_bad_checkpoint_nonzero_exit(tmp_path, capsys):
    missing = str(tmp_path / "no.ckpt")
    rc = cli_main(["eval", "--checkpoint", missing])
    assert rc == 1
    assert "eval failed" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--episodes", "0"], ["--rate", "1.5"],
                                   ["--scenario", "rush"]], ids=" ".join)
def test_cli_eval_bad_value_is_one_line_error(tmp_path, capsys, flags):
    ckpt = cmd_train(tiny_spec(tmp_path, algorithms=["fixed_time"]))[0].checkpoint
    capsys.readouterr()
    rc = cli_main(["eval", "--checkpoint", ckpt, *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("eval failed: ")


@pytest.mark.parametrize("flags", [["--episodes", "0"], ["--rate", "1.5"],
                                   ["--scenario", "bogus"]], ids=" ".join)
def test_cli_eval_bad_value_is_refused_before_the_checkpoint_is_read(
        tmp_path, capsys, flags):
    # each exited 1 on "[Errno 2] No such file", hiding the bad flag: the
    # checkpoint is missing, so reading it first would exit 1 on that
    rc = cli_main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"), *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("eval failed: ")
    assert "No such file" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_cli_eval_out_that_cannot_be_written_is_refused_before_any_work(
        tmp_path, capsys, where):
    # it used to exit 1 after every episode had run, on "[Errno 21] Is a
    # directory"; the checkpoint is missing, so loading it first would
    # exit 1 on that
    out = tmp_path if where == "directory" else tmp_path / "no" / "m.json"
    rc = cli_main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("eval failed: ") and str(out) in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_eval_negative_seed_is_refused_by_name_before_the_checkpoint_is_read(
        tmp_path, capsys):
    # it said "rng_seed must be at least 0", a name no flag or key has; the
    # checkpoint is missing, so reading it first would exit 1 on that
    rc = cli_main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"),
                   "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "eval failed: seed must be at least 0, got -1\n"
