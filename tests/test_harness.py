import hashlib
import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from eval_reference import reference_evaluation
from trafficlab.adapt import DeploymentConfig, DetectionSchedule
from trafficlab.agents import (
    ALGORITHMS,
    FixedTimeAgent,
    ObservationShapeError,
    PpoAgent,
    Transition,
    load_agent,
    make_agent,
    save_agent,
)
from trafficlab.charts import ChartError, Series, line_chart
from trafficlab.cli import _resolve, build_parser
from trafficlab.cli import main as cli_main
from trafficlab.config import (
    TRAIN_STEPS_BY_ALGORITHM,
    ExperimentSpec,
    load_config_file,
    parse_schedule,
)
from trafficlab.env import EnvConfig, EpisodeDoneError, TrafficSignalEnv
from trafficlab.harness import (
    SWEEP_HEADER,
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
    write_sweep_csv,
)
from trafficlab.nn import Mlp
from trafficlab.sim import class_means, scenario_preset
from sim_oracle import road_census

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
    write_sweep_csv(path, records)
    assert read_sweep_csv(path) == records


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
rates = 0.25,0.75
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
    assert spec.rates == [0.25, 0.75]
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
    ("episode_length", math.nan, LENGTH_ERROR + "nan"),
    ("episode_length", math.inf, LENGTH_ERROR + "inf"),
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


def test_cli_eval_has_no_config_flag(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"),
                  "--config", str(tmp_path / "exp.ini")])


def test_cli_eval_has_no_time_of_day_flag(tmp_path):
    # no command trains an agent on the time-of-day slot
    with pytest.raises(SystemExit) as exc:
        cli_main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"),
                  "--time-of-day"])
    assert exc.value.code == 2


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


def test_sweep_train_missing_trains_inline(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["fixed_time"], train_missing=True)
    records, results = cmd_sweep(spec)
    assert all(r.error is None for r in results)
    assert len(records) == 1


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


def test_sweep_reproducible_byte_identical(tmp_path):
    def run(where):
        spec = tiny_spec(where, rates=[0.5], algorithms=["fixed_time"])
        cmd_train(spec)
        cmd_sweep(spec)
        return (where / "sweep.csv").read_bytes()

    assert run(tmp_path / "x") == run(tmp_path / "y")


def test_every_cell_error_is_an_errored_row_naming_the_type(tmp_path):
    # undamped ACKTR on a fresh batch: the logit S factor is exactly singular
    singular = {**FAST_AGENT, "kfac_damping": 0.0, "kfac_decay": 0.0}
    spec = tiny_spec(tmp_path, algorithms=["acktr", "fixed_time"],
                     train_missing=True, agent=singular)
    trained = cmd_train(spec)
    assert [r.algorithm for r in trained] == ["acktr", "fixed_time"]
    assert trained[0].error.startswith("SingularCurvatureError: ")
    assert trained[1].error is None
    records, swept = cmd_sweep(spec)
    assert swept[0].error.startswith("SingularCurvatureError: ")
    assert [r.algorithm for r in records] == ["fixed_time"]
    deploy = DeploymentConfig(
        schedule=DetectionSchedule.ramp(0.0, 0.5, 400.0, 1.0),
        total_steps=400, update_period=None, instability_window=100)
    adapted = cmd_adapt(spec, deploy)
    assert adapted[0].error.startswith("FileNotFoundError: ")
    assert adapted[1].error is None


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
    assert not res.aborted
    _, rows = read_csv(res.timeline_csv)
    assert len(rows) == 4  # 800 steps / 200 window
    assert rows[0][0] == "200"
    assert [p.step for p in res.timeline] == [200, 400, 600, 800]
    assert (tmp_path / "adapt_summary.csv").exists()
    assert (tmp_path / "adapt_medium.svg").exists()


def test_adapt_missing_checkpoint_reports_error(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["ppo"], rates=[0.5])
    results = cmd_adapt(spec, adapt_deploy())
    assert results[0].aborted
    assert results[0].error.startswith("FileNotFoundError")


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
    for algorithm in spec.algorithms:
        per_step = {}
        for res in results:
            if res.algorithm != algorithm:
                continue
            header, rows = read_csv(res.timeline_csv)
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
        res = cmd_adapt(spec, adapt_deploy())
        return Path(res[0].timeline_csv).read_bytes()

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
            queue_total += sum(road_census(env.state, cfg.sim).queue_lengths)
            samples += 1
    assert samples == 600
    assert repr(stats.mean_queue) == repr(queue_total / samples)


def curve_wait(state):
    """The mean wait of every vehicle that entered: the exit totals plus
    the vehicles still on the road."""
    return class_means(*state.add_onroad_waits(
        state.exited_wait_detected, state.exited_n_detected,
        state.exited_wait_undetected, state.exited_n_undetected))[0]


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
        pending.append(Transition(obs, action, reward, next_obs, done,
                                  log_prob=agent.last_logprob))
        if len(pending) >= agent.needs_rollout:
            agent.update(pending)
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
# and top speed of its own, and unchanged by their removal
GOLDEN_FIVE_CONTROLLER_GRID = {
    "adapt_medium.svg":
        "a16a2274e2c75a12b74c5094995da1705cb00a9ff9fb5e1cff833437365d719e",
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
    if case == "experiment-agent":
        assert "unknown key 'agent' in section [experiment]" in err
    if case in ("no-section", "repeated-key", "stray-percent"):
        assert f"config file {ini} is malformed: " in err
    if case in REMOVED_AGENT_KEYS:
        assert f"unknown key {case!r} in section [agent]" in err
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


def test_cli_sweep_missing_checkpoint_nonzero_exit(tmp_path):
    out = str(tmp_path / "nothing")
    rc = cli_main(["sweep", "--out", out, "--algo", "ppo", "--rates", "0.5",
                   "--seed", "0", "--scenario", "medium", "--episodes", "1"])
    assert rc == 1


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


def test_workers_pool_matches_sequential(tmp_path):
    spec_seq = tiny_spec(tmp_path / "seq", algorithms=["fixed_time"],
                         seeds=[0, 1], workers=1)
    spec_par = tiny_spec(tmp_path / "par", algorithms=["fixed_time"],
                         seeds=[0, 1], workers=2)
    res_seq = cmd_train(spec_seq)
    res_par = cmd_train(spec_par)
    for a, b in zip(res_seq, res_par):
        assert Path(a.checkpoint).read_bytes() == Path(b.checkpoint).read_bytes()
