import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from trafficlab.adapt import DeploymentConfig, DetectionSchedule
from trafficlab.agents import ObservationShapeError, Transition, load_agent, make_agent
from trafficlab.charts import ChartError, Series, line_chart
from trafficlab.cli import _resolve, build_parser
from trafficlab.cli import main as cli_main
from trafficlab.config import (
    TRAIN_STEPS_BY_ALGORITHM,
    ConfigBundle,
    ExperimentSpec,
    load_config_file,
    parse_schedule,
)
from trafficlab.env import TrafficSignalEnv
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
    read_timeline_csv,
    train_agent,
    write_sweep_csv,
)
from trafficlab.sim import metrics_snapshot

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
    bundle = load_config_file(path)
    agent = bundle.agent_overrides()
    assert agent == {"gamma": 0.9, "hidden_sizes": [32, 32]}
    deploy = bundle.deployment_config()
    assert deploy.total_steps == 5000
    assert deploy.update_period is None
    assert deploy.schedule.rate_at(2500) == pytest.approx(0.55)
    spec = bundle.experiment_spec()
    assert spec.algorithms == ["ppo", "fixed_time"]
    assert spec.rates == [0.25, 0.75]
    assert spec.seeds == [1, 2]


def test_config_defaults_fill_unspecified_keys(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text("[experiment]\nscenario = dense\n")
    spec = load_config_file(path).experiment_spec()
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


def test_cli_flags_override_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    bundle = load_config_file(path)
    spec = bundle.experiment_spec(scenario="dense", seeds=[9])
    assert spec.scenario == "dense"
    assert spec.seeds == [9]
    assert spec.train_steps == 1000  # untouched file value


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


def test_schedule_string_round_trip():
    sched = parse_schedule("0:0.1,200000:1.0")
    assert sched.breakpoints == [(0.0, 0.1), (200000.0, 1.0)]
    with pytest.raises(ValueError):
        parse_schedule("nonsense")


def test_train_steps_default_to_each_algorithm_budget(tmp_path):
    def resolved(*argv):
        spec, _, _ = _resolve(build_parser().parse_args(["train", *argv]))
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
    spec = tiny_spec(tmp_path, train_steps=0)
    results = cmd_train(spec, FAST_AGENT)
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
    spec = tiny_spec(tmp_path, algorithms=["a2c"], train_steps=None)
    results = cmd_train(spec, FAST_AGENT)
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
    spec = tiny_spec(tmp_path / "a", seeds=[0, 1])
    results = cmd_train(spec, FAST_AGENT)
    blobs = [open(r.checkpoint, "rb").read() for r in results]
    assert blobs[0] != blobs[1]
    spec2 = tiny_spec(tmp_path / "b", seeds=[0, 1])
    results2 = cmd_train(spec2, FAST_AGENT)
    blobs2 = [open(r.checkpoint, "rb").read() for r in results2]
    assert blobs == blobs2


def test_training_actually_updates_parameters(tmp_path):
    spec = tiny_spec(tmp_path, train_steps=400)
    results = cmd_train(spec, FAST_AGENT)
    trained = load_agent(results[0].checkpoint)
    untrained_spec = tiny_spec(tmp_path / "zero", train_steps=0)
    base = load_agent(cmd_train(untrained_spec, FAST_AGENT)[0].checkpoint)
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
                     train_missing=True)
    trained = cmd_train(spec, singular)
    assert [r.algorithm for r in trained] == ["acktr", "fixed_time"]
    assert trained[0].error.startswith("SingularCurvatureError: ")
    assert trained[1].error is None
    records, swept = cmd_sweep(spec, singular)
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
    rows = read_timeline_csv(res.timeline_csv)
    assert len(rows) == 4  # 800 steps / 200 window
    assert rows[0]["step"] == 200
    assert (tmp_path / "adapt_summary.csv").exists()
    assert (tmp_path / "adapt_medium.svg").exists()


def test_adapt_missing_checkpoint_reports_error(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["ppo"], rates=[0.5])
    results = cmd_adapt(spec, adapt_deploy())
    assert results[0].aborted
    assert results[0].error.startswith("FileNotFoundError")


def test_adapt_timeline_reproducible(tmp_path):
    def run(where):
        spec = tiny_spec(where, algorithms=["fixed_time"], rates=[0.5])
        cmd_train(spec)
        res = cmd_adapt(spec, adapt_deploy())
        return open(res[0].timeline_csv, "rb").read()

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
            queue_total += sum(metrics_snapshot(
                env.state, cfg.sim).queue_lengths.values())
            samples += 1
    assert samples == 600
    assert repr(stats.mean_queue) == repr(queue_total / samples)


def test_train_mean_waits_equal_a_per_step_metrics_loop():
    cfg = build_env_config("dense", 0.5, 8, episode_length=120.0)

    def fresh_agent():
        return make_agent(default_agent_config("ppo", seed=8,
                                               overrides=FAST_AGENT),
                          cfg.observation_size)

    records = train_agent(fresh_agent(), TrafficSignalEnv(cfg, seed=8), 500)

    agent, env = fresh_agent(), TrafficSignalEnv(cfg, seed=8)
    obs = env.reset()
    pending, waits = [], []
    for _ in range(500):
        action = agent.act(obs, explore=True)
        next_obs, reward, done, _ = env.step(action)
        wait = metrics_snapshot(env.state, cfg.sim).wait_all
        pending.append(Transition(obs, action, reward, next_obs, done,
                                  log_prob=agent.last_logprob))
        if len(pending) >= agent.needs_rollout:
            agent.update(pending)
            pending = []
        if done:
            waits.append(wait)
            obs = env.reset()
        else:
            obs = next_obs
    assert len(waits) == 4
    assert repr([r.mean_wait for r in records]) == repr(waits)


def test_eval_observation_shape_mismatch_explicit(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=["fixed_time"])
    ckpt = cmd_train(spec)[0].checkpoint
    with pytest.raises(ObservationShapeError, match="length"):
        cmd_eval(ckpt, "medium", 0.5, episodes=1, seed=0,
                 episode_length=120.0, include_time_of_day=True)


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


BAD_CONFIGS = {
    # file text (None: no file at all) -> the commands that read the value
    "missing": (None, ["train", "sweep", "adapt"]),
    "agent-type": ("[agent]\ngamma = fast\n", ["train", "sweep", "adapt"]),
    "agent-range": ("[agent]\ngamma = 2\n", ["train", "sweep"]),
    "experiment": ("[experiment]\nrates = 1.5\n", ["train", "sweep", "adapt"]),
    "algorithm": ("[experiment]\nalgorithms = ppo,sarsa\n",
                  ["train", "sweep", "adapt"]),
    "deploy": ("[deploy]\nschedule = 0:0.5\ntotal_steps = -5\n", ["adapt"]),
}


@pytest.mark.parametrize("case, command", [
    pytest.param(case, command, id=f"{case}-{command}")
    for case, (_, commands) in BAD_CONFIGS.items() for command in commands])
def test_cli_bad_config_file_is_one_line_error(tmp_path, capsys, case, command):
    text = BAD_CONFIGS[case][0]
    ini = tmp_path / "exp.ini"
    if text is not None:
        ini.write_text(text)
    out = tmp_path / "run"
    rc = cli_main([command, "--config", str(ini), "--out", str(out),
                   "--steps", "10", "--episodes", "1"])
    err = capsys.readouterr().err
    assert rc != 0
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    if case == "agent-type":
        assert "[agent] gamma" in err
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
        assert open(a.checkpoint, "rb").read() == open(b.checkpoint, "rb").read()
