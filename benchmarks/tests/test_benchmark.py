"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from layers import layer_metrics, metric_units
from spans import Tracer, installed
from stepping import SteppedCall

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


# -- span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    root = t.record("root", 0.0, 10.0)
    a = t.record("a", 1.0, 4.0, parent=root)
    t.record("a.inner", 2.0, 3.0, parent=a)
    t.record("b", 5.0, 9.0, parent=root)
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert t.durations() == [10.0, 3.0, 1.0, 4.0]


def test_loop_self_time_per_step_and_unattributed_share():
    t = Tracer()
    t.set_phase("eval.fixed_time")
    loop = t.record("loop.evaluate_agent", 0.0, 10.0)
    for k in range(4):  # four 2 s steps, each with a 1 s kinematics stage
        step = t.record("env.step", 2.0 * k, 2.0 * k + 2.0, parent=loop)
        t.record("sim.kinematics", 2.0 * k, 2.0 * k + 1.0, parent=step,
                 count=10)
    out = layer_metrics(t, "eval", overhead_ratio=1.1)
    assert out["harness.eval_loop_self_us_per_step"] == pytest.approx(0.5e6)
    assert out["trace.unattributed_share"] == pytest.approx(0.2)
    assert out["env.step_self_us.p50"] == pytest.approx(1e6)
    assert out["sim.kinematics_ns_per_vehicle"] == pytest.approx(1e8)
    assert out["sim.vehicles_on_road"] == 10
    assert out["sim.kinematics_us.n"] == 4
    assert out["trace.overhead_ratio"] == 1.1


def test_layer_metrics_prefer_the_workload_phase_group():
    t = Tracer()
    t.set_phase("train.ppo")
    t.record("sim.signal", 0.0, 1.0)
    t.set_phase("eval.ppo")
    t.record("sim.signal", 1.0, 4.0)
    t.record("sim.signal", 4.0, 7.0)
    assert layer_metrics(t, "eval", 1.0)["sim.signal_us.p50"] == pytest.approx(3e6)
    assert layer_metrics(t, "train", 1.0)["sim.signal_us.p50"] == pytest.approx(1e6)
    # a group without the span falls back to every phase
    assert layer_metrics(t, "adapt", 1.0)["sim.signal_us.n"] == 3


# -- wrappers ------------------------------------------------------------------

def _bindings():
    from trafficlab import adapt, agents, cli, env, harness, nn, sim

    holders = [adapt, agents, cli, env, harness, nn, sim, env.TrafficSignalEnv,
               nn.Mlp, nn.SgdOptimizer, nn.AdamOptimizer, nn.KfacStats,
               agents.FixedTimeAgent, agents.DqlAgent, agents.PpoAgent,
               agents.A2cAgent, agents.AcktrAgent]
    return [(h, dict(vars(h))) for h in holders]


def test_wrappers_are_removed_after_a_traced_chunk(tmp_path):
    before = _bindings()
    tracer = Tracer()
    phase = workloads.EvalPhase("ppo", seed=3, work_dir=str(tmp_path))
    phase.start()
    with installed(tracer):
        phase.chunk(0, tracer)
    traced = len(tracer)
    assert traced > 0
    for holder, attrs in before:
        assert dict(vars(holder)) == attrs, holder
    phase.chunk(1)
    phase.close()
    assert len(tracer) == traced  # nothing recorded once removed


def test_wrappers_are_removed_when_the_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            raise RuntimeError("boom")
    for holder, attrs in before:
        assert dict(vars(holder)) == attrs, holder


# -- stepped calls -------------------------------------------------------------

def _ppo_training(steps):
    from trafficlab import agents, harness
    from trafficlab.env import TrafficSignalEnv

    cfg = harness.build_env_config("sparse", 0.5, 4, episode_length=300.0)
    agent = agents.make_agent(harness.default_agent_config("ppo", seed=0),
                              cfg.observation_size)
    return agent, lambda: harness.train_agent(
        agent, TrafficSignalEnv(cfg, seed=4), steps)


def test_stepped_call_computes_what_a_direct_call_computes():
    from trafficlab.agents import agent_to_bytes

    agent, train = _ppo_training(1200)
    direct = train()
    stepped_agent, stepped_train = _ppo_training(1200)
    call = SteppedCall(stepped_train, span="window")
    tracer = Tracer()
    assert call.advance(500) == 500
    with installed(tracer):
        assert call.advance(500, tracer) == 500
    assert call.advance(500) == 200 and call.done
    call.close()
    assert call.result == direct
    assert agent_to_bytes(stepped_agent) == agent_to_bytes(agent)
    # the traced window is one root span over exactly its 500 steps
    names = [tracer.names[n] for n in tracer.name]
    window = names.index("window")
    assert names.count("window") == 1 and tracer.parent[window] == -1
    steps = [i for i, n in enumerate(names) if n == "env.step"]
    assert len(steps) == 500
    assert all(tracer.parent[i] == window for i in steps)
    assert "step" not in vars(call.envs[0])


def test_closing_a_paused_call_ends_its_thread():
    _, train = _ppo_training(1200)
    call = SteppedCall(train)
    call.advance(10)
    call.close()
    assert call.done and call.result is None
    assert not call._thread.is_alive()
    assert "step" not in vars(call.envs[0])


# -- names agree with BENCHMARK.json -------------------------------------------

def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()
    phase_metrics = {p.metric for p in workloads.make_phases("grid_small", 0,
                                                             1.0, "")}
    assert phase_metrics | {"setup_s", "peak_rss_mb"} == set(run.END_TO_END)
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]


# -- whole runs ----------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds",
                     "0.05", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_prints_every_layer_metric_and_keeps_the_digest():
    args = ["--workload", "eval_dense", "--seed", "2", "--seconds", "0.05"]
    plain = run_bench(*args, "--trace", "0")
    traced = run_bench(*args, "--trace", "1")
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr
    line = json.loads(traced.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in line["metrics"].items()} == metric_units()
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0

    def digest(proc):
        return next(ln for ln in proc.stdout.splitlines()
                    if ln.startswith("digest "))

    assert digest(plain) == digest(traced)


def test_failed_check_fails_the_run(monkeypatch):
    def broken(self):
        workloads.check(False, "forced failure")

    monkeypatch.setattr(workloads.AdaptPhase, "finish", broken)
    result = run.run_workload("adapt_medium", seed=1, seconds=0.05,
                              trace=False)
    assert result["correct"] is False
    assert result["failure"] == "forced failure"


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "grid_small", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
