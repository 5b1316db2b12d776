import math
import re

import numpy as np
import pytest

from deployment_reference import reference_deployment
from trafficlab.adapt import (
    DeploymentConfig,
    DetectionSchedule,
    detect_instability,
    run_deployment,
)
from trafficlab.agents import (
    Agent,
    AgentConfig,
    PpoAgent,
    agent_to_bytes,
    make_agent,
)
from trafficlab.env import EnvConfig
from trafficlab.nn import DivergenceError
from trafficlab.sim import SimConfig, scenario_preset

T_END = 10_000.0


def ramp():
    return DetectionSchedule.ramp(0.0, 0.1, T_END, 1.0)


def env_config(preset="medium", detection_rate=0.5, seed=0):
    sim = scenario_preset(preset, detection_rate=detection_rate, rng_seed=seed)
    return EnvConfig(sim=sim)


def fixed_time_agent(obs_dim=11):
    return make_agent(AgentConfig(algorithm="fixed_time", seed=0), obs_dim)


# ---------------------------------------------------------------------------
# schedule interpolation
# ---------------------------------------------------------------------------

def test_ramp_start_rate():
    assert ramp().rate_at(0.0) == pytest.approx(0.1)


def test_ramp_end_rate():
    assert ramp().rate_at(T_END) == pytest.approx(1.0)


def test_ramp_midpoint_linear():
    assert ramp().rate_at(T_END / 2) == pytest.approx(0.55)


def test_schedule_clamps_outside_span():
    s = ramp()
    assert s.rate_at(-100.0) == pytest.approx(0.1)
    assert s.rate_at(T_END * 10) == pytest.approx(1.0)


def test_ramp_is_non_decreasing():
    s = ramp()
    samples = [s.rate_at(t) for t in np.linspace(-50, T_END + 50, 500)]
    assert all(b >= a for a, b in zip(samples, samples[1:]))


def test_multi_segment_schedule():
    s = DetectionSchedule([(0.0, 0.2), (100.0, 0.8), (200.0, 0.5)])
    assert s.rate_at(50.0) == pytest.approx(0.5)
    assert s.rate_at(150.0) == pytest.approx(0.65)


def test_schedule_validation():
    with pytest.raises(ValueError):
        DetectionSchedule([])
    with pytest.raises(ValueError):
        DetectionSchedule([(0.0, 0.5), (0.0, 0.7)])
    with pytest.raises(ValueError):
        DetectionSchedule([(0.0, 1.5)])


@pytest.mark.parametrize("breakpoints, field", [
    ([(math.nan, 0.5), (100.0, 1.0)], "time"),
    ([(0.0, 0.5), (math.inf, 1.0)], "time"),
    ([(-math.inf, 0.5)], "time"),
    ([(0.0, math.nan)], "rate"),
    ([(0.0, 0.5), (100.0, -math.inf)], "rate"),
])
def test_schedule_rejects_non_finite_breakpoints_by_name(breakpoints, field):
    # a NaN time passed the ordering check and rate_at then raised a stray
    # AssertionError("unreachable")
    with pytest.raises(ValueError, match=f"^breakpoint {field}s must be finite"):
        DetectionSchedule(breakpoints)


def test_deployment_config_validation():
    with pytest.raises(ValueError):
        DeploymentConfig(schedule=ramp(), instability_threshold=1.0)
    with pytest.raises(ValueError):
        DeploymentConfig(schedule=ramp(), total_steps=-1)


@pytest.mark.parametrize("name", ["update_period", "instability_history"])
@pytest.mark.parametrize("value", [0, -5])
def test_deployment_config_rejects_counts_below_one_by_name(name, value):
    # update_period 0 used to freeze the agent silently; instability_history
    # 0 meant the whole history, and a negative one failed after the run
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        DeploymentConfig(schedule=ramp(), **{name: value})


@pytest.mark.parametrize("name, value", [
    ("total_steps", math.nan), ("total_steps", 10.0),
    ("update_period", 2.5), ("instability_window", math.nan),
    ("instability_window", 2.5), ("instability_history", math.inf),
    ("total_steps", True), ("total_steps", False), ("update_period", True),
    ("instability_window", True), ("instability_history", True),
])
def test_deployment_config_rejects_non_integer_counts_by_name(name, value):
    # a NaN window gave an empty timeline, a NaN total_steps failed later
    # naming episode_length, a fractional window was taken as it was, and
    # total_steps=True built a one-step deployment, as True indexes as 1
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        DeploymentConfig(schedule=ramp(), **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_deployment_config_rejects_non_finite_threshold_by_name(value):
    # with a NaN threshold no point was ever flagged
    with pytest.raises(ValueError, match="^instability_threshold must be finite"):
        DeploymentConfig(schedule=ramp(), instability_threshold=value)


def test_deployment_config_accepts_none_update_period_and_counts_of_one():
    DeploymentConfig(schedule=ramp(), update_period=None)
    DeploymentConfig(schedule=ramp(), update_period=1, instability_history=1)


# ---------------------------------------------------------------------------
# instability detection
# ---------------------------------------------------------------------------

def test_constant_series_never_flags():
    flags = detect_instability([10.0] * 50, threshold=3.0)
    assert sum(flags) == 0


def test_single_spike_flagged_exactly():
    series = [10.0] * 20
    series[12] = 100.0
    flags = detect_instability(series, threshold=3.0)
    assert flags[12] is True
    assert sum(flags) == 1


def test_infinite_threshold_never_flags():
    series = [1.0, 50.0, 2.0, 400.0, 1.0]
    flags = detect_instability(series, threshold=math.inf)
    assert sum(flags) == 0


def test_none_values_skipped_and_unflagged():
    series = [5.0, None, 5.0, 40.0, None]
    flags = detect_instability(series, threshold=3.0)
    assert flags[1] is False and flags[4] is False
    assert flags[3] is True


def test_first_point_never_flagged():
    flags = detect_instability([1000.0, 1.0], threshold=3.0)
    assert flags[0] is False


# ---------------------------------------------------------------------------
# deployment runs
# ---------------------------------------------------------------------------

def test_zero_total_steps_yields_empty_timeline():
    deploy = DeploymentConfig(schedule=ramp(), total_steps=0,
                              instability_window=100)
    result = run_deployment(fixed_time_agent(), env_config(), deploy, seed=1)
    assert result.timeline == []
    assert not result.aborted


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be at least 0, got -1"),
    (1.5, "seed must be an int, got 1.5"),
    ("3", "seed must be an int, got '3'"),
    (True, "seed must be an int, got True"),
    # None seeded the env from SimConfig.rng_seed and ran another deployment
    (None, "seed must be an int, got None")], ids=repr)
def test_deployment_refuses_a_bad_seed_by_name(seed, message):
    deploy = DeploymentConfig(schedule=ramp(), total_steps=5,
                              instability_window=5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_deployment(fixed_time_agent(), env_config(), deploy, seed=seed)


def test_fixed_agent_constant_rate_is_stationary():
    deploy = DeploymentConfig(
        schedule=DetectionSchedule([(0.0, 1.0)]),
        total_steps=6000, update_period=None, instability_window=500,
        instability_threshold=3.0,
    )
    result = run_deployment(fixed_time_agent(), env_config("medium", 1.0),
                            deploy, seed=5)
    waits = [p.wait_all for p in result.timeline if p.wait_all is not None]
    assert len(waits) >= 10
    first = np.mean(waits[: len(waits) // 2])
    second = np.mean(waits[len(waits) // 2:])
    assert 0.5 < second / first < 2.0  # no trend beyond noise
    assert result.instability_flags == 0


def test_deployment_determinism():
    deploy = DeploymentConfig(schedule=ramp(), total_steps=3000,
                              update_period=128, instability_window=500)

    def one_run():
        agent = make_agent(AgentConfig(algorithm="ppo", seed=4), 11)
        return run_deployment(agent, env_config(), deploy, seed=9)

    a, b = one_run(), one_run()
    assert len(a.timeline) == len(b.timeline)
    for pa, pb in zip(a.timeline, b.timeline):
        assert pa == pb
    assert a.instability_flags == b.instability_flags


def test_disabled_updates_leave_agent_bit_identical():
    agent = make_agent(AgentConfig(algorithm="ppo", seed=2), 11)
    before_actor = agent.actor.flatten().copy()
    before_critic = agent.critic.flatten().copy()
    deploy = DeploymentConfig(schedule=ramp(), total_steps=2000,
                              update_period=None, instability_window=500)
    run_deployment(agent, env_config(), deploy, seed=3)
    np.testing.assert_array_equal(agent.actor.flatten(), before_actor)
    np.testing.assert_array_equal(agent.critic.flatten(), before_critic)


def test_online_updates_do_change_agent():
    agent = make_agent(AgentConfig(algorithm="a2c", seed=2), 11)
    before = agent.actor.flatten().copy()
    deploy = DeploymentConfig(schedule=ramp(), total_steps=1500,
                              update_period=128, instability_window=500)
    run_deployment(agent, env_config(), deploy, seed=3)
    assert not np.array_equal(agent.actor.flatten(), before)


def test_resampling_detected_fraction_within_binomial_interval():
    p = 0.4
    deploy = DeploymentConfig(
        schedule=DetectionSchedule([(0.0, p)]),
        total_steps=6000, update_period=None, instability_window=1000,
    )
    result = run_deployment(fixed_time_agent(), env_config("dense", 0.0, seed=4),
                            deploy, seed=4)
    n = result.spawned_total
    assert n >= 5000
    frac = result.spawned_detected / n
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) < 3 * sigma


def test_timeline_records_schedule_rates():
    deploy = DeploymentConfig(schedule=ramp(), total_steps=4000,
                              update_period=None, instability_window=1000)
    result = run_deployment(fixed_time_agent(), env_config(), deploy, seed=7)
    assert len(result.timeline) == 4
    sim_dt = 1.0
    for point in result.timeline:
        assert point.detection_rate == pytest.approx(
            ramp().rate_at(point.step * sim_dt))
    rates = [p.detection_rate for p in result.timeline]
    assert all(b > a for a, b in zip(rates, rates[1:]))  # ramp section


def test_divergence_aborts_with_partial_timeline():
    class ExplodingAgent(Agent):
        needs_rollout = 1

        def act(self, obs, explore=False):
            return 0

        def update(self, transitions):
            raise DivergenceError("synthetic blow-up")

    agent = ExplodingAgent(AgentConfig(algorithm="fixed_time"), 11)
    deploy = DeploymentConfig(schedule=ramp(), total_steps=5000,
                              update_period=64, instability_window=1000)
    result = run_deployment(agent, env_config(), deploy, seed=1)
    assert result.aborted
    assert result.failure_step == 64
    assert result.failure_message == "DivergenceError: synthetic blow-up"
    assert len(result.timeline) == 1  # diagnostic point at the failure
    assert result.timeline[0].step == 64


def test_singular_curvature_aborts_with_partial_timeline():
    # undamped, memoryless curvature: the actor's 2x2 output factor has
    # rank one, so the first update cannot invert it
    agent = make_agent(AgentConfig(algorithm="acktr", seed=0, kfac_damping=0.0,
                                   kfac_decay=0.0), 11)
    deploy = DeploymentConfig(schedule=ramp(), total_steps=400,
                              update_period=64, instability_window=100)
    result = run_deployment(agent, env_config(), deploy, seed=1)
    assert result.aborted
    assert result.failure_step == 64
    assert result.failure_message.startswith("SingularCurvatureError: ")
    assert [p.step for p in result.timeline] == [64]


def test_deployment_leaves_caller_config_untouched():
    cfg = env_config("medium", 1.0)
    deploy = DeploymentConfig(schedule=DetectionSchedule.ramp(0.0, 1.0, 300.0, 0.2),
                              total_steps=300, update_period=None,
                              instability_window=100)
    result = run_deployment(fixed_time_agent(), cfg, deploy, seed=2)
    assert result.timeline[-1].detection_rate == pytest.approx(0.2)
    assert cfg.sim.detection_rate == 1.0


# ---------------------------------------------------------------------------
# the rollout driver against the reference deployment loop
# ---------------------------------------------------------------------------

SMALL = dict(seed=3, hidden_sizes=[16, 16])


class FailsOnThirdUpdate(PpoAgent):
    updates = 0

    def update(self, transitions):
        self.updates += 1
        if self.updates == 3:
            raise DivergenceError("third update")
        return super().update(transitions)


DEPLOY_CASES = {
    # name -> (agent factory, update_period)
    "ppo": (lambda n: make_agent(AgentConfig(algorithm="ppo", **SMALL), n), 128),
    "acktr": (lambda n: make_agent(AgentConfig(algorithm="acktr", **SMALL), n),
              128),
    "a2c": (lambda n: make_agent(AgentConfig(algorithm="a2c", **SMALL), n), 128),
    "dql": (lambda n: make_agent(AgentConfig(
        algorithm="dql", warmup=300, batch_size=32, **SMALL), n), 96),
    "ppo-frozen": (lambda n: make_agent(AgentConfig(algorithm="ppo", **SMALL), n),
                   None),
    "ppo-update-raises": (lambda n: FailsOnThirdUpdate(
        AgentConfig(algorithm="ppo", **SMALL), n), 128),
}


@pytest.mark.parametrize("case", DEPLOY_CASES)
def test_deployment_equals_the_reference_loop_bit_for_bit(case):
    make, period = DEPLOY_CASES[case]
    cfg = EnvConfig(sim=scenario_preset("medium", detection_rate=1.0, rng_seed=6))
    deploy = DeploymentConfig(schedule=ramp(), total_steps=1200,
                              update_period=period, instability_window=200,
                              instability_threshold=1.5)
    agent, ref_agent = make(cfg.observation_size), make(cfg.observation_size)
    got = run_deployment(agent, cfg, deploy, seed=8)
    want = reference_deployment(ref_agent, cfg, deploy, seed=8)
    # timeline points, flags, failure and spawn counts
    assert repr(got) == repr(want)
    assert agent_to_bytes(agent) == agent_to_bytes(ref_agent)
    assert got.aborted == (case == "ppo-update-raises")
    if got.aborted:
        assert got.failure_step == 3 * period
