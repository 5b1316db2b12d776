import random

import numpy as np
import pytest

from trafficlab.env import (
    AMBER_SLOT,
    BASE_OBSERVATION_SIZE,
    Action,
    EnvConfig,
    EpisodeDoneError,
    PHASE_SLOT,
    PHASE_TIME_SLOT,
    RewardMode,
    TrafficSignalEnv,
    build_observation,
    compute_reward,
)
from trafficlab.sim import (
    Approach,
    Phase,
    SimConfig,
    SimState,
    Vehicle,
    road_census,
    scenario_preset,
)


def make_env(arrival_rate=0.0, detection_rate=1.0, seed=0, **env_kwargs):
    sim = SimConfig(arrival_rate=arrival_rate, detection_rate=detection_rate,
                    rng_seed=seed)
    return TrafficSignalEnv(EnvConfig(sim=sim, **env_kwargs), seed=seed)


def put_vehicle(state, approach, position, speed, detected, vid=None, vmax=13.89):
    veh = Vehicle(
        id=state.next_vehicle_id if vid is None else vid,
        approach=approach, position=position, speed=speed, vmax=vmax,
        detected=detected, spawn_time=state.clock,
    )
    state.lanes[approach].append(veh)
    state.next_vehicle_id += 1
    state.spawned_count += 1
    return veh


# ---------------------------------------------------------------------------
# reset / observation
# ---------------------------------------------------------------------------

def test_reset_empty_intersection_observation():
    env = make_env()
    obs = env.reset()
    assert obs.shape == (BASE_OBSERVATION_SIZE,)
    np.testing.assert_array_equal(obs[0:4], np.zeros(4))
    np.testing.assert_array_equal(obs[4:8], np.ones(4))
    assert obs[PHASE_TIME_SLOT] == 0.0
    assert obs[AMBER_SLOT] == 0.0
    assert obs[PHASE_SLOT] == float(int(Phase.NS_GREEN))


def test_observation_length_with_time_of_day():
    assert make_env().reset().shape == (11,)
    env = make_env(include_time_of_day=True)
    obs = env.reset()
    assert obs.shape == (12,)
    assert 0.0 <= obs[-1] < 1.0


def test_same_reset_seed_replays_identically():
    env_a = make_env(arrival_rate=0.15, detection_rate=0.5)
    env_b = make_env(arrival_rate=0.15, detection_rate=0.5)
    rng = random.Random(3)
    actions = [rng.randrange(2) for _ in range(300)]
    env_a.reset(seed=42)
    env_b.reset(seed=42)
    for a in actions:
        obs_a, r_a, done_a, _ = env_a.step(a)
        obs_b, r_b, done_b, _ = env_b.step(a)
        np.testing.assert_array_equal(obs_a, obs_b)
        assert r_a == r_b and done_a == done_b


def test_unseeded_resets_vary_but_master_seed_reproduces():
    env = make_env(arrival_rate=0.2, seed=9)
    env.reset()
    first = [env.step(0)[1] for _ in range(50)]
    env.reset()
    second = [env.step(0)[1] for _ in range(50)]
    assert first != second  # different episode draws
    env2 = make_env(arrival_rate=0.2, seed=9)
    env2.reset()
    again = [env2.step(0)[1] for _ in range(50)]
    assert first == again


def test_build_observation_single_detected_vehicle():
    env = make_env()
    env.reset(seed=0)
    put_vehicle(env.state, Approach.NORTH, 30.0, 5.0, detected=True)
    obs = build_observation(env.state, env.config)
    assert obs[Approach.NORTH] == pytest.approx(1 / 20)
    assert obs[4 + Approach.NORTH] == pytest.approx(30.0 / 150.0)
    # other approaches untouched
    assert obs[Approach.EAST] == 0.0
    assert obs[4 + Approach.EAST] == 1.0


def test_undetected_vehicle_invisible_in_observation():
    env = make_env()
    empty = env.reset(seed=0)
    put_vehicle(env.state, Approach.SOUTH, 10.0, 0.0, detected=False)
    obs = build_observation(env.state, env.config)
    np.testing.assert_array_equal(obs, empty)


def test_count_slot_clamped_at_capacity():
    env = make_env()
    env.reset(seed=0)
    for i in range(25):
        put_vehicle(env.state, Approach.WEST, 2.0 + i * 5.0, 1.0, detected=True)
    obs = build_observation(env.state, env.config)
    assert obs[Approach.WEST] == 1.0


def test_distance_slot_uses_nearest_detected():
    env = make_env()
    env.reset(seed=0)
    put_vehicle(env.state, Approach.NORTH, 45.0, 3.0, detected=False)
    put_vehicle(env.state, Approach.NORTH, 75.0, 3.0, detected=True)
    obs = build_observation(env.state, env.config)
    assert obs[4 + Approach.NORTH] == pytest.approx(0.5)
    assert obs[Approach.NORTH] == pytest.approx(1 / 20)


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------

def test_empty_intersection_step_reward_zero_both_modes():
    for mode in RewardMode:
        env = make_env(reward_mode=mode)
        env.reset(seed=0)
        _, reward, _, info = env.step(Action.KEEP)
        assert reward == 0.0
        bd = info["reward_breakdown"]
        assert bd.full == 0.0 and bd.partial == 0.0


def test_single_stopped_detected_vehicle_partial_reward_is_minus_one():
    env = make_env(reward_mode=RewardMode.PARTIAL)
    env.reset(seed=0)
    # EAST faces red under NS green: a stopped vehicle at the line stays put
    put_vehicle(env.state, Approach.EAST, 0.0, 0.0, detected=True)
    _, reward, _, _ = env.step(Action.KEEP)
    assert reward == -1.0


def test_mixed_class_rewards_hand_evaluated():
    vmax = 13.89
    env = make_env()
    env.reset(seed=0)
    # after one step this vehicle accelerates to exactly vmax/2
    put_vehicle(env.state, Approach.NORTH, 140.0, vmax / 2 - 2.0, detected=True)
    put_vehicle(env.state, Approach.EAST, 0.0, 0.0, detected=False)
    _, reward, _, info = env.step(Action.KEEP)
    bd = info["reward_breakdown"]
    assert bd.partial == pytest.approx(-0.5)
    assert bd.full == pytest.approx(-1.5)
    assert reward == pytest.approx(-0.5)  # env defaults to partial


def test_all_vehicles_at_vmax_zero_deficit():
    env = make_env()
    env.reset(seed=0)
    put_vehicle(env.state, Approach.NORTH, 100.0, 13.89, detected=True)
    put_vehicle(env.state, Approach.SOUTH, 100.0, 13.89, detected=False)
    bd = compute_reward(env.state)
    assert bd.full == 0.0 and bd.partial == 0.0


def test_compute_reward_matches_brute_force_oracle():
    rng = random.Random(11)
    cfg = SimConfig()
    for _ in range(200):
        state = SimState.initial(cfg)
        n = rng.randrange(0, 6)
        for i in range(n):
            put_vehicle(
                state,
                rng.choice(list(Approach)),
                rng.uniform(0, 150),
                rng.uniform(0, 13.89),
                detected=rng.random() < 0.5,
            )
        bd = compute_reward(state)
        # independent per-vehicle summation
        full = 0.0
        partial = 0.0
        for veh in state.iter_vehicles():
            term = (veh.vmax - veh.speed) / veh.vmax
            full -= term
            if veh.detected:
                partial -= term
        assert bd.full == pytest.approx(full, rel=1e-13, abs=1e-13)
        assert bd.partial == pytest.approx(partial, rel=1e-13, abs=1e-13)
        assert bd.partial >= bd.full
        assert bd.full == -(bd.detected_deficit + bd.undetected_deficit)
        assert bd.partial == -bd.detected_deficit


def test_full_detection_rollout_rewards_coincide_exactly():
    sim = scenario_preset("medium", detection_rate=1.0, rng_seed=4)
    env = TrafficSignalEnv(EnvConfig(sim=sim), seed=4)
    env.reset(seed=7)
    rng = random.Random(5)
    for _ in range(500):
        _, _, _, info = env.step(rng.randrange(2))
        bd = info["reward_breakdown"]
        assert bd.partial == bd.full


def test_partial_dominates_full_across_detection_rates():
    rng = random.Random(2)
    for rate in (0.1, 0.5, 0.9):
        sim = scenario_preset("medium", detection_rate=rate, rng_seed=8)
        env = TrafficSignalEnv(EnvConfig(sim=sim), seed=8)
        env.reset(seed=1)
        for _ in range(300):
            _, _, _, info = env.step(rng.randrange(2))
            bd = info["reward_breakdown"]
            assert bd.partial >= bd.full
            assert bd.partial <= 0.0 and bd.full <= 0.0


def test_detection_blindness_of_observation_and_partial_reward():
    env = make_env()
    env.reset(seed=0)
    put_vehicle(env.state, Approach.NORTH, 60.0, 4.0, detected=True)
    ghost = put_vehicle(env.state, Approach.NORTH, 100.0, 2.0, detected=False)
    obs_before = build_observation(env.state, env.config)
    partial_before = compute_reward(env.state).partial
    ghost.position = 80.0
    ghost.speed = 9.0
    obs_after = build_observation(env.state, env.config)
    partial_after = compute_reward(env.state).partial
    np.testing.assert_array_equal(obs_before, obs_after)
    assert partial_before == partial_after


# ---------------------------------------------------------------------------
# episode mechanics
# ---------------------------------------------------------------------------

def test_episode_runs_exactly_episode_length_steps():
    env = make_env(episode_length=120.0)
    env.reset(seed=0)
    steps = 0
    done = False
    while not done:
        _, _, done, _ = env.step(Action.KEEP)
        steps += 1
    assert steps == 120


def test_step_after_done_raises():
    env = make_env(episode_length=5.0)
    env.reset(seed=0)
    for _ in range(5):
        env.step(Action.KEEP)
    with pytest.raises(EpisodeDoneError):
        env.step(Action.KEEP)


def test_step_before_reset_raises():
    env = make_env()
    with pytest.raises(EpisodeDoneError):
        env.step(Action.KEEP)


@pytest.mark.parametrize("action", [0.7, 2, -1, "1"], ids=repr)
def test_step_rejects_an_action_other_than_keep_or_switch(action):
    env = make_env(arrival_rate=0.5)
    env.reset(seed=3)
    with pytest.raises(ValueError, match=f"got {action!r}"):
        env.step(action)
    assert env.state.clock == 0.0  # the bad action advanced nothing


@pytest.mark.parametrize("action, command",
                         [(0, Action.KEEP), (1, Action.SWITCH),
                          (np.int64(1), Action.SWITCH), (True, Action.SWITCH)],
                         ids=repr)
def test_step_accepts_keep_and_switch_values(action, command):
    stepped, reference = make_env(arrival_rate=0.5), make_env(arrival_rate=0.5)
    stepped.reset(seed=3)
    reference.reset(seed=3)
    for _ in range(8):  # past min_green, so a switch is taken
        stepped.step(0)
        reference.step(Action.KEEP)
    obs, _, _, _ = stepped.step(action)
    expected, _, _, _ = reference.step(command)
    assert obs.tobytes() == expected.tobytes()


def test_step_info_holds_the_reward_breakdown_and_the_road_census():
    env = TrafficSignalEnv(EnvConfig(sim=scenario_preset(
        "dense", detection_rate=0.5, rng_seed=4)), seed=4)
    env.reset(seed=4)
    for _ in range(30):
        _, reward, _, info = env.step(Action.KEEP)
    assert set(info) == {"reward_breakdown", "census"}
    assert reward == info["reward_breakdown"].partial
    assert info["census"] == road_census(env.state, env.config.sim)


def test_observation_bounds_on_random_rollout():
    sim = scenario_preset("dense", detection_rate=0.6, rng_seed=13)
    env = TrafficSignalEnv(EnvConfig(sim=sim, include_time_of_day=True), seed=13)
    obs = env.reset(seed=2)
    rng = random.Random(1)
    for _ in range(600):
        assert np.all(obs[0:8] >= 0.0) and np.all(obs[0:8] <= 1.0)
        assert obs[AMBER_SLOT] in (0.0, 1.0)
        assert obs[PHASE_SLOT] in (0.0, 1.0)
        assert obs[PHASE_TIME_SLOT] >= 0.0
        assert 0.0 <= obs[-1] < 1.0
        obs, _, done, _ = env.step(rng.randrange(2))
        if done:
            obs = env.reset()


def test_episode_length_must_be_step_multiple():
    with pytest.raises(ValueError):
        EnvConfig(sim=SimConfig(), episode_length=100.5)


def test_set_detection_rate_validates_and_applies():
    env = make_env(arrival_rate=1.0, detection_rate=0.0, seed=21)
    env.reset(seed=21)
    with pytest.raises(ValueError):
        env.set_detection_rate(1.5)
    env.set_detection_rate(1.0)
    for _ in range(50):
        env.step(Action.KEEP)
    st = env.state
    assert st.spawned_count > 0
    assert st.spawned_detected_count == st.spawned_count
