import random
import re

import numpy as np
import pytest

from trafficlab.env import (
    AMBER_SLOT,
    EnvConfig,
    EpisodeDoneError,
    OBSERVATION_SIZE,
    PHASE_SLOT,
    PHASE_TIME_SLOT,
    TrafficSignalEnv,
    build_observation,
    compute_reward,
    episode_seeds,
)
from trafficlab.sim import (
    Approach,
    Command,
    Phase,
    SimConfig,
    SimState,
    Vehicle,
    scenario_preset,
)
from sim_oracle import reward_deficits, road_census, vehicles


def make_env(arrival_rate=0.0, detection_rate=1.0, seed=0, **env_kwargs):
    sim = SimConfig(arrival_rate=arrival_rate, detection_rate=detection_rate,
                    rng_seed=seed)
    return TrafficSignalEnv(EnvConfig(sim=sim, **env_kwargs), seed=seed)


def put_vehicle(state, approach, position, speed, detected):
    veh = Vehicle(position=position, speed=speed, detected=detected)
    state.lanes[approach].append(veh)
    state.spawned_count += 1
    return veh


def full_reward(state, config):
    """The reward over every vehicle, detected or not, of ``state``'s road,
    which the census does not keep."""
    detected, undetected = reward_deficits(state, config)
    return -(detected + undetected)


# ---------------------------------------------------------------------------
# reset / observation
# ---------------------------------------------------------------------------

def test_reset_empty_intersection_observation():
    env = make_env()
    obs = env.reset()
    assert obs.shape == (OBSERVATION_SIZE,)
    np.testing.assert_array_equal(obs[0:4], np.zeros(4))
    np.testing.assert_array_equal(obs[4:8], np.ones(4))
    assert obs[PHASE_TIME_SLOT] == 0.0
    assert obs[AMBER_SLOT] == 0.0
    assert obs[PHASE_SLOT] == float(int(Phase.NS_GREEN))
    # reset reads a constant empty-road census in place of a road walk
    assert obs.tobytes() == build_observation(
        env.state, env.config, road_census(env.state, env.config.sim)).tobytes()


def test_observation_is_the_same_at_any_time_of_day():
    env = make_env(arrival_rate=0.3, detection_rate=0.5, seed=8)
    assert env.config.observation_size == OBSERVATION_SIZE == 11
    env.reset(seed=8)
    for _ in range(40):
        obs, _, _, info = env.step(Command.KEEP)
    assert obs.shape == (11,)
    env.state.steps += 43_210  # the same road and signal, hours later
    later = build_observation(env.state, env.config, info["census"])
    assert later.tobytes() == obs.tobytes()


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


def test_episode_seeds_are_the_seeds_unseeded_resets_draw():
    env = make_env(arrival_rate=0.2, seed=9)
    seeded = make_env(arrival_rate=0.2, seed=123)
    for _, seed in zip(range(3), episode_seeds(9)):
        np.testing.assert_array_equal(env.reset(), seeded.reset(seed=seed))
        drawn = [env.step(1) for _ in range(40)]
        again = [seeded.step(1) for _ in range(40)]
        assert [r for _, r, _, _ in drawn] == [r for _, r, _, _ in again]
        assert env.state.rng.bit_generator.state == \
            seeded.state.rng.bit_generator.state


# what numpy's own errors said named no seed, and True ran as seed 1
BAD_SEEDS = [pytest.param(-1, "seed must be at least 0, got -1", id="-1"),
             pytest.param(1.5, "seed must be an int, got 1.5", id="1.5"),
             pytest.param("3", "seed must be an int, got '3'", id="'3'"),
             pytest.param(True, "seed must be an int, got True", id="True")]


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_a_bad_seed_is_refused_by_name_where_its_stream_starts(seed, message):
    config = EnvConfig(sim=SimConfig())
    starts = [lambda: episode_seeds(seed),
              lambda: TrafficSignalEnv(config, seed=seed),
              lambda: TrafficSignalEnv(config).reset(seed=seed),
              lambda: SimState.initial(config.sim, seed=seed)]
    for start in starts:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            start()


def test_episode_seeds_refuses_none_which_would_draw_os_entropy():
    with pytest.raises(ValueError, match="^seed must be an int, got None$"):
        episode_seeds(None)


def test_build_observation_single_detected_vehicle():
    env = make_env()
    env.reset(seed=0)
    put_vehicle(env.state, Approach.NORTH, 30.0, 5.0, detected=True)
    obs = build_observation(env.state, env.config,
                            road_census(env.state, env.config.sim))
    assert obs[Approach.NORTH] == pytest.approx(1 / 20)
    assert obs[4 + Approach.NORTH] == pytest.approx(30.0 / 150.0)
    # other approaches untouched
    assert obs[Approach.EAST] == 0.0
    assert obs[4 + Approach.EAST] == 1.0


def test_undetected_vehicle_invisible_in_observation():
    env = make_env()
    empty = env.reset(seed=0)
    put_vehicle(env.state, Approach.SOUTH, 10.0, 0.0, detected=False)
    obs = build_observation(env.state, env.config,
                            road_census(env.state, env.config.sim))
    np.testing.assert_array_equal(obs, empty)


def test_count_slot_clamped_at_capacity():
    env = make_env()
    env.reset(seed=0)
    for i in range(25):
        put_vehicle(env.state, Approach.WEST, 2.0 + i * 5.0, 1.0, detected=True)
    obs = build_observation(env.state, env.config,
                            road_census(env.state, env.config.sim))
    assert obs[Approach.WEST] == 1.0


def test_envs_of_different_lane_geometry_each_read_their_own_capacity():
    """The capacity is taken once per env config, and every count slot
    equals the count divided by its own env's lane capacity."""
    sims = [SimConfig(arrival_rate=0.0),
            SimConfig(arrival_rate=0.0, lane_length=75.0),
            SimConfig(arrival_rate=0.0, vehicle_length=2.5, min_gap=0.5)]
    envs = [TrafficSignalEnv(EnvConfig(sim=sim), seed=0) for sim in sims]
    assert [sim.lane_capacity for sim in sims] == [20, 10, 50]
    for env, sim in zip(envs, sims):
        env.reset(seed=0)
        for i in range(7):
            put_vehicle(env.state, Approach.EAST, 1.0 + 7.5 * i, 0.0, detected=True)
    for env, sim in zip(envs, sims):
        obs = build_observation(env.state, env.config,
                                road_census(env.state, env.config.sim))
        assert obs[Approach.EAST] == 7 / sim.lane_capacity
        obs, _, _, _ = env.step(Command.KEEP)
        assert obs[Approach.EAST] == (len(env.state.lanes[Approach.EAST])
                                      / sim.lane_capacity)


def test_distance_slot_uses_nearest_detected():
    env = make_env()
    env.reset(seed=0)
    put_vehicle(env.state, Approach.NORTH, 45.0, 3.0, detected=False)
    put_vehicle(env.state, Approach.NORTH, 75.0, 3.0, detected=True)
    obs = build_observation(env.state, env.config,
                            road_census(env.state, env.config.sim))
    assert obs[4 + Approach.NORTH] == pytest.approx(0.5)
    assert obs[Approach.NORTH] == pytest.approx(1 / 20)


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------

def test_empty_intersection_step_reward_zero_both_modes():
    env = make_env()
    env.reset(seed=0)
    _, reward, _, _ = env.step(Command.KEEP)
    assert reward == 0.0
    assert full_reward(env.state, env.config.sim) == 0.0


def test_single_stopped_detected_vehicle_partial_reward_is_minus_one():
    env = make_env()
    env.reset(seed=0)
    # EAST faces red under NS green: a stopped vehicle at the line stays put
    put_vehicle(env.state, Approach.EAST, 0.0, 0.0, detected=True)
    _, reward, _, _ = env.step(Command.KEEP)
    assert reward == -1.0


def test_mixed_class_rewards_hand_evaluated():
    vmax = 13.89
    env = make_env()
    env.reset(seed=0)
    # after one step this vehicle accelerates to exactly vmax/2
    put_vehicle(env.state, Approach.NORTH, 140.0, vmax / 2 - 2.0, detected=True)
    put_vehicle(env.state, Approach.EAST, 0.0, 0.0, detected=False)
    _, reward, _, _ = env.step(Command.KEEP)
    assert reward == pytest.approx(-0.5)  # the partial reward
    assert full_reward(env.state, env.config.sim) == pytest.approx(-1.5)


def test_all_vehicles_at_vmax_zero_deficit():
    env = make_env()
    env.reset(seed=0)
    put_vehicle(env.state, Approach.NORTH, 100.0, 13.89, detected=True)
    put_vehicle(env.state, Approach.SOUTH, 100.0, 13.89, detected=False)
    census = road_census(env.state, env.config.sim)
    assert compute_reward(census) == 0.0
    assert full_reward(env.state, env.config.sim) == 0.0


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
        census = road_census(state, cfg)
        reward = compute_reward(census)
        # independent per-vehicle summation
        full = 0.0
        partial = 0.0
        for veh in vehicles(state):
            term = (cfg.vmax_default - veh.speed) / cfg.vmax_default
            full -= term
            if veh.detected:
                partial -= term
        assert full_reward(state, cfg) == pytest.approx(full, rel=1e-13, abs=1e-13)
        assert reward == pytest.approx(partial, rel=1e-13, abs=1e-13)
        assert reward >= full_reward(state, cfg)
        assert reward == -census.detected_deficit


def test_full_detection_rollout_rewards_coincide_exactly():
    sim = scenario_preset("medium", detection_rate=1.0, rng_seed=4)
    env = TrafficSignalEnv(EnvConfig(sim=sim), seed=4)
    env.reset(seed=7)
    rng = random.Random(5)
    for _ in range(500):
        _, reward, _, _ = env.step(rng.randrange(2))
        assert reward == full_reward(env.state, env.config.sim)


def test_partial_dominates_full_across_detection_rates():
    rng = random.Random(2)
    for rate in (0.1, 0.5, 0.9):
        sim = scenario_preset("medium", detection_rate=rate, rng_seed=8)
        env = TrafficSignalEnv(EnvConfig(sim=sim), seed=8)
        env.reset(seed=1)
        for _ in range(300):
            _, reward, _, _ = env.step(rng.randrange(2))
            full = full_reward(env.state, env.config.sim)
            assert reward >= full
            assert reward <= 0.0 and full <= 0.0


def test_detection_blindness_of_observation_and_partial_reward():
    env = make_env()
    env.reset(seed=0)
    put_vehicle(env.state, Approach.NORTH, 60.0, 4.0, detected=True)
    ghost = put_vehicle(env.state, Approach.NORTH, 100.0, 2.0, detected=False)
    census = road_census(env.state, env.config.sim)
    obs_before = build_observation(env.state, env.config, census)
    partial_before = compute_reward(census)
    ghost.position = 80.0
    ghost.speed = 9.0
    census = road_census(env.state, env.config.sim)
    obs_after = build_observation(env.state, env.config, census)
    partial_after = compute_reward(census)
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
        _, _, done, _ = env.step(Command.KEEP)
        steps += 1
    assert steps == 120


@pytest.mark.parametrize("time_step, episode_length, steps",
                         [(0.1, 100.0, 1000), (0.3, 30.0, 100), (0.7, 7.0, 10),
                          (2.0, 10.0, 5)])
def test_episode_ends_at_its_step_count(time_step, episode_length, steps):
    env = TrafficSignalEnv(EnvConfig(sim=SimConfig(time_step=time_step),
                                     episode_length=episode_length))
    env.reset(seed=0)
    for _ in range(steps - 1):
        assert not env.step(Command.KEEP)[2]
    assert env.step(Command.KEEP)[2]
    assert env.state.steps == steps
    assert env.state.clock == steps * time_step


def test_step_after_done_raises():
    env = make_env(episode_length=5.0)
    env.reset(seed=0)
    for _ in range(5):
        env.step(Command.KEEP)
    with pytest.raises(EpisodeDoneError):
        env.step(Command.KEEP)


def test_step_before_reset_raises():
    env = make_env()
    with pytest.raises(EpisodeDoneError):
        env.step(Command.KEEP)


@pytest.mark.parametrize("action", [0.7, 2, -1, "1"], ids=repr)
def test_step_rejects_an_action_other_than_keep_or_switch(action):
    env = make_env(arrival_rate=0.5)
    env.reset(seed=3)
    with pytest.raises(ValueError, match=f"got {action!r}"):
        env.step(action)
    assert env.state.steps == 0  # the bad action advanced nothing


@pytest.mark.parametrize("action, command",
                         [(0, Command.KEEP), (1, Command.SWITCH),
                          (np.int64(1), Command.SWITCH), (True, Command.SWITCH)],
                         ids=repr)
def test_step_accepts_keep_and_switch_values(action, command):
    stepped, reference = make_env(arrival_rate=0.5), make_env(arrival_rate=0.5)
    stepped.reset(seed=3)
    reference.reset(seed=3)
    for _ in range(8):  # past min_green, so a switch is taken
        stepped.step(0)
        reference.step(Command.KEEP)
    obs, _, _, _ = stepped.step(action)
    expected, _, _, _ = reference.step(command)
    assert obs.tobytes() == expected.tobytes()


def test_step_info_holds_the_road_census():
    env = TrafficSignalEnv(EnvConfig(sim=scenario_preset(
        "dense", detection_rate=0.5, rng_seed=4)), seed=4)
    env.reset(seed=4)
    for _ in range(30):
        _, reward, _, info = env.step(Command.KEEP)
    assert set(info) == {"census"}
    assert reward == compute_reward(info["census"])
    assert info["census"] == road_census(env.state, env.config.sim)


def test_observation_bounds_on_random_rollout():
    sim = scenario_preset("dense", detection_rate=0.6, rng_seed=13)
    env = TrafficSignalEnv(EnvConfig(sim=sim), seed=13)
    obs = env.reset(seed=2)
    rng = random.Random(1)
    for _ in range(600):
        assert np.all(obs[0:8] >= 0.0) and np.all(obs[0:8] <= 1.0)
        assert obs[AMBER_SLOT] in (0.0, 1.0)
        assert obs[PHASE_SLOT] in (0.0, 1.0)
        assert obs[PHASE_TIME_SLOT] >= 0.0
        obs, _, done, _ = env.step(rng.randrange(2))
        if done:
            obs = env.reset()


def test_episode_length_must_be_step_multiple():
    with pytest.raises(ValueError):
        EnvConfig(sim=SimConfig(), episode_length=100.5)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_episode_length_rejected_by_name(value):
    with pytest.raises(ValueError, match="^episode_length must be finite"):
        EnvConfig(sim=SimConfig(), episode_length=value)


def test_set_detection_rate_validates_and_applies():
    env = make_env(arrival_rate=1.0, detection_rate=0.0, seed=21)
    env.reset(seed=21)
    with pytest.raises(ValueError):
        env.set_detection_rate(1.5)
    env.set_detection_rate(1.0)
    for _ in range(50):
        env.step(Command.KEEP)
    st = env.state
    assert st.spawned_count > 0
    assert st.spawned_detected_count == st.spawned_count
