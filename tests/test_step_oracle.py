"""The env step against the per-vehicle reference loops, bit for bit,
over random valid configs and random keep/switch commands, and the spawn
stream against one generator call per draw."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sim_oracle
from trafficlab.env import EnvConfig, TrafficSignalEnv
from trafficlab.sim import (
    APPROACHES,
    PRESET_ARRIVAL_RATES,
    UNIFORM_BLOCK,
    Command,
    SimConfig,
    SimState,
    Vehicle,
    kinematics_step,
    metrics_snapshot,
    scenario_preset,
    signal_step,
    spawn_step,
)


def road(state, order=None):
    """Every vehicle's fields, lane by lane, led by its spawn number when
    ``order`` (a ``sim_oracle.SpawnOrder``) is given."""
    return [[(None if order is None else order[v], v.position, v.speed,
              v.detected, v.cumulative_wait) for v in state.lanes[a]]
            for a in APPROACHES]


def counters(state):
    return (state.clock, state.spawned_count, state.spawned_detected_count,
            state.exited_count, state.exited_wait_detected,
            state.exited_n_detected, state.exited_wait_undetected,
            state.exited_n_undetected, [state.pending[a] for a in APPROACHES])


@st.composite
def env_configs(draw):
    time_step = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0]))
    sim = scenario_preset(
        draw(st.sampled_from(sorted(PRESET_ARRIVAL_RATES))),
        time_step=time_step,
        detection_rate=draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])),
        accel=draw(st.floats(0.5, 4.0)),
        decel=draw(st.floats(1.0, 8.0)),
        min_gap=draw(st.floats(0.5, 4.0)),
        vmax_default=draw(st.floats(5.0, 30.0)),
        wait_speed_threshold=draw(st.floats(0.05, 2.0)),
        min_green=draw(st.sampled_from([1.0, 5.0, 10.0])),
    )
    return EnvConfig(sim=sim, episode_length=1000 * time_step)


@settings(max_examples=60, deadline=None)
@given(config=env_configs(),
       steps=st.integers(1, 400),
       switch_rate=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_env_step_equals_per_vehicle_oracle(config, steps, switch_rate, seed):
    # long random command runs, so queues build and vehicles exit
    rng = random.Random(seed)
    commands = [1 if rng.random() < switch_rate else 0 for _ in range(steps)]
    env = TrafficSignalEnv(config)
    obs = env.reset(seed=seed)
    sim = config.sim
    ref = SimState.initial(sim, seed=seed)
    order, ref_order = sim_oracle.SpawnOrder(), sim_oracle.SpawnOrder()
    assert obs.tobytes() == sim_oracle.observation(ref, config).tobytes()
    for command in commands:
        obs, reward, _, info = env.step(command)
        signal_step(ref, Command(command), sim)
        sim_oracle.spawn_step(ref, sim)
        sim_oracle.kinematics_step(ref, sim)

        # repr tells -0.0 from 0.0, which == does not
        assert repr(road(env.state, order.update(env.state))) == repr(
            road(ref, ref_order.update(ref)))
        assert repr(counters(env.state)) == repr(counters(ref))
        detected, undetected = sim_oracle.reward_deficits(ref, sim)
        census = info["census"]
        assert repr((census.detected_deficit, census.undetected_deficit)) == \
            repr((detected, undetected))
        assert repr(reward) == repr(-detected)
        assert obs.tobytes() == sim_oracle.observation(ref, config).tobytes()
        assert info["census"].queue_lengths == sim_oracle.queue_lengths(ref, sim)
        assert repr(info["census"]) == repr(sim_oracle.road_census(env.state, sim))
        assert metrics_snapshot(env.state).exited_all == ref.exited_count


def never_switch(signal):
    return Command.KEEP


def fixed_time_30s(signal):
    return (Command.SWITCH if not signal.in_amber and signal.phase_elapsed >= 30.0
            else Command.KEEP)


@pytest.mark.parametrize("policy", [never_switch, fixed_time_30s])
def test_dense_queues_step_as_the_oracle_and_stand_still(policy):
    # red queues on the dense preset leave most vehicles no room to move,
    # which kinematics_step handles in its stopped branch
    sim = scenario_preset("dense", detection_rate=0.5, rng_seed=7)
    state = SimState.initial(sim)
    ref = SimState.initial(sim)
    order, ref_order = sim_oracle.SpawnOrder(), sim_oracle.SpawnOrder()
    held = 0
    for _ in range(1200):
        before = {order[v]: v.position for v in state.iter_vehicles()}
        command = policy(state.signal)
        signal_step(state, command, sim)
        spawn_step(state, sim)
        census = kinematics_step(state, sim)
        signal_step(ref, command, sim)
        sim_oracle.spawn_step(ref, sim)
        sim_oracle.kinematics_step(ref, sim)

        assert repr(road(state, order.update(state))) == repr(
            road(ref, ref_order.update(ref)))
        assert repr(counters(state)) == repr(counters(ref))
        assert repr(census) == repr(sim_oracle.road_census(ref, sim))
        held += sum(1 for v in state.iter_vehicles()
                    if v.speed == 0.0 and before.get(order[v]) == v.position)
    assert held > 0


def next_draws(state, n):
    """The next ``n`` uniforms of the state's spawn stream."""
    rest = state.uniforms[state.uniform_index:][:n]
    return rest + state.rng.random(n - len(rest)).tolist()


@settings(max_examples=60, deadline=None)
@given(lam=st.one_of(st.just(0.0), st.floats(0.0, 10.0, exclude_max=True),
                     st.floats(9.0, 10.0, exclude_max=True)),
       steps=st.lists(st.tuples(st.floats(0.0, 1.0),
                                st.lists(st.booleans(), min_size=4, max_size=4)),
                      min_size=1, max_size=80),
       seed=st.integers(0, 2**32 - 1))
def test_spawn_stream_equals_one_generator_call_per_draw(lam, steps, seed):
    sim = SimConfig(arrival_rate=lam, time_step=1.0, rng_seed=seed)
    state = SimState.initial(sim)
    ref = SimState.initial(sim)
    for rate, blocked in steps:
        sim.detection_rate = rate  # changed between steps
        for s in (state, ref):
            for approach, block in zip(APPROACHES, blocked):
                # an empty lane admits one vehicle; a blocked one none
                s.lanes[approach] = [] if not block else [Vehicle(
                    position=sim.lane_length, speed=0.0, detected=False)]
        spawn_step(state, sim)
        sim_oracle.spawn_step(ref, sim)
        assert repr(road(state)) == repr(road(ref))
        assert repr(counters(state)) == repr(counters(ref))
    # the stream stands where the per-call generator stands
    n = UNIFORM_BLOCK + 44
    assert next_draws(state, n) == ref.rng.random(n).tolist()


def test_spawn_stream_breaks_ties_as_numpy():
    # the first uniform equals exp(-mean), which ends the count at 0; the
    # second equals the detection rate, which leaves the entrant undetected
    seed = 0
    u0, u1 = np.random.default_rng(seed).random(2).tolist()
    lam = -math.log(u0)
    assert math.exp(-lam) == u0
    sim = SimConfig(arrival_rate=lam, detection_rate=u1, rng_seed=seed)
    state = SimState.initial(sim)
    ref = SimState.initial(sim)
    for s in (state, ref):
        s.pending[APPROACHES[0]] = 1
    spawn_step(state, sim)
    sim_oracle.spawn_step(ref, sim)
    assert repr(road(state)) == repr(road(ref))
    assert repr(counters(state)) == repr(counters(ref))
    north = state.lanes[APPROACHES[0]]
    assert len(north) == 1 and not north[0].detected
    assert state.pending[APPROACHES[0]] == 0
    assert next_draws(state, 8) == ref.rng.random(8).tolist()
