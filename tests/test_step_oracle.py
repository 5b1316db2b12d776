"""The env step against the per-vehicle reference loops, bit for bit,
over random valid configs and random keep/switch commands."""

import random

from hypothesis import given, settings, strategies as st

import sim_oracle
from trafficlab.env import EnvConfig, RewardMode, TrafficSignalEnv
from trafficlab.sim import (
    APPROACHES,
    PRESET_ARRIVAL_RATES,
    Command,
    SimState,
    scenario_preset,
    signal_step,
    spawn_step,
)


def road(state):
    return [[(v.id, v.position, v.speed, v.vmax, v.detected, v.spawn_time,
              v.cumulative_wait) for v in state.lanes[a]] for a in APPROACHES]


def counters(state):
    return (state.clock, state.spawned_count, state.spawned_detected_count,
            state.exited_count, state.exited_wait_detected,
            state.exited_n_detected, state.exited_wait_undetected,
            state.exited_n_undetected, state.next_vehicle_id,
            [state.pending[a] for a in APPROACHES])


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
    return EnvConfig(
        sim=sim,
        reward_mode=draw(st.sampled_from(list(RewardMode))),
        episode_length=1000 * time_step,
        include_time_of_day=draw(st.booleans()),
        day_length=draw(st.sampled_from([60.0, 86_400.0])),
    )


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
    assert obs.tobytes() == sim_oracle.observation(ref, config).tobytes()
    for command in commands:
        obs, reward, _, info = env.step(command)
        signal_step(ref, Command(command), sim)
        spawn_step(ref, sim)
        sim_oracle.kinematics_step(ref, sim)

        # repr tells -0.0 from 0.0, which == does not
        assert repr(road(env.state)) == repr(road(ref))
        assert repr(counters(env.state)) == repr(counters(ref))
        detected, undetected = sim_oracle.reward_deficits(ref)
        bd = info["reward_breakdown"]
        assert repr((bd.detected_deficit, bd.undetected_deficit, bd.full,
                     bd.partial)) == repr((detected, undetected,
                                           -(detected + undetected), -detected))
        assert repr(reward) == repr(bd.for_mode(config.reward_mode))
        assert obs.tobytes() == sim_oracle.observation(ref, config).tobytes()
        metrics = info["metrics"]
        assert [metrics.queue_lengths[a] for a in APPROACHES] == \
            sim_oracle.queue_lengths(ref, sim)
        assert metrics.exited_all == ref.exited_count
