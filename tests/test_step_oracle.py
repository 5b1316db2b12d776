"""The env step against the per-vehicle reference loops, bit for bit,
over random valid configs and random keep/switch commands; frozen lanes
against the same loops, which walk every vehicle at every step; and the
spawn stream against one generator call per draw."""

import copy
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
    FrozenLane,
    Phase,
    SimConfig,
    SimState,
    Vehicle,
    kinematics_step,
    metrics_snapshot,
    scenario_preset,
    signal_step,
    spawn_step,
)


def held(state, approach):
    """The steps ``approach``'s lane has stood frozen since its record."""
    return state.steps - state.frozen[approach].since


def frozen_wait(state):
    """A ``road`` reader of the simulator's waits: a vehicle's wait steps,
    plus those its lane has stood frozen, times ``time_step``."""
    def wait(approach, veh):
        steps = veh.cumulative_wait
        if state.frozen[approach] is not None:
            steps += held(state, approach)
        return steps * state.time_step
    return wait


def road(state, order=None, wait=None):
    """Every vehicle's fields, lane by lane, led by its spawn number when
    ``order`` (a ``sim_oracle.SpawnOrder``) is given. Its wait in seconds
    is read by ``wait(approach, vehicle)``, ``frozen_wait(state)`` unless
    given."""
    wait = frozen_wait(state) if wait is None else wait
    return [[(None if order is None else order[v], v.position, v.speed,
              v.detected, wait(a, v)) for v in state.lanes[a]]
            for a in APPROACHES]


def oracle_wait(time_step):
    """A ``road`` reader of the per-vehicle oracle's waits: its wait steps,
    counted in ``cumulative_wait``, times ``time_step``."""
    return lambda approach, veh: veh.cumulative_wait * time_step


def counters(state):
    return (state.steps, state.clock, state.spawned_count, state.spawned_detected_count,
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
            road(ref, ref_order.update(ref), oracle_wait(sim.time_step)))
        assert repr(counters(env.state)) == repr(counters(ref))
        detected, _ = sim_oracle.reward_deficits(ref, sim)
        census = info["census"]
        assert repr(census.detected_deficit) == repr(detected)
        assert repr(reward) == repr(-detected)
        assert obs.tobytes() == sim_oracle.observation(ref, config).tobytes()
        assert census.queue == sum(sim_oracle.queue_lengths(ref, sim))
        assert repr(census) == repr(sim_oracle.road_census(env.state, sim))
        assert metrics_snapshot(env.state).exited_all == ref.exited_count


def never_switch(signal):
    return Command.KEEP


def fixed_time_30s(signal):
    return (Command.SWITCH if not signal.in_amber and signal.phase_steps >= 30
            else Command.KEEP)


@pytest.mark.parametrize("policy", [never_switch, fixed_time_30s])
def test_dense_queues_step_as_the_oracle_and_stand_still(policy):
    # red queues on the dense preset leave most vehicles no room to move,
    # which kinematics_step handles in its stopped branch, and it freezes
    # a lane on which every vehicle stood still
    sim = scenario_preset("dense", detection_rate=0.5, rng_seed=7)
    state = SimState.initial(sim)
    ref = SimState.initial(sim)
    order, ref_order = sim_oracle.SpawnOrder(), sim_oracle.SpawnOrder()
    held = frozen = 0
    for _ in range(1200):
        before = {order[v]: v.position for v in sim_oracle.vehicles(state)}
        command = policy(state.signal)
        signal_step(state, command, sim)
        spawn_step(state, sim)
        census = kinematics_step(state, sim)
        signal_step(ref, command, sim)
        sim_oracle.spawn_step(ref, sim)
        sim_oracle.kinematics_step(ref, sim)

        assert repr(road(state, order.update(state))) == repr(
            road(ref, ref_order.update(ref), oracle_wait(sim.time_step)))
        assert repr(counters(state)) == repr(counters(ref))
        assert repr(census) == repr(sim_oracle.road_census(ref, sim))
        held += sum(1 for v in sim_oracle.vehicles(state)
                    if v.speed == 0.0 and before.get(order[v]) == v.position)
        frozen += sum(f is not None for f in state.frozen)
    assert held > 0
    assert frozen > 0


NORTH = APPROACHES[0]


def step_both(state, ref, sim, command=Command.KEEP):
    """One step of ``state`` and of its oracle twin ``ref``; their roads,
    counters, census and wait census (from the start and over the step)
    must agree bit for bit."""
    before = state.exit_totals()
    signal_step(state, command, sim)
    spawn_step(state, sim)
    census = kinematics_step(state, sim)
    signal_step(ref, command, sim)
    sim_oracle.spawn_step(ref, sim)
    sim_oracle.kinematics_step(ref, sim)
    assert repr(road(state)) == repr(road(ref, wait=oracle_wait(sim.time_step)))
    assert repr(counters(state)) == repr(counters(ref))
    assert repr(census) == repr(sim_oracle.road_census(ref, sim))
    assert repr(state.entered_waits()) == repr(sim_oracle.settled_waits(ref))
    assert repr(state.entered_waits(since=before)) == repr(
        sim_oracle.settled_waits(ref, before))
    return census


def red_queue(sim, n):
    """A state and its oracle twin, NS on red: north's lane holds ``n``
    stopped vehicles from the stop line on, one spacing apart, so none of
    them can move; every third one is undetected."""
    spacing = sim.vehicle_length + sim.min_gap
    pair = []
    for _ in range(2):
        state = SimState.initial(sim)
        state.signal.phase = Phase.EW_GREEN
        state.lanes[NORTH] = [Vehicle(i * spacing, 0.0, i % 3 != 1)
                              for i in range(n)]
        state.spawned_count = n
        state.spawned_detected_count = sum(i % 3 != 1 for i in range(n))
        pair.append(state)
    return pair


def hold(state, ref, sim, steps):
    """Keep the phase for ``steps`` steps; north's lane must freeze on the
    first and stay frozen, held one step more on each later one."""
    for k in range(steps):
        step_both(state, ref, sim)
        assert held(state, NORTH) == k


def test_a_spawn_into_a_frozen_lane_thaws_it():
    sim = SimConfig(arrival_rate=0.0)
    state, ref = red_queue(sim, 5)
    hold(state, ref, sim, 30)
    state.pending[NORTH] = ref.pending[NORTH] = 1
    signal_step(state, Command.KEEP, sim)
    spawn_step(state, sim)
    assert state.frozen[NORTH] is None
    # the 29 held steps are settled into the counts of the five that stood
    assert [v.cumulative_wait for v in state.lanes[NORTH]] == [30] * 5 + [0]
    kinematics_step(state, sim)
    signal_step(ref, Command.KEEP, sim)
    sim_oracle.spawn_step(ref, sim)
    sim_oracle.kinematics_step(ref, sim)
    assert repr(road(state)) == repr(road(ref, wait=oracle_wait(sim.time_step)))
    assert state.frozen[NORTH] is None  # the entrant moved
    for _ in range(40):  # it closes up to the queue and the lane refreezes
        step_both(state, ref, sim)
    assert state.frozen[NORTH] is not None
    assert len(state.lanes[NORTH]) == 6


def test_amber_keeps_a_red_lane_frozen():
    sim = SimConfig(arrival_rate=0.0)
    state, ref = red_queue(sim, 6)
    state.signal.phase_steps = ref.signal.phase_steps = 5  # min_green
    hold(state, ref, sim, 3)
    record = state.frozen[NORTH]
    step_both(state, ref, sim, Command.SWITCH)  # east-west turns amber
    assert state.signal.in_amber and held(state, NORTH) == 3
    for k in range(4, 4 + int(sim.amber_duration / sim.time_step) - 1):
        step_both(state, ref, sim)
        assert state.signal.in_amber
        assert state.frozen[NORTH] is record and held(state, NORTH) == k


def test_green_thaws_a_frozen_lane_and_settles_its_waits():
    sim = SimConfig(arrival_rate=0.0)
    state, ref = red_queue(sim, 6)
    state.signal.phase_steps = ref.signal.phase_steps = 5  # min_green
    hold(state, ref, sim, 20)
    record = state.frozen[NORTH]
    step_both(state, ref, sim, Command.SWITCH)
    while state.signal.in_amber:
        assert state.frozen[NORTH] is record
        step_both(state, ref, sim)
    # the step that turned north-south green thawed the lane
    assert state.signal.phase is Phase.NS_GREEN
    assert state.frozen[NORTH] is None
    # thawed before the step was counted, after it had stood frozen for
    held_steps = state.steps - 1 - record.since
    assert held_steps == 19 + sim.amber_duration / sim.time_step
    # with no record left, each wait is read from the vehicle's own count,
    # which step_both found equal to the oracle's: the held steps are in it
    assert min(v.cumulative_wait for v in state.lanes[NORTH]) >= held_steps + 1


@pytest.mark.parametrize("time_step", [1.0, 0.1])
def test_onroad_waits_mid_freeze_equal_the_oracle(time_step):
    # step_both compares entered_waits with the oracle's at every step;
    # at 0.1 s the red queues stand by a braking cap of 0.0, not the
    # short branch
    sim = scenario_preset("dense", detection_rate=0.5, rng_seed=11,
                          time_step=time_step)
    state, ref = SimState.initial(sim), SimState.initial(sim)
    mid_freeze = 0
    for _ in range(int(round(600 / time_step))):
        step_both(state, ref, sim)  # never switch: north-south stays green
        mid_freeze += any(f is not None and f.since < state.steps
                          for f in state.frozen)
    assert mid_freeze > 0


@pytest.mark.parametrize("time_step", [1.0, 0.1])
def test_window_waits_since_a_boundary_equal_the_oracle(time_step):
    # deployment windows: every window's waits are entered_waits since the
    # exit totals at its start, over a road whose red queues stand frozen
    # across boundaries
    sim = scenario_preset("dense", detection_rate=0.5, rng_seed=5,
                          time_step=time_step)
    state, ref = SimState.initial(sim), SimState.initial(sim)
    window = int(round(40 / time_step))
    since = state.exit_totals()
    frozen_across = 0
    for k in range(1, 10 * window + 1):
        # switch every 150 s, so red queues fill, freeze and discharge
        switch = k % int(round(150 / time_step)) == 0
        step_both(state, ref, sim, Command.SWITCH if switch else Command.KEEP)
        if k % window == 0:
            assert repr(state.entered_waits(since=since)) == repr(
                sim_oracle.settled_waits(ref, since))
            frozen_across += any(f is not None and f.since < state.steps - 1
                                 for f in state.frozen)
            since = state.exit_totals()
    assert frozen_across > 0


@pytest.mark.parametrize("time_step", [0.1, 0.3, 0.7])
def test_exits_after_a_long_freeze_equal_the_oracle(time_step):
    sim = SimConfig(arrival_rate=0.0, time_step=time_step)
    state, ref = red_queue(sim, 9)
    hold(state, ref, sim, 1500)
    steps = 0
    while state.lanes[NORTH]:  # switch, then discharge the queue
        step_both(state, ref, sim, Command.SWITCH)
        steps += 1
        assert steps < 1000
    assert state.exited_n_detected == 6 and state.exited_n_undetected == 3
    # each wait is 1500 or more steps, times time_step
    assert state.exited_wait_undetected > 3 * 1500 * time_step * 0.99


def test_a_deep_copy_mid_freeze_rolls_forward_as_the_original():
    sim = scenario_preset("dense", detection_rate=0.5, rng_seed=3)
    state = SimState.initial(sim)
    for _ in range(400):  # never switch
        signal_step(state, Command.KEEP, sim)
        spawn_step(state, sim)
        kinematics_step(state, sim)
    assert any(f is not None and f.since < state.steps for f in state.frozen)
    twin = copy.deepcopy(state)
    commands = [Command.SWITCH if k % 40 == 0 else Command.KEEP
                for k in range(1, 400)]
    # the original runs first, so a record the two shared would be
    # stale when the copy reads it
    runs = []
    for s in (state, twin):
        trace = []
        for command in commands:
            signal_step(s, command, sim)
            spawn_step(s, sim)
            census = kinematics_step(s, sim)
            trace.append(repr((census, road(s), counters(s),
                               s.entered_waits())))
        runs.append(trace)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("own, frozen_for", [(0, 0), (4, 0), (0, 9), (37, 2500)])
@pytest.mark.parametrize("time_step", [0.1, 0.3, 0.7, 1.0, 2.0])
def test_a_wait_is_its_step_count_times_the_time_step(time_step, own,
                                                      frozen_for):
    # own wait steps plus the steps the lane has stood frozen, before and
    # after thawing settles those steps into the vehicle's count
    state = SimState.initial(SimConfig(arrival_rate=0.0, time_step=time_step))
    veh = Vehicle(0.0, 0.0, False, cumulative_wait=own)
    state.lanes[NORTH] = [veh]
    state.steps = 100 + frozen_for
    state.frozen[NORTH] = FrozenLane(0, None, 100)
    expected = (own + frozen_for) * time_step
    assert state.entered_waits() == (0.0, 0, expected, 1)
    state.thaw(NORTH)
    assert state.frozen[NORTH] is None
    assert veh.cumulative_wait == own + frozen_for
    assert state.entered_waits() == (0.0, 0, expected, 1)
    if time_step == 1.0:  # what adding the time step once per step gives
        total = 0.0
        for _ in range(own + frozen_for):
            total += time_step
        assert expected == total


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
        assert repr(road(state)) == repr(road(ref, wait=oracle_wait(sim.time_step)))
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
    assert repr(road(state)) == repr(road(ref, wait=oracle_wait(sim.time_step)))
    assert repr(counters(state)) == repr(counters(ref))
    north = state.lanes[APPROACHES[0]]
    assert len(north) == 1 and not north[0].detected
    assert state.pending[APPROACHES[0]] == 0
    assert next_draws(state, 8) == ref.rng.random(8).tolist()
