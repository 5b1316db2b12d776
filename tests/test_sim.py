import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficlab.sim import (
    APPROACHES,
    Approach,
    Command,
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
from trafficlab.sim import _plus_ones
from invariant_checks import run_checked_episode
from sim_oracle import (EW, NS, approach_axis, queue_lengths, reward_deficits,
                        road_census, served_axis, vehicles)


def make_vehicle(position, speed, detected=True, wait=0):
    """A vehicle that has waited ``wait`` time steps."""
    return Vehicle(position=position, speed=speed, detected=detected,
                   cumulative_wait=wait)


def drive(state, cfg, steps, command=Command.KEEP):
    for _ in range(steps):
        signal_step(state, command, cfg)
        spawn_step(state, cfg)
        kinematics_step(state, cfg)
    return state


# ---------------------------------------------------------------------------
# scenario presets
# ---------------------------------------------------------------------------

def measure_saturation_flow(cfg):
    """Empirical discharge rate of a full stopped queue under permanent green."""
    state = SimState.initial(cfg)
    spacing = cfg.vehicle_length + cfg.min_gap
    n = cfg.lane_capacity
    for i in range(n):
        state.lanes[Approach.NORTH].append(
            make_vehicle(i * spacing, 0.0))
    state.spawned_count = n
    exit_steps = []
    prev = 0
    for step in range(1, 500):
        signal_step(state, Command.KEEP, cfg)
        kinematics_step(state, cfg)
        if state.exited_count > prev:
            exit_steps.extend([step] * (state.exited_count - prev))
            prev = state.exited_count
        if state.vehicle_count() == 0:
            break
    assert len(exit_steps) == n
    # skip the start-up exits, measure the steady discharge rate
    return (n - 4) / ((exit_steps[-1] - exit_steps[3]) * cfg.time_step)


def test_preset_rates_against_saturation_analysis():
    sparse = scenario_preset("sparse")
    medium = scenario_preset("medium")
    dense = scenario_preset("dense")
    assert sparse.arrival_rate == 0.02
    assert medium.arrival_rate == 0.10
    assert dense.arrival_rate == 0.25

    sat_flow = measure_saturation_flow(SimConfig(arrival_rate=0.0))
    # Ideal per-lane service: half the time green, no lost time.
    ideal_service = 0.5 * sat_flow
    # Service under the shortest sustainable plan (min_green cycling, amber
    # lost both ways): the rate a saturated approach can actually be drained
    # at if the controller flips as fast as allowed.
    cfg = SimConfig(arrival_rate=0.0)
    short_share = cfg.min_green / (2.0 * (cfg.min_green + cfg.amber_duration))
    short_service = short_share * sat_flow
    assert sparse.arrival_rate < 0.10 * ideal_service  # far below capacity
    assert sparse.arrival_rate < medium.arrival_rate < dense.arrival_rate
    assert dense.arrival_rate > short_service  # saturates short-cycle plans
    assert dense.arrival_rate > 0.7 * ideal_service  # near best-plan capacity


def test_presets_vary_flow_only():
    sparse = scenario_preset("sparse")
    dense = scenario_preset("dense")
    assert sparse.lane_length == dense.lane_length
    assert sparse.vmax_default == dense.vmax_default
    assert sparse.accel == dense.accel
    assert sparse.min_green == dense.min_green


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="preset"):
        scenario_preset("rush-hour")


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(detection_rate=1.2)
    with pytest.raises(ValueError):
        SimConfig(lane_length=0.0)
    with pytest.raises(ValueError):
        SimConfig(arrival_rate=-0.1)


FLOAT_FIELDS = ("lane_length", "vmax_default", "accel", "decel",
                "vehicle_length", "min_gap", "amber_duration", "min_green",
                "time_step", "arrival_rate", "detection_rate",
                "wait_speed_threshold")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_config_value_rejected_by_name(name, value):
    with pytest.raises(ValueError, match=name):
        SimConfig(**{name: value})


@pytest.mark.parametrize("arrival_rate, time_step", [
    (10.0, 1.0), (5.0, 2.0), (25.0, 0.5), (1e6, 1.0)])
def test_arrival_rate_per_step_of_ten_or_more_rejected(arrival_rate, time_step):
    with pytest.raises(ValueError, match="arrival_rate.*time_step"):
        SimConfig(arrival_rate=arrival_rate, time_step=time_step)


def test_arrival_rate_per_step_just_below_ten_accepted():
    SimConfig(arrival_rate=math.nextafter(10.0, 0.0), time_step=1.0)
    SimConfig(arrival_rate=4.9, time_step=2.0)


def test_lane_capacity_default_geometry():
    assert SimConfig().lane_capacity == 20


# ---------------------------------------------------------------------------
# spawn_step
# ---------------------------------------------------------------------------

def test_zero_arrival_rate_spawns_nothing():
    cfg = SimConfig(arrival_rate=0.0)
    state = SimState.initial(cfg)
    drive(state, cfg, 500)
    assert state.spawned_count == 0
    assert state.vehicle_count() == 0


def spawn_many(detection_rate, target):
    cfg = SimConfig(arrival_rate=2.0, detection_rate=detection_rate, rng_seed=11)
    state = SimState.initial(cfg)
    while state.spawned_count < target:
        drive(state, cfg, 1, command=Command.SWITCH)
    return state


def test_full_detection_rate_marks_everything():
    state = spawn_many(1.0, 10_000)
    assert state.spawned_detected_count == state.spawned_count


def test_detected_fraction_within_binomial_interval():
    p = 0.3
    state = spawn_many(p, 10_000)
    n = state.spawned_count
    frac = state.spawned_detected_count / n
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(frac - p) < 3 * sigma


def test_blocked_arrivals_queue_instead_of_dropping():
    cfg = SimConfig(arrival_rate=0.0, rng_seed=3)
    state = SimState.initial(cfg)
    spacing = cfg.vehicle_length + cfg.min_gap
    # fill the lane up to and including the entrance cell
    n_fill = cfg.lane_capacity + 1
    for i in range(n_fill):
        state.lanes[Approach.NORTH].append(
            make_vehicle(i * spacing, 0.0))
    state.spawned_count = n_fill
    state.pending[Approach.NORTH] = 5
    spawn_step(state, cfg)
    assert state.pending[Approach.NORTH] == 5  # still queued, not dropped
    assert state.vehicle_count() == n_fill
    # drain the lane; queued arrivals must eventually enter
    for _ in range(100):
        signal_step(state, Command.KEEP, cfg)
        spawn_step(state, cfg)
        kinematics_step(state, cfg)
        if state.pending[Approach.NORTH] == 0:
            break
    assert state.pending[Approach.NORTH] == 0
    assert state.spawned_count == n_fill + 5


def test_spawn_entry_speed_clamped_behind_slow_rear_vehicle():
    cfg = SimConfig(arrival_rate=0.0, rng_seed=3)
    state = SimState.initial(cfg)
    rear = make_vehicle(cfg.lane_length - 10.0, 0.0)
    state.lanes[Approach.NORTH].append(rear)
    state.spawned_count = 1
    state.pending[Approach.NORTH] = 1
    spawn_step(state, cfg)
    entered = state.lanes[Approach.NORTH][-1]
    assert entered.position == cfg.lane_length
    assert entered.speed < cfg.vmax_default


# ---------------------------------------------------------------------------
# kinematics_step
# ---------------------------------------------------------------------------

def reference_free_run(cfg):
    """Independent recurrence for one unobstructed vehicle from rest."""
    v, x, steps = 0.0, cfg.lane_length, 0
    while x >= 0.0:
        v = min(cfg.vmax_default, v + cfg.accel * cfg.time_step)
        x -= v * cfg.time_step
        steps += 1
    return steps


def test_single_vehicle_exit_time_matches_closed_form():
    cfg = SimConfig(arrival_rate=0.0)
    state = SimState.initial(cfg)
    state.lanes[Approach.NORTH].append(
        make_vehicle(cfg.lane_length, 0.0))
    state.spawned_count = 1
    steps = 0
    while state.vehicle_count() and steps < 100:
        drive(state, cfg, 1)
        steps += 1
    assert steps == reference_free_run(cfg)
    closed_form = cfg.lane_length / cfg.vmax_default + cfg.vmax_default / (2 * cfg.accel)
    assert abs(steps * cfg.time_step - closed_form) <= 1.5 * cfg.time_step
    assert state.exited_count == 1


def test_red_signal_vehicle_stops_at_line():
    cfg = SimConfig(arrival_rate=0.0)
    state = SimState.initial(cfg)
    state.signal.phase = Phase.EW_GREEN  # NS sees red
    state.lanes[Approach.NORTH].append(
        make_vehicle(cfg.lane_length, cfg.vmax_default))
    state.spawned_count = 1
    drive(state, cfg, 60)
    veh = state.lanes[Approach.NORTH][0]
    assert veh.speed == 0.0
    assert 0.0 <= veh.position <= 1.0
    wait_det, n_det, _, _ = state.entered_waits()
    assert n_det == 1 and wait_det > 0.0


def test_follower_keeps_min_gap_behind_leader():
    cfg = SimConfig(arrival_rate=0.0)
    state = SimState.initial(cfg)
    state.signal.phase = Phase.EW_GREEN  # hold NS on red so a queue forms
    state.lanes[Approach.NORTH].append(
        make_vehicle(60.0, 5.0))
    state.lanes[Approach.NORTH].append(
        make_vehicle(120.0, cfg.vmax_default))
    state.spawned_count = 2
    for _ in range(80):
        drive(state, cfg, 1)
        lane = state.lanes[Approach.NORTH]
        if len(lane) == 2:
            leader, follower = lane
            gap = follower.position - (leader.position + cfg.vehicle_length)
            assert gap >= cfg.min_gap - 1e-9
    leader, follower = state.lanes[Approach.NORTH]
    assert leader.speed == 0.0 and follower.speed == 0.0
    rest_gap = follower.position - (leader.position + cfg.vehicle_length)
    assert abs(rest_gap - cfg.min_gap) < 1e-6


def test_red_queue_at_exact_spacing_stands_still_and_waits():
    # the front vehicle on the stop line, each follower exactly one spacing
    # behind: every budget is 0.0, so no vehicle may move
    cfg = SimConfig(arrival_rate=0.0)
    spacing = cfg.vehicle_length + cfg.min_gap
    state = SimState.initial(cfg)
    state.signal.phase = Phase.EW_GREEN  # NS sees red
    lane = state.lanes[Approach.NORTH]
    for i in range(5):
        lane.append(make_vehicle(i * spacing, 0.0,
                                 detected=i % 2 == 1, wait=3))
    state.spawned_count = 5
    census = kinematics_step(state, cfg)
    assert [(v.position, v.speed, v.cumulative_wait * cfg.time_step)
            for v in lane] == [(i * spacing, 0.0, 4.0) for i in range(5)]
    # the lane froze on this step, so no step is held beyond each count
    assert state.frozen[Approach.NORTH].since == state.steps == 1
    assert state.entered_waits() == (2 * 4.0, 2, 3 * 4.0, 3)
    assert state.exited_count == 0
    assert census.queue == 5
    assert census.detected_counts[Approach.NORTH] == 2
    assert census.nearest_detected[Approach.NORTH] == spacing
    assert census.detected_deficit == 2.0
    assert reward_deficits(state, cfg) == (2.0, 3.0)
    assert repr(census) == repr(road_census(state, cfg))


@settings(max_examples=300)
@given(total=st.one_of(st.floats(0.0, 200.0), st.floats(0.0, 2.0**60),
                       st.integers(0, 2**12).map(lambda e: math.nextafter(
                           float(e), 0.0))),
       k=st.integers(0, 120))
@example(total=2.0**53 - 3.0, k=5)
@example(total=1.1508266987211067e+18, k=81)
@example(total=63.99999999999999, k=1)
def test_adding_ones_at_once_equals_adding_them_one_by_one(total, k):
    # a frozen lane adds 1.0 per vehicle to its class's deficit
    expected = total
    for _ in range(k):
        expected += 1.0
    assert repr(_plus_ones(total, k)) == repr(expected)


def test_amber_blocks_crossing():
    cfg = SimConfig(arrival_rate=0.0)
    state = SimState.initial(cfg)
    state.signal.in_amber = True  # NS phase, but amber: nobody may cross
    state.lanes[Approach.NORTH].append(
        make_vehicle(5.0, cfg.vmax_default))
    state.spawned_count = 1
    kinematics_step(state, cfg)
    veh = state.lanes[Approach.NORTH][0]
    assert veh.position >= 0.0
    assert state.exited_count == 0


# ---------------------------------------------------------------------------
# signal_step
# ---------------------------------------------------------------------------

def test_switch_after_min_green_enters_amber():
    cfg = SimConfig()
    state = SimState.initial(cfg)
    state.signal.phase_steps = 5  # min_green: 5 steps of 1.0 s
    signal_step(state, Command.SWITCH, cfg)
    assert state.signal.in_amber
    assert state.signal.amber_steps == 0
    assert state.signal.phase is Phase.NS_GREEN


def test_amber_completion_enters_opposite_phase():
    cfg = SimConfig()
    state = SimState.initial(cfg)
    state.signal.in_amber = True
    state.signal.amber_steps = 3  # one step short of amber_duration
    signal_step(state, Command.KEEP, cfg)
    sig = state.signal
    assert not sig.in_amber
    assert sig.phase is Phase.EW_GREEN
    assert sig.phase_steps == 0
    assert sig.amber_steps == 0


def test_switch_before_min_green_is_ignored():
    cfg = SimConfig()
    state = SimState.initial(cfg)
    state.signal.phase_steps = 4  # one step short of min_green
    signal_step(state, Command.SWITCH, cfg)
    sig = state.signal
    assert not sig.in_amber
    assert sig.phase is Phase.NS_GREEN
    assert sig.phase_steps * cfg.time_step == cfg.min_green


def test_amber_ignores_commands_until_complete():
    cfg = SimConfig()
    state = SimState.initial(cfg)
    state.signal.phase_steps = 5  # min_green: 5 steps of 1.0 s
    signal_step(state, Command.SWITCH, cfg)
    amber_steps = 0
    while state.signal.in_amber:
        signal_step(state, Command.SWITCH, cfg)  # ignored
        amber_steps += 1
        assert amber_steps <= 100
    assert amber_steps * cfg.time_step == pytest.approx(cfg.amber_duration)
    assert state.signal.phase is Phase.EW_GREEN


def least_steps(duration, time_step):
    """The least step count ``k`` with ``k * time_step >= duration``, in
    exact decimal arithmetic (both are decimal literals)."""
    return math.ceil(Fraction(str(duration)) / Fraction(str(time_step)))


def signal_runs(cfg, steps):
    """The (phase, in amber) state after each of ``steps`` signal steps,
    commanded to switch at every step, as runs: (state, steps it held)."""
    state = SimState.initial(cfg)
    runs = []
    for _ in range(steps):
        signal_step(state, Command.SWITCH, cfg)
        now = (state.signal.phase, state.signal.in_amber)
        if runs and runs[-1][0] == now:
            runs[-1][1] += 1
        else:
            runs.append([now, 1])
    return runs


@pytest.mark.parametrize("min_green, amber_duration", [(5.0, 4.0), (4.0, 5.0)])
@pytest.mark.parametrize("time_step", [0.1, 0.2, 0.3, 0.7, 1.0, 2.0])
def test_green_and_amber_last_the_least_steps_covering_them(
        time_step, min_green, amber_duration):
    # at 0.1 s fifty float additions of 0.1 give 4.999999999999998, which
    # held a 5 s timer for 51 steps when the timers were float sums
    cfg = SimConfig(time_step=time_step, min_green=min_green,
                    amber_duration=amber_duration)
    green = least_steps(cfg.min_green, time_step)
    amber = least_steps(cfg.amber_duration, time_step)
    runs = signal_runs(cfg, 3 * (green + amber + 1))
    # the first green's timer starts at the first step; a later green's
    # starts on the step after the one that ended the amber, which is
    # green already
    assert runs[:5] == [[(Phase.NS_GREEN, False), green],
                        [(Phase.NS_GREEN, True), amber],
                        [(Phase.EW_GREEN, False), green + 1],
                        [(Phase.EW_GREEN, True), amber],
                        [(Phase.NS_GREEN, False), green + 1]]


def float_timer_runs(cfg, steps):
    """``signal_runs`` of a signal whose timers are float sums of the time
    step, as they were before the signal counted steps."""
    phase, in_amber, phase_elapsed, amber_elapsed = Phase.NS_GREEN, False, 0.0, 0.0
    runs = []
    for _ in range(steps):
        if in_amber:
            amber_elapsed += cfg.time_step
            phase_elapsed += cfg.time_step
            if amber_elapsed >= cfg.amber_duration:
                phase, in_amber = phase.opposite, False
                amber_elapsed = phase_elapsed = 0.0
        elif phase_elapsed >= cfg.min_green:
            in_amber, amber_elapsed = True, 0.0
        else:
            phase_elapsed += cfg.time_step
        if runs and runs[-1][0] == (phase, in_amber):
            runs[-1][1] += 1
        else:
            runs.append([(phase, in_amber), 1])
    return runs


@pytest.mark.parametrize("min_green, amber_duration",
                         [(5.0, 4.0), (1.0, 1.0), (7.0, 3.0), (2.5, 1.5)])
def test_step_timers_change_nothing_at_one_second(min_green, amber_duration):
    cfg = SimConfig(min_green=min_green, amber_duration=amber_duration)
    assert signal_runs(cfg, 300) == float_timer_runs(cfg, 300)


def test_full_cycle_returns_to_start_phase():
    cfg = SimConfig()
    state = SimState.initial(cfg)
    seen = [state.signal.phase]
    for _ in range(200):
        signal_step(state, Command.SWITCH, cfg)
        if not state.signal.in_amber and state.signal.phase is not seen[-1]:
            seen.append(state.signal.phase)
    assert seen[:3] == [Phase.NS_GREEN, Phase.EW_GREEN, Phase.NS_GREEN]


# ---------------------------------------------------------------------------
# metrics_snapshot
# ---------------------------------------------------------------------------

def test_metrics_empty_state_has_null_means():
    cfg = SimConfig()
    state = SimState.initial(cfg)
    m = metrics_snapshot(state)
    assert m.wait_all is None
    assert m.wait_detected is None
    assert m.wait_undetected is None
    assert m.exited_all == 0


def test_metrics_hand_built_two_exits():
    cfg = SimConfig()
    state = SimState.initial(cfg)
    state.exited_wait_detected = 4.0 + 6.0
    state.exited_n_detected = 2
    state.spawned_count = 2
    assert state.exited_count == 2  # the two classes' exits
    m = metrics_snapshot(state)
    assert m.wait_detected == pytest.approx(5.0)
    assert m.wait_all == pytest.approx(5.0)
    assert m.wait_undetected is None
    assert m.exited_detected == 2


def test_metrics_full_detection_classes_coincide():
    cfg = scenario_preset("medium", detection_rate=1.0, rng_seed=5)
    state = SimState.initial(cfg)
    rng = random.Random(1)
    for _ in range(900):
        cmd = Command.SWITCH if rng.random() < 0.2 else Command.KEEP
        signal_step(state, cmd, cfg)
        spawn_step(state, cfg)
        kinematics_step(state, cfg)
    m = metrics_snapshot(state)
    assert m.exited_undetected == 0
    assert m.wait_undetected is None
    assert m.wait_all == m.wait_detected
    assert m.exited_all > 50


def test_queue_lengths_count_stopped_vehicles():
    cfg = SimConfig(arrival_rate=0.0)
    state = SimState.initial(cfg)
    state.signal.phase = Phase.EW_GREEN
    state.lanes[Approach.NORTH].append(make_vehicle(40.0, 0.0))
    state.lanes[Approach.NORTH].append(
        make_vehicle(80.0, cfg.vmax_default))
    state.spawned_count = 2
    assert road_census(state, cfg).queue == 1
    queues = queue_lengths(state, cfg)
    assert queues[APPROACHES.index(Approach.NORTH)] == 1
    assert queues[APPROACHES.index(Approach.EAST)] == 0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["sparse", "medium", "dense"])
def test_invariants_hold_on_random_episodes(preset):
    cmd_rng = random.Random(17)
    for seed in range(2):
        cfg = scenario_preset(preset, rng_seed=seed)
        run_checked_episode(cfg, steps=600, command_rng=cmd_rng)


@st.composite
def sim_configs(draw):
    """Any valid config: geometry, dynamics, signal timing and rates."""
    return SimConfig(
        lane_length=draw(st.floats(5.0, 500.0)),
        vehicle_length=draw(st.floats(1.0, 12.0)),
        min_gap=draw(st.floats(0.1, 6.0)),
        vmax_default=draw(st.floats(1.0, 40.0)),
        accel=draw(st.floats(0.1, 6.0)),
        decel=draw(st.floats(0.5, 10.0)),
        amber_duration=draw(st.floats(0.5, 8.0)),
        min_green=draw(st.floats(0.5, 30.0)),
        time_step=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0, 3.0])),
        arrival_rate=draw(st.floats(0.0, 1.5)),
        detection_rate=draw(st.floats(0.0, 1.0)),
        wait_speed_threshold=draw(st.floats(0.01, 3.0)),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(config=sim_configs(), steps=st.integers(1, 300),
       switch_prob=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       command_seed=st.integers(0, 2**32 - 1))
def test_invariants_hold_on_random_valid_configs(config, steps, switch_prob,
                                                 command_seed):
    run_checked_episode(config, steps=steps,
                        command_rng=random.Random(command_seed),
                        switch_prob=switch_prob)


def test_identical_seed_and_commands_reproduce_exactly():
    def run(seed):
        cfg = scenario_preset("medium", rng_seed=seed)
        state = SimState.initial(cfg)
        cmd_rng = random.Random(99)
        trace = []
        for _ in range(400):
            cmd = Command.SWITCH if cmd_rng.random() < 0.25 else Command.KEEP
            signal_step(state, cmd, cfg)
            spawn_step(state, cfg)
            kinematics_step(state, cfg)
            trace.append((
                state.spawned_count, state.exited_count,
                state.exited_wait_detected, state.exited_wait_undetected,
            ))
        positions = [(v.position, v.speed) for v in vehicles(state)]
        return trace, positions

    assert run(5) == run(5)
    trace_a, _ = run(5)
    trace_b, _ = run(6)
    assert trace_a != trace_b


def test_approach_axis_mapping():
    assert approach_axis(Approach.NORTH) == NS
    assert approach_axis(Approach.SOUTH) == NS
    assert approach_axis(Approach.EAST) == EW
    assert approach_axis(Approach.WEST) == EW
    assert served_axis(Phase.NS_GREEN) == NS
    assert served_axis(Phase.EW_GREEN) == EW
    assert Phase.NS_GREEN.opposite is Phase.EW_GREEN


def test_lanes_hold_vehicles_by_approach():
    cfg = SimConfig(arrival_rate=0.0)
    state = SimState.initial(cfg)
    veh = make_vehicle(30.0, 1.0)
    state.lanes[Approach.WEST].append(veh)
    assert list(vehicles(state)) == [veh]
    assert state.lanes[Approach.WEST] == [veh]
    assert state.vehicle_count() == 1
