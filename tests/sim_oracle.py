"""Per-vehicle reference versions of the env step's road walks and draws.

These are the plain loops the simulator used before its kinematics loop
was hoisted, its reward, observation and queue passes were folded into
one road census, and its spawn draws were taken from a block-filled
stream of uniforms. Tests drive them in lockstep with the real step and
require bit-identical results. ``road_census`` is the one census walker:
the simulator takes its census inside ``kinematics_step`` only. Every
vehicle's top speed is the config's ``vmax_default``.

``SpawnOrder`` rebuilds the vehicle numbers a vehicle no longer carries,
for tests that follow vehicles across steps. ``settled_waits`` is the
wait census out of per-vehicle step counts, for references that must not
read waits through the census under test.
"""

import math

import numpy as np

from trafficlab.env import (
    AMBER_SLOT,
    N_COUNT_SLOTS,
    PHASE_SLOT,
    PHASE_TIME_SLOT,
)
from trafficlab.sim import APPROACHES, Approach, Phase, RoadCensus, Vehicle

NS, EW = "ns", "ew"  # the two axes of the intersection


def approach_axis(approach):
    return NS if approach in (Approach.NORTH, Approach.SOUTH) else EW


def served_axis(phase):
    return NS if phase is Phase.NS_GREEN else EW


def axis_has_green(signal, axis):
    return not signal.in_amber and served_axis(signal.phase) == axis


class SpawnOrder:
    """Vehicle numbers rebuilt from spawn order: 0 for the first vehicle
    that entered the road, 1 for the next, and so on.

    ``update(state)`` numbers the vehicles that entered since the last
    call: ``spawn_step`` appends them to the lane tails approach by
    approach, so they are numbered in ``APPROACHES`` order, front to back
    within a lane. It then checks that the next number equals the state's
    ``spawned_count``, so call it after every step, before a vehicle can
    leave unseen. Vehicles are keyed by object identity, and every vehicle
    numbered is kept, so no ``id()`` is reused for a later one.
    """

    def __init__(self):
        self._numbers = {}
        self._vehicles = []

    def update(self, state):
        for approach in APPROACHES:
            for veh in state.lanes[approach]:
                if id(veh) not in self._numbers:
                    self._numbers[id(veh)] = len(self._vehicles)
                    self._vehicles.append(veh)
        assert len(self._vehicles) == state.spawned_count
        return self

    def __getitem__(self, veh):
        return self._numbers[id(veh)]


def vehicles(state):
    """Every vehicle on the road, front to back, lane by lane in
    ``APPROACHES`` order."""
    for approach in APPROACHES:
        yield from state.lanes[approach]


def settled_waits(state, since=(0.0, 0, 0.0, 0)):
    """Per-class wait totals and counts (detected wait, detected count,
    undetected wait, undetected count) of the vehicles that exited after
    ``since``, totals of that layout taken earlier, plus those still on
    the road: each on-road wait is the vehicle's step count times the time
    step. Every frozen lane is thawed first, which settles the steps since
    it froze into its vehicles' counts and changes no later step (a lane
    the oracle walks at every step holds no record to thaw)."""
    for approach in APPROACHES:
        state.thaw(approach)
    wait_det = state.exited_wait_detected - since[0]
    n_det = state.exited_n_detected - since[1]
    wait_undet = state.exited_wait_undetected - since[2]
    n_undet = state.exited_n_undetected - since[3]
    for veh in vehicles(state):
        wait = veh.cumulative_wait * state.time_step
        if veh.detected:
            wait_det += wait
            n_det += 1
        else:
            wait_undet += wait
            n_undet += 1
    return wait_det, n_det, wait_undet, n_undet


def road_census(state, config):
    """Walk every lane once, front to back, in ``APPROACHES`` order; the
    detected deficit is summed vehicle by vehicle in that order. Equals
    the census ``kinematics_step`` returns for the road it has just
    stepped. The undetected deficit and the per-lane queues, which the
    census does not keep, are ``reward_deficits`` and ``queue_lengths``."""
    threshold = config.wait_speed_threshold
    vmax = config.vmax_default
    detected = 0.0
    queue = 0
    counts, nearest = [], []
    for approach in APPROACHES:
        count = 0
        near = None
        for veh in state.lanes[approach]:
            speed = veh.speed
            if speed < threshold:
                queue += 1
            if veh.detected:
                if near is None:
                    near = veh.position
                count += 1
                detected += (vmax - speed) / vmax
        counts.append(count)
        nearest.append(near)
    return RoadCensus(detected, counts, nearest, queue)


def braking_limited_speed(distance, decel, dt):
    if distance <= 0.0:
        return 0.0
    return -decel * dt + math.sqrt(decel * decel * dt * dt + 2.0 * decel * distance)


def spawn_step(state, config):
    """Spawn with one ``rng.poisson`` call per approach and one
    ``rng.random`` call per entering vehicle."""
    rng = state.rng
    lam = config.arrival_rate * config.time_step
    entry_margin = config.vehicle_length + config.min_gap
    for approach in APPROACHES:
        arrivals = state.pending[approach] + int(rng.poisson(lam))
        lane = state.lanes[approach]
        while arrivals > 0:
            if lane:
                rear = lane[-1]
                if config.lane_length - rear.position < entry_margin:
                    break
                headroom = config.lane_length - rear.position - entry_margin
                speed = min(config.vmax_default,
                            braking_limited_speed(headroom, config.decel, config.time_step))
            else:
                speed = config.vmax_default
            detected = rng.random() < config.detection_rate
            lane.append(Vehicle(position=config.lane_length, speed=speed,
                                detected=detected))
            state.spawned_count += 1
            if detected:
                state.spawned_detected_count += 1
            arrivals -= 1
        state.pending[approach] = arrivals
    return state


def kinematics_step(state, config):
    """Walk every vehicle of every lane; a wait is a count of steps, and
    an exit books it as that count times the time step."""
    dt = config.time_step
    accel = config.accel
    decel = config.decel
    spacing = config.vehicle_length + config.min_gap
    threshold = config.wait_speed_threshold
    for approach in APPROACHES:
        lane = state.lanes[approach]
        if not lane:
            continue
        green = axis_has_green(state.signal, approach_axis(approach))
        survivors = []
        leader_new_pos = None
        for veh in lane:
            budget = math.inf
            if leader_new_pos is not None:
                budget = veh.position - (leader_new_pos + spacing)
            if not green:
                budget = min(budget, veh.position)
            new_speed = min(config.vmax_default, veh.speed + accel * dt)
            if budget != math.inf:
                if budget < 0.0:
                    budget = 0.0
                new_speed = min(new_speed, braking_limited_speed(budget, decel, dt))
            new_pos = veh.position - new_speed * dt
            if new_pos < veh.position - budget:
                new_pos = veh.position - budget
            veh.speed = new_speed
            leader_new_pos = new_pos
            if new_pos < 0.0:
                if veh.detected:
                    state.exited_wait_detected += veh.cumulative_wait * dt
                    state.exited_n_detected += 1
                else:
                    state.exited_wait_undetected += veh.cumulative_wait * dt
                    state.exited_n_undetected += 1
            else:
                veh.position = new_pos
                if new_speed < threshold:
                    veh.cumulative_wait += 1
                survivors.append(veh)
        state.lanes[approach] = survivors
    state.steps += 1
    return state


def reward_deficits(state, config):
    """(detected, undetected) normalized speed-deficit sums."""
    vmax = config.vmax_default
    detected = 0.0
    undetected = 0.0
    for veh in vehicles(state):
        deficit = (vmax - veh.speed) / vmax
        if veh.detected:
            detected += deficit
        else:
            undetected += deficit
    return detected, undetected


def observation(state, config):
    sim = config.sim
    capacity = sim.lane_capacity
    obs = np.ones(config.observation_size)
    for i, approach in enumerate(APPROACHES):
        count = 0
        nearest = None
        for veh in state.lanes[approach]:
            if veh.detected:
                count += 1
                if nearest is None:
                    nearest = veh.position
        obs[i] = min(count / capacity, 1.0)
        obs[N_COUNT_SLOTS + i] = 1.0 if nearest is None else min(nearest / sim.lane_length, 1.0)
    obs[PHASE_TIME_SLOT] = state.signal.phase_steps * sim.time_step
    obs[AMBER_SLOT] = 1.0 if state.signal.in_amber else 0.0
    obs[PHASE_SLOT] = float(int(state.signal.phase))
    return obs


def queue_lengths(state, config):
    return [sum(1 for v in state.lanes[a] if v.speed < config.wait_speed_threshold)
            for a in APPROACHES]
