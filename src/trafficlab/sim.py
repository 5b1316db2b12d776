"""Microscopic simulation of a four-approach, single-lane signalized intersection.

Vehicles arrive per approach by Poisson draws, follow their leader under a
hard safe-stopping rule up to the config's ``vmax_default``, and are
tagged at spawn as detected or undetected with a configurable probability.
The two-phase signal (plus amber transitions) is driven externally through
keep/switch commands, one per time step.

All step functions mutate the given :class:`SimState` in place.
``signal_step`` and ``spawn_step`` return the state; ``kinematics_step``
returns the post-step :class:`RoadCensus` it takes in the same walk. No
other function here walks the road for a census: a reset road is empty,
and ``metrics_snapshot`` reads only the exit totals. A state is strictly
single-threaded but cheap to create, so parallel experiments simply use
one state each.

Time is a count of steps: ``SimState.steps``, the signal's timers and a
vehicle's ``cumulative_wait`` count steps, and a time in seconds (the
state's ``clock``, a timer, a wait) is its count times ``time_step``.

A red or amber lane on which every vehicle stood still (ended a step at
speed 0.0) stands still again until it turns green or gains a vehicle:
the front vehicle's budget is its unchanged position, and each
follower's is unchanged because its leader did not move.
``kinematics_step`` therefore freezes such a lane: it keeps a
:class:`FrozenLane` record of the lane's census and of the step at which
it froze, and walks none of its vehicles until green or an arrival thaws
it; each step since is a wait step of each vehicle, which thawing settles
into its count. ``SimState.entered_waits`` is the one wait census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import IntEnum

import numpy as np


class Approach(IntEnum):
    """One incoming road of the intersection."""

    NORTH = 0
    SOUTH = 1
    EAST = 2
    WEST = 3


APPROACHES = (Approach.NORTH, Approach.SOUTH, Approach.EAST, Approach.WEST)


class Phase(IntEnum):
    NS_GREEN = 0
    EW_GREEN = 1

    @property
    def opposite(self) -> "Phase":
        return Phase.EW_GREEN if self is Phase.NS_GREEN else Phase.NS_GREEN


class Command(IntEnum):
    """Signal command: hold the current phase or start a phase change."""

    KEEP = 0
    SWITCH = 1


PRESET_ARRIVAL_RATES = {"sparse": 0.02, "medium": 0.10, "dense": 0.25}


# the kinds a value must be of exactly: a bool is no int, and a str
# subclass or bytes no str
_EXACT_KINDS = {"int": (int, "an int"), "str": (str, "a str")}


def check_value(name: str, kind: str, value, finite: bool = True) -> None:
    """Refuse, by ``name``, a ``value`` not of ``kind``, a config annotation:
    a count (``int``) is an int, a number (``float``) an int or a float,
    finite unless ``finite`` is false; a bool is neither. A ``str`` is a
    str. ``int | None`` also takes None, and ``list[...]`` is a list of its
    item kind. Any other kind names a class (``dict``, ``SimConfig``), of
    which ``value`` is an instance."""
    if kind.startswith("list["):
        if type(value) is not list:
            raise ValueError(f"{name} must be a list, got {value!r}")
        for item in value:
            check_value(name, kind[5:-1], item, finite)
    elif kind == "int | None":
        if value is not None:
            check_value(name, "int", value)
    elif kind in _EXACT_KINDS:
        cls, what = _EXACT_KINDS[kind]
        if type(value) is not cls:
            raise ValueError(f"{name} must be {what}, got {value!r}")
    elif kind == "float":
        if type(value) is bool or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if finite and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    elif all(cls.__name__ != kind for cls in type(value).__mro__):
        raise ValueError(f"{name} must be a {kind}, got {value!r}")


def check_seed(seed) -> int:
    """``seed``, refused by name unless it is an int of at least 0."""
    check_value("seed", "int", seed)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed!r}")
    return seed


def check_fields(config, infinite: tuple[str, ...] = ()) -> None:
    """``check_value`` on each field of ``config``; ``infinite`` may be inf.
    A number, and each item of a list of numbers, is stored as a float, so
    an int spelling writes what its float does wherever it is written."""
    for f in fields(config):
        value = getattr(config, f.name)
        check_value(f.name, f.type, value, f.name not in infinite)
        if f.type == "float":
            setattr(config, f.name, float(value))
        elif f.type == "list[float]":
            setattr(config, f.name, [float(v) for v in value])


@dataclass
class SimConfig:
    """Physical and stochastic knobs of the intersection model.

    Distances in meters, times in seconds, speeds in m/s. ``arrival_rate``
    is vehicles per second per approach; ``detection_rate`` is the
    probability that a spawning vehicle is observable by the controller.
    """

    lane_length: float = 150.0
    vmax_default: float = 13.89
    accel: float = 2.0
    decel: float = 4.5
    vehicle_length: float = 5.0
    min_gap: float = 2.5
    amber_duration: float = 4.0
    min_green: float = 5.0
    time_step: float = 1.0
    arrival_rate: float = 0.10
    detection_rate: float = 1.0
    wait_speed_threshold: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("lane_length", "vmax_default", "accel", "decel",
                     "vehicle_length", "min_gap", "amber_duration",
                     "min_green", "time_step", "wait_speed_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("arrival_rate", "rng_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        # spawn_step draws arrivals by numpy's Poisson method for a mean
        # below 10; a lane admits at most one vehicle per step anyway
        if self.arrival_rate * self.time_step >= 10.0:
            raise ValueError("arrival_rate * time_step must be below 10 "
                             "(mean arrivals per approach per step)")
        if not 0.0 <= self.detection_rate <= 1.0:
            raise ValueError("detection_rate must lie in [0, 1]")

    @property
    def lane_capacity(self) -> int:
        """Vehicles that fit on one approach when fully queued."""
        return int(self.lane_length // (self.vehicle_length + self.min_gap))


def scenario_preset(name: str, **overrides) -> SimConfig:
    """Build a SimConfig for one of the named flow presets.

    Presets differ only in ``arrival_rate``; geometry and dynamics are
    shared. Extra keyword overrides are applied on top.
    """
    try:
        rate = PRESET_ARRIVAL_RATES[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario preset {name!r}; expected one of "
            f"{sorted(PRESET_ARRIVAL_RATES)}"
        ) from None
    return SimConfig(arrival_rate=rate, **overrides)


@dataclass(slots=True)
class Vehicle:
    """One car on an approach.

    ``position`` is meters from the front bumper to the stop line and only
    decreases; ``speed`` is at most the config's ``vmax_default``, every
    vehicle's top speed; ``detected`` is fixed at spawn; ``cumulative_wait``
    counts the time steps it ended below the wait speed threshold, except
    the steps its lane has been held frozen since (see :class:`FrozenLane`);
    its wait in seconds is their sum times ``time_step``.
    """

    position: float
    speed: float
    detected: bool
    cumulative_wait: int = 0


@dataclass(slots=True)
class SignalState:
    """The phase and its timers: the steps of the phase, amber included,
    and those of the amber."""

    phase: Phase = Phase.NS_GREEN
    in_amber: bool = False
    phase_steps: int = 0
    amber_steps: int = 0


@dataclass
class Metrics:
    """Per-class waiting-time snapshot over exited vehicles.

    Means are ``None`` while the corresponding class has no exits yet.
    """

    wait_all: float | None
    wait_detected: float | None
    wait_undetected: float | None
    exited_all: int
    exited_detected: int
    exited_undetected: int


@dataclass(slots=True)
class FrozenLane:
    """A lane held standing still by ``kinematics_step``: its census
    entries, the count of detected vehicles and the position of the nearest
    one (``None`` if none), and ``since``, the ``SimState.steps`` at which
    it froze: each vehicle of it has waited ``steps - since`` steps beyond
    its count. Every vehicle queues, and each detected one adds 1.0 to the
    deficit."""

    detected: int
    nearest: float | None
    since: int


UNIFORM_BLOCK = 256  # uniforms drawn from a state's rng per refill


@dataclass
class SimState:
    """Complete mutable state of one simulation instance.

    ``spawn_step`` takes its random draws from a stream of uniforms:
    ``uniforms`` is the current block of ``UNIFORM_BLOCK`` values that
    ``rng`` filled and ``uniform_index`` the next unused one (a new state
    starts with no block and the index at ``UNIFORM_BLOCK``, so its first
    draw fills one). ``rng`` thus runs up to one block ahead of the draws
    used; nothing else may draw from it.

    ``frozen`` holds each approach's :class:`FrozenLane` record in
    ``APPROACHES`` order, or ``None`` while its lane is walked (see
    ``kinematics_step``), and ``time_step`` the config's time step, the
    seconds of one step. A frozen record holds while its lane is changed
    by the step functions only: ``spawn_step`` thaws a lane before a
    vehicle enters it.
    """

    steps: int
    signal: SignalState
    lanes: dict[Approach, list[Vehicle]]
    pending: dict[Approach, int]
    spawned_count: int
    spawned_detected_count: int
    exited_wait_detected: float
    exited_n_detected: int
    exited_wait_undetected: float
    exited_n_undetected: int
    rng: np.random.Generator
    uniforms: list[float] = field(repr=False)
    uniform_index: int = field(repr=False)
    frozen: list[FrozenLane | None] = field(repr=False)
    time_step: float = field(repr=False)

    @classmethod
    def initial(cls, config: SimConfig, seed: int | None = None) -> "SimState":
        """Empty intersection at step 0, NS green, fresh RNG stream."""
        return cls(
            steps=0,
            signal=SignalState(),
            lanes={a: [] for a in APPROACHES},
            pending={a: 0 for a in APPROACHES},
            spawned_count=0,
            spawned_detected_count=0,
            exited_wait_detected=0.0,
            exited_n_detected=0,
            exited_wait_undetected=0.0,
            exited_n_undetected=0,
            rng=np.random.default_rng(
                config.rng_seed if seed is None else check_seed(seed)),
            uniforms=[],
            uniform_index=UNIFORM_BLOCK,
            frozen=[None] * len(APPROACHES),
            time_step=config.time_step,
        )

    @property
    def clock(self) -> float:
        """The simulated seconds: ``steps * time_step``."""
        return self.steps * self.time_step

    @property
    def exited_count(self) -> int:
        return self.exited_n_detected + self.exited_n_undetected

    def vehicle_count(self) -> int:
        return sum(len(lane) for lane in self.lanes.values())

    def thaw(self, approach: Approach) -> None:
        """Settle ``approach``'s lane if it is frozen: add the steps since
        it froze to each of its vehicles' wait steps and drop its record,
        so the next ``kinematics_step`` walks it."""
        frozen = self.frozen[approach]
        if frozen is not None:
            self.frozen[approach] = None
            held = self.steps - frozen.since
            if held:
                for veh in self.lanes[approach]:
                    veh.cumulative_wait += held

    def exit_totals(self) -> tuple[float, int, float, int]:
        """The exited vehicles' per-class wait totals and counts: detected
        wait, detected count, undetected wait, undetected count."""
        return (self.exited_wait_detected, self.exited_n_detected,
                self.exited_wait_undetected, self.exited_n_undetected)

    def entered_waits(self, since: tuple[float, int, float, int] = (
            0.0, 0, 0.0, 0)) -> tuple[float, int, float, int]:
        """Per-class wait totals and counts, laid out as ``exit_totals``,
        of the vehicles that exited after ``since`` (an earlier
        ``exit_totals()``; by default, the start) plus those on the road,
        added front to back in ``APPROACHES`` order: so a mean over them
        covers every vehicle that entered, and a starved approach cannot
        hide. A wait is a vehicle's wait steps, frozen ones included, times
        ``time_step``."""
        wait_det, n_det, wait_undet, n_undet = (
            now - then for now, then in zip(self.exit_totals(), since))
        for approach, frozen in zip(APPROACHES, self.frozen):
            held = 0 if frozen is None else self.steps - frozen.since
            for veh in self.lanes[approach]:
                wait = (veh.cumulative_wait + held) * self.time_step
                if veh.detected:
                    wait_det += wait
                    n_det += 1
                else:
                    wait_undet += wait
                    n_undet += 1
        return wait_det, n_det, wait_undet, n_undet


@dataclass(slots=True)
class RoadCensus:
    """What a controller's reward and observation read of the road, and the
    road's queue: the sum of (vmax - v) / vmax over the detected vehicles;
    per approach in ``APPROACHES`` order, the detected vehicles and the
    position of the nearest one (``None`` if none); and the vehicles on
    the whole road below the wait speed."""

    detected_deficit: float
    detected_counts: list[int]
    nearest_detected: list[float | None]
    queue: int


def _braking_limited_speed(distance: float, decel: float, dt: float) -> float:
    """Fastest speed drivable for one step that still allows a full stop
    within ``distance`` afterwards at ``decel``."""
    if distance <= 0.0:
        return 0.0
    return -decel * dt + math.sqrt(decel * decel * dt * dt + 2.0 * decel * distance)


def spawn_step(state: SimState, config: SimConfig) -> SimState:
    """Draw Poisson arrivals per approach and insert them at the lane entrance.

    Arrivals blocked by a vehicle too close to the entrance stay queued
    (never dropped) and retry next step. The detected flag is drawn at the
    moment a vehicle actually enters, so a detection rate changed between
    steps applies to everything spawned afterwards. A frozen lane is
    thawed (``SimState.thaw``) before a vehicle enters it.

    Every draw is taken from the state's stream of uniforms (see
    :class:`SimState`), refilled from ``state.rng`` a block at a time. An
    arrival count is numpy's Poisson method for a mean below 10, written
    out: multiply uniforms while the product exceeds ``exp(-mean)``; a
    mean of 0 draws nothing. A detected flag is ``u < detection_rate``.
    The values and their order are those of calling ``rng.poisson`` and
    ``rng.random`` once per draw, but ``state.rng`` runs up to one block
    ahead of the draws used, so nothing else may draw from it.
    """
    lam = config.arrival_rate * config.time_step
    limit = math.exp(-lam)
    lane_length = config.lane_length
    vmax = config.vmax_default
    detection_rate = config.detection_rate
    entry_margin = config.vehicle_length + config.min_gap
    uniforms = state.uniforms
    i = state.uniform_index
    for approach in APPROACHES:
        arrivals = state.pending[approach]
        if lam != 0.0:
            product = 1.0
            while True:
                if i == UNIFORM_BLOCK:
                    uniforms = state.uniforms = state.rng.random(UNIFORM_BLOCK).tolist()
                    i = 0
                product *= uniforms[i]
                i += 1
                if not product > limit:
                    break
                arrivals += 1
        lane = state.lanes[approach]
        while arrivals > 0:
            if lane:
                rear = lane[-1]
                if lane_length - rear.position < entry_margin:
                    break  # entrance occupied; retry next step
                headroom = lane_length - rear.position - entry_margin
                speed = min(vmax, _braking_limited_speed(headroom, config.decel,
                                                         config.time_step))
            else:
                speed = vmax
            if i == UNIFORM_BLOCK:
                uniforms = state.uniforms = state.rng.random(UNIFORM_BLOCK).tolist()
                i = 0
            detected = uniforms[i] < detection_rate
            i += 1
            if state.frozen[approach] is not None:
                state.thaw(approach)
            lane.append(Vehicle(lane_length, speed, detected))
            state.spawned_count += 1
            if detected:
                state.spawned_detected_count += 1
            arrivals -= 1
        state.pending[approach] = arrivals
    state.uniform_index = i
    return state


def _plus_ones(total: float, k: int) -> float:
    """``total`` (not negative) with 1.0 added ``k`` times, each addition
    rounded. Below 2**53, where the unit in the last place is at most 1:
    if ``s = total + k`` is exact, every partial sum is a multiple of the
    ulp of ``s`` and at most ``s``, so exact too, and one addition gives
    the same float; and ``s - k`` is exact for the same reason, so it
    equals ``total`` only if ``s`` is exact."""
    s = total + k
    if s < 9007199254740992.0 and s - k == total:  # 2**53
        return s
    for _ in range(k):
        total += 1.0
    return total


def kinematics_step(state: SimState, config: SimConfig) -> RoadCensus:
    """Advance every vehicle by one time step and count the step; return
    the post-step road census taken in the same walk.

    Front-to-back per lane: each vehicle accelerates toward the config's
    ``vmax_default``, every vehicle's top speed, capped by the speed that
    still lets it stop within its budget, the room to its leader's new rear
    plus the minimum gap. The front vehicle's leader stands at ``-spacing``
    without green (a budget of ``pos``, the room to the stop line) and at
    ``-inf`` with it. A vehicle whose new position crosses the stop line
    exits and books its wait steps times the time step into the per-class
    accumulators (a walked lane holds no frozen record, so its vehicles'
    counts hold every wait step). A vehicle that ends the step below the
    wait speed threshold adds one step to its ``cumulative_wait`` and
    queues. A
    vehicle with no positive budget (most of a red queue) takes a short
    branch with the full update's values: speed 0.0, position ``pos - 0.0
    * dt == pos`` (not negative, so it stays), a wait step and a queue
    place (the threshold is positive) and, if detected, a deficit of
    ``(vmax - 0.0) / vmax == 1.0``.

    A lane on which every vehicle ended the step at speed 0.0 is frozen
    (no green lane is: its front vehicle always moves). Such a vehicle
    stayed where it stood: it took the short branch, or its braking cap
    was exactly 0.0, a budget too small to move in one step, which is how
    most of a red queue stands at a time step of 0.1 s. The lane gets a
    :class:`FrozenLane` record of its detected count, nearest detected
    position and step count. While it has no green it stands still again,
    step after step, with the same values, because nothing its update
    reads changes:

    - each vehicle's speed is 0.0 and its position is the one it kept;
    - the front vehicle's budget is that position, and each follower's
      budget reads only its leader's position, which did not move.

    So a frozen lane without green is not walked: each of its detected
    vehicles adds 1.0 to the deficit in lane order, its census entries are
    the record's, and the lane's length adds to the queue (every vehicle
    queues). Green thaws the lane (``SimState.thaw`` settles the steps
    since it froze into its vehicles' counts) and it is walked again; so
    does an arrival, in ``spawn_step``.

    The exits of a lane are always its front vehicles: a follower of a
    vehicle that stays ends at least ``spacing`` behind that vehicle's new
    position (which is not negative) or where it stood, so it stays too.
    They are removed with one slice deletion. The returned
    :class:`RoadCensus` covers the staying vehicles, visited front to back
    in ``APPROACHES`` order; its deficit is summed vehicle by vehicle in
    that order.

    Every vehicle on the road must stand at a position of at least 0, as
    in every state the simulator builds (``tests/invariant_checks.py``
    checks it on simulated states). Given that, the ``-spacing`` sentinel
    alone holds a red lane behind the line: the front vehicle's budget is
    its position and each follower's is less than its own, so none exits.
    The short branch relies on it too: it keeps a vehicle where it stands,
    so a hand-placed vehicle at a negative position with no budget would
    stay on the road instead of exiting.
    """
    dt = config.time_step
    accel_dt = config.accel * dt
    # the terms of _braking_limited_speed, in its order of operations
    neg_decel_dt = -config.decel * dt
    decel_sq_dt_sq = config.decel * config.decel * dt * dt
    two_decel = 2.0 * config.decel
    vmax = config.vmax_default
    spacing = config.vehicle_length + config.min_gap
    threshold = config.wait_speed_threshold
    sig = state.signal
    ns_green = not sig.in_amber and sig.phase == Phase.NS_GREEN
    ew_green = not sig.in_amber and sig.phase == Phase.EW_GREEN
    detected_deficit = 0.0
    total_queue = 0
    counts, nearest = [], []
    lanes = state.lanes
    frozen_lanes = state.frozen
    for approach, green, frozen in zip(
            APPROACHES, (ns_green, ns_green, ew_green, ew_green), frozen_lanes):
        lane = lanes[approach]
        if not lane:  # not frozen: vehicles leave a lane only in a walk
            counts.append(0)
            nearest.append(None)
            continue
        if frozen is not None:
            if not green:  # stands still again
                count = frozen.detected
                detected_deficit = _plus_ones(detected_deficit, count)
                counts.append(count)
                nearest.append(frozen.nearest)
                total_queue += len(lane)
                continue
            state.thaw(approach)
        exits = count = queue = 0
        near = None
        leader_new_pos = -math.inf if green else -spacing
        for veh in lane:
            pos = veh.position
            budget = pos - (leader_new_pos + spacing)
            if not budget > 0.0:  # stopped where it stands
                veh.speed = 0.0
                veh.cumulative_wait += 1
                queue += 1
                leader_new_pos = pos
                if veh.detected:
                    if near is None:
                        near = pos
                    count += 1
                    detected_deficit += 1.0
                continue
            new_speed = veh.speed + accel_dt
            if not new_speed < vmax:
                new_speed = vmax
            cap = neg_decel_dt + math.sqrt(decel_sq_dt_sq + two_decel * budget)
            if cap < new_speed:
                new_speed = cap
            new_pos = pos - new_speed * dt
            if new_pos < pos - budget:
                new_pos = pos - budget  # float-noise guard
            veh.speed = new_speed
            leader_new_pos = new_pos
            if new_pos < 0.0:
                exits += 1
                if veh.detected:
                    state.exited_wait_detected += veh.cumulative_wait * dt
                    state.exited_n_detected += 1
                else:
                    state.exited_wait_undetected += veh.cumulative_wait * dt
                    state.exited_n_undetected += 1
                continue
            veh.position = new_pos
            if new_speed < threshold:
                veh.cumulative_wait += 1
                queue += 1
            if veh.detected:
                if near is None:
                    near = new_pos
                count += 1
                detected_deficit += (vmax - new_speed) / vmax
        if exits:
            del lane[:exits]
        elif queue == len(lane) and all(v.speed == 0.0 for v in lane):
            # every vehicle queued, and each one stood where it was; the
            # record counts from the step this one ends
            frozen_lanes[approach] = FrozenLane(count, near, state.steps + 1)
        counts.append(count)
        nearest.append(near)
        total_queue += queue
    state.steps += 1
    return RoadCensus(detected_deficit, counts, nearest, total_queue)


def signal_step(state: SimState, command: Command, config: SimConfig) -> SimState:
    """Drive the two-phase signal machine by one step.

    Amber ignores commands and auto-completes into the opposite green.
    A switch command is honored only once the green has lasted min_green;
    otherwise the phase simply ages. A timer lasts the least ``k`` steps
    with ``k * time_step`` at least its duration.
    """
    sig = state.signal
    dt = config.time_step
    if sig.in_amber:
        sig.amber_steps += 1
        sig.phase_steps += 1
        if sig.amber_steps * dt >= config.amber_duration:
            sig.phase = sig.phase.opposite
            sig.in_amber = False
            sig.amber_steps = 0
            sig.phase_steps = 0
    elif command == Command.SWITCH and sig.phase_steps * dt >= config.min_green:
        sig.in_amber = True
        sig.amber_steps = 0
    else:
        sig.phase_steps += 1
    return state


def class_means(wait_det: float, n_det: int, wait_undet: float,
                n_undet: int) -> tuple[float | None, ...]:
    """The (all, detected, undetected) mean waits of per-class wait totals
    and vehicle counts; a mean over no vehicles is ``None``."""
    n_all = n_det + n_undet
    return ((wait_det + wait_undet) / n_all if n_all else None,
            wait_det / n_det if n_det else None,
            wait_undet / n_undet if n_undet else None)


def metrics_snapshot(state: SimState) -> Metrics:
    """Mean waiting time per detection class over exited vehicles, read
    from the state's exit totals (the road is not walked)."""
    totals = state.exit_totals()
    wait_all, wait_det, wait_undet = class_means(*totals)
    _, n_det, _, n_undet = totals
    return Metrics(
        wait_all=wait_all,
        wait_detected=wait_det,
        wait_undetected=wait_undet,
        exited_all=n_det + n_undet,
        exited_detected=n_det,
        exited_undetected=n_undet,
    )
