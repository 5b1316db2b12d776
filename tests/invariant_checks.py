"""Step-level invariant checks for the intersection simulator.

Shared between the unit suite and the acceptance suite: a driver runs
episodes with random commands and calls the checker after every composite
step.
"""

from sim_oracle import SpawnOrder, approach_axis, axis_has_green, vehicles
from trafficlab.sim import (
    APPROACHES,
    Command,
    SimConfig,
    SimState,
    kinematics_step,
    signal_step,
    spawn_step,
)


class InvariantViolation(AssertionError):
    pass


def check_state(state: SimState, config: SimConfig) -> None:
    """Structural invariants that must hold after any step."""
    onroad = state.vehicle_count()
    if state.spawned_count != state.exited_count + onroad:
        raise InvariantViolation(
            f"conservation broken: spawned={state.spawned_count} "
            f"exited={state.exited_count} onroad={onroad}"
        )
    for approach in APPROACHES:
        lane = state.lanes[approach]
        for veh in lane:
            if not (-1e-9 <= veh.speed <= config.vmax_default + 1e-9):
                raise InvariantViolation(f"speed out of bounds: {veh}")
            if veh.position < -1e-9:
                raise InvariantViolation(f"on-road vehicle past stop line: {veh}")
        for leader, follower in zip(lane, lane[1:]):
            gap = follower.position - (leader.position + config.vehicle_length)
            if gap < config.min_gap - 1e-9:
                raise InvariantViolation(
                    f"gap {gap:.6f} < min_gap on {approach.name}: "
                    f"leader={leader} follower={follower}"
                )
    sig = state.signal
    # an amber that has lasted amber_duration has ended
    if sig.in_amber and not (
            0 <= sig.amber_steps
            and sig.amber_steps * config.time_step < config.amber_duration):
        raise InvariantViolation(f"amber_steps out of range: {sig}")
    if sig.phase_steps < 0:
        raise InvariantViolation(f"negative phase_steps: {sig}")
    for approach, frozen in zip(APPROACHES, state.frozen):
        if frozen is None:
            continue
        if not 0 < frozen.since <= state.steps:
            raise InvariantViolation(f"frozen since a step not taken: {frozen}")
        if any(v.speed != 0.0 for v in state.lanes[approach]):
            raise InvariantViolation(f"frozen {approach.name} lane moves")


def run_checked_episode(
    config: SimConfig,
    steps: int,
    command_rng,
    switch_prob: float = 0.2,
) -> SimState:
    """Run one episode with random commands, checking invariants every step.

    Also enforces red-light compliance (a vehicle may only leave its lane
    while its axis has green) and detection-flag immutability, following
    each vehicle by its spawn number. The step count must be the steps
    taken and the clock that count times the time step, exactly. No lane
    that a step walks may hold a frozen record after it, save one made by
    that step: an exit books its wait steps without one.
    """
    state = SimState.initial(config)
    order = SpawnOrder()
    detected_at_spawn: dict[int, bool] = {}
    expected_steps = 0
    for _ in range(steps):
        cmd = Command.SWITCH if command_rng.random() < switch_prob else Command.KEEP
        signal_step(state, cmd, config)
        spawn_step(state, config)
        order.update(state)
        for veh in vehicles(state):
            if order[veh] not in detected_at_spawn:
                detected_at_spawn[order[veh]] = veh.detected
        before = {a: [order[v] for v in state.lanes[a]] for a in APPROACHES}
        green = {
            a: axis_has_green(state.signal, approach_axis(a)) for a in APPROACHES
        }
        frozen_before = list(state.frozen)
        kinematics_step(state, config)
        for approach, was_frozen in zip(APPROACHES, frozen_before):
            remaining = {order[v] for v in state.lanes[approach]}
            exited_here = [vid for vid in before[approach] if vid not in remaining]
            if exited_here and not green[approach]:
                raise InvariantViolation(
                    f"vehicles {exited_here} crossed on non-green {approach.name}"
                )
            frozen = state.frozen[approach]
            if was_frozen is not None and not green[approach]:
                # not walked: the lane stands still and keeps its record
                if frozen is not was_frozen:
                    raise InvariantViolation(
                        f"{approach.name} lost its frozen record on red")
            elif frozen is not None and (exited_here
                                         or frozen.since != state.steps):
                raise InvariantViolation(
                    f"walked {approach.name} lane holds a frozen record "
                    f"{frozen} at step {state.steps}")
        for veh in vehicles(state):
            if veh.detected != detected_at_spawn[order[veh]]:
                raise InvariantViolation(f"detected flag mutated: {veh}")
        expected_steps += 1
        if (state.steps != expected_steps
                or state.clock != expected_steps * config.time_step):
            raise InvariantViolation(
                f"clock drift: {state.steps} steps, {state.clock} s after "
                f"{expected_steps} steps of {config.time_step} s"
            )
        check_state(state, config)
    return state
