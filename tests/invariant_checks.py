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
    if sig.in_amber and not (0.0 <= sig.amber_elapsed <= config.amber_duration + 1e-9):
        raise InvariantViolation(f"amber_elapsed out of range: {sig}")
    if sig.phase_elapsed < 0:
        raise InvariantViolation(f"negative phase_elapsed: {sig}")


def run_checked_episode(
    config: SimConfig,
    steps: int,
    command_rng,
    switch_prob: float = 0.2,
) -> SimState:
    """Run one episode with random commands, checking invariants every step.

    Also enforces red-light compliance (a vehicle may only leave its lane
    while its axis has green) and detection-flag immutability, following
    each vehicle by its spawn number.
    """
    state = SimState.initial(config)
    order = SpawnOrder()
    detected_at_spawn: dict[int, bool] = {}
    expected_clock = 0.0
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
        kinematics_step(state, config)
        for approach in APPROACHES:
            remaining = {order[v] for v in state.lanes[approach]}
            exited_here = [vid for vid in before[approach] if vid not in remaining]
            if exited_here and not green[approach]:
                raise InvariantViolation(
                    f"vehicles {exited_here} crossed on non-green {approach.name}"
                )
        for veh in vehicles(state):
            if veh.detected != detected_at_spawn[order[veh]]:
                raise InvariantViolation(f"detected flag mutated: {veh}")
        expected_clock += config.time_step
        if abs(state.clock - expected_clock) > 1e-9:
            raise InvariantViolation(
                f"clock drift: {state.clock} != {expected_clock}"
            )
        check_state(state, config)
    return state
