"""Step/reset control environment wrapped around the intersection simulator.

The observation is the compact state vector: per-approach detected-vehicle
counts (normalized by lane capacity), per-approach distance to the nearest
detected vehicle (normalized by lane length, 1.0 when none), the phase
timer in seconds (steps times ``time_step``), an amber indicator and the
integer phase index. Only detected vehicles influence any slot.

The reward is the negative normalized speed deficit of the detected
vehicles only, which is all a controller could measure in the field.

``step`` returns ``info = {"census": RoadCensus}``: the post-step road
census that ``kinematics_step`` took in its walk, from which the reward
and the observation are read, so a step walks the road once, and which
counts the road's queue. ``reset`` walks no road: a new state's road is
empty, so its observation reads the empty-road census. Waiting times are
not computed per step: ``env.state.entered_waits()``, the one wait
census, gives the per-class totals that ``class_means`` turns into means.
An episode ends after ``episode_length / time_step`` steps.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from trafficlab.sim import (
    Command,
    RoadCensus,
    SimConfig,
    SimState,
    check_fields,
    check_seed,
    check_value,
    kinematics_step,
    metrics_snapshot,  # noqa: F401 (re-exported with the other step stages)
    signal_step,
    spawn_step,
)

# Slot layout of the observation vector.
N_COUNT_SLOTS = 4
PHASE_TIME_SLOT = 8
AMBER_SLOT = 9
PHASE_SLOT = 10
OBSERVATION_SIZE = 11

_COMMANDS = {0: Command.KEEP, 1: Command.SWITCH}
# the census of an empty road, which every reset state has; only read
_EMPTY_CENSUS = RoadCensus(0.0, [0] * 4, [None] * 4, 0)


class EpisodeDoneError(RuntimeError):
    """Raised when step() is called on a finished episode."""


@dataclass
class EnvConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    episode_length: float = 3600.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.episode_length <= 0:
            raise ValueError(f"episode_length must be finite and positive, "
                             f"got {self.episode_length!r}")
        steps = self.episode_length / self.sim.time_step
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("episode_length must be a multiple of time_step")
        # read by every step, so taken once from the config as built (an
        # env builds a config of its own)
        self._episode_steps = round(steps)
        self._lane_capacity = self.sim.lane_capacity

    @property
    def observation_size(self) -> int:
        return OBSERVATION_SIZE


def build_observation(state: SimState, config: EnvConfig,
                      census: RoadCensus) -> np.ndarray:
    """Compact state vector; undetected vehicles are invisible to it. The
    road slots are read from ``census``, the census of ``state``."""
    capacity = config._lane_capacity
    lane_length = config.sim.lane_length
    signal = state.signal
    c0, c1, c2, c3 = census.detected_counts
    d0, d1, d2, d3 = census.nearest_detected
    # slot order: counts, distances, phase time, amber, phase.
    # Each ratio slot is min(ratio, 1.0): that is 1.0 when the numerator
    # exceeds the positive denominator and the ratio itself otherwise, as
    # division rounds monotonically.
    return np.array([
        1.0 if c0 > capacity else c0 / capacity,
        1.0 if c1 > capacity else c1 / capacity,
        1.0 if c2 > capacity else c2 / capacity,
        1.0 if c3 > capacity else c3 / capacity,
        1.0 if d0 is None or d0 > lane_length else d0 / lane_length,
        1.0 if d1 is None or d1 > lane_length else d1 / lane_length,
        1.0 if d2 is None or d2 > lane_length else d2 / lane_length,
        1.0 if d3 is None or d3 > lane_length else d3 / lane_length,
        signal.phase_steps * state.time_step, 1.0 if signal.in_amber else 0.0,
        float(signal.phase),
    ], dtype=np.float64)


def compute_reward(census: RoadCensus) -> float:
    """The partial reward: the negative sum of (vmax - v) / vmax over the
    detected vehicles, read from the road's ``census``."""
    return -census.detected_deficit


def episode_seeds(seed: int) -> Iterator[int]:
    """The episode seeds, in order, that ``reset()`` draws from the
    master stream of an env built with ``seed``, checked at the call."""
    master = np.random.default_rng(check_seed(seed))
    return iter(lambda: int(master.integers(0, 2**63)), None)


class TrafficSignalEnv:
    """Keep/switch control environment over one simulated intersection.

    One instance is single-threaded; build one per worker for parallel
    rollouts. ``reset(seed=...)`` reproduces an episode exactly; ``reset()``
    draws the next episode seed from a master stream so training sees
    varied but reproducible episodes. The env keeps a copy of its config,
    and the lane capacity the observation reads is taken from it once;
    ``set_detection_rate`` is the one change the copy takes afterwards.
    """

    def __init__(self, config: EnvConfig, seed: int | None = None):
        # a SimConfig of its own: set_detection_rate writes into it
        self.config = replace(config, sim=replace(config.sim))
        self._seeds = episode_seeds(
            config.sim.rng_seed if seed is None else seed)
        self._state: SimState | None = None
        self._done = True

    @property
    def state(self) -> SimState:
        if self._state is None:
            raise RuntimeError("reset() must be called before accessing state")
        return self._state

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is None:
            seed = next(self._seeds)
        self._state = SimState.initial(self.config.sim, seed=seed)
        self._done = False
        return build_observation(self._state, self.config, _EMPTY_CENSUS)

    def set_detection_rate(self, rate: float) -> None:
        """Adjust the detection probability applied to future spawns of
        this env; the config it was built from is left as it was."""
        if type(rate) is not float:  # one type test on a float, every step
            check_value("detection rate", "float", rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("detection rate must lie in [0, 1]")
        self.config.sim.detection_rate = rate

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        """Apply the signal command, advance the world one step, reward the
        post-step state.

        ``action`` is 0 (keep) or 1 (switch), as any value equal to one of
        them; any other value raises ValueError, and EpisodeDoneError is
        raised past the episode end. ``info`` holds ``census``, the
        post-step ``RoadCensus`` that ``kinematics_step`` returns: the
        reward and the observation read it, so the step walks the road
        once, and its ``queue`` counts the vehicles below the wait speed.
        Waiting times are read with ``env.state.entered_waits`` and
        ``class_means``.
        """
        if self._state is None or self._done:
            raise EpisodeDoneError("episode is finished; call reset() first")
        try:
            command = _COMMANDS[action]
        except (KeyError, TypeError):
            raise ValueError(f"action must be 0 (keep) or 1 (switch), "
                             f"got {action!r}") from None
        sim_cfg = self.config.sim
        state = self._state
        signal_step(state, command, sim_cfg)
        spawn_step(state, sim_cfg)
        census = kinematics_step(state, sim_cfg)
        self._done = state.steps >= self.config._episode_steps
        obs = build_observation(state, self.config, census)
        return obs, compute_reward(census), self._done, {"census": census}
