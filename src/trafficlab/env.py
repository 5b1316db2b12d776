"""Step/reset control environment wrapped around the intersection simulator.

The observation is the compact state vector: per-approach detected-vehicle
counts (normalized by lane capacity), per-approach distance to the nearest
detected vehicle (normalized by lane length, 1.0 when none), the raw phase
timer in seconds, an amber indicator, the integer phase index, and an
optional time-of-day fraction. Only detected vehicles influence any slot.

Rewards are the negative normalized speed deficits: the full variant sums
over every vehicle on an approach, the partial variant only over detected
ones, which is all a controller could measure in the field.

``step`` returns ``info = {"reward_breakdown": RewardBreakdown, "census":
RoadCensus}``: both rewards and the post-step road census the step already
took. Waiting-time metrics are not computed per step; read them with
``metrics_snapshot(env.state, env.config.sim)`` when they are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from trafficlab.sim import (
    Command,
    RoadCensus,
    SimConfig,
    SimState,
    kinematics_step,
    metrics_snapshot,  # noqa: F401 (re-exported with the other step stages)
    road_census,
    signal_step,
    spawn_step,
)

# Slot layout of the observation vector.
N_COUNT_SLOTS = 4
N_DISTANCE_SLOTS = 4
PHASE_TIME_SLOT = 8
AMBER_SLOT = 9
PHASE_SLOT = 10
TIME_OF_DAY_SLOT = 11
BASE_OBSERVATION_SIZE = 11

Action = Command  # keep (0) / switch (1)
_COMMANDS = {0: Command.KEEP, 1: Command.SWITCH}


class RewardMode(Enum):
    FULL = "full"
    PARTIAL = "partial"


class EpisodeDoneError(RuntimeError):
    """Raised when step() is called on a finished episode."""


@dataclass(slots=True)
class RewardBreakdown:
    """Full and partial rewards plus the per-class speed deficits behind them."""

    full: float
    partial: float
    detected_deficit: float
    undetected_deficit: float

    def for_mode(self, mode: RewardMode) -> float:
        return self.partial if mode is RewardMode.PARTIAL else self.full


@dataclass
class EnvConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    reward_mode: RewardMode = RewardMode.PARTIAL
    episode_length: float = 3600.0
    include_time_of_day: bool = False
    day_length: float = 86_400.0

    def __post_init__(self) -> None:
        if self.episode_length <= 0:
            raise ValueError("episode_length must be positive")
        steps = self.episode_length / self.sim.time_step
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("episode_length must be a multiple of time_step")

    @property
    def lane_capacity(self) -> int:
        return self.sim.lane_capacity

    @property
    def observation_size(self) -> int:
        return BASE_OBSERVATION_SIZE + (1 if self.include_time_of_day else 0)


def build_observation(state: SimState, config: EnvConfig,
                      census: RoadCensus | None = None) -> np.ndarray:
    """Compact state vector; undetected vehicles are invisible to it. The
    road slots are read from ``census`` when given."""
    if census is None:
        census = road_census(state, config.sim)
    capacity = config.lane_capacity
    lane_length = config.sim.lane_length
    signal = state.signal
    # slot order: counts, distances, phase time, amber, phase, time of day
    slots = [min(count / capacity, 1.0) for count in census.detected_counts]
    slots += [1.0 if nearest is None else min(nearest / lane_length, 1.0)
              for nearest in census.nearest_detected]
    slots += (signal.phase_elapsed, 1.0 if signal.in_amber else 0.0,
              float(int(signal.phase)))
    if config.include_time_of_day:
        slots.append((state.clock % config.day_length) / config.day_length)
    return np.array(slots, dtype=np.float64)


def compute_reward(state: SimState,
                   census: RoadCensus | None = None) -> RewardBreakdown:
    """Negative normalized speed deficit, split by detection class.

    Each vehicle contributes (vmax - v) / vmax; the partial reward sums
    only detected contributions, so partial >= full always. The sums are
    read from ``census`` when given.
    """
    if census is None:
        census = road_census(state, SimConfig())  # deficits need no config
    detected = census.detected_deficit
    undetected = census.undetected_deficit
    return RewardBreakdown(
        full=-(detected + undetected),
        partial=-detected,
        detected_deficit=detected,
        undetected_deficit=undetected,
    )


class TrafficSignalEnv:
    """Keep/switch control environment over one simulated intersection.

    One instance is single-threaded; build one per worker for parallel
    rollouts. ``reset(seed=...)`` reproduces an episode exactly; ``reset()``
    draws the next episode seed from a master stream so training sees
    varied but reproducible episodes.
    """

    def __init__(self, config: EnvConfig, seed: int | None = None):
        # a SimConfig of its own: set_detection_rate writes into it
        self.config = replace(config, sim=replace(config.sim))
        self._master = np.random.default_rng(
            config.sim.rng_seed if seed is None else seed)
        self._state: SimState | None = None
        self._done = True

    @property
    def observation_size(self) -> int:
        return self.config.observation_size

    @property
    def state(self) -> SimState:
        if self._state is None:
            raise RuntimeError("reset() must be called before accessing state")
        return self._state

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is None:
            seed = int(self._master.integers(0, 2**63))
        self._state = SimState.initial(self.config.sim, seed=seed)
        self._done = False
        return build_observation(self._state, self.config)

    def set_detection_rate(self, rate: float) -> None:
        """Adjust the detection probability applied to future spawns of
        this env; the config it was built from is left as it was."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("detection rate must lie in [0, 1]")
        self.config.sim.detection_rate = rate

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        """Apply the signal command, advance the world one step, reward the
        post-step state.

        ``action`` is 0 (keep) or 1 (switch), as any value equal to one of
        them; any other value raises ValueError, and EpisodeDoneError is
        raised past the episode end. ``info`` holds ``reward_breakdown``
        (the ``RewardBreakdown``) and ``census`` (the post-step
        ``RoadCensus``); waiting times are read with ``metrics_snapshot``.
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
        kinematics_step(state, sim_cfg)
        census = road_census(state, sim_cfg)
        breakdown = compute_reward(state, census)
        reward = breakdown.for_mode(self.config.reward_mode)
        self._done = state.clock >= self.config.episode_length - 1e-9
        obs = build_observation(state, self.config, census)
        return obs, reward, self._done, {"reward_breakdown": breakdown,
                                         "census": census}

    @property
    def done(self) -> bool:
        return self._done
