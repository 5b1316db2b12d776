"""Deployment-phase machinery: run a pre-trained controller in one long,
never-reset episode while the vehicle detection rate drifts along a
piecewise-linear schedule, updating the agent online from partial rewards
and watching the waiting-time series for catastrophic updates.

Its steps come from ``agents.rollout``, as training's do, so a deployed
agent gathers transitions and is updated exactly as in training. Each
timeline window's waits are read through ``SimState.entered_waits``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import median

from trafficlab.agents import Agent, rollout
from trafficlab.env import EnvConfig, TrafficSignalEnv
from trafficlab.sim import check_fields, check_seed, check_value, class_means


@dataclass
class DetectionSchedule:
    """Piecewise-linear detection rate over simulated seconds, clamped to
    the endpoint rates outside the breakpoint span. The breakpoints are
    stored as ``(time, rate)`` float pairs."""

    breakpoints: list[tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise ValueError("schedule needs at least one breakpoint")
        for bp in self.breakpoints:
            if type(bp) not in (tuple, list) or len(bp) != 2:
                raise ValueError(f"breakpoint {bp!r} is not a (time, rate) pair")
            check_value("breakpoint times", "float", bp[0])
            check_value("breakpoint rates", "float", bp[1])
        self.breakpoints = [(float(t), float(r)) for t, r in self.breakpoints]
        times = [t for t, _ in self.breakpoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")
        if any(not 0.0 <= r <= 1.0 for _, r in self.breakpoints):
            raise ValueError("rates must lie in [0, 1]")

    @classmethod
    def ramp(cls, t_start: float, r_start: float,
             t_end: float, r_end: float) -> "DetectionSchedule":
        return cls([(t_start, r_start), (t_end, r_end)])

    def rate_at(self, t: float) -> float:
        pts = self.breakpoints
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, r0), (t1, r1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                return r0 + (r1 - r0) * (t - t0) / (t1 - t0)
        raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class DeploymentConfig:
    schedule: DetectionSchedule
    total_steps: int = 200_000
    update_period: int | None = 256  # None: pure evaluation, no updates
    instability_window: int = 2_000
    instability_threshold: float = 3.0
    instability_history: int = 8  # timeline points behind the rolling median

    def __post_init__(self) -> None:
        check_fields(self)
        for name, least in (("total_steps", 0), ("update_period", 1),
                            ("instability_window", 1),
                            ("instability_history", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.instability_threshold <= 1.0:
            raise ValueError("instability_threshold must exceed 1")


@dataclass
class TimelinePoint:
    step: int
    detection_rate: float
    wait_all: float | None
    wait_detected: float | None
    wait_undetected: float | None
    instability: bool = False


@dataclass
class DeploymentResult:
    timeline: list[TimelinePoint]
    instability_flags: int = 0
    failure_step: int | None = None
    failure_message: str | None = None
    spawned_total: int = 0
    spawned_detected: int = 0

    @property
    def aborted(self) -> bool:
        return self.failure_step is not None


def detect_instability(values: list[float | None], threshold: float,
                       history: int = 8) -> list[bool]:
    """Flag points whose waiting time exceeds threshold times the rolling
    median of the preceding points (up to ``history`` of them).

    ``None`` entries (windows with no exits) are never flagged and do not
    enter the median history. The first point has no history and cannot
    be flagged.
    """
    flags = []
    seen: list[float] = []
    for value in values:
        if value is None:
            flags.append(False)
            continue
        if not seen:
            flags.append(False)
        else:
            baseline = median(seen[-history:])
            flags.append(baseline > 0 and value > threshold * baseline)
        seen.append(value)
    return flags


def run_deployment(agent: Agent, env_config: EnvConfig,
                   deploy: DeploymentConfig, seed: int = 0) -> DeploymentResult:
    """Deploy a trained agent under a drifting detection rate.

    The intersection is never reset after the start. Every spawning
    vehicle's detected flag is drawn at the schedule's current rate. The
    agent is updated online every ``update_period`` steps from the
    transitions gathered since the previous update, rewarded with the
    partial (detected-only) signal. A timeline point is recorded at every
    ``instability_window`` boundary; an update that raises (a non-finite
    loss, a singular curvature factor) aborts the run and returns the
    timeline gathered so far. A bad ``seed`` is refused by name first.
    """
    check_seed(seed)
    time_step = env_config.sim.time_step
    horizon = (deploy.total_steps + 1) * time_step
    env = TrafficSignalEnv(replace(
        env_config, episode_length=max(horizon, time_step)), seed=seed)
    batch = (deploy.update_period or 0) if agent.needs_rollout else 0
    steps = rollout(agent, env, batch, obs=env.reset(seed=seed))
    seen = env.state.exit_totals()  # at the last window boundary
    timeline: list[TimelinePoint] = []
    failure_step = None
    failure_message = None
    for step in range(1, deploy.total_steps + 1):
        env.set_detection_rate(deploy.schedule.rate_at(env.state.clock))
        _, _, full = next(steps)
        if full:
            try:
                agent.update(full)
            except Exception as exc:  # the timeline so far is the result
                failure_step = step
                failure_message = f"{type(exc).__name__}: {exc}"
        if step % deploy.instability_window == 0 or failure_step is not None:
            # a window's means cover the vehicles that exited in it plus the
            # accrued waits of those still on the road, so a starved
            # approach shows a spike instead of dropping out of the mean
            state = env.state
            wait_all, wait_det, wait_undet = class_means(
                *state.entered_waits(since=seen))
            seen = state.exit_totals()
            timeline.append(TimelinePoint(
                step=step,
                detection_rate=deploy.schedule.rate_at(state.clock),
                wait_all=wait_all,
                wait_detected=wait_det,
                wait_undetected=wait_undet,
            ))
        if failure_step is not None:
            break
    flags = detect_instability([p.wait_all for p in timeline],
                               deploy.instability_threshold,
                               deploy.instability_history)
    for point, flag in zip(timeline, flags):
        point.instability = flag
    return DeploymentResult(
        timeline=timeline,
        instability_flags=sum(flags),
        failure_step=failure_step,
        failure_message=failure_message,
        spawned_total=env.state.spawned_count,
        spawned_detected=env.state.spawned_detected_count,
    )
