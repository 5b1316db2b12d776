"""Reference deployment: ``run_deployment`` as its own act, step,
``Transition``, update loop, with a window accumulator of its own; each
update reads the transitions through ``rollout_reference.as_rollout``.

``run_deployment`` now runs on the shared ``rollout`` driver; the tests
hold it to this loop bit for bit. A window's waits are its per-vehicle
step counts times the time step (``sim_oracle.settled_waits``), not the
simulator's census.
"""

from __future__ import annotations

from trafficlab.adapt import (
    DeploymentConfig,
    DeploymentResult,
    TimelinePoint,
    detect_instability,
)
from sim_oracle import settled_waits
from rollout_reference import Transition, as_rollout
from trafficlab.agents import Agent
from trafficlab.env import EnvConfig, TrafficSignalEnv


class WindowAccumulator:
    """Per-window waiting-time means out of the sim's cumulative counters,
    plus the accrued waits of the vehicles still on the road."""

    def __init__(self, state):
        self._snap = self._take(state)

    @staticmethod
    def _take(state):
        return (state.exited_wait_detected, state.exited_n_detected,
                state.exited_wait_undetected, state.exited_n_undetected)

    def window_means(self, state):
        dw, dn, uw, un = settled_waits(state, self._snap)
        self._snap = self._take(state)
        wait_det = dw / dn if dn else None
        wait_undet = uw / un if un else None
        wait_all = (dw + uw) / (dn + un) if dn + un else None
        return wait_all, wait_det, wait_undet


def reference_deployment(agent: Agent, env_config: EnvConfig,
                         deploy: DeploymentConfig,
                         seed: int = 0) -> DeploymentResult:
    sim_cfg = env_config.sim
    horizon = (deploy.total_steps + 1) * sim_cfg.time_step
    run_cfg = EnvConfig(sim=sim_cfg,
                        episode_length=max(horizon, sim_cfg.time_step))
    env = TrafficSignalEnv(run_cfg, seed=seed)
    obs = env.reset(seed=seed)
    timeline: list[TimelinePoint] = []
    window = WindowAccumulator(env.state)
    pending: list[Transition] = []
    failure_step = None
    failure_message = None
    updates_enabled = (deploy.update_period is not None
                       and deploy.update_period > 0
                       and agent.needs_rollout > 0)
    for step in range(1, deploy.total_steps + 1):
        env.set_detection_rate(deploy.schedule.rate_at(env.state.clock))
        action = agent.act(obs, explore=True)
        next_obs, reward, _, _ = env.step(action)
        if updates_enabled:
            pending.append(Transition(obs, action, reward, next_obs,
                                      log_prob=agent.last_logprob))
            if len(pending) >= deploy.update_period:
                try:
                    agent.update(as_rollout(pending))
                except Exception as exc:  # the timeline so far is the result
                    failure_step = step
                    failure_message = f"{type(exc).__name__}: {exc}"
                pending = []
        obs = next_obs
        if step % deploy.instability_window == 0 or failure_step is not None:
            wait_all, wait_det, wait_undet = window.window_means(env.state)
            timeline.append(TimelinePoint(
                step=step,
                detection_rate=deploy.schedule.rate_at(env.state.clock),
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
