"""Reference evaluation: ``evaluate_agent`` as one env playing its greedy
episodes one after another, each picked by ``act`` one step at a time.

``evaluate_agent`` now runs its episodes side by side, picking every env's
action of a tick with one ``greedy_actions`` call; the tests hold it to
this loop bit for bit. Each episode's waits are its per-vehicle step
counts times the time step (``sim_oracle.settled_waits``), not the
simulator's census.
"""

from __future__ import annotations

import numpy as np

from sim_oracle import settled_waits
from trafficlab.agents import Agent
from trafficlab.env import EnvConfig, TrafficSignalEnv
from trafficlab.harness import EvalStats
from trafficlab.sim import class_means


def reference_evaluation(agent: Agent, env_config: EnvConfig, episodes: int,
                         seed: int = 0) -> tuple[EvalStats, list[int]]:
    """The stats of ``episodes`` greedy episodes, and every action taken."""
    env = TrafficSignalEnv(env_config, seed=seed)
    totals = (0.0, 0, 0.0, 0)  # per-class wait sums and vehicle counts
    returns, per_episode_wait, actions = [], [], []
    queue_total = 0.0
    queue_samples = 0
    for _ in range(episodes):
        obs, done, ep_return = env.reset(), False, 0.0
        while not done:
            action = agent.act(obs, explore=False)
            actions.append(action)
            obs, reward, done, info = env.step(action)
            ep_return += reward
            queue_total += info["census"].queue
            queue_samples += 1
        episode = settled_waits(env.state)
        totals = tuple(a + b for a, b in zip(totals, episode))
        per_episode_wait.append(class_means(*episode)[0])
        returns.append(ep_return)
    _, n_det, _, n_undet = totals
    wait_all, wait_detected, wait_undetected = class_means(*totals)
    waits = [w for w in per_episode_wait if w is not None]
    stats = EvalStats(
        episodes=episodes,
        mean_return=float(np.mean(returns)),
        wait_all=wait_all,
        wait_detected=wait_detected,
        wait_undetected=wait_undetected,
        wait_all_std=float(np.std(waits)) if len(waits) > 1 else None,
        exited_all=n_det + n_undet,
        exited_detected=n_det,
        exited_undetected=n_undet,
        mean_queue=queue_total / queue_samples,
    )
    return stats, actions
