"""The per-step ``Transition`` loop that ``agents.rollout`` replaced, kept
as the reference its columns are held to, and the bridge from a list of
transitions to the ``Rollout`` an update reads.

``reference_rollout`` gathers one ``Transition`` object per step, each
holding the observation arrays the env handed out, and yields the list
of the last ``batch`` of them once it fills. ``stack`` turns such a list
into arrays, the float ones cast to ``DTYPE``: what every learner read
before the columns. ``as_rollout`` writes a list into a ``Rollout``,
with a final wherever a step's next observation is not the next step's
observation, so an update on it reads exactly ``stack``'s arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trafficlab.agents import Rollout
from trafficlab.nn import DTYPE


@dataclass(slots=True)
class Transition:
    obs: np.ndarray
    action: int
    reward: float
    next_obs: np.ndarray
    log_prob: float | None = None


def reference_rollout(agent, env, batch: int, obs=None):
    """``rollout`` as it was: yields ``(reward, done, full)`` per step,
    ``full`` the list of the last ``batch`` transitions once it fills."""
    pending: list[Transition] = []
    while True:
        if obs is None:
            obs = env.reset()
        action = agent.act(obs, explore=True)
        next_obs, reward, done, _ = env.step(action)
        full = None
        if batch:
            pending.append(Transition(obs, action, reward, next_obs,
                                      agent.last_logprob))
            if len(pending) >= batch:
                full, pending = pending, []
        obs = None if done else next_obs
        yield reward, done, full


def stack(transitions: list[Transition]):
    """The transitions' fields as arrays, the float ones in ``DTYPE``,
    and the log-probabilities (NaN where none was recorded)."""
    obs = np.array([t.obs for t in transitions], dtype=DTYPE)
    actions = np.array([t.action for t in transitions], dtype=np.intp)
    rewards = np.array([t.reward for t in transitions], dtype=DTYPE)
    next_obs = np.array([t.next_obs for t in transitions], dtype=DTYPE)
    log_probs = np.array([math.nan if t.log_prob is None else t.log_prob
                          for t in transitions], dtype=DTYPE)
    return obs, actions, rewards, next_obs, log_probs


def as_rollout(transitions: list[Transition], obs_dim: int | None = None
               ) -> Rollout:
    """``transitions`` as the ``Rollout`` that holds ``stack``'s arrays;
    ``obs_dim`` is needed only for an empty list."""
    if not transitions:
        return Rollout(0, obs_dim)
    obs, actions, rewards, next_obs, log_probs = stack(transitions)
    batch = Rollout(len(transitions), obs.shape[1])
    batch.obs[:-1] = obs
    batch.obs[-1] = next_obs[-1]
    batch.actions[:] = actions
    batch.rewards[:] = rewards
    batch.log_probs[:] = log_probs
    for t in range(len(transitions) - 1):
        if next_obs[t].tobytes() != obs[t + 1].tobytes():
            batch.finals[t] = next_obs[t]
    return batch


def next_obs_of(batch: Rollout) -> np.ndarray:
    """Each step's next observation, read from the columns: row ``t + 1``
    of ``obs``, or the final of an episode that ends at step ``t``."""
    rows = batch.obs[1:].copy()
    for t, final in batch.finals.items():
        rows[t] = final
    return rows


def transitions_of(batch: Rollout) -> list[Transition]:
    """The columns as ``Transition`` objects, each holding rows of
    ``batch``; a NaN log-probability is none recorded."""
    next_obs = next_obs_of(batch)
    return [Transition(batch.obs[t], int(batch.actions[t]),
                       float(batch.rewards[t]), next_obs[t],
                       None if math.isnan(lp) else lp)
            for t, lp in enumerate(batch.log_probs.tolist())]
