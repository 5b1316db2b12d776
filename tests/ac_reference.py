"""The actor-critic update built from the generic passes: the reference
that ``_ActorCriticAgent.update`` (A2C, PPO and ACKTR) must equal bit for
bit.

It reads a list of ``Transition`` objects through ``stack``, takes the
values and the next values in two critic forwards, and runs each net's
generic ``forward`` and ``backward`` of ``nn_reference``, ACKTR's
curvature refresh through its ``chain``, and the agent's optimizers and
K-FAC stats, each on fresh arrays, the actor step before the critic's on
every minibatch; it draws PPO's permutations from the agent's generator as the
update does. The policy arithmetic between the passes is the agent's own
(``_actor_surrogate_grad``, ``_advantages``, ACKTR's ``_natural``), which
reads and returns arrays only. It keeps no state of its own, so there is
nothing in it to go stale.
"""

import math

import numpy as np

from nn_reference import backward, chain, forward
from rollout_reference import stack
from trafficlab.agents import (
    _ONE_HOT,
    AcktrAgent,
    _advantages,
    _entropy,
    _log_softmax,
)


def reference_minibatches(agent, transitions):
    """``(obs, actions, targets, advantages, old_logp)`` of each actor
    step: the whole rollout for a single pass, else ``ppo_epochs``
    permutations cut into ``ppo_minibatch`` chunks."""
    obs, actions, rewards, next_obs, old_logp = stack(transitions)
    obs = obs * agent._obs_scale
    next_obs = next_obs * agent._obs_scale
    targets = (rewards + agent.config.gamma
               * forward(agent.critic, next_obs)[0].ravel())
    advantages = _advantages(targets, forward(agent.critic, obs)[0].ravel())
    if agent.single_pass:
        yield obs, actions, targets, advantages, None
        return
    cfg = agent.config
    for _ in range(cfg.ppo_epochs):
        perm = agent._rng.permutation(len(transitions))
        for start in range(0, len(perm), cfg.ppo_minibatch):
            mb = perm[start:start + cfg.ppo_minibatch]
            yield (obs[mb], actions[mb], targets[mb], advantages[mb],
                   old_logp[mb])


def reference_critic_step(agent, obs, targets) -> float:
    """``critic_epochs`` descents of the squared error toward ``targets``;
    ACKTR refreshes the critic's curvature from the first epoch's
    residuals and preconditions every step. Returns the last loss."""
    cfg = agent.config
    acktr = isinstance(agent, AcktrAgent)
    n = len(targets)
    loss = 0.0
    for epoch in range(cfg.critic_epochs):
        v, cache = forward(agent.critic, obs)
        resid = v.ravel() - targets
        loss = float((resid * resid).sum()) / n
        assert math.isfinite(loss)
        grads = backward(agent.critic, cache, (-2.0 * resid / n)[:, None])
        if acktr:
            if epoch == 0:
                agent.critic_stats.update(
                    cache.inputs, chain(agent.critic, cache, resid[:, None]))
            grads = agent._natural(agent.critic_stats, grads, cfg.critic_lr)
        agent.critic_optimizer.step(agent.critic, grads, cfg.critic_lr)
    return loss


def reference_update(agent, transitions) -> dict[str, float]:
    """One update of ``agent`` on ``transitions``, as ``update`` does it;
    returns the same stats."""
    if not transitions:
        return {}
    cfg = agent.config
    acktr = isinstance(agent, AcktrAgent)
    agent.train_steps += len(transitions)
    low, high = 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon
    for obs, actions, targets, adv, old_logp in reference_minibatches(
            agent, transitions):
        m = len(adv)
        logits, cache = forward(agent.actor, obs)
        logp = _log_softmax(logits)
        pi = np.exp(logp)
        taken = logp[np.arange(m), actions]
        ratio = np.exp(taken - (taken if old_logp is None else old_logp))
        unclipped = ratio * adv
        clipped = np.clip(ratio, low, high) * adv
        objective = float(np.minimum(unclipped, clipped).sum()) / m
        assert math.isfinite(objective)
        coeff = np.where(unclipped <= clipped, adv * ratio, 0.0)
        entropy = _entropy(pi, logp)
        score = _ONE_HOT[actions] - pi
        grads = backward(agent.actor, cache, agent._actor_surrogate_grad(
            logp, pi, score, coeff, entropy))
        if acktr:
            agent.actor_stats.update(
                cache.inputs, chain(agent.actor, cache, score))
            grads = agent._natural(agent.actor_stats, grads, cfg.actor_lr)
        agent.actor_optimizer.step(agent.actor, grads, cfg.actor_lr)
        critic_loss = reference_critic_step(agent, obs, targets)
    return {"actor_loss": -objective, "critic_loss": critic_loss,
            "entropy": float(entropy.sum()) / m}
