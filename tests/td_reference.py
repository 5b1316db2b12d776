"""DQL's TD step built from the generic passes: the reference that
``DqlAgent._td_step`` must equal bit for bit.

It draws from the agent's replay with the agent's generator, as the step
does, and runs the q net's generic ``forward`` of ``nn_reference``, the
target net's, the TD error, the q net's generic ``backward`` and the
agent's optimizer, each on fresh arrays. It keeps no state of its own,
so there is nothing in it to go stale.
"""

import numpy as np

from nn_reference import backward, forward


def reference_draw(agent):
    """``(pairs, actions, rewards)`` of one replay draw of ``batch_size``
    rows, indexed from the replay's arrays with the agent's generator."""
    replay = agent.replay
    idx = agent._rng.integers(0, len(replay), size=agent.config.batch_size)
    return (np.stack([replay.obs[idx], replay.next_obs[idx]]),
            replay.actions[idx], replay.rewards[idx])


def reference_td_step(agent, pairs, actions, rewards) -> float:
    """One TD step of ``agent`` on a drawn batch (``pairs[0]`` the scaled
    observations, ``pairs[1]`` the next ones): the target sync included;
    returns the mean squared TD error."""
    cfg = agent.config
    n = len(actions)
    q, cache = forward(agent.q_net, pairs[0])
    next_q, _ = forward(agent.target_net, pairs[1])
    targets = np.maximum(next_q[:, 0], next_q[:, 1])
    targets *= cfg.gamma
    targets += rewards
    rows = np.arange(n)
    td = q[rows, actions] - targets
    loss = float((td * td).sum()) / n
    dout = np.zeros_like(q)
    dout[rows, actions] = td / -(n / 2)
    agent.optimizer.step(agent.q_net, backward(agent.q_net, cache, dout),
                         cfg.q_lr)
    if agent.optimizer.t % cfg.target_sync_period == 0:
        agent.target_net.params[...] = agent.q_net.params
    return loss


def reference_update(agent, transitions) -> list[float]:
    """``DqlAgent.update`` with the reference step: each transition's
    fields into the replay, then one step per transition once warm;
    returns each step's loss."""
    cfg = agent.config
    losses = []
    for t in transitions:
        agent.replay.add(t.obs, t.action, t.reward, t.next_obs)
        agent.train_steps += 1
        if len(agent.replay) >= max(cfg.warmup, cfg.batch_size):
            losses.append(reference_td_step(agent, *reference_draw(agent)))
    return losses
