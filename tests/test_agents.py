import copy
import dataclasses
import functools
import json
import math
import pickle
import re
import struct
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficlab.agents import (
    ALGORITHMS,
    N_ACTIONS,
    A2cAgent,
    AcktrAgent,
    AgentConfig,
    AlgorithmMismatchError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    DqlAgent,
    FixedTimeAgent,
    ObservationShapeError,
    PpoAgent,
    _ActorCriticAgent,
    _ALGO_DEFAULTS,
    _advantages,
    _entropy,
    _log_softmax,
    _ONE_HOT,
    _payload_arrays,
    _ReplayBuffer,
    agent_from_bytes,
    agent_to_bytes,
    load_agent,
    make_agent,
    rollout,
    save_agent,
)
import ac_reference
import nn_reference
from rollout_reference import (
    Transition,
    as_rollout,
    next_obs_of,
    reference_rollout,
    stack,
    transitions_of,
)
from kfac_oracle import (
    gradients_of,
    solve_precondition,
    use_solve_preconditioner,
)
from td_reference import reference_td_step, reference_update
from trafficlab.adapt import (
    DeploymentConfig,
    DetectionSchedule,
    run_deployment,
)
from trafficlab.cli import main as cli_main
from trafficlab.env import PHASE_TIME_SLOT, TrafficSignalEnv
from trafficlab.harness import build_env_config, default_agent_config, train_agent
from trafficlab.nn import (
    DTYPE,
    AdamOptimizer,
    DivergenceError,
    Gradients,
    KfacStats,
    Layer,
    Mlp,
    MlpStack,
    SgdOptimizer,
    StackPass,
)

OBS_DIM = 11


def config_for(algorithm, **kw):
    kw.setdefault("seed", 3)
    return AgentConfig(algorithm=algorithm, **kw)


def call(net, x):
    """``net``'s output at ``x`` cast to the net's dtype: ``Mlp.run`` on
    the input as an agent hands it over."""
    return net.run(np.asarray(x, net.params.dtype))


def rand_obs(rng, n=1, dim=OBS_DIM):
    obs = rng.uniform(0.0, 1.0, size=(n, dim))
    return obs if n > 1 else obs[0]


def make_transitions(rng, n, dim=OBS_DIM, reward_fn=None):
    out = []
    for _ in range(n):
        obs = rand_obs(rng, dim=dim)
        nxt = rand_obs(rng, dim=dim)
        action = int(rng.integers(2))
        r = float(rng.normal()) if reward_fn is None else reward_fn(obs, action)
        out.append(Transition(obs, action, r, nxt))
    return out


def recorded(agent, transitions):
    """``transitions`` as ``rollout`` would hand them to ``agent``: for
    PPO, copies that carry each action's log-probability under the current
    policy, computed over the stacked batch as PPO's update once did for a
    batch that recorded none, so the update's numbers are those it gave
    then; any other agent reads no log-probability and gets them as they
    are."""
    if not isinstance(agent, PpoAgent):
        return transitions
    obs = np.array([t.obs for t in transitions]) * agent._obs_scale
    actions = np.array([t.action for t in transitions], dtype=np.intp)
    logp = _log_softmax(call(agent.actor, obs))[np.arange(len(actions)), actions]
    return [dataclasses.replace(t, log_prob=float(lp))
            for t, lp in zip(transitions, logp)]


class CountingSgd(SgdOptimizer):
    """A plain gradient step that counts its steps in ``t``, as Adam does:
    DQL syncs its target net on its optimizer's step count."""

    def __init__(self, net):
        super().__init__(net)
        self.t = 0

    def step(self, net, direction, learning_rate):
        self.t += 1
        super().step(net, direction, learning_rate)


def with_sgd(agent):
    """``agent`` with a plain gradient step in place of each of its
    optimizers, so that a step is the learning rate times the gradient."""
    if isinstance(agent, DqlAgent):
        agent.optimizer = CountingSgd(agent.q_net)
    else:
        agent.actor_optimizer = SgdOptimizer(agent.actor)
        agent.critic_optimizer = SgdOptimizer(agent.critic)
    return agent


def wide(net):
    """A float64 net of ``net``'s values: a float32 net's values exactly,
    for an oracle or a float64 update to compute with."""
    return Mlp([Layer(l.w.astype(np.float64), l.b.astype(np.float64))
                for l in net.layers])


def float64_nets(agent):
    """``agent`` with its actor and critic widened to float64 nets of the
    same values, each with a fresh optimizer of its class and, for ACKTR,
    fresh K-FAC stats: the finite-difference and dense float64 oracles
    need float64's precision. Everything the update derives from a net
    follows its dtype, the K-FAC factors included; the observations and
    rewards are still cast to ``DTYPE`` as they enter."""
    cfg = agent.config
    for name in ("actor", "critic"):
        net = wide(getattr(agent, name))
        setattr(agent, name, net)
        setattr(agent, f"{name}_optimizer",
                type(getattr(agent, f"{name}_optimizer"))(net))
        if isinstance(agent, AcktrAgent):
            setattr(agent, f"{name}_stats", KfacStats(
                net, damping=cfg.kfac_damping, decay=cfg.kfac_decay))
    return agent


def log_softmax_ref(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def policy(agent, obs):
    """An actor-critic agent's action distribution at one observation,
    computed in float64 from the net's logits, as ``act`` computes it."""
    logits = agent.actor.run(np.asarray(obs, DTYPE) * agent._obs_scale)
    return np.exp(log_softmax_ref(logits.astype(np.float64)))


def as_draw(agent, batch):
    """The given transitions in the form a replay draw takes, computed
    here from the raw fields: the observations cast to ``DTYPE`` and
    scaled in it, stacked over the next ones."""
    obs, actions, rewards, next_obs, _ = stack(batch)
    return np.stack([obs, next_obs]) * agent._obs_scale, actions, rewards


def td_step_on(agent, transition):
    """One TD step of a DQL agent whose batch is one row, on a replay
    that holds only ``transition``."""
    assert agent.config.batch_size == 1 and len(agent.replay) == 0
    t = transition
    agent.replay.add(t.obs, t.action, t.reward, t.next_obs)
    return agent._td_step()


def array_act(agent, obs, explore=False):
    """The actor-critic ``act`` before its scalar head: the same choice
    made on numpy arrays through the generic forward. The oracle for
    the actions, log-probs and generator draws of the scalar head, which
    works on the net's logits as Python floats: float64."""
    logits = nn_reference.forward(
        agent.actor, np.asarray(obs, DTYPE) * agent._obs_scale)[0]
    logp = _log_softmax(logits.astype(np.float64))
    if explore:
        floor = agent.config.explore_floor
        if floor and agent._rng.random() < floor:
            action = int(agent._rng.integers(N_ACTIONS))
        else:
            action = 0 if agent._rng.random() < np.exp(logp[0]) else 1
    else:
        action = int(np.argmax(logits))
    agent.last_logprob = float(logp[action])
    return action


def fd_gradient(fn, net, h=1e-5):
    flat = net.flatten()
    grad = np.zeros_like(flat)
    probe = Mlp(net.layers)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        probe.params[...] = up
        f_up = fn(probe)
        probe.params[...] = down
        f_down = fn(probe)
        grad[i] = (f_up - f_down) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------

def test_dql_greedy_argmax_with_known_q_values():
    agent = DqlAgent(config_for("dql", hidden_sizes=[], epsilon_start=0.0,
                                epsilon_end=0.0), OBS_DIM)
    agent.q_net.layers[0].w[:] = 0.0
    agent.q_net.layers[0].b[:] = [2.0, 1.0]
    obs = np.zeros(OBS_DIM)
    assert agent.act(obs, explore=False) == 0
    assert agent.act(obs, explore=True) == 0  # epsilon forced to zero
    agent.q_net.layers[0].b[:] = [1.0, 2.0]
    assert agent.act(obs) == 1


def test_argmax_tie_breaks_to_lowest_index():
    agent = DqlAgent(config_for("dql", hidden_sizes=[]), OBS_DIM)
    agent.q_net.layers[0].w[:] = 0.0
    agent.q_net.layers[0].b[:] = [1.5, 1.5]
    assert agent.act(np.zeros(OBS_DIM)) == 0


def test_uniform_policy_samples_half_half():
    agent = A2cAgent(config_for("a2c"), OBS_DIM)
    for layer in agent.actor.layers:
        layer.w[:] = 0.0
        layer.b[:] = 0.0
    obs = rand_obs(np.random.default_rng(0))
    draws = 10_000
    switches = sum(agent.act(obs, explore=True) for _ in range(draws))
    sigma = np.sqrt(0.25 / draws)
    assert abs(switches / draws - 0.5) < 3 * sigma


@settings(max_examples=150, deadline=None)
@given(algorithm=st.sampled_from(["a2c", "ppo", "acktr"]),
       seed=st.integers(0, 2**31 - 1),
       weight_scale=st.sampled_from([0.0, 1e-3, 1.0, 8.0, 300.0]),
       floor=st.sampled_from([0.0, 0.3]),
       explore=st.booleans(),
       observations=st.lists(
           st.lists(st.floats(-1e3, 1e3), min_size=OBS_DIM, max_size=OBS_DIM),
           min_size=1, max_size=8))
def test_scalar_head_act_equals_array_oracle(algorithm, seed, weight_scale,
                                             floor, explore, observations):
    # scaled weights reach ties (0), saturated softmaxes and underflowing
    # exp(z); equal seeds give both sides equal nets and generator states
    cfg = config_for(algorithm, seed=seed, explore_floor=floor)
    agent, oracle = make_agent(cfg, OBS_DIM), make_agent(cfg, OBS_DIM)
    for net in (agent.actor, oracle.actor):
        net.params *= weight_scale
    for obs in observations:
        obs = np.array(obs)
        assert agent.act(obs, explore=explore) == array_act(oracle, obs, explore)
        assert struct.pack("<d", agent.last_logprob) == \
            struct.pack("<d", oracle.last_logprob)
    assert agent._rng.bit_generator.state == oracle._rng.bit_generator.state


@pytest.mark.parametrize("explore", [False, True])
@pytest.mark.parametrize("algorithm", ["dql", "a2c", "ppo", "acktr"])
def test_act_rejects_non_finite_network_outputs(algorithm, explore):
    # a NaN observation gives NaN outputs, which pick no meaningful action
    agent = make_agent(config_for(algorithm, epsilon_start=0.0,
                                  epsilon_end=0.0), OBS_DIM)
    obs = np.full(OBS_DIM, 0.5)
    obs[3] = math.nan
    with pytest.raises(DivergenceError, match="not finite"):
        agent.act(obs, explore=explore)


@settings(max_examples=100, deadline=None)
@given(algorithm=st.sampled_from(ALGORITHMS),
       seed=st.integers(0, 2**31 - 1),
       weight_scale=st.sampled_from([0.0, 1e-3, 1.0, 8.0, 300.0]),
       observations=st.lists(
           st.lists(st.floats(-1e3, 1e3), min_size=OBS_DIM, max_size=OBS_DIM),
           min_size=1, max_size=8))
def test_greedy_actions_equal_greedy_act_row_by_row(algorithm, seed,
                                                    weight_scale, observations):
    # a zero scale makes every row a tie, which keeps the first action
    agent = make_agent(config_for(algorithm, seed=seed), OBS_DIM)
    for net in agent._nets().values():
        net.params *= weight_scale
    obs = np.array(observations)
    rng_state = agent._rng.bit_generator.state
    got = agent.greedy_actions(obs)
    assert agent._rng.bit_generator.state == rng_state
    assert agent.last_logprob is None
    assert got == [agent.act(row, explore=False) for row in obs]
    assert all(type(action) is int for action in got)


@pytest.mark.parametrize("algorithm", ["dql", "a2c", "ppo", "acktr"])
def test_greedy_actions_reject_non_finite_network_outputs(algorithm):
    agent = make_agent(config_for(algorithm), OBS_DIM)
    obs = np.full((3, OBS_DIM), 0.5)
    obs[1, 3] = math.nan
    with pytest.raises(DivergenceError, match="not finite: nan, nan"):
        agent.greedy_actions(obs)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("shape", [(OBS_DIM,), (2, OBS_DIM + 1), (2, 1, OBS_DIM)])
def test_greedy_actions_reject_anything_but_a_stack_of_rows(algorithm, shape):
    agent = make_agent(config_for(algorithm), OBS_DIM)
    with pytest.raises(ObservationShapeError, match=f"length {OBS_DIM}"):
        agent.greedy_actions(np.zeros(shape))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("rows", [
    pytest.param([OBS_DIM, OBS_DIM + 1], id="ragged"),
    pytest.param([OBS_DIM + 1, OBS_DIM + 1], id="wide"),
    pytest.param([OBS_DIM - 1], id="narrow"),
])
def test_greedy_actions_reject_a_list_of_bad_rows(algorithm, rows):
    # evaluate_agent hands over a list of 1-D observations, not one array
    agent = make_agent(config_for(algorithm), OBS_DIM)
    with pytest.raises(ObservationShapeError, match=f"length {OBS_DIM}"):
        agent.greedy_actions([np.zeros(n) for n in rows])


def test_fixed_time_switches_at_green_threshold():
    agent = FixedTimeAgent(config_for("fixed_time", fixed_time_green=30.0), OBS_DIM)
    obs = np.zeros(OBS_DIM)
    obs[PHASE_TIME_SLOT] = 29.0
    assert agent.act(obs) == 0
    obs[PHASE_TIME_SLOT] = 30.0
    assert agent.act(obs) == 1


def test_observation_length_mismatch_raises():
    agent = A2cAgent(config_for("a2c"), OBS_DIM)
    with pytest.raises(ObservationShapeError):
        agent.act(np.zeros(OBS_DIM + 1))


def test_epsilon_schedule_linear_then_constant():
    cfg = config_for("dql", train_steps_budget=1000, exploration_fraction=0.2,
                     epsilon_start=1.0, epsilon_end=0.05)
    agent = DqlAgent(cfg, OBS_DIM)
    assert agent.epsilon() == 1.0
    agent.train_steps = 100  # halfway through the decay window
    assert agent.epsilon() == pytest.approx(0.525)
    agent.train_steps = 200
    assert agent.epsilon() == pytest.approx(0.05)
    agent.train_steps = 900
    assert agent.epsilon() == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# tabular Q-learning against dynamic programming
# ---------------------------------------------------------------------------

class TabularQ:
    """Exact tabular Q-learning update, the reference specialization of the
    neural learner on small finite problems."""

    def __init__(self, n_actions: int, gamma: float):
        self.n_actions = n_actions
        self.gamma = gamma
        self.q: dict = defaultdict(float)

    def update(self, state, action, reward, next_state, alpha: float,
               done: bool = False) -> float:
        best_next = max(self.q[(next_state, a)] for a in range(self.n_actions))
        bootstrap = 0.0 if done else self.gamma * best_next
        key = (state, action)
        self.q[key] += alpha * (reward + bootstrap - self.q[key])
        return self.q[key]


MDP_NEXT = {(s, a): (s + 1 + a) % 3 for s in range(3) for a in range(2)}
MDP_REWARD = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): -0.5,
              (1, 1): 2.0, (2, 0): 0.3, (2, 1): -1.0}


def value_iteration(gamma, tol=1e-12):
    q = {k: 0.0 for k in MDP_NEXT}
    while True:
        delta = 0.0
        new = {}
        for (s, a), nxt in MDP_NEXT.items():
            target = MDP_REWARD[(s, a)] + gamma * max(q[(nxt, b)] for b in range(2))
            new[(s, a)] = target
            delta = max(delta, abs(target - q[(s, a)]))
        q = new
        if delta < tol:
            return q


def test_tabular_update_substitution():
    learner = TabularQ(n_actions=2, gamma=0.9)
    # Q(s,a)=0, r=1, max Q(s')=0, alpha=0.5 -> 0.5
    assert learner.update("s", 0, 1.0, "s2", alpha=0.5) == pytest.approx(0.5)


def test_tabular_zero_alpha_is_noop():
    learner = TabularQ(n_actions=2, gamma=0.9)
    learner.q[("s", 0)] = 0.7
    learner.update("s", 0, 5.0, "s2", alpha=0.0)
    assert learner.q[("s", 0)] == 0.7


def test_tabular_converges_to_value_iteration_oracle():
    gamma = 0.9
    q_star = value_iteration(gamma)
    learner = TabularQ(n_actions=2, gamma=gamma)
    visits = {k: 0 for k in MDP_NEXT}
    for _ in range(3000):
        for (s, a), nxt in MDP_NEXT.items():
            visits[(s, a)] += 1
            alpha = visits[(s, a)] ** -0.5  # decaying step size
            learner.update(s, a, MDP_REWARD[(s, a)], nxt, alpha=alpha)
    err = max(abs(learner.q[k] - q_star[k]) for k in MDP_NEXT)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# neural Q update
# ---------------------------------------------------------------------------

def test_dql_batch_update_hand_computed_linear_case():
    cfg = config_for("dql", hidden_sizes=[], q_lr=0.1, gamma=0.9,
                     batch_size=1)
    agent = with_sgd(DqlAgent(cfg, 3))
    w_before = agent.q_net.layers[0].w.copy()
    b_before = agent.q_net.layers[0].b.copy()
    obs = np.array([1.0, 0.0, 2.0])
    nxt = np.array([0.0, 1.0, 0.0])
    q0 = float(w_before[0] @ obs + b_before[0])
    # the target net is the q net as built: max Q_target(s') reads its
    # weights' middle column
    bootstrap = float(max(w_before[:, 1] + b_before))
    loss = td_step_on(agent, Transition(obs, 0, 1.0, nxt))
    td = q0 - (1.0 + 0.9 * bootstrap)
    assert loss == pytest.approx(td * td)
    np.testing.assert_allclose(
        agent.q_net.layers[0].w[0], w_before[0] - 0.1 * 2 * td * obs)
    np.testing.assert_allclose(
        agent.q_net.layers[0].b[0], b_before[0] - 0.1 * 2 * td)
    # untouched action row stays put
    np.testing.assert_array_equal(agent.q_net.layers[0].w[1], w_before[1])


def test_dql_bootstrap_uses_target_net_max():
    cfg = config_for("dql", hidden_sizes=[], q_lr=1e-12, gamma=0.5,
                     batch_size=1)
    agent = with_sgd(DqlAgent(cfg, 2))
    agent.q_net.layers[0].w[:] = 0.0
    agent.q_net.layers[0].b[:] = 0.0
    # written in place: the target is row 1 of the q net's stack, and a
    # rebound net would be cut off from the stacked pass
    agent.target_net.layers[0].w[:] = 0.0
    agent.target_net.layers[0].b[:] = [3.0, 7.0]
    loss = td_step_on(agent, Transition(np.zeros(2), 1, 1.0, np.zeros(2)))
    # target = 1 + 0.5 * 7 = 4.5, q = 0 -> loss 20.25
    assert loss == pytest.approx(4.5 ** 2)


def test_dql_replay_warmup_and_target_sync():
    cfg = config_for("dql", warmup=8, batch_size=4, target_sync_period=2,
                     hidden_sizes=[4])
    agent = DqlAgent(cfg, 4)
    rng = np.random.default_rng(0)
    for i in range(7):
        out = agent.update(as_rollout([Transition(
            rand_obs(rng, dim=4), 0, 0.0, rand_obs(rng, dim=4))]))
        assert out == {}  # warming up
    out = agent.update(as_rollout([Transition(
        rand_obs(rng, dim=4), 1, 1.0, rand_obs(rng, dim=4))]))
    assert "loss" in out
    assert agent.optimizer.t == 1
    agent.update(as_rollout([Transition(
        rand_obs(rng, dim=4), 0, 0.5, rand_obs(rng, dim=4))]))
    assert agent.optimizer.t == 2
    np.testing.assert_array_equal(agent.target_net.flatten(),
                                  agent.q_net.flatten())


def test_dql_takes_one_gradient_step_per_transition_once_warm():
    cfg = config_for("dql", warmup=8, batch_size=4, hidden_sizes=[4])
    agent = DqlAgent(cfg, 4)
    rng = np.random.default_rng(2)

    def batch(n):
        return [Transition(rand_obs(rng, dim=4), int(rng.integers(2)),
                           float(rng.normal()), rand_obs(rng, dim=4))
                for _ in range(n)]

    calls = [batch(5), batch(6), batch(256)]
    agent.update(as_rollout(calls[0]))
    assert agent.optimizer.t == 0  # 5 < warmup
    agent.update(as_rollout(calls[1]))  # warm from the 8th transition on
    assert agent.optimizer.t == 4
    agent.update(as_rollout(calls[2]))
    assert agent.optimizer.t == 4 + 256
    assert agent.train_steps == 5 + 6 + 256
    # the same steps as handing over one transition per call
    single = DqlAgent(cfg, 4)
    for t in [t for call in calls for t in call]:
        single.update(as_rollout([t]))
    assert single.optimizer.t == agent.optimizer.t
    np.testing.assert_array_equal(single.q_net.params, agent.q_net.params)


class ListReplay:
    """The list-of-Transition ring the array ring replaced, kept as the
    oracle for which transitions a seeded draw returns."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.cursor = 0

    def __len__(self):
        return len(self.items)

    def add(self, item):
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self.items[self.cursor] = item
            self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, rng, n):
        idx = rng.integers(0, len(self.items), size=n)
        return [self.items[i] for i in idx]


def test_replay_ring_slot_holds_latest_write():
    capacity, n_added = 5, 12
    scale = np.array([1.0, 0.5, 1.0 / 60.0], dtype=DTYPE)
    ring = _ReplayBuffer(capacity, scale)
    for k in range(n_added):
        ring.add(np.full(3, k + 0.1), k % 2, float(k), np.full(3, -k - 0.1))
    assert len(ring) == capacity
    for slot in range(capacity):
        k = max(j for j in range(slot, n_added, capacity))
        # cast to DTYPE, then scaled in it
        assert ring.obs[slot].tobytes() == (
            np.full(3, k + 0.1).astype(DTYPE) * scale).tobytes()
        assert ring.next_obs[slot].tobytes() == (
            np.full(3, -k - 0.1).astype(DTYPE) * scale).tobytes()
        assert ring.actions[slot] == k % 2
        assert ring.rewards[slot] == float(k)
    pairs = np.full((2, 7, 3), np.nan, DTYPE)
    actions = np.full(7, -1, np.intp)
    rewards = np.full(7, np.nan, DTYPE)
    ring.draw(np.random.default_rng(0), pairs, actions, rewards)
    idx = np.random.default_rng(0).integers(0, capacity, size=7)
    assert pairs.tobytes() == np.stack([ring.obs[idx],
                                        ring.next_obs[idx]]).tobytes()
    assert actions.tolist() == ring.actions[idx].tolist()
    assert rewards.tobytes() == ring.rewards[idx].tobytes()


def test_dql_update_losses_match_list_replay_oracle():
    cfg = config_for("dql", warmup=8, batch_size=4, replay_capacity=16,
                     target_sync_period=5, hidden_sizes=[6])
    agent = DqlAgent(cfg, 4)
    oracle = DqlAgent(cfg, 4)
    ring = ListReplay(cfg.replay_capacity)
    rng = np.random.default_rng(31)
    losses, expected = [], []
    for _ in range(60):
        t = Transition(rand_obs(rng, dim=4), int(rng.integers(2)),
                       float(rng.normal()), rand_obs(rng, dim=4))
        out = agent.update(as_rollout([t]))
        if "loss" in out:
            losses.append(out["loss"])
        ring.add(t)
        if len(ring) >= cfg.warmup:
            # same generator state, so the same sampled indices
            expected.append(reference_td_step(oracle, *as_draw(
                oracle, ring.sample(oracle._rng, cfg.batch_size))))
    assert len(losses) == 60 - cfg.warmup + 1
    assert losses == expected
    np.testing.assert_array_equal(agent.q_net.params, oracle.q_net.params)
    np.testing.assert_array_equal(agent.target_net.params,
                                  oracle.target_net.params)


def float64_dql(cfg, obs_dim):
    """A DQL agent whose q and target nets are float64: its stack, nets and
    Adam state are widened before its first step, which builds the
    workspace in the stack's dtype. The replay stays float32."""
    agent = DqlAgent(cfg, obs_dim)
    agent._pair = MlpStack([Layer(l.w.astype(np.float64),
                                  l.b.astype(np.float64))
                            for l in agent.q_net.layers], 2)
    agent.q_net, agent.target_net = agent._pair.members
    agent.optimizer = AdamOptimizer(agent.q_net)
    return agent


def assert_same_dql_state(agent, twin):
    for name, net in agent._nets().items():
        assert net.params.tobytes() == twin._nets()[name].params.tobytes(), name
    assert agent.optimizer.t == twin.optimizer.t
    assert (agent.optimizer._moments.tobytes()
            == twin.optimizer._moments.tobytes())


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 64),
       hidden=st.lists(st.integers(1, 64), max_size=2),
       obs_dim=st.integers(1, 12),
       dtype=st.sampled_from([np.float32, np.float64]),
       sync=st.integers(1, 4),
       events=st.lists(st.sampled_from(["step", "write q", "write target",
                                        "checkpoint", "copy"]),
                       min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 16))
def test_the_td_step_equals_its_reference_bit_for_bit(
        batch, hidden, obs_dim, dtype, sync, events, seed):
    """``_td_step`` over its workspace against the reference built from
    the generic passes, step by step: across target syncs, after in-place
    writes to either net's ``params`` (which the workspace must read, not
    a stale copy), after a checkpoint round trip and after a copy, each of
    which starts a workspace of its own."""
    cfg = config_for("dql", batch_size=batch, warmup=batch,
                     replay_capacity=batch + 5, hidden_sizes=hidden,
                     target_sync_period=sync, seed=seed % 7)
    make = DqlAgent if dtype is np.float32 else float64_dql
    agent, twin = make(cfg, obs_dim), make(cfg, obs_dim)
    rng = np.random.default_rng(seed)
    warm = make_transitions(rng, batch - 1, dim=obs_dim)
    assert agent.update(as_rollout(warm, obs_dim)) == {}
    assert reference_update(twin, warm) == []
    events = ["step"] + events
    for event in events:
        if event == "step":
            for t in make_transitions(rng, int(rng.integers(1, 4)),
                                      dim=obs_dim):
                loss = agent.update(as_rollout([t]))["loss"]
                assert loss == reference_update(twin, [t])[0]
                assert agent._workspace.pairs.dtype == DTYPE
                assert agent._workspace.stack.dout.dtype == dtype
        elif event in ("write q", "write target"):
            values = rng.normal(size=agent.q_net.params.size)
            for owner in (agent, twin):
                net = owner.q_net if event == "write q" else owner.target_net
                net.params[...] = values
        elif event == "checkpoint":
            if dtype is np.float64:
                continue  # format 7 holds float32 nets only
            loaded = agent_from_bytes(agent_to_bytes(agent))
            loaded.replay = copy.deepcopy(agent.replay)  # no checkpoint holds it
            agent = loaded
        else:
            agent = (copy.deepcopy(agent) if rng.random() < 0.5
                     else pickle.loads(pickle.dumps(agent)))
            assert agent._workspace is None
        assert_same_dql_state(agent, twin)
    assert agent.optimizer.t >= 1


def test_the_td_step_builds_its_workspace_once_at_its_first_step():
    agent = warm_dql(warmup=13)
    assert agent._workspace is None  # 12 < 13 transitions: no step yet
    rng = np.random.default_rng(21)
    agent.update(as_rollout(make_transitions(rng, 1, dim=4)))
    ws = agent._workspace
    arrays = [ws.pairs, ws.stack.dout, ws.stack.grads.flat, *ws.stack.acts]
    agent.update(as_rollout(make_transitions(rng, 3, dim=4)))
    assert agent._workspace is ws
    assert all(a is b for a, b in zip(
        arrays, [ws.pairs, ws.stack.dout, ws.stack.grads.flat,
                 *ws.stack.acts]))
    assert ws.pairs.shape == (2, 4, 4)
    assert [a.shape for a in ws.stack.acts] == [(2, 4, 5), (2, 4, 2)]


# ---------------------------------------------------------------------------
# actor-critic updates against their reference
# ---------------------------------------------------------------------------

def same_stats(got, want):
    """Two updates' stats, equal bit for bit (the sign of a zero too)."""
    return got.keys() == want.keys() and all(
        struct.pack("<d", got[k]) == struct.pack("<d", want[k]) for k in got)


def ac_agent(algorithm, dtype=np.float32, obs_dim=OBS_DIM, **overrides):
    """A learner of the command's config for ``algorithm``; with float64
    nets if asked."""
    agent = make_agent(default_agent_config(algorithm, seed=3,
                                            overrides=overrides), obs_dim)
    return agent if dtype is np.float32 else float64_nets(agent)


@settings(max_examples=40, deadline=None)
@given(algorithm=st.sampled_from(["a2c", "ppo", "acktr"]),
       dtype=st.sampled_from([np.float32, np.float64]),
       hidden=st.lists(st.integers(1, 16), max_size=2),
       obs_dim=st.integers(1, 12),
       minibatch=st.integers(1, 40),
       epochs=st.integers(1, 3),
       critic_epochs=st.integers(1, 3),
       entropy_coef=st.sampled_from([0.0, 0.02]),
       events=st.lists(st.one_of(st.integers(1, 70),
                                 st.sampled_from(["write actor",
                                                  "write critic",
                                                  "checkpoint", "copy"])),
                       min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_the_actor_critic_update_equals_its_reference_bit_for_bit(
        algorithm, dtype, hidden, obs_dim, minibatch, epochs, critic_epochs,
        entropy_coef, events, seed):
    """``update`` over its workspace against the reference built from the
    generic passes, update by update, in both nets' dtypes: rollouts of
    any length (so a workspace regrows, and a shorter rollout or PPO
    minibatch runs on the leading rows of a longer one's arrays), after
    in-place writes to either net's ``params`` (which the passes must
    read, not a stale copy), after a checkpoint round trip and after a
    copy. The two agents must hold the same params, optimizer state,
    K-FAC factors, counters and generator state, and return the same
    stats."""
    agent = ac_agent(algorithm, dtype, obs_dim, hidden_sizes=hidden,
                     ppo_minibatch=minibatch, ppo_epochs=epochs,
                     critic_epochs=critic_epochs, entropy_coef=entropy_coef)
    twin = copy.deepcopy(agent)
    rng = np.random.default_rng(seed)
    for event in [int(rng.integers(1, 70))] + events:
        if isinstance(event, int):
            batch = recorded(agent, make_transitions(rng, event, dim=obs_dim))
            assert same_stats(agent.update(as_rollout(batch)),
                              ac_reference.reference_update(twin, batch))
            ws = agent._workspace
            assert ws.x.dtype == dtype
            assert ws.rows >= (event if algorithm != "ppo"
                               else min(event, minibatch))
        elif event.startswith("write"):
            values = rng.normal(size=agent.actor.params.size if event ==
                                "write actor" else agent.critic.params.size)
            for owner in (agent, twin):
                getattr(owner, event.split()[1]).params[...] = values
        elif event == "checkpoint":
            if dtype is np.float64:
                continue  # format 7 holds float32 nets only
            agent = agent_from_bytes(agent_to_bytes(agent))
        else:
            agent = (copy.deepcopy(agent) if rng.random() < 0.5
                     else pickle.loads(pickle.dumps(agent)))
            assert agent._workspace is None
        assert agent_to_bytes(agent) == agent_to_bytes(twin)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_ppo_update_with_a_short_last_minibatch_equals_its_reference(dtype):
    """A 100-row rollout in 64-row minibatches: each epoch ends on 36 rows,
    which run on the leading rows of the 64-row pass's arrays."""
    agent = ac_agent("ppo", dtype, rollout_length=100, ppo_minibatch=64)
    twin = copy.deepcopy(agent)
    rng = np.random.default_rng(41)
    for _ in range(2):
        batch = recorded(agent, make_transitions(rng, 100))
        assert same_stats(agent.update(as_rollout(batch)),
                          ac_reference.reference_update(twin, batch))
        assert agent_to_bytes(agent) == agent_to_bytes(twin)
    ws = agent._workspace
    assert ws.rows == 64 and sorted(ws._passes) == [36, 64]
    for pair in ws._passes.values():
        for run in pair:
            assert np.shares_memory(run.x, ws.x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("algorithm", ["a2c", "ppo", "acktr"])
def test_deployment_updates_of_another_period_equal_the_reference(algorithm,
                                                                  dtype):
    """A learner trained on 256-step rollouts, deployed with an
    ``update_period`` of 96: each online update runs on the leading rows
    of the training workspace, and the deployment, step by step, is the
    one the reference update gives."""
    cfg = build_env_config("sparse", 1.0, 9, episode_length=300.0)
    agent = ac_agent(algorithm, dtype, cfg.observation_size)
    train_agent(agent, TrafficSignalEnv(cfg, seed=9), 256)
    ws = agent._workspace
    assert ws.rows == (64 if algorithm == "ppo" else 256)
    twin = copy.deepcopy(agent)
    # the reference reads the rollout's columns as transitions
    twin.update = lambda batch: ac_reference.reference_update(
        twin, transitions_of(batch))
    deploy = DeploymentConfig(
        schedule=DetectionSchedule([(0.0, 1.0), (400.0, 0.2)]),
        total_steps=400, update_period=96, instability_window=50)
    results = [run_deployment(owner, cfg, deploy, seed=9)
               for owner in (agent, twin)]
    assert results[0] == results[1]
    assert agent_to_bytes(agent) == agent_to_bytes(twin)
    assert agent._workspace is ws and agent.train_steps == 256 + 4 * 96
    # PPO's 96 rows are a 64-row minibatch and a 32-row one
    assert sorted(ws._passes) == ([32, 64] if algorithm == "ppo"
                                  else [96, 256])


# ---------------------------------------------------------------------------
# copies
# ---------------------------------------------------------------------------

COPIERS = [pytest.param(copy.deepcopy, id="deepcopy"),
           pytest.param(lambda x: pickle.loads(pickle.dumps(x)), id="pickle")]


@pytest.mark.parametrize("copier", COPIERS)
@pytest.mark.parametrize("algorithm", ["a2c", "ppo", "acktr"])
def test_a_copied_actor_critic_builds_a_workspace_of_its_own(copier,
                                                             algorithm):
    """A copy taken between updates shares no memory with the original's
    workspace, builds its own at its next update, over its own nets, and
    that update is the original's bit for bit."""
    agent = ac_agent(algorithm, rollout_length=48, ppo_minibatch=32)
    rng = np.random.default_rng(43)
    agent.update(as_rollout(recorded(agent, make_transitions(rng, 48))))
    theirs = list(ac_workspace_arrays(agent._workspace))
    twin = copier(agent)
    assert twin._workspace is None
    assert not any(np.shares_memory(a, b)
                   for a in float_arrays_in(twin) for b in theirs)
    batch = recorded(agent, make_transitions(rng, 48))
    assert same_stats(twin.update(as_rollout(batch)),
                      agent.update(as_rollout(batch)))
    assert agent_to_bytes(twin) == agent_to_bytes(agent)
    ws = twin._workspace
    assert ws is not None and ws is not agent._workspace
    assert not any(np.shares_memory(a, b)
                   for a in ac_workspace_arrays(ws) for b in theirs)
    for run, net in zip(ws.passes(ws.rows if algorithm != "ppo" else 32),
                        (twin.actor, twin.critic)):
        assert np.shares_memory(run._plan[0][0], net.params)


@pytest.mark.parametrize("copier", COPIERS)
@pytest.mark.parametrize("algorithm", ["dql", "a2c", "ppo", "acktr",
                                       "fixed_time"])
def test_a_copied_agent_is_attached_and_trains_as_the_original(copier,
                                                               algorithm):
    """A copy holds what the original holds, each net's layers on its own
    ``params`` (DQL's nets on the rows of its own stack) and each
    optimizer's checkpoint views on its own moments, and trains on as the
    original does; neither touches the other."""
    agent = make_agent(config_for(algorithm, warmup=8, batch_size=4,
                                  rollout_length=16, hidden_sizes=[6]),
                       OBS_DIM)
    rng = np.random.default_rng(23)
    if algorithm != "fixed_time":
        agent.update(as_rollout(recorded(agent, make_transitions(rng, 16))))
    twin = copier(agent)
    assert agent_to_bytes(twin) == agent_to_bytes(agent)
    for name, net in twin._nets().items():
        original = agent._nets()[name].params
        assert not np.shares_memory(net.params, original)
        for layer in net.layers:
            assert np.shares_memory(layer.w, net.params)
            assert np.shares_memory(layer.b, net.params)
    for opt in twin._optimizers().values():
        if isinstance(opt, AdamOptimizer):
            assert all(np.shares_memory(view, opt._moments)
                       for view in opt.state_arrays())
    if algorithm == "dql":
        assert twin._workspace is None and agent._workspace is not None
        assert np.shares_memory(twin.q_net.params, twin._pair.params[0])
        assert np.shares_memory(twin.target_net.params, twin._pair.params[1])
        assert twin.replay._obs_scale is twin._obs_scale
    if algorithm != "fixed_time":
        more = make_transitions(rng, 16)
        for owner in (twin, agent):
            owner.update(as_rollout(recorded(owner, more)))
        assert agent_to_bytes(twin) == agent_to_bytes(agent)
        assert twin.train_steps == 32
    obs = rng.uniform(0, 40, size=(64, OBS_DIM))
    assert twin.greedy_actions(obs) == agent.greedy_actions(obs)


@pytest.mark.parametrize("copier", COPIERS)
def test_a_copied_dql_agents_nets_are_the_members_of_its_copied_stack(
        copier):
    # no copy hook of DQL's own: each net copies as its row of the copied
    # stack, whatever order the agent's attributes are copied in
    assert not {"__getstate__", "__setstate__"} & set(vars(DqlAgent))
    agent = warm_dql(target_sync_period=1000)
    twin = copier(agent)
    assert twin.q_net is twin._pair.members[0]
    assert twin.target_net is twin._pair.members[1]
    assert not np.shares_memory(twin._pair.params, agent._pair.params)


@pytest.mark.parametrize("copier", COPIERS)
def test_a_write_to_a_copied_dql_nets_params_shows_in_its_next_step(copier):
    agent = warm_dql(target_sync_period=1000)
    twin = copier(agent)
    twin.q_net.params[...] = 0.0
    twin.target_net.params[...] = 0.0
    assert twin.q_net.run(np.ones(4, DTYPE)).tolist() == [0.0, 0.0]
    # every q-value and target is 0, so the loss is the mean squared reward
    draw = copy.deepcopy(twin._rng)
    idx = draw.integers(0, len(twin.replay), size=4)
    rewards = twin.replay.rewards[idx].astype(np.float64)
    assert twin._td_step() == pytest.approx(float(np.mean(rewards ** 2)))
    assert agent.q_net.params.any()  # the original is untouched


# ---------------------------------------------------------------------------
# advantage arithmetic
# ---------------------------------------------------------------------------

def compute_advantage(r_t, v_next, v_now, gamma):
    """The advantage ``_targets`` and ``_advantages`` give one transition
    from an all-zero observation to an all-one one, under a critic that
    values them ``v_now`` and ``v_next``."""
    agent = make_agent(config_for("a2c", gamma=gamma), OBS_DIM)
    agent.critic.run = lambda x: np.where(x[:, :1] == 0.0, DTYPE(v_now),
                                          DTYPE(v_next))
    batch = [Transition(np.zeros(OBS_DIM), 0, r_t, np.ones(OBS_DIM))]
    obs, targets = agent._targets(as_rollout(batch))
    advantages = _advantages(targets, agent.critic.run(obs).ravel())
    assert advantages.shape == (1,)
    return advantages[0]


def test_compute_advantage_substitution():
    assert compute_advantage(1.0, 0.5, 1.0, 0.9) == pytest.approx(0.45)


def test_compute_advantage_calibrated_critic_is_zero():
    v_next, gamma = 0.7, 0.9
    r = 1.2
    # calibrated in the nets' dtype, in which the update adds and multiplies
    v_now = float(DTYPE(r) + DTYPE(gamma) * DTYPE(v_next))
    assert compute_advantage(r, v_next, v_now, gamma) == 0.0


# ---------------------------------------------------------------------------
# episode ends: every one is a time limit, so every step bootstraps
# ---------------------------------------------------------------------------

class RecordingEnv(TrafficSignalEnv):
    """An env that keeps a copy of every observation it hands out: each
    reset's, and each step's with its done flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.resets, self.steps = [], []

    def reset(self, *args, **kwargs):
        obs = super().reset(*args, **kwargs)
        self.resets.append(obs.copy())
        return obs

    def step(self, action):
        out = super().step(action)
        self.steps.append((out[0].copy(), out[2]))
        return out


EPISODE_STEPS = 5


def batch_across_an_episode_end(agent, batch=8):
    """The first batch that ``rollout`` gathers for ``agent`` on a sparse
    road whose episodes last ``EPISODE_STEPS`` steps, what it yielded
    for each step of the batch, and the env that recorded them."""
    cfg = build_env_config("sparse", 1.0, 7,
                           episode_length=float(EPISODE_STEPS))
    env = RecordingEnv(cfg, seed=7)
    yielded = []
    for reward, done, full in rollout(agent, env, batch=batch):
        yielded.append((reward, done))
        if full is not None:
            return full, yielded, env


def test_rollout_keeps_each_episodes_observations_across_an_episode_end():
    agent = make_agent(config_for("ppo"), OBS_DIM)
    full, yielded, env = batch_across_an_episode_end(agent)
    end = EPISODE_STEPS - 1
    assert len(full.actions) == len(yielded) == len(env.steps) == 8
    assert [done for _, done in yielded] == [k == end for k in range(8)]
    assert [done for _, done in env.steps] == [k == end for k in range(8)]
    assert full.rewards.tobytes() == np.array(
        [reward for reward, _ in yielded], DTYPE).tobytes()
    assert len(env.resets) == 2
    next_obs = next_obs_of(full)
    for k, (obs, _) in enumerate(env.steps):
        assert next_obs[k].tobytes() == np.asarray(obs, DTYPE).tobytes()
    # the episode's last step ends on that episode's final observation,
    # kept aside, not on the reset one ...
    assert list(full.finals) == [end]
    assert next_obs[end].tobytes() != np.asarray(env.resets[1],
                                                 DTYPE).tobytes()
    # ... and the next row is the reset observation
    for k, reset in ((0, 0), (end + 1, 1)):
        assert full.obs[k].tobytes() == np.asarray(env.resets[reset],
                                                   DTYPE).tobytes()


@pytest.mark.parametrize("algorithm", ["a2c", "ppo", "acktr"])
def test_critic_target_of_an_episodes_last_transition_bootstraps(algorithm):
    agent = make_agent(config_for(algorithm), OBS_DIM)
    # a critic far from 0, so a target without its bootstrap stands out
    agent.critic.layers[-1].b[:] = 50.0
    full, _, _ = batch_across_an_episode_end(agent)
    last = transitions_of(full)[EPISODE_STEPS - 1]
    v_next = call(agent.critic, last.next_obs * agent._obs_scale)
    expected = DTYPE(last.reward) + DTYPE(agent.config.gamma) * v_next[0]
    _, targets = agent._targets(full)
    assert targets[EPISODE_STEPS - 1] == pytest.approx(float(expected),
                                                       rel=1e-6)
    assert expected > 40.0


def test_dql_target_of_an_episodes_last_transition_bootstraps():
    agent = DqlAgent(config_for("dql", warmup=1, batch_size=1), OBS_DIM)
    # written in place: the target is row 1 of the q net's stack
    agent.target_net.layers[-1].b[:] = [30.0, 70.0]
    full, _, _ = batch_across_an_episode_end(agent)
    last = transitions_of(full)[EPISODE_STEPS - 1]
    q = call(agent.q_net, last.obs * agent._obs_scale)[last.action]
    next_q = call(agent.target_net, last.next_obs * agent._obs_scale)
    target = DTYPE(last.reward) + DTYPE(agent.config.gamma) * next_q.max()
    assert target > 60.0
    # a replay of this one transition: the step regresses onto it alone
    loss = agent.update(as_rollout([last]))["loss"]
    assert loss == pytest.approx(float((q - target) ** 2), rel=1e-5)


# ---------------------------------------------------------------------------
# the rollout's columns against the per-step transitions they replaced
# ---------------------------------------------------------------------------

def assert_columns_hold(full, transitions):
    """``full``'s columns are the fields of ``transitions``, cast as the
    stacked lists were, and its finals are the episode ends before its
    last step."""
    obs, actions, rewards, next_obs, log_probs = stack(transitions)
    assert len(full.actions) == len(transitions)
    assert full.obs[:-1].tobytes() == obs.tobytes()
    assert next_obs_of(full).tobytes() == next_obs.tobytes()
    assert full.actions.tolist() == actions.tolist()
    assert full.rewards.tobytes() == rewards.tobytes()
    assert full.log_probs.tobytes() == log_probs.tobytes()
    assert sorted(full.finals) == [
        t for t in range(len(transitions) - 1)
        if transitions[t].next_obs is not transitions[t + 1].obs]
    assert all(final.dtype == DTYPE for final in full.finals.values())


@settings(max_examples=30, deadline=None)
@given(algorithm=st.sampled_from(["dql", "a2c", "ppo", "acktr"]),
       batch=st.sampled_from([1, 3, 256]),
       episode=st.sampled_from([None, 1, 2, 3, 5, 100, 256]),
       batches=st.integers(1, 3),
       extra=st.integers(1, 2),
       seed=st.integers(0, 2 ** 16))
@example("a2c", 256, 100, 2, 1, 5)  # ends mid-batch
@example("ppo", 256, 256, 2, 1, 6)  # ends on each batch's last step
@example("acktr", 3, 5, 3, 2, 7)
@example("dql", 3, None, 2, 2, 8)  # a deployment: 8 steps in batches of 3
def test_each_rollout_holds_the_reference_transitions(algorithm, batch,
                                                      episode, batches,
                                                      extra, seed):
    """``rollout`` beside the per-step ``Transition`` loop, each driving
    its own copy of one agent and of one env: the same steps, and each
    full rollout holds the fields of the reference's transitions. An
    episode may end mid-batch, on a batch's last step (episodes of 1, 3
    or 256 steps) or never (``None``: a deployment, reset once with its
    seed, whose ``batch`` does not divide its steps). Both agents update
    on what they gathered, and end with the same bytes."""
    steps = batches * batch + extra
    length = float(steps + 1 if episode is None else episode)
    cfg = build_env_config("sparse", 1.0, seed % 97, episode_length=length)
    agent = make_agent(config_for(algorithm, seed=seed % 89, warmup=2,
                                  batch_size=2, hidden_sizes=[8],
                                  critic_epochs=2, ppo_minibatch=64),
                       cfg.observation_size)
    twin = copy.deepcopy(agent)
    env, twin_env = (TrafficSignalEnv(cfg, seed=seed) for _ in range(2))
    if episode is None:
        starts = env.reset(seed=seed), twin_env.reset(seed=seed)
    else:
        starts = None, None
    fulls = 0
    for _, ((reward, done, full), (r_ref, d_ref, ref)) in zip(
            range(steps), zip(rollout(agent, env, batch, starts[0]),
                              reference_rollout(twin, twin_env, batch,
                                                starts[1]))):
        assert (reward, done) == (r_ref, d_ref)
        assert (full is None) == (ref is None)
        if full is not None:
            assert_columns_hold(full, ref)
            assert same_stats(agent.update(full),
                              twin.update(as_rollout(ref)))
            fulls += 1
    assert fulls == steps // batch
    assert agent_to_bytes(agent) == agent_to_bytes(twin)


@settings(max_examples=60, deadline=None)
@given(algorithm=st.sampled_from(ALGORITHMS),
       seed=st.integers(0, 2 ** 16),
       weight_scale=st.sampled_from([0.0, 1.0, 8.0]),
       explore=st.booleans(),
       obs=st.lists(st.floats(-1e3, 1e3), min_size=OBS_DIM,
                    max_size=OBS_DIM))
def test_act_on_a_float64_observation_equals_act_on_its_float32_row(
        algorithm, seed, weight_scale, explore, obs):
    """``rollout`` hands ``act`` the float32 row it wrote, where the
    per-step loop handed it the env's float64 observation: the same
    action, log-probability and generator state either way."""
    cfg = config_for(algorithm, seed=seed, epsilon_start=0.5,
                     epsilon_end=0.5)
    agent, twin = make_agent(cfg, OBS_DIM), make_agent(cfg, OBS_DIM)
    for owner in (agent, twin):
        for net in owner._nets().values():
            net.params *= weight_scale
    wide_obs = np.array(obs)
    row = np.empty((2, OBS_DIM), DTYPE)[1]
    row[...] = wide_obs
    for _ in range(3):
        assert agent.act(wide_obs, explore) == twin.act(row, explore)
        assert repr(agent.last_logprob) == repr(twin.last_logprob)
        assert (agent._rng.bit_generator.state
                == twin._rng.bit_generator.state)


@pytest.mark.parametrize("algorithm, critic_calls", [
    ("a2c", 1), ("acktr", 1), ("ppo", 2)])
def test_critic_forwards_of_an_update(monkeypatch, algorithm, critic_calls):
    """A single pass takes V(s) from its first critic epoch's forward:
    ``critic_epochs`` pass forwards plus the one ``run`` on the next
    observations. PPO's critic steps run on minibatches, so it also runs
    the critic once on the rollout's observations."""
    agent = make_agent(default_agent_config(algorithm, seed=3), OBS_DIM)
    batch = as_rollout(recorded(agent, make_transitions(
        np.random.default_rng(7), 48)))
    forwards, calls = [], []
    pass_forward, net_run = StackPass.forward, Mlp.run

    def counted_forward(run):
        forwards.append(run)
        return pass_forward(run)

    def counted_run(net, x):
        calls.append((net, len(x)))
        return net_run(net, x)

    monkeypatch.setattr(StackPass, "forward", counted_forward)
    monkeypatch.setattr(Mlp, "run", counted_run)
    agent.update(batch)
    critic = agent._workspace.passes(agent._workspace.rows)[1]
    critic_forwards = sum(run._plan is critic._plan for run in forwards)
    cfg = agent.config
    passes = (1 if agent.single_pass else
              cfg.ppo_epochs * math.ceil(48 / cfg.ppo_minibatch))
    assert critic_forwards == cfg.critic_epochs * passes
    assert calls == [(agent.critic, 48)] * critic_calls


# ---------------------------------------------------------------------------
# two-column policy math against the axis-reduction forms
# ---------------------------------------------------------------------------

def entropy_ref(pi, logp):
    return -(pi * logp).sum(axis=1)


def surrogate_grad_ref(logp, pi, actions, coeff, batch_size, entropy_coef):
    """``_actor_surrogate_grad`` as it was: one-hot rows written by
    index and the entropy taken by an axis sum."""
    onehot = np.zeros_like(pi)
    onehot[np.arange(len(actions)), actions] = 1.0
    grad = coeff[:, None] * (onehot - pi)
    if entropy_coef:
        entropy = -(pi * logp).sum(axis=1, keepdims=True)
        grad += entropy_coef * (-pi * (logp + entropy))
    return grad / batch_size


_LOGIT = st.one_of(st.floats(-1e307, 1e307), st.floats(-60.0, 60.0),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0]))
_GAP = st.floats(745.0, 1e4)
_LOGIT_PAIRS = st.one_of(
    st.tuples(_LOGIT, _LOGIT),
    _LOGIT.map(lambda x: (x, x)),  # tied
    st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]),
    # saturated: one probability underflows to 0.0 and the other is 1.0
    st.tuples(st.floats(-1e4, 1e4), _GAP).map(lambda t: (t[0], t[0] - t[1])),
    st.tuples(st.floats(-1e4, 1e4), _GAP).map(lambda t: (t[0] - t[1], t[0])),
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300)
@given(pairs=st.lists(_LOGIT_PAIRS, min_size=1, max_size=70), data=st.data(),
       entropy_coef=st.sampled_from([0.0, 0.01, 0.02, 3.0]))
def test_two_column_policy_math_equals_the_axis_reductions(pairs, data,
                                                          entropy_coef):
    """The log-softmax, entropy and surrogate gradient of the updates,
    bit for bit (the sign of every zero included) against the forms with
    axis reductions, over tied, saturated and large-magnitude logits."""
    logits = np.array(pairs, dtype=np.float64)
    n = len(logits)
    logp = _log_softmax(logits)
    assert same_bits(logp, log_softmax_ref(logits))
    for row in logits:  # a lone pair, as a 1-D array
        assert same_bits(_log_softmax(row), log_softmax_ref(row))
    pi = np.exp(logp)
    entropy = _entropy(pi, logp)
    assert same_bits(entropy, entropy_ref(pi, logp))
    actions = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                          max_size=n)), dtype=np.intp)
    coeff = np.array(data.draw(st.lists(
        st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
        min_size=n, max_size=n)))
    agent = make_agent(config_for("a2c", entropy_coef=entropy_coef), OBS_DIM)
    score = _ONE_HOT[actions] - pi
    got = agent._actor_surrogate_grad(logp, pi, score, coeff, entropy)
    assert same_bits(got, surrogate_grad_ref(logp, pi, actions, coeff, n,
                                             entropy_coef))


# ---------------------------------------------------------------------------
# actor-critic updates
# ---------------------------------------------------------------------------

def zero_advantage_rollout(agent, rng):
    """16 transitions from one observation to one next observation
    with one reward, each with an action of its own. Every row's
    advantage before the baseline is the same value, and 16 copies of it
    sum exactly (numpy adds them in pairs), so the batch-mean baseline
    leaves every advantage exactly 0.0. The observations are in the nets'
    dtype, so the agent reads them as they are."""
    obs = rand_obs(rng).astype(DTYPE)
    nxt = rand_obs(rng).astype(DTYPE)
    reward = float(rng.normal())
    rollout = [Transition(obs, int(rng.integers(2)), reward, nxt)
               for _ in range(16)]
    obs, targets = agent._targets(as_rollout(rollout))
    assert not _advantages(targets, agent.critic.run(obs).ravel()).any()
    return rollout


@pytest.mark.parametrize("algorithm", ["a2c", "ppo", "acktr"])
def test_zero_advantages_leave_actor_bit_unchanged(algorithm):
    cfg = config_for(algorithm, entropy_coef=0.0)
    agent = make_agent(cfg, OBS_DIM)
    rng = np.random.default_rng(1)
    rollout = recorded(agent, zero_advantage_rollout(agent, rng))
    before = agent.actor.flatten()
    agent.update(as_rollout(rollout))
    np.testing.assert_array_equal(agent.actor.flatten(), before)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_empty_batch_update_is_a_no_op(algorithm):
    """``update([])`` returns no stats and leaves the counters, the
    generator, the nets and the optimizer state as they were, for every
    controller; each learner has taken one real update first."""
    agent = make_agent(config_for(algorithm, warmup=8, batch_size=8), OBS_DIM)
    agent.update(as_rollout(recorded(agent, make_transitions(
        np.random.default_rng(2), 16))))
    before = agent_to_bytes(agent)
    assert agent.update(as_rollout([], OBS_DIM)) == {}
    assert agent_to_bytes(agent) == before


def test_a2c_positive_advantage_increases_action_probability():
    cfg = config_for("a2c", actor_lr=0.05, entropy_coef=0.0)
    agent = with_sgd(A2cAgent(cfg, OBS_DIM))
    rng = np.random.default_rng(5)
    obs = rand_obs(rng)
    nxt = rand_obs(rng)
    # large reward makes the advantage of action 0 strongly positive
    rollout = [Transition(obs, 0, 50.0, nxt)]
    p_before = policy(agent, obs)[0]
    agent.update(as_rollout(rollout))
    p_after = policy(agent, obs)[0]
    assert p_after > p_before


def test_a2c_actor_gradient_matches_finite_differences():
    cfg = config_for("a2c", actor_lr=1.0, entropy_coef=0.0, hidden_sizes=[4])
    agent = with_sgd(float64_nets(A2cAgent(cfg, 5)))
    rng = np.random.default_rng(9)
    rollout = make_transitions(rng, 6, dim=5)
    obs = np.stack([t.obs for t in rollout]) * agent._obs_scale
    actions = np.array([t.action for t in rollout])
    # freeze the advantages the update will use
    v_now = call(agent.critic, obs).ravel()
    nxt = np.stack([t.next_obs for t in rollout]) * agent._obs_scale
    v_next = call(agent.critic, nxt).ravel()
    adv = np.array([t.reward for t in rollout]) + cfg.gamma * v_next - v_now
    adv -= adv.mean()  # the batch-mean baseline

    def surrogate(actor):
        logp = log_softmax_ref(call(actor, obs))
        return float(np.mean(logp[np.arange(len(actions)), actions] * adv))

    numeric = fd_gradient(surrogate, agent.actor)
    before = agent.actor.flatten()
    agent.update(as_rollout(rollout))
    analytic = agent.actor.flatten() - before  # sgd with lr=1: step == gradient
    denom = np.maximum(np.abs(numeric), 1e-6)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_ppo_objective_at_snapshot_policy_is_mean_advantage():
    # two minibatches of four: the baseline centres the advantages of the
    # whole batch, so each minibatch's mean is not zero
    cfg = config_for("ppo", ppo_epochs=1, ppo_minibatch=4, actor_lr=1e-9,
                     entropy_coef=0.0)
    agent = with_sgd(PpoAgent(cfg, OBS_DIM))
    rng = np.random.default_rng(2)
    rollout = recorded(agent, make_transitions(rng, 8))
    obs = np.stack([t.obs for t in rollout]) * agent._obs_scale
    actions = np.array([t.action for t in rollout])
    v_now = call(agent.critic, obs).ravel()
    nxt = np.stack([t.next_obs for t in rollout]) * agent._obs_scale
    v_next = call(agent.critic, nxt).ravel()
    adv = np.array([t.reward for t in rollout]) + cfg.gamma * v_next - v_now
    adv -= adv.mean()
    last = copy.deepcopy(agent._rng).permutation(8)[4:]  # the update's draw
    actor_loss = agent.update(as_rollout(rollout))["actor_loss"]
    assert actor_loss == pytest.approx(-float(np.mean(adv[last])), rel=1e-6)


def test_ppo_clipped_term_arithmetic():
    cfg = config_for("ppo", ppo_epochs=1, ppo_minibatch=8, actor_lr=1e-12,
                     clip_epsilon=0.2, entropy_coef=0.0)
    agent = with_sgd(PpoAgent(cfg, OBS_DIM))
    rng = np.random.default_rng(4)
    obs = rand_obs(rng)
    nxt = rand_obs(rng)
    # force advantage exactly 1
    v_now = float(call(agent.critic, obs * agent._obs_scale)[0])
    v_next = float(call(agent.critic, nxt * agent._obs_scale)[0])
    r = 1.0 + v_now - cfg.gamma * v_next
    # store an old log-prob that makes the ratio exactly 1.5
    logp_now = log_softmax_ref(call(agent.actor, obs * agent._obs_scale))[0]
    t = Transition(obs, 0, r, nxt, log_prob=float(logp_now - np.log(1.5)))
    actor_loss = agent.update(as_rollout([t]))["actor_loss"]
    # the objective is the nets' float32: 1.2 to within its rounding
    assert actor_loss == pytest.approx(-min(1.5, 1.2), rel=1e-6)


def test_ppo_surrogate_gradient_matches_finite_differences():
    cfg = config_for("ppo", ppo_epochs=1, ppo_minibatch=64, actor_lr=1.0,
                     clip_epsilon=0.2, entropy_coef=0.0, hidden_sizes=[4])
    agent = with_sgd(float64_nets(PpoAgent(cfg, 5)))
    rng = np.random.default_rng(11)
    rollout = make_transitions(rng, 8, dim=5)
    obs = np.stack([t.obs for t in rollout]) * agent._obs_scale
    actions = np.array([t.action for t in rollout])
    # old policy = slightly perturbed current one, so some ratios clip
    logp_now = log_softmax_ref(call(agent.actor, obs))[np.arange(8), actions]
    old_logp = logp_now - rng.uniform(-0.4, 0.4, size=8)
    for t, lp in zip(rollout, old_logp):
        t.log_prob = float(lp)
    v_now = call(agent.critic, obs).ravel()
    nxt = np.stack([t.next_obs for t in rollout]) * agent._obs_scale
    v_next = call(agent.critic, nxt).ravel()
    adv = np.array([t.reward for t in rollout]) + cfg.gamma * v_next - v_now
    adv -= adv.mean()  # the batch-mean baseline

    def clipped_surrogate(actor):
        logp = log_softmax_ref(call(actor, obs))[np.arange(8), actions]
        ratio = np.exp(logp - old_logp)
        lo, hi = 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon
        return float(np.mean(np.minimum(ratio * adv,
                                        np.clip(ratio, lo, hi) * adv)))

    numeric = fd_gradient(clipped_surrogate, agent.actor)
    before = agent.actor.flatten()
    agent.update(as_rollout(rollout))
    analytic = agent.actor.flatten() - before
    denom = np.maximum(np.abs(numeric), 1e-6)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_ppo_update_without_recorded_log_probs_raises():
    """PPO's ratio needs the log-probability each action had under the
    policy that took it, which ``rollout`` records; a batch without them
    is refused before the agent changes."""
    agent = PpoAgent(config_for("ppo"), OBS_DIM)
    batch = make_transitions(np.random.default_rng(2), 8)
    before = agent_to_bytes(agent)
    with pytest.raises(ValueError, match=r"PPO .*rollout"):
        agent.update(as_rollout(batch))
    assert agent_to_bytes(agent) == before


def test_a2c_step_is_ppo_with_one_epoch_of_one_minibatch():
    """A2C's single pass is PPO's update with one epoch of one minibatch
    whose ratios are 1: on a rollout its own policy recorded, PPO moves
    the actor and the critic as A2C does, to float32 rounding (PPO's
    permutation reorders the sums). A2C draws nothing from its generator."""
    shared = dict(seed=12, ppo_epochs=1, ppo_minibatch=64, critic_epochs=3,
                  actor_lr=0.05, critic_lr=0.02)
    a2c = with_sgd(A2cAgent(config_for("a2c", **shared), OBS_DIM))
    ppo = with_sgd(PpoAgent(config_for("ppo", **shared), OBS_DIM))
    rollout = recorded(ppo, make_transitions(np.random.default_rng(13), 48))
    draws = a2c._rng.bit_generator.state
    steps = {}
    for agent in (a2c, ppo):
        before = {name: net.flatten() for name, net in agent._nets().items()}
        agent.update(as_rollout(rollout))
        steps[agent.algorithm] = {name: net.params - before[name]
                                  for name, net in agent._nets().items()}
    assert a2c._rng.bit_generator.state == draws
    for name in ("actor", "critic"):
        step = steps["a2c"][name]
        assert np.abs(step).max() > 1e-4
        np.testing.assert_allclose(steps["ppo"][name], step, rtol=0,
                                   atol=1e-5 * np.abs(step).max())


@pytest.mark.parametrize("algorithm", ["a2c", "ppo", "acktr"])
def test_actor_critic_updates_report_one_stat_set(algorithm):
    agent = make_agent(config_for(algorithm), OBS_DIM)
    stats = agent.update(as_rollout(recorded(agent, make_transitions(
        np.random.default_rng(4), 32))))
    assert sorted(stats) == ["actor_loss", "critic_loss", "entropy"]
    assert all(math.isfinite(value) for value in stats.values())


@pytest.mark.parametrize("algorithm", ["a2c", "ppo", "acktr"])
def test_update_with_non_finite_actor_raises_divergence(algorithm):
    agent = make_agent(config_for(algorithm), OBS_DIM)
    rollout = recorded(agent, make_transitions(np.random.default_rng(5), 16))
    agent.actor.layers[-1].b[:] = np.nan
    with pytest.raises(DivergenceError,
                       match=r"^actor surrogate became non-finite$"):
        agent.update(as_rollout(rollout))


def test_ppo_per_step_term_respects_clip_bound():
    eps = 0.2
    rng = np.random.default_rng(8)
    adv = rng.normal(size=50)
    ratio = rng.uniform(0.2, 2.5, size=50)
    term = np.minimum(ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)
    bound = np.maximum(adv * (1 - eps), adv * (1 + eps))
    assert np.all(term <= bound + 1e-12)


def test_policy_stays_proper_distribution_after_updates():
    rng = np.random.default_rng(6)
    for algorithm in ("a2c", "ppo", "acktr"):
        agent = make_agent(config_for(algorithm), OBS_DIM)
        for _ in range(5):
            agent.update(as_rollout(recorded(agent,
                                             make_transitions(rng, 32))))
        for _ in range(20):
            pi = policy(agent, rand_obs(rng))
            assert abs(pi.sum() - 1.0) < 1e-9
            assert np.all(pi > 0.0)


def test_exploration_floor_keeps_rare_action_sampled():
    agent = A2cAgent(config_for("a2c", explore_floor=0.1), OBS_DIM)
    # saturate the policy toward keep
    agent.actor.layers[-1].b[:] = [50.0, -50.0]
    obs = rand_obs(np.random.default_rng(0))
    draws = [agent.act(obs, explore=True) for _ in range(2000)]
    assert 0 < sum(draws) < 400  # floor samples switch ~5% of the time
    assert agent.act(obs, explore=False) == 0  # greedy ignores the floor


def test_centered_advantages_remove_shared_offset():
    # one constant added to every reward shifts every advantage by it; the
    # batch-mean baseline takes it out again, so the actor's step is the
    # same to rounding: the float32 rewards near 40 are rounded to within
    # 2e-6, which here moves the steps by 3.7e-5 of the largest
    cfg = config_for("a2c", entropy_coef=0.0)
    rollout = make_transitions(np.random.default_rng(3), 8)
    shifted = [dataclasses.replace(t, reward=t.reward + 40.0) for t in rollout]
    steps = []
    for batch in (rollout, shifted):
        agent = with_sgd(A2cAgent(cfg, OBS_DIM))
        before = agent.actor.flatten()
        agent.update(as_rollout(batch))
        steps.append(agent.actor.flatten() - before)
    assert np.abs(steps[0]).max() > 1e-6
    np.testing.assert_allclose(steps[1], steps[0], rtol=0,
                               atol=1e-4 * np.abs(steps[0]).max())


def test_more_critic_epochs_fit_targets_closer():
    rng = np.random.default_rng(4)
    rollout = make_transitions(rng, 32)

    def critic_loss_after(epochs):
        agent = A2cAgent(config_for("a2c", critic_epochs=epochs,
                                    critic_lr=3e-3), OBS_DIM)
        agent.update(as_rollout(rollout))
        obs, targets = agent._targets(as_rollout(rollout))
        v = call(agent.critic, obs).ravel()
        return float(np.mean((v - targets) ** 2))

    assert critic_loss_after(10) < critic_loss_after(1)


# ---------------------------------------------------------------------------
# curvature-preconditioned updates
# ---------------------------------------------------------------------------

def test_acktr_with_identity_curvature_equals_a2c():
    shared = dict(seed=12, entropy_coef=0.01, actor_lr=0.01, critic_lr=0.02)
    a2c = with_sgd(A2cAgent(config_for("a2c", **shared), OBS_DIM))
    acktr = AcktrAgent(config_for("acktr", kfac_decay=1.0, kfac_damping=0.0,
                                  trust_region_radius=math.inf,
                                  kl_budget=math.inf, **shared),
                       OBS_DIM)
    np.testing.assert_array_equal(a2c.actor.flatten(), acktr.actor.flatten())
    rng = np.random.default_rng(7)
    rollout = make_transitions(rng, 16)
    a2c.update(as_rollout(rollout))
    acktr.update(as_rollout(rollout))
    assert np.max(np.abs(a2c.actor.flatten() - acktr.actor.flatten())) < 1e-12
    assert np.max(np.abs(a2c.critic.flatten() - acktr.critic.flatten())) < 1e-12


def test_acktr_zero_trust_radius_freezes_parameters():
    agent = AcktrAgent(config_for("acktr", trust_region_radius=0.0), OBS_DIM)
    before_actor = agent.actor.flatten()
    before_critic = agent.critic.flatten()
    agent.update(as_rollout(make_transitions(np.random.default_rng(3), 16)))
    np.testing.assert_array_equal(agent.actor.flatten(), before_actor)
    np.testing.assert_array_equal(agent.critic.flatten(), before_critic)


# Each ACKTR check below runs in float64 nets, at float64's precision, and
# in the float32 nets ACKTR ships with, whose K-FAC factors, inverses and
# products are float32 too.

def check_single_layer_matches_dense_natural_gradient_oracle(nets):
    lam = 0.1
    lr = 0.05
    cfg = config_for("acktr", hidden_sizes=[], kfac_damping=lam, kfac_decay=1.0,
                     trust_region_radius=math.inf, kl_budget=math.inf,
                     entropy_coef=0.0, actor_lr=lr)
    agent = AcktrAgent(cfg, 3)
    if nets == "float64":
        agent = float64_nets(agent)
    rng = np.random.default_rng(21)
    a_fac = rng.normal(size=(3, 3))
    a_fac = a_fac @ a_fac.T + 0.3 * np.eye(3)
    s_fac = rng.normal(size=(2, 2))
    s_fac = s_fac @ s_fac.T + 0.3 * np.eye(2)
    # written in place: the factors keep the nets' dtype
    agent.actor_stats.a_factors[0][...] = a_fac
    agent.actor_stats.s_factors[0][...] = s_fac

    rollout = make_transitions(rng, 12, dim=3)
    # the observations, rewards and gamma as the update reads them: cast
    # to the nets' float32 first, then widened by the float64 oracle
    obs = np.stack([t.obs for t in rollout]).astype(DTYPE).astype(np.float64)
    actions = np.array([t.action for t in rollout])
    rewards = np.array([t.reward for t in rollout], dtype=DTYPE).astype(np.float64)
    nxt = np.stack([t.next_obs for t in rollout]).astype(DTYPE).astype(np.float64)
    critic, actor = wide(agent.critic), wide(agent.actor)
    v_now = call(critic, obs).ravel()
    v_next = call(critic, nxt).ravel()
    adv = rewards + float(DTYPE(cfg.gamma)) * v_next - v_now
    adv -= adv.mean()  # the batch-mean baseline
    logits = call(actor, obs)
    pi = np.exp(log_softmax_ref(logits))
    onehot = np.zeros_like(pi)
    onehot[np.arange(12), actions] = 1.0
    coeff = adv[:, None] * (onehot - pi)
    g_w = coeff.T @ obs / 12.0
    g_b = coeff.mean(axis=0)
    a_d = a_fac + lam * np.eye(3)
    s_d = s_fac + lam * np.eye(2)
    expected_dw = lr * np.linalg.solve(s_d, g_w) @ np.linalg.inv(a_d)
    expected_db = lr * np.linalg.solve(s_d, g_b)

    natural = agent._natural
    steps = []  # the actor's step as _natural hands it to the optimizer

    def spy(stats, grads, learning_rate):
        nat = natural(stats, grads, learning_rate)
        if stats is agent.actor_stats:
            steps.append((learning_rate * nat.dw[0], learning_rate * nat.db[0]))
        return nat

    agent._natural = spy
    w_before = agent.actor.layers[0].w.astype(np.float64)
    b_before = agent.actor.layers[0].b.astype(np.float64)
    agent.update(as_rollout(rollout))
    [(step_w, step_b)] = steps
    w_after = agent.actor.layers[0].w
    b_after = agent.actor.layers[0].b
    if nets == "float64":
        rtol, w_atol, b_atol = 1e-8, 1e-12, 1e-12
    else:
        # the step itself to float32's precision; the applied step also
        # carries each parameter's rounding, at most half its spacing
        rtol = 1e-5
        w_atol = 0.5 * np.spacing(np.abs(w_after)).max()
        b_atol = 0.5 * np.spacing(np.abs(b_after)).max()
    np.testing.assert_allclose(step_w, expected_dw, rtol=rtol)
    np.testing.assert_allclose(step_b, expected_db, rtol=rtol)
    np.testing.assert_allclose(w_after - w_before, expected_dw, rtol=rtol, atol=w_atol)
    np.testing.assert_allclose(b_after - b_before, expected_db, rtol=rtol, atol=b_atol)


def test_acktr_single_layer_matches_dense_natural_gradient_oracle():
    check_single_layer_matches_dense_natural_gradient_oracle("float64")


def test_acktr_single_layer_matches_dense_natural_gradient_oracle_in_float32():
    check_single_layer_matches_dense_natural_gradient_oracle("float32")


def check_trust_radius_caps_step_norm(nets):
    radius = 1e-4
    agent = AcktrAgent(config_for(
        "acktr", trust_region_radius=radius, actor_lr=10.0, critic_lr=10.0),
        OBS_DIM)
    if nets == "float64":
        agent = float64_nets(agent)
    natural = agent._natural
    capped = []  # the norm of each step _natural hands to an optimizer

    def spy(stats, grads, learning_rate):
        nat = natural(stats, grads, learning_rate)
        capped.append(learning_rate * math.sqrt(np.dot(nat.flat, nat.flat)))
        return nat

    agent._natural = spy
    before = agent.actor.flatten().astype(np.float64)
    agent.update(as_rollout(make_transitions(np.random.default_rng(13), 16)))
    after = agent.actor.flatten()
    step = np.linalg.norm(after - before)
    assert len(capped) == 2  # the actor's step and the critic's
    assert all(0.0 < norm <= radius * (1 + 1e-6) for norm in capped)
    assert step > 0.0
    if nets == "float64":
        assert step <= radius + 1e-12
    else:
        # the applied step also carries each parameter's rounding, at most
        # half its spacing; here it exceeds the radius by about 2e-5 of it
        assert step <= radius * (1 + 1e-6) + 0.5 * np.linalg.norm(np.spacing(after))


def test_acktr_trust_radius_caps_step_norm():
    check_trust_radius_caps_step_norm("float64")


def test_acktr_trust_radius_caps_step_norm_in_float32():
    check_trust_radius_caps_step_norm("float32")


def test_acktr_kl_budget_bounds_curvature_step():
    rollout = make_transitions(np.random.default_rng(14), 16)
    big = AcktrAgent(config_for("acktr", kl_budget=math.inf, actor_lr=1.0),
                     OBS_DIM)
    small = AcktrAgent(config_for("acktr", kl_budget=1e-8, actor_lr=1.0), OBS_DIM)
    before = big.actor.flatten()
    big.update(as_rollout(rollout))
    small.update(as_rollout(rollout))
    step_big = np.linalg.norm(big.actor.flatten() - before)
    step_small = np.linalg.norm(small.actor.flatten() - before)
    assert step_small < step_big
    assert step_small > 0.0


def test_acktr_zero_advantages_fixed_point_with_kl_budget():
    cfg = config_for("acktr", entropy_coef=0.0, kl_budget=1e-2)
    agent = AcktrAgent(cfg, OBS_DIM)
    rollout = zero_advantage_rollout(agent, np.random.default_rng(5))
    before = agent.actor.flatten()
    agent.update(as_rollout(rollout))
    np.testing.assert_array_equal(agent.actor.flatten(), before)


def natural_reference(agent, stats, grads, learning_rate):
    """``AcktrAgent._natural`` as it was: each scaling a new vector."""
    nat = stats.precondition(grads)
    quad = float(np.dot(grads.flat, nat.flat))
    if quad > 0:
        delta = agent.config.kl_budget
        scale = min(1.0, math.sqrt(2.0 * delta / quad) / learning_rate)
        nat = Gradients(nat.flat * scale, nat.shapes)
    radius = agent.config.trust_region_radius
    if math.isfinite(radius):
        step_norm = learning_rate * math.sqrt(float(np.dot(nat.flat, nat.flat)))
        if step_norm > radius:
            nat = Gradients(nat.flat * (radius / step_norm), nat.shapes)
    return nat


def random_gradients(rng, net):
    """Standard normal gradients in ``net``'s layout and dtype."""
    return gradients_of(
        [rng.normal(size=l.w.shape).astype(net.params.dtype) for l in net.layers],
        [rng.normal(size=l.b.shape).astype(net.params.dtype) for l in net.layers])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kl_budget=st.sampled_from([math.inf, 1e-12, 1e-2, 1e3]),
       radius=st.sampled_from([math.inf, 0.0, 1e-6, 1.0]),
       learning_rate=st.sampled_from([1e-3, 0.25]))
def test_acktr_natural_scales_a_fresh_vector_as_the_copying_form_did(
        seed, kl_budget, radius, learning_rate):
    """``_natural`` never writes into the raw gradient it is given, its
    result shares no memory with it, and the in-place KL and trust-region
    scalings give the vector the copying form gave, bit for bit."""
    agent = AcktrAgent(config_for("acktr", seed=seed % 1000, kl_budget=kl_budget,
                                  trust_region_radius=radius,
                                  hidden_sizes=[8, 5]), OBS_DIM)
    rng = np.random.default_rng(seed)
    # factors other than identity
    agent.update(as_rollout(make_transitions(rng, 24)))
    for stats, net in ((agent.actor_stats, agent.actor),
                       (agent.critic_stats, agent.critic)):
        grads = random_gradients(rng, net)
        raw = grads.flat.tobytes()
        got = agent._natural(stats, grads, learning_rate)
        assert grads.flat.tobytes() == raw
        assert not np.shares_memory(got.flat, grads.flat)
        assert got.flat.tobytes() == natural_reference(
            agent, stats, grads, learning_rate).flat.tobytes()


@functools.lru_cache(maxsize=None)
def env_rollouts(count, length=256, seed=4):
    """``count`` consecutive rollouts of uniformly random actions on the
    medium road: real observations, shared by every agent that takes them."""
    env = TrafficSignalEnv(build_env_config("medium", 0.5, seed), seed=seed)
    rng = np.random.default_rng(seed)
    obs = env.reset()
    rollouts = []
    for _ in range(count):
        batch = []
        for _ in range(length):
            action = int(rng.integers(2))
            nxt, reward, done, _ = env.step(action)
            batch.append(Transition(obs, action, reward, nxt))
            obs = env.reset() if done else nxt
        rollouts.append(tuple(batch))
    return tuple(rollouts)


def default_acktr(**overrides):
    """ACKTR at the training defaults: 11 -> 64 -> 64 -> 2 (and -> 1)."""
    return make_agent(default_agent_config("acktr", seed=6, overrides=overrides),
                      OBS_DIM)


def relative_gap(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_kfac_precondition_matches_solve_oracle_at_training_sizes():
    agent = default_acktr()
    for rollout in env_rollouts(4):
        agent.update(as_rollout(rollout))
    rng = np.random.default_rng(41)
    for stats, net in ((agent.actor_stats, agent.actor),
                       (agent.critic_stats, agent.critic)):
        assert stats.damping == 1e-2
        grads = random_gradients(rng, net)
        # float32 factors and inverses against the float64 solves: the
        # largest relative error seen was 1.5e-5
        np.testing.assert_allclose(stats.precondition(grads).flat,
                                   solve_precondition(stats, grads).flat,
                                   rtol=1e-4)


def test_acktr_cached_inverses_agree_with_solve_oracle_agent():
    agent = default_acktr()
    oracle = use_solve_preconditioner(default_acktr())
    start = {name: net.flatten() for name, net in agent._nets().items()}
    for done, rollout in enumerate(env_rollouts(10), start=1):
        agent.update(as_rollout(rollout))
        oracle.update(as_rollout(rollout))
        if done in (1, 10):
            for name, net in agent._nets().items():
                expect = oracle._nets()[name].params
                assert not np.array_equal(expect, start[name])
                # float32 inverses against float64 solves: the largest gap
                # seen was 1.7e-7
                assert relative_gap(net.params, expect) <= 1e-6, (name, done)


def test_acktr_resumes_bit_for_bit_from_a_mid_training_checkpoint():
    agent = default_acktr()
    rollouts = env_rollouts(4)
    for rollout in rollouts[:3]:
        agent.update(as_rollout(rollout))
    resumed = agent_from_bytes(agent_to_bytes(agent))
    agent.update(as_rollout(rollouts[3]))
    resumed.update(as_rollout(rollouts[3]))
    for name, net in agent._nets().items():
        np.testing.assert_array_equal(resumed._nets()[name].params, net.params)
    for name, opt in agent._optimizers().items():
        for mine, theirs in zip(opt.state_arrays(),
                                resumed._optimizers()[name].state_arrays()):
            np.testing.assert_array_equal(theirs, mine)


def test_kfac_factors_stay_exactly_symmetric_through_real_acktr_updates():
    # KfacStats.update does not symmetrize: numpy's x.T @ x (syrk) fills
    # both triangles alike, and the blend keeps that; a numpy or BLAS
    # build whose products lose it fails here
    agent = default_acktr()
    for rollout in env_rollouts(3):
        agent.update(as_rollout(rollout))
    factors = [f for stats in (agent.actor_stats, agent.critic_stats)
               for f in stats.a_factors + stats.s_factors]
    assert len(factors) == 12
    for f in factors:
        assert f.tobytes() == np.ascontiguousarray(f.T).tobytes()
        assert not np.array_equal(f, np.eye(len(f)))  # the updates reached it


def test_dql_resumed_from_a_checkpoint_syncs_its_target_on_the_same_steps():
    # the target sync reads Adam's step count, which the counters restore
    cfg = config_for("dql", warmup=8, batch_size=4, target_sync_period=3,
                     hidden_sizes=[4])
    agent = DqlAgent(cfg, 4)
    rng = np.random.default_rng(6)
    transitions = [Transition(rand_obs(rng, dim=4), int(rng.integers(2)),
                              float(rng.normal()), rand_obs(rng, dim=4))
                   for _ in range(16)]
    agent.update(as_rollout(transitions[:10]))
    assert agent.optimizer.t == 3
    resumed = agent_from_bytes(agent_to_bytes(agent))
    assert resumed.optimizer.t == 3
    resumed.replay = copy.deepcopy(agent.replay)  # no checkpoint holds it
    for twin in (agent, resumed):
        twin.update(as_rollout(transitions[10:]))
    assert resumed.optimizer.t == agent.optimizer.t == 9
    for name, net in agent._nets().items():
        np.testing.assert_array_equal(resumed._nets()[name].params, net.params)
    np.testing.assert_array_equal(agent.target_net.params, agent.q_net.params)


def warm_dql(**overrides):
    """A small DQL agent past its warm-up, after some gradient steps."""
    cfg = config_for("dql", **{"warmup": 8, "batch_size": 4,
                               "hidden_sizes": [5], **overrides})
    agent = DqlAgent(cfg, 4)
    rng = np.random.default_rng(12)
    agent.update(as_rollout([Transition(
        rand_obs(rng, dim=4), int(rng.integers(2)), float(rng.normal()),
        rand_obs(rng, dim=4)) for _ in range(12)]))
    return agent


def test_dql_q_and_target_are_the_rows_of_one_stack():
    agent = DqlAgent(config_for("dql"), OBS_DIM)
    stack = agent._pair.params
    assert stack.shape == (2, agent.q_net.params.size)
    assert np.shares_memory(agent.q_net.params, stack[0])
    assert np.shares_memory(agent.target_net.params, stack[1])
    assert stack[0].tobytes() == stack[1].tobytes()  # a fresh agent is synced


def test_dql_target_sync_copies_the_q_row_and_the_next_step_moves_only_q():
    agent = warm_dql(target_sync_period=5)
    assert agent.optimizer.t == 5  # steps 1..5 once warm: synced at 5
    q, target = agent.q_net.params, agent.target_net.params
    assert target.tobytes() == q.tobytes()
    assert np.shares_memory(target, agent._pair.params)  # synced in its row
    synced = target.copy()
    rng = np.random.default_rng(13)
    agent.update(as_rollout([Transition(
        rand_obs(rng, dim=4), 1, 0.5, rand_obs(rng, dim=4))]))
    assert agent.optimizer.t == 6
    assert not np.array_equal(q, synced)
    assert target.tobytes() == synced.tobytes()


def test_dql_checkpoint_round_trip_is_byte_exact_and_fits_as_the_live_agent():
    agent = warm_dql(target_sync_period=3)
    blob = agent_to_bytes(agent)
    loaded = agent_from_bytes(blob)
    assert agent_to_bytes(loaded) == blob
    assert len(loaded.replay) == 0  # no checkpoint holds the replay
    assert np.shares_memory(loaded.q_net.params, loaded._pair.params)
    loaded.replay = copy.deepcopy(agent.replay)
    # the generator state is restored too, so both draw the same rows
    assert loaded._td_step() == agent._td_step()
    for name, net in agent._nets().items():
        assert loaded._nets()[name].params.tobytes() == net.params.tobytes()


# ---------------------------------------------------------------------------
# net dtype
# ---------------------------------------------------------------------------

def ac_workspace_arrays(ws):
    """Every float array of an actor-critic workspace: those reachable
    from it, every array its scratch keeps, and each of its passes'."""
    yield from float_arrays_in(ws)
    yield from ws._scratch._arrays.values()
    yield from float_arrays_in(list(ws._passes.values()))


def float_arrays_in(value):
    """Every float array reachable from ``value`` through lists, tuples
    and object attributes."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from float_arrays_in(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from float_arrays_in(item)


@pytest.mark.parametrize("algorithm", ["dql", "a2c", "ppo", "acktr"])
def test_no_float64_creeps_into_a_net(monkeypatch, algorithm):
    """After one update of real training, everything of a net is float32:
    its parameters, its Adam moments and scratch, the input and output of
    every inference, every array of each learner's update workspace (the
    input, activations, output gradient, pre-activation gradients and
    gradient vector of each pass over it; DQL's replay draw and TD error
    too), K-FAC's factors, inverses and preconditioned directions, DQL's
    replay, and every payload array of the agent's checkpoint and of the
    agent loaded from it. No learner runs ``Mlp.forward`` or
    ``Mlp.backward``, the passes over a net the tracer times. A stray
    float64 array would upcast each operation it meets, silently, and
    cost float32's speed."""
    seen = defaultdict(set)

    def spy(cls, name, record, label=None):
        """Record the dtype of each array ``record`` names among a call's
        arguments and its result, under ``label`` (the method's name)."""
        method = getattr(cls, name)

        def wrapped(self, *args):
            result = method(self, *args)
            for what, array in record(*args, result):
                seen[f"{label or name} {what}"].add(np.asarray(array).dtype)
            return result

        monkeypatch.setattr(cls, name, wrapped)

    spy(Mlp, "run", lambda x, out: [("input", x), ("output", out)])
    spy(Mlp, "forward", lambda x, pair: [
        ("input", x), ("output", pair[0]), ("cache output", pair[1].acts[-1]),
        *[("cache input", a) for a in pair[1].inputs[0]]])
    # DQL's gradient steps run neither hook: each is one TD
    # step over its workspace, whose every float array is recorded after
    # the step, as is the loss it returns
    spy(DqlAgent, "_td_step", lambda loss: [
        ("loss", np.float64(loss)),
        *[("workspace", a) for a in float_arrays_in(agent._workspace)]])
    # nor do the actor-critics': each update runs its nets' passes over a
    # workspace, whose every float array is recorded after the update
    spy(_ActorCriticAgent, "update", lambda transitions, stats: [
        ("workspace", a) for a in ac_workspace_arrays(agent._workspace)])
    spy(Mlp, "backward", lambda cache, g, *out_and_grads: [
        ("output gradient", g), ("flat", out_and_grads[-1].flat)])
    spy(KfacStats, "precondition", lambda grads, nat: [("flat", nat.flat)])
    cfg = build_env_config("sparse", 0.5, 5, episode_length=300.0)
    # no epsilon: every DQL act runs the q net on an env observation
    agent = make_agent(config_for(algorithm, rollout_length=32, warmup=16,
                                  batch_size=8, hidden_sizes=[8, 8],
                                  epsilon_start=0.0, epsilon_end=0.0),
                       cfg.observation_size)
    train_agent(agent, TrafficSignalEnv(cfg, seed=5), 32)
    assert agent.train_steps == 32
    # every act, and the critic's inference of the targets, runs
    # ``Mlp.run``; the hooks never run
    expected = {"run input", "run output"}
    if algorithm == "dql":
        expected |= {"_td_step loss", "_td_step workspace"}
    else:
        expected.add("update workspace")
    if algorithm == "acktr":
        expected.add("precondition flat")
    assert set(seen) == expected
    # the loss is a Python float, which the spy records as float64
    assert {what: dtypes for what, dtypes in seen.items()
            if dtypes != {np.dtype(np.float32)}
            and what != "_td_step loss"} == {}
    arrays = {f"{name} params": net.params
              for name, net in agent._nets().items()}
    for name, opt in agent._optimizers().items():
        if isinstance(opt, AdamOptimizer):
            assert opt.t > 0
            arrays.update({f"{name} m": opt._moments[0],
                           f"{name} v": opt._moments[1],
                           f"{name} scratch": opt._scratch[0],
                           f"{name} scratch 1": opt._scratch[1]})
        elif isinstance(opt, KfacStats):
            arrays.update({f"{name} factor {k}": f for k, f in
                           enumerate(opt.a_factors + opt.s_factors)})
            arrays.update({f"{name} inverse {k}": inverse for k, inverse in
                           enumerate(i for pair in opt._inverses for i in pair)})
    if algorithm == "dql":
        replay = agent.replay
        arrays.update(replay_obs=replay.obs, replay_next_obs=replay.next_obs,
                      replay_rewards=replay.rewards)
        ws = agent._workspace
        run = ws.stack
        named = {"draw": ws.pairs, "rewards": ws.rewards,
                 "targets": ws.targets, "td": ws.td, "squares": ws.squares,
                 "output gradient": run.dout, "gradients": run.grads.flat,
                 **{f"activations {k}": a for k, a in enumerate(run.acts)}}
        assert run.x is ws.pairs
        assert ws.pairs.shape == (2, 8, cfg.observation_size)
        assert [a.shape for a in run.acts] == [(2, 8, 8), (2, 8, 8), (2, 8, 2)]
        assert run.dout.shape == (8, 2)
        # every float array the walk finds is one of these or the chain
        # scratch, and the stack's own weight views
        found = list(float_arrays_in(ws))
        for a in named.values():
            assert any(a is b for b in found)
        arrays.update({f"workspace {k}": a for k, a in named.items()})
        arrays.update({f"workspace array {k}": a
                       for k, a in enumerate(found)})
    else:
        ws = agent._workspace
        found = list(ac_workspace_arrays(ws))
        assert list(ws._passes) == [32]  # PPO's one minibatch is 32 rows
        for actor, critic in ws._passes.values():
            for run, width in ((actor, 2), (critic, 1)):
                assert [a.shape for a in run.acts] == [
                    (1, 32, 8), (1, 32, 8), (1, 32, width)]
                named = [run.x, run.dout, run.grads.flat, *run.acts,
                         *run.chain(0)]
                for a in named:
                    assert any(a is b for b in found)
                arrays.update({f"{width}-wide pass array {k}": a
                               for k, a in enumerate(named)})
        arrays.update({f"workspace array {k}": a
                       for k, a in enumerate(found)})
    loaded = agent_from_bytes(agent_to_bytes(agent))
    for label, owner in (("payload", agent), ("loaded payload", loaded)):
        arrays.update({f"{label} {k}": a
                       for k, a in enumerate(_payload_arrays(owner))})
    assert {what: a.dtype for what, a in arrays.items()
            if a.dtype != np.float32} == {}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["dql", "a2c", "ppo", "acktr", "fixed_time"])
def test_save_load_round_trip_greedy_actions(tmp_path, algorithm):
    agent = make_agent(config_for(algorithm), OBS_DIM)
    rng = np.random.default_rng(17)
    if algorithm != "fixed_time":
        for _ in range(3):
            agent.update(as_rollout(recorded(agent, make_transitions(
                rng, max(agent.needs_rollout, 8)))))
    path = tmp_path / f"{algorithm}.ckpt"
    save_agent(agent, path)
    loaded = load_agent(path, expected_algorithm=algorithm)
    obs_batch = rng.uniform(0, 40, size=(1000, OBS_DIM))
    for obs in obs_batch:
        assert agent.act(obs) == loaded.act(obs)
    assert loaded.train_steps == agent.train_steps


def agent_header(blob):
    _, header_len = struct.unpack_from("<II", blob, 4)
    return json.loads(blob[12:12 + header_len].decode("utf-8"))


def laid_out_payload(agent):
    """The payload bytes as the checkpoint layout spells them out: each
    net's parameters, then each optimizer's state; Adam's is ``m`` then
    ``v``, each as [w0 .. wL, b0 .. bL], and K-FAC's the A then the S
    factors; every value little-endian float32."""
    nets = agent._nets()
    parts = [net.params.astype("<f4") for net in nets.values()]
    for name, opt in agent._optimizers().items():
        if isinstance(opt, AdamOptimizer):
            shapes = [l.w.shape for l in nets[name].layers]
            for flat in opt._moments:
                moment = Gradients(flat.astype("<f4"), shapes)
                parts += [w.ravel() for w in moment.dw] + moment.db
        elif isinstance(opt, KfacStats):
            parts += [f.astype("<f4").ravel()
                      for f in opt.a_factors + opt.s_factors]
    return b"".join(part.tobytes() for part in parts)


@pytest.mark.parametrize("algorithm", ["dql", "ppo", "a2c", "acktr"])
def test_checkpoint_bytes_are_stable(tmp_path, algorithm):
    agent = make_agent(config_for(algorithm, warmup=16, batch_size=8,
                                  rollout_length=32, ppo_minibatch=16), OBS_DIM)
    rng = np.random.default_rng(29)
    for _ in range(3):
        assert agent.update(as_rollout(recorded(
            agent, make_transitions(rng, 32))))
    blob = agent_to_bytes(agent)
    assert agent_to_bytes(agent_from_bytes(blob)) == blob
    path = tmp_path / "agent.ckpt"
    save_agent(agent, path)
    loaded = load_agent(path)
    assert agent_to_bytes(loaded) == blob
    for net in loaded._nets().values():
        for layer in net.layers:
            assert np.shares_memory(layer.w, net.params)
            assert np.shares_memory(layer.b, net.params)
    adam = [opt for opt in agent._optimizers().values()
            if isinstance(opt, AdamOptimizer)]
    assert bool(adam) == (algorithm != "acktr")
    assert all(opt.t > 0 for opt in adam)
    _, header_len = struct.unpack_from("<II", blob, 4)
    assert blob[12 + header_len:] == laid_out_payload(agent)


def test_loaded_agent_continues_exploration_stream_identically(tmp_path):
    agent = DqlAgent(config_for("dql", epsilon_start=0.5, epsilon_end=0.5), OBS_DIM)
    blob = agent_to_bytes(agent)
    clone = agent_from_bytes(blob)
    rng = np.random.default_rng(0)
    for _ in range(200):
        obs = rand_obs(rng)
        assert agent.act(obs, explore=True) == clone.act(obs, explore=True)


def test_adam_state_survives_round_trip(tmp_path):
    agent = A2cAgent(config_for("a2c"), OBS_DIM)
    rng = np.random.default_rng(19)
    agent.update(as_rollout(make_transitions(rng, 16)))
    loaded = agent_from_bytes(agent_to_bytes(agent))
    rollout = make_transitions(np.random.default_rng(23), 16)
    agent.update(as_rollout(rollout))
    loaded.update(as_rollout(rollout))
    np.testing.assert_array_equal(agent.actor.flatten(), loaded.actor.flatten())
    np.testing.assert_array_equal(agent.critic.flatten(), loaded.critic.flatten())


def test_corrupted_header_byte_fails_cleanly():
    blob = bytearray(agent_to_bytes(make_agent(config_for("ppo"), OBS_DIM)))
    blob[16] ^= 0xFF
    with pytest.raises(CheckpointError):
        agent_from_bytes(bytes(blob))


def test_truncated_checkpoint_fails_cleanly():
    blob = agent_to_bytes(make_agent(config_for("dql"), OBS_DIM))
    with pytest.raises(CheckpointError):
        agent_from_bytes(blob[: len(blob) - 16])


def test_algorithm_mismatch_reported_distinctly(tmp_path):
    path = tmp_path / "agent.ckpt"
    save_agent(make_agent(config_for("dql"), OBS_DIM), path)
    with pytest.raises(AlgorithmMismatchError):
        load_agent(path, expected_algorithm="ppo")


@pytest.mark.parametrize("field, value", [
    pytest.param("replay_capacity", 0, id="0"),
    pytest.param("replay_capacity", -3, id="-3"),
    pytest.param("phase_time_scale", 0.0, id="phase_time_scale"),
    pytest.param("target_sync_period", 0, id="target_sync_period"),
    pytest.param("ppo_minibatch", 0, id="ppo_minibatch"),
    pytest.param("ppo_epochs", -1, id="ppo_epochs"),
    pytest.param("hidden_sizes", [16, 0], id="hidden_sizes"),
    pytest.param("critic_epochs", 0, id="critic_epochs"),
    pytest.param("critic_epochs", -2, id="critic_epochs-negative"),
    pytest.param("trust_region_radius", -1e-3, id="trust_region_radius"),
    pytest.param("trust_region_radius", float("nan"),
                 id="trust_region_radius-nan"),
    pytest.param("kl_budget", 0.0, id="kl_budget"),
    pytest.param("kl_budget", -1e-2, id="kl_budget-negative"),
])
def test_non_positive_replay_capacity_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        config_for("dql", **{field: value})


@pytest.mark.parametrize("field, value", [
    ("actor_lr", math.nan),
    ("critic_lr", math.inf),
    ("q_lr", math.inf),
    ("clip_epsilon", math.inf),
    ("entropy_coef", math.nan),
    ("fixed_time_green", math.nan),
    ("kl_budget", math.nan),
    ("kfac_damping", math.nan),
    ("epsilon_start", 1.5),
    ("epsilon_end", -0.1),
    ("explore_floor", 2.0),
    ("kfac_decay", 1.5),
    ("exploration_fraction", -1.0),
    ("train_steps_budget", -100),
    ("entropy_coef", -0.01),
    ("warmup", -1),
    ("fixed_time_green", -5.0),
    ("kfac_damping", -1e-3),
])
def test_agent_config_rejects_bad_values_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        config_for("ppo", **{field: value})


@pytest.mark.parametrize("warmup, batch_size, capacity", [
    (1_000, 64, 500), (8, 32, 31), (0, 64, 1)],
    ids=["below-warmup", "below-batch", "no-warmup"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_agent_config_refuses_a_replay_that_can_never_warm(
        algorithm, warmup, batch_size, capacity):
    # DQL steps once its replay holds max(warmup, batch_size) transitions;
    # a smaller ring never does, so DQL would train without one step
    message = (f"replay_capacity must be at least max(warmup, batch_size) "
               f"= {max(warmup, batch_size)}, got {capacity}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_for(algorithm, warmup=warmup, batch_size=batch_size,
                   replay_capacity=capacity)


def test_dql_with_the_smallest_replay_allowed_steps_once_warm():
    agent = DqlAgent(config_for("dql", warmup=8, batch_size=4,
                                replay_capacity=8, hidden_sizes=[5]), 4)
    rng = np.random.default_rng(5)
    for n in range(10):
        agent.update(as_rollout([Transition(
            rand_obs(rng, dim=4), int(rng.integers(2)), float(rng.normal()),
            rand_obs(rng, dim=4))]))
        assert agent.optimizer.t == max(0, n - 6)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_command_config_differs_from_the_dataclass_only_in_its_table_keys(
        algorithm):
    """``AgentConfig``'s defaults are what the commands run: the config
    ``default_agent_config`` builds departs from them only in the keys
    ``_ALGO_DEFAULTS`` names for the algorithm."""
    command = dataclasses.asdict(default_agent_config(algorithm))
    plain = dataclasses.asdict(AgentConfig(algorithm=algorithm))
    assert {key for key in plain if command[key] != plain[key]} == set(
        _ALGO_DEFAULTS.get(algorithm, {}))


@pytest.mark.parametrize("key, grid_key", [("seed", "seeds"),
                                           ("algorithm", "algorithms")])
def test_command_config_refuses_an_override_of_the_cell_keys(key, grid_key):
    # the cell's own algorithm and seed would overwrite the override
    with pytest.raises(ValueError, match=rf"^\[agent\] {key}: set it with "
                                         rf"\[experiment\] {grid_key}$"):
        default_agent_config("ppo", seed=1, overrides={key: 99})


def test_algorithm_defaults_repeat_no_dataclass_default():
    plain = AgentConfig()
    repeated = [(algorithm, key) for algorithm, table in _ALGO_DEFAULTS.items()
                for key, value in table.items() if value == getattr(plain, key)]
    assert repeated == []


# one value per count field that is not an int: a float with or without a
# fraction, or a bool; each used to build a config
COUNTS_THAT_ARE_NO_INT = [
    ("train_steps_budget", 1000.0),
    ("rollout_length", 256.5),
    ("ppo_epochs", True),
    ("ppo_minibatch", 64.0),
    ("critic_epochs", 2.5),
    ("replay_capacity", 5e4),
    ("batch_size", 32.5),
    ("warmup", False),
    ("target_sync_period", 500.0),
    ("seed", 3.0),
    ("hidden_sizes", [64, 64.0]),
]


@pytest.mark.parametrize("field, value", COUNTS_THAT_ARE_NO_INT,
                         ids=[f for f, _ in COUNTS_THAT_ARE_NO_INT])
def test_agent_config_rejects_a_count_that_is_not_an_int_by_name(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must .*int"):
        config_for("ppo", **{field: value})


@pytest.mark.parametrize("field, value", [
    ("rollout_length", 256.5), ("ppo_epochs", True), ("critic_epochs", 2.5)])
def test_checkpoint_config_count_that_is_not_an_int_rejected(field, value):
    # a forged header's 256.5 used to gather 257-transition batches, True
    # to run one epoch, and 2.5 to fail in the first A2C update with a
    # bare TypeError
    blob = agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM))
    forged = forge_header(blob, lambda header: header["config"].update(
        {field: value}))
    with pytest.raises(CheckpointFormatError, match=rf"{field} must .*int"):
        agent_from_bytes(forged)


def test_agent_config_accepts_the_edges_of_each_range():
    # inf disables the trust-region cap and the KL budget; probabilities
    # may be 0 or 1; a zero warm-up, entropy bonus, green time, budget or
    # exploration span is valid
    config_for("acktr", trust_region_radius=math.inf, kl_budget=math.inf,
               epsilon_start=1.0,
               epsilon_end=0.0, explore_floor=1.0, kfac_decay=1.0, kfac_damping=0.0, exploration_fraction=0.0,
               entropy_coef=0.0, warmup=0, fixed_time_green=0.0,
               train_steps_budget=0)


# -- failure modes of the checkpoint container -------------------------------

def forge_header(blob, edit):
    """``blob`` with its header rewritten by ``edit`` (which mutates the
    parsed header in place); the prefix's length field follows the edit."""
    _, header_len = struct.unpack_from("<II", blob, 4)
    header = agent_header(blob)
    edit(header)
    new_header = json.dumps(header).encode("utf-8")
    return (blob[:8] + struct.pack("<I", len(new_header)) + new_header
            + blob[12 + header_len:])


def assert_views_aliased(net):
    for layer in net.layers:
        assert np.shares_memory(layer.w, net.params)
        assert np.shares_memory(layer.b, net.params)
    laid_out = np.concatenate([p for l in net.layers for p in (l.w.ravel(), l.b)])
    np.testing.assert_array_equal(laid_out, net.params)


def test_checkpoint_round_trip(tmp_path):
    agent = make_agent(config_for("ppo", hidden_sizes=[6]), 4)
    agent.update(as_rollout(recorded(agent, make_transitions(
        np.random.default_rng(31), 8, dim=4))))
    path = tmp_path / "agent.ckpt"
    save_agent(agent, path)
    loaded = load_agent(path)
    for name, net in agent._nets().items():
        twin = loaded._nets()[name]
        np.testing.assert_array_equal(twin.flatten(), net.flatten())
        assert [l.w.shape for l in twin.layers] == [
            l.w.shape for l in net.layers]
        assert_views_aliased(twin)
    for name, opt in agent._optimizers().items():
        twin = loaded._optimizers()[name]
        assert twin.t == opt.t == 4
        for a, b in zip(twin.state_arrays(), opt.state_arrays()):
            np.testing.assert_array_equal(a, b)


def test_checkpoint_bad_magic_rejected():
    blob = bytearray(agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM)))
    blob[0] ^= 0xFF
    with pytest.raises(CheckpointFormatError, match="magic"):
        agent_from_bytes(bytes(blob))


def test_checkpoint_truncation_rejected():
    blob = agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM))
    with pytest.raises(CheckpointTruncatedError):
        agent_from_bytes(blob[:-4])


def test_checkpoint_trailing_bytes_rejected():
    blob = agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM))
    with pytest.raises(CheckpointFormatError, match="trailing"):
        agent_from_bytes(blob + bytes(8))


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 99])
def test_checkpoint_version_mismatch_rejected(version):
    # format 5 held float64 nets in an all-float64 payload
    blob = bytearray(agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM)))
    blob[4:8] = struct.pack("<I", version)
    with pytest.raises(CheckpointFormatError, match=f"version {version};"):
        agent_from_bytes(bytes(blob))


def format_6_bytes(agent):
    """``agent``'s checkpoint as format 6 wrote it: a header that also
    named the nets' dtype, and a payload of float32 nets and Adam state
    and float64 K-FAC factors."""
    blob = bytearray(forge_header(agent_to_bytes(agent),
                                  lambda header: header.update(dtype="float32")))
    blob[4:8] = struct.pack("<I", 6)
    _, header_len = struct.unpack_from("<II", blob, 4)
    parts = [net.params.astype("<f4") for net in agent._nets().values()]
    for opt in agent._optimizers().values():
        kind = "<f8" if isinstance(opt, KfacStats) else "<f4"
        parts += [a.astype(kind) for a in opt.state_arrays()]
    return bytes(blob[:12 + header_len]) + b"".join(p.tobytes() for p in parts)


@pytest.mark.parametrize("algorithm", ["dql", "acktr"])
def test_format_6_checkpoint_refused_by_version_naming_float32(algorithm):
    """A format-6 file is refused by its version alone: the message names
    the float32 every array of format 7 is. A DQL file of format 6 holds
    the payload bytes of format 7, ACKTR's held float64 factors."""
    agent = make_agent(config_for(algorithm), OBS_DIM)
    blob, old = agent_to_bytes(agent), format_6_bytes(agent)
    assert old.endswith(blob[-payload_bytes(blob):]) == (algorithm == "dql")
    with pytest.raises(CheckpointFormatError,
                       match=r"^unsupported agent checkpoint version 6; this "
                             r"build reads version 7 only, whose every array "
                             r"is float32$"):
        agent_from_bytes(old)


NON_FINITE_SLOTS = {
    "ppo-actor": ("ppo", lambda agent: agent.actor.params),
    "ppo-critic-adam": ("ppo", lambda agent: agent.critic_optimizer._moments[1]),
    "acktr-factor": ("acktr", lambda agent: agent.actor_stats.a_factors[0]),
    "dql-target": ("dql", lambda agent: agent.target_net.params),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", NON_FINITE_SLOTS)
def test_checkpoint_with_a_non_finite_value_rejected(slot, value):
    algorithm, array_of = NON_FINITE_SLOTS[slot]
    agent = make_agent(config_for(algorithm), OBS_DIM)
    array_of(agent).flat[0] = value
    with pytest.raises(CheckpointFormatError, match="not finite"):
        agent_from_bytes(agent_to_bytes(agent))


def test_checkpoint_header_holds_the_config_fields_and_adams_step_count():
    agent = make_agent(config_for("ppo"), OBS_DIM)
    agent.update(as_rollout(recorded(agent, make_transitions(
        np.random.default_rng(4), 8))))
    header = agent_header(agent_to_bytes(agent))
    # only what make_agent cannot rebuild from the config and obs_dim
    assert list(header) == ["obs_dim", "config", "counters", "rng_state"]
    assert list(header["config"]) == [
        f.name for f in dataclasses.fields(AgentConfig)]
    assert len(header["config"]) == 28
    # each Adam optimizer's step count sits beside the agent's
    assert header["counters"] == {"train_steps": 8, "actor.t": 4,
                                  "critic.t": 4}


def payload_bytes(blob):
    _, header_len = struct.unpack_from("<II", blob, 4)
    return len(blob) - 12 - header_len


def test_checkpoint_activation_count_mismatch_rejected():
    # one hidden layer fewer: one activation fewer per net, and fewer
    # values than the payload holds
    blob = agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM))
    fewer = make_agent(config_for("a2c", hidden_sizes=[64]), OBS_DIM)
    expected = payload_bytes(agent_to_bytes(fewer))

    def drop_layer(header):
        assert header["config"]["hidden_sizes"] == [64, 64]
        header["config"]["hidden_sizes"].pop()

    with pytest.raises(CheckpointFormatError,
                       match=f"trailing bytes.* {expected} payload bytes, "
                             f"the file {payload_bytes(blob)}$"):
        agent_from_bytes(forge_header(blob, drop_layer))


def test_checkpoint_size_mismatch_rejected():
    # a hidden layer one unit wider needs more values than the payload holds
    blob = agent_to_bytes(make_agent(config_for("ppo"), OBS_DIM))
    wider = make_agent(config_for("ppo", hidden_sizes=[64, 65]), OBS_DIM)
    expected = payload_bytes(agent_to_bytes(wider))

    def resize(header):
        header["config"]["hidden_sizes"][1] += 1

    with pytest.raises(CheckpointTruncatedError,
                       match=f"cut short.* {expected} payload bytes, "
                             f"the file {payload_bytes(blob)}$"):
        agent_from_bytes(forge_header(blob, resize))


def test_checkpoint_optimizer_shape_mismatch_rejected():
    # ACKTR's curvature factors where A2C keeps Adam moments: the config
    # sets the optimizers, and theirs hold fewer values
    blob = agent_to_bytes(make_agent(config_for("acktr"), OBS_DIM))

    def relabel(header):
        header["config"]["algorithm"] = "a2c"

    with pytest.raises(CheckpointFormatError, match="trailing bytes"):
        agent_from_bytes(forge_header(blob, relabel))


def test_checkpoint_net_list_mismatch_rejected():
    # a DQL checkpoint relabelled PPO: the config sets the nets, and an
    # actor, a critic and their moments hold more than q, target and q's
    blob = agent_to_bytes(make_agent(config_for("dql"), OBS_DIM))

    def relabel(header):
        header["config"]["algorithm"] = "ppo"

    with pytest.raises(CheckpointTruncatedError, match="cut short"):
        agent_from_bytes(forge_header(blob, relabel))


BAD_COUNTERS = {
    "a-string": ("train_steps", "many"),
    "negative-adam-step": ("actor.t", -3),
    "bool": ("critic.t", True),
    "float": ("train_steps", 8.0),
    "none": ("actor.t", None),
}


@pytest.mark.parametrize("case", BAD_COUNTERS)
def test_checkpoint_counter_that_is_not_a_non_negative_int_rejected(case):
    key, value = BAD_COUNTERS[case]
    blob = agent_to_bytes(make_agent(config_for("ppo"), OBS_DIM))

    def edit(header):
        header["counters"][key] = value

    with pytest.raises(CheckpointFormatError, match=f"counter '{key}'"):
        agent_from_bytes(forge_header(blob, edit))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda counters: counters.pop("q.t"), id="missing"),
    pytest.param(lambda counters: counters.update(updates=3), id="unknown"),
])
def test_checkpoint_counters_other_than_the_agents_rejected(edit):
    blob = agent_to_bytes(make_agent(config_for("dql"), OBS_DIM))
    with pytest.raises(CheckpointFormatError, match="counters"):
        agent_from_bytes(forge_header(blob, lambda h: edit(h["counters"])))


@pytest.mark.parametrize("obs_dim", [0, -3, 2.5, True, "11", None])
@pytest.mark.parametrize("algorithm", ["ppo", "fixed_time"])
def test_checkpoint_obs_dim_that_is_not_a_positive_int_rejected(algorithm,
                                                                obs_dim):
    # a learner's header with obs_dim 0 used to divide by zero in its net's
    # init, and a fixed-time one loaded
    blob = agent_to_bytes(make_agent(config_for(algorithm), OBS_DIM))
    forged = forge_header(blob, lambda header: header.update(obs_dim=obs_dim))
    with pytest.raises(CheckpointFormatError,
                       match="obs_dim must be (an|a positive) int"):
        agent_from_bytes(forged)


@pytest.mark.parametrize("obs_dim", [1, 5, PHASE_TIME_SLOT])
def test_fixed_time_agent_without_a_phase_timer_slot_rejected(obs_dim):
    # it reads the phase timer at PHASE_TIME_SLOT; such an agent used to
    # build and then fail in act with a bare IndexError
    with pytest.raises(ValueError, match=rf"obs_dim must exceed "
                                         rf"{PHASE_TIME_SLOT}.*got {obs_dim}"):
        FixedTimeAgent(config_for("fixed_time"), obs_dim)
    blob = agent_to_bytes(make_agent(config_for("fixed_time"), OBS_DIM))
    forged = forge_header(blob, lambda header: header.update(obs_dim=obs_dim))
    with pytest.raises(CheckpointFormatError, match="obs_dim must exceed"):
        agent_from_bytes(forged)


# Each forged size makes the first allocation it reaches larger than any
# address space a 64-bit host has (2**57 bytes at most), so it fails at
# once everywhere: np.ones(2**58) takes 2**61 bytes, and a (2**56, 11)
# array 11 * 2**59.
UNALLOCATABLE = {
    "obs_dim": ("ppo", lambda header: header.update(obs_dim=2**58)),
    "hidden_sizes": ("a2c", lambda header: header["config"].update(
        hidden_sizes=[2**56, 64])),
    "replay_capacity": ("dql", lambda header: header["config"].update(
        replay_capacity=2**56)),
}


def unallocatable_checkpoint(case):
    algorithm, edit = UNALLOCATABLE[case]
    return forge_header(agent_to_bytes(make_agent(config_for(algorithm),
                                                  OBS_DIM)), edit)


@pytest.mark.parametrize("case", UNALLOCATABLE)
def test_checkpoint_naming_sizes_too_large_to_allocate_rejected(case):
    with pytest.raises(CheckpointFormatError, match="MemoryError"):
        agent_from_bytes(unallocatable_checkpoint(case))


def test_cli_eval_of_a_checkpoint_too_large_to_allocate_is_one_line_error(
        tmp_path, capsys):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(unallocatable_checkpoint("obs_dim"))
    rc = cli_main(["eval", "--checkpoint", str(path), "--episodes", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("eval failed: unreadable agent header: MemoryError")
    assert len(err.strip().splitlines()) == 1


def test_checkpoint_corrupted_header_rejected():
    blob = bytearray(agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM)))
    blob[14] ^= 0xFF  # inside the JSON header
    with pytest.raises(CheckpointFormatError):
        agent_from_bytes(bytes(blob))


@pytest.mark.parametrize("key", ["obs_dim", "config", "counters",
                                 "rng_state"])
def test_checkpoint_header_missing_key_rejected(key):
    blob = agent_to_bytes(make_agent(config_for("ppo"), OBS_DIM))
    with pytest.raises(CheckpointFormatError, match=key):
        agent_from_bytes(forge_header(blob, lambda header: header.pop(key)))


FUZZ_CONFIG = dict(hidden_sizes=[4], replay_capacity=16, warmup=4, batch_size=4,
                   rollout_length=8, ppo_minibatch=4, target_sync_period=2,
                   kl_budget=0.01)


@functools.lru_cache(maxsize=None)
def fuzz_blob(algorithm):
    """A small checkpoint of an agent that has taken a few updates."""
    agent = make_agent(config_for(algorithm, **FUZZ_CONFIG), OBS_DIM)
    rng = np.random.default_rng(37)
    for _ in range(3):
        agent.update(as_rollout(recorded(agent, make_transitions(rng, 8))))
    return agent_to_bytes(agent)


@settings(max_examples=150)
@given(algorithm=st.sampled_from(ALGORITHMS), data=st.data())
def test_fuzz_truncated_checkpoint_raises_truncated_error(algorithm, data):
    blob = fuzz_blob(algorithm)
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(CheckpointTruncatedError):
        agent_from_bytes(blob[:cut])


@settings(max_examples=300)
@given(algorithm=st.sampled_from(ALGORITHMS),
       bits=st.lists(st.integers(min_value=0), min_size=1, max_size=3))
def test_fuzz_bit_flipped_checkpoint_loads_or_raises_checkpoint_error(algorithm,
                                                                      bits):
    blob = bytearray(fuzz_blob(algorithm))
    for bit in bits:
        bit %= 8 * len(blob)
        blob[bit // 8] ^= 1 << (bit % 8)
    try:
        agent_from_bytes(bytes(blob))
    except CheckpointError:
        pass


def test_checkpoint_preserves_config_fields(tmp_path):
    cfg = config_for("ppo", gamma=0.93, clip_epsilon=0.15, rollout_length=128)
    path = tmp_path / "a.ckpt"
    save_agent(make_agent(cfg, OBS_DIM), path)
    loaded = load_agent(path)
    assert loaded.config.gamma == 0.93
    assert loaded.config.clip_epsilon == 0.15
    assert loaded.config.rollout_length == 128
    assert loaded.obs_dim == OBS_DIM


def test_bad_magic_rejected():
    with pytest.raises(CheckpointFormatError):
        agent_from_bytes(b"NOPE" + b"\x00" * 64)
