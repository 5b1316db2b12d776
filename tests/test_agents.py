import copy
import dataclasses
import functools
import json
import math
import struct
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
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
    Transition,
    _ALGO_DEFAULTS,
    _entropy,
    _log_softmax,
    _ONE_HOT,
    _ReplayBuffer,
    _stack,
    agent_from_bytes,
    agent_to_bytes,
    load_agent,
    make_agent,
    save_agent,
)
from kfac_oracle import (
    gradients_of,
    solve_precondition,
    use_solve_preconditioner,
)
from trafficlab.cli import main as cli_main
from trafficlab.env import PHASE_TIME_SLOT, TrafficSignalEnv
from trafficlab.harness import build_env_config, default_agent_config
from trafficlab.nn import (
    AdamOptimizer,
    DivergenceError,
    Gradients,
    KfacStats,
    SgdOptimizer,
)

OBS_DIM = 11


def config_for(algorithm, **kw):
    kw.setdefault("seed", 3)
    return AgentConfig(algorithm=algorithm, **kw)


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
        out.append(Transition(obs, action, r, nxt, False))
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
    logp = _log_softmax(agent.actor(obs))[np.arange(len(actions)), actions]
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


def log_softmax_ref(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def policy(agent, obs):
    """An actor-critic agent's action distribution at one observation."""
    return np.exp(log_softmax_ref(agent.actor(obs * agent._obs_scale)))


def train_on_batch(agent, batch):
    """One DQL regression step on the given transitions, stacked as a
    replay draw is."""
    return agent._fit(*_stack(batch))


def array_act(agent, obs, explore=False):
    """The actor-critic ``act`` before its scalar head: the same choice
    made on numpy arrays through the cached forward pass. The oracle for
    the actions, log-probs and generator draws of the scalar head."""
    obs = agent._check_obs(obs)
    logits = agent.actor.forward(obs * agent._obs_scale)[0]
    logp = _log_softmax(logits)
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
    probe = net.clone()
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
    cfg = config_for("dql", hidden_sizes=[], q_lr=0.1, gamma=0.9)
    agent = with_sgd(DqlAgent(cfg, 3))
    w_before = agent.q_net.layers[0].w.copy()
    b_before = agent.q_net.layers[0].b.copy()
    obs = np.array([1.0, 0.0, 2.0])
    batch = [Transition(obs, 0, 1.0, np.zeros(3), True)]
    q0 = float(w_before[0] @ obs + b_before[0])
    loss = train_on_batch(agent, batch)
    td = q0 - 1.0  # done: target is the raw reward
    assert loss == pytest.approx(td * td)
    np.testing.assert_allclose(
        agent.q_net.layers[0].w[0], w_before[0] - 0.1 * 2 * td * obs)
    np.testing.assert_allclose(
        agent.q_net.layers[0].b[0], b_before[0] - 0.1 * 2 * td)
    # untouched action row stays put
    np.testing.assert_array_equal(agent.q_net.layers[0].w[1], w_before[1])


def test_dql_bootstrap_uses_target_net_max():
    cfg = config_for("dql", hidden_sizes=[], q_lr=1e-12, gamma=0.5)
    agent = with_sgd(DqlAgent(cfg, 2))
    agent.q_net.layers[0].w[:] = 0.0
    agent.q_net.layers[0].b[:] = 0.0
    agent.target_net = agent.q_net.clone()
    agent.target_net.layers[0].b[:] = [3.0, 7.0]
    batch = [Transition(np.zeros(2), 1, 1.0, np.zeros(2), False)]
    loss = train_on_batch(agent, batch)
    # target = 1 + 0.5 * 7 = 4.5, q = 0 -> loss 20.25
    assert loss == pytest.approx(4.5 ** 2)


def test_dql_replay_warmup_and_target_sync():
    cfg = config_for("dql", warmup=8, batch_size=4, target_sync_period=2,
                     hidden_sizes=[4])
    agent = DqlAgent(cfg, 4)
    rng = np.random.default_rng(0)
    for i in range(7):
        out = agent.update([Transition(rand_obs(rng, dim=4), 0, 0.0,
                                       rand_obs(rng, dim=4), False)])
        assert out == {}  # warming up
    out = agent.update([Transition(rand_obs(rng, dim=4), 1, 1.0,
                                   rand_obs(rng, dim=4), False)])
    assert "loss" in out
    assert agent.optimizer.t == 1
    agent.update([Transition(rand_obs(rng, dim=4), 0, 0.5,
                             rand_obs(rng, dim=4), False)])
    assert agent.optimizer.t == 2
    np.testing.assert_array_equal(agent.target_net.flatten(),
                                  agent.q_net.flatten())


def test_dql_takes_one_gradient_step_per_transition_once_warm():
    cfg = config_for("dql", warmup=8, batch_size=4, hidden_sizes=[4])
    agent = DqlAgent(cfg, 4)
    rng = np.random.default_rng(2)

    def batch(n):
        return [Transition(rand_obs(rng, dim=4), int(rng.integers(2)),
                           float(rng.normal()), rand_obs(rng, dim=4), False)
                for _ in range(n)]

    calls = [batch(5), batch(6), batch(256)]
    agent.update(calls[0])
    assert agent.optimizer.t == 0  # 5 < warmup
    agent.update(calls[1])  # warm from the 8th transition on
    assert agent.optimizer.t == 4
    agent.update(calls[2])
    assert agent.optimizer.t == 4 + 256
    assert agent.train_steps == 5 + 6 + 256
    # the same steps as handing over one transition per call
    single = DqlAgent(cfg, 4)
    for t in [t for call in calls for t in call]:
        single.update([t])
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
    ring = _ReplayBuffer(capacity, 3)
    for k in range(n_added):
        ring.add(Transition(np.full(3, float(k)), k % 2, float(k),
                            np.full(3, -float(k)), k % 3 == 0))
    assert len(ring) == capacity
    for slot in range(capacity):
        k = max(j for j in range(slot, n_added, capacity))
        np.testing.assert_array_equal(ring.obs[slot], np.full(3, float(k)))
        np.testing.assert_array_equal(ring.next_obs[slot], np.full(3, -float(k)))
        assert ring.actions[slot] == k % 2
        assert ring.rewards[slot] == float(k)
        assert ring.dones[slot] == (1.0 if k % 3 == 0 else 0.0)


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
                       float(rng.normal()), rand_obs(rng, dim=4),
                       bool(rng.random() < 0.2))
        out = agent.update([t])
        if "loss" in out:
            losses.append(out["loss"])
        ring.add(t)
        if len(ring) >= cfg.warmup:
            # same generator state, so the same sampled indices
            expected.append(train_on_batch(
                oracle, ring.sample(oracle._rng, cfg.batch_size)))
    assert len(losses) == 60 - cfg.warmup + 1
    assert losses == expected
    np.testing.assert_array_equal(agent.q_net.params, oracle.q_net.params)
    np.testing.assert_array_equal(agent.target_net.params,
                                  oracle.target_net.params)


# ---------------------------------------------------------------------------
# advantage arithmetic
# ---------------------------------------------------------------------------

def compute_advantage(r_t, v_next, v_now, gamma, done):
    """The advantage ``_targets_and_advantages`` gives one transition from
    an all-zero observation to an all-one one, under a critic that values
    them ``v_now`` and ``v_next``."""
    agent = make_agent(config_for("a2c", gamma=gamma), OBS_DIM)
    agent.critic = lambda x: np.where(x[:, :1] == 0.0, v_now, v_next)
    batch = [Transition(np.zeros(OBS_DIM), 0, r_t, np.ones(OBS_DIM), done)]
    _, _, _, advantages = agent._targets_and_advantages(batch)
    assert advantages.shape == (1,)
    return advantages[0]


def test_compute_advantage_substitution():
    assert compute_advantage(1.0, 0.5, 1.0, 0.9, False) == pytest.approx(0.45)


def test_compute_advantage_terminal_ignores_bootstrap():
    assert compute_advantage(2.0, 123.0, 0.5, 0.9, True) == pytest.approx(1.5)


def test_compute_advantage_calibrated_critic_is_zero():
    v_next, gamma = 0.7, 0.9
    r = 1.2
    v_now = r + gamma * v_next
    assert compute_advantage(r, v_next, v_now, gamma, False) == 0.0


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

def zero_advantage_rollout(agent, rng, n=16):
    """Terminal transitions rewarded with the agent's own batched critic
    values, so every advantage is exactly 0.0 in float arithmetic."""
    obs = rand_obs(rng, n=n)
    nxt = rand_obs(rng, n=n)
    v_now = agent.critic(obs * agent._obs_scale).ravel()
    return [
        Transition(obs[i], int(rng.integers(2)), float(v_now[i]), nxt[i], True)
        for i in range(n)
    ]


@pytest.mark.parametrize("algorithm", ["a2c", "ppo", "acktr"])
def test_zero_advantages_leave_actor_bit_unchanged(algorithm):
    cfg = config_for(algorithm, entropy_coef=0.0)
    agent = make_agent(cfg, OBS_DIM)
    rng = np.random.default_rng(1)
    rollout = recorded(agent, zero_advantage_rollout(agent, rng))
    before = agent.actor.flatten()
    agent.update(rollout)
    np.testing.assert_array_equal(agent.actor.flatten(), before)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_empty_batch_update_is_a_no_op(algorithm):
    """``update([])`` returns no stats and leaves the counters, the
    generator, the nets and the optimizer state as they were, for every
    controller; each learner has taken one real update first."""
    agent = make_agent(config_for(algorithm, warmup=8, batch_size=8), OBS_DIM)
    agent.update(recorded(agent, make_transitions(np.random.default_rng(2), 16)))
    before = agent_to_bytes(agent)
    assert agent.update([]) == {}
    assert agent_to_bytes(agent) == before


def test_a2c_positive_advantage_increases_action_probability():
    cfg = config_for("a2c", actor_lr=0.05, entropy_coef=0.0)
    agent = with_sgd(A2cAgent(cfg, OBS_DIM))
    rng = np.random.default_rng(5)
    obs = rand_obs(rng)
    nxt = rand_obs(rng)
    # large reward makes the advantage of action 0 strongly positive
    rollout = [Transition(obs, 0, 50.0, nxt, False)]
    p_before = policy(agent, obs)[0]
    agent.update(rollout)
    p_after = policy(agent, obs)[0]
    assert p_after > p_before


def test_a2c_actor_gradient_matches_finite_differences():
    cfg = config_for("a2c", actor_lr=1.0, entropy_coef=0.0, hidden_sizes=[4])
    agent = with_sgd(A2cAgent(cfg, 5))
    rng = np.random.default_rng(9)
    rollout = make_transitions(rng, 6, dim=5)
    obs = np.stack([t.obs for t in rollout]) * agent._obs_scale
    actions = np.array([t.action for t in rollout])
    # freeze the advantages the update will use
    v_now = agent.critic(obs).ravel()
    nxt = np.stack([t.next_obs for t in rollout]) * agent._obs_scale
    v_next = agent.critic(nxt).ravel()
    adv = np.array([t.reward for t in rollout]) + cfg.gamma * v_next - v_now
    adv -= adv.mean()  # the batch-mean baseline

    def surrogate(actor):
        logp = log_softmax_ref(actor(obs))
        return float(np.mean(logp[np.arange(len(actions)), actions] * adv))

    numeric = fd_gradient(surrogate, agent.actor)
    before = agent.actor.flatten()
    agent.update(rollout)
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
    v_now = agent.critic(obs).ravel()
    nxt = np.stack([t.next_obs for t in rollout]) * agent._obs_scale
    v_next = agent.critic(nxt).ravel()
    adv = np.array([t.reward for t in rollout]) + cfg.gamma * v_next - v_now
    adv -= adv.mean()
    last = copy.deepcopy(agent._rng).permutation(8)[4:]  # the update's draw
    actor_loss = agent.update(rollout)["actor_loss"]
    assert actor_loss == pytest.approx(-float(np.mean(adv[last])), rel=1e-6)


def test_ppo_clipped_term_arithmetic():
    cfg = config_for("ppo", ppo_epochs=1, ppo_minibatch=8, actor_lr=1e-12,
                     clip_epsilon=0.2, entropy_coef=0.0)
    agent = with_sgd(PpoAgent(cfg, OBS_DIM))
    rng = np.random.default_rng(4)
    obs = rand_obs(rng)
    nxt = rand_obs(rng)
    # force advantage exactly 1
    v_now = float(agent.critic(obs * agent._obs_scale)[0])
    v_next = float(agent.critic(nxt * agent._obs_scale)[0])
    r = 1.0 + v_now - cfg.gamma * v_next
    # store an old log-prob that makes the ratio exactly 1.5
    logp_now = log_softmax_ref(agent.actor(obs * agent._obs_scale))[0]
    t = Transition(obs, 0, r, nxt, False, log_prob=float(logp_now - np.log(1.5)))
    actor_loss = agent.update([t])["actor_loss"]
    assert actor_loss == pytest.approx(-min(1.5, 1.2), rel=1e-9)


def test_ppo_surrogate_gradient_matches_finite_differences():
    cfg = config_for("ppo", ppo_epochs=1, ppo_minibatch=64, actor_lr=1.0,
                     clip_epsilon=0.2, entropy_coef=0.0, hidden_sizes=[4])
    agent = with_sgd(PpoAgent(cfg, 5))
    rng = np.random.default_rng(11)
    rollout = make_transitions(rng, 8, dim=5)
    obs = np.stack([t.obs for t in rollout]) * agent._obs_scale
    actions = np.array([t.action for t in rollout])
    # old policy = slightly perturbed current one, so some ratios clip
    logp_now = log_softmax_ref(agent.actor(obs))[np.arange(8), actions]
    old_logp = logp_now - rng.uniform(-0.4, 0.4, size=8)
    for t, lp in zip(rollout, old_logp):
        t.log_prob = float(lp)
    v_now = agent.critic(obs).ravel()
    nxt = np.stack([t.next_obs for t in rollout]) * agent._obs_scale
    v_next = agent.critic(nxt).ravel()
    adv = np.array([t.reward for t in rollout]) + cfg.gamma * v_next - v_now
    adv -= adv.mean()  # the batch-mean baseline

    def clipped_surrogate(actor):
        logp = log_softmax_ref(actor(obs))[np.arange(8), actions]
        ratio = np.exp(logp - old_logp)
        lo, hi = 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon
        return float(np.mean(np.minimum(ratio * adv,
                                        np.clip(ratio, lo, hi) * adv)))

    numeric = fd_gradient(clipped_surrogate, agent.actor)
    before = agent.actor.flatten()
    agent.update(rollout)
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
        agent.update(batch)
    assert agent_to_bytes(agent) == before


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
            agent.update(recorded(agent, make_transitions(rng, 32)))
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
    # same to rounding
    cfg = config_for("a2c", entropy_coef=0.0)
    rollout = make_transitions(np.random.default_rng(3), 8)
    shifted = [dataclasses.replace(t, reward=t.reward + 40.0) for t in rollout]
    steps = []
    for batch in (rollout, shifted):
        agent = with_sgd(A2cAgent(cfg, OBS_DIM))
        before = agent.actor.flatten()
        agent.update(batch)
        steps.append(agent.actor.flatten() - before)
    assert np.abs(steps[0]).max() > 1e-6
    np.testing.assert_allclose(steps[1], steps[0], rtol=0, atol=1e-12)


def test_more_critic_epochs_fit_targets_closer():
    rng = np.random.default_rng(4)
    rollout = make_transitions(rng, 32)

    def critic_loss_after(epochs):
        agent = A2cAgent(config_for("a2c", critic_epochs=epochs,
                                    critic_lr=3e-3), OBS_DIM)
        agent.update(list(rollout))
        obs, _, targets, _ = agent._targets_and_advantages(rollout)
        v = agent.critic(obs).ravel()
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
    a2c.update(rollout)
    acktr.update(rollout)
    assert np.max(np.abs(a2c.actor.flatten() - acktr.actor.flatten())) < 1e-12
    assert np.max(np.abs(a2c.critic.flatten() - acktr.critic.flatten())) < 1e-12


def test_acktr_zero_trust_radius_freezes_parameters():
    agent = AcktrAgent(config_for("acktr", trust_region_radius=0.0), OBS_DIM)
    before_actor = agent.actor.flatten()
    before_critic = agent.critic.flatten()
    agent.update(make_transitions(np.random.default_rng(3), 16))
    np.testing.assert_array_equal(agent.actor.flatten(), before_actor)
    np.testing.assert_array_equal(agent.critic.flatten(), before_critic)


def test_acktr_single_layer_matches_dense_natural_gradient_oracle():
    lam = 0.1
    lr = 0.05
    cfg = config_for("acktr", hidden_sizes=[], kfac_damping=lam, kfac_decay=1.0,
                     trust_region_radius=math.inf, kl_budget=math.inf,
                     entropy_coef=0.0, actor_lr=lr)
    agent = AcktrAgent(cfg, 3)
    rng = np.random.default_rng(21)
    a_fac = rng.normal(size=(3, 3))
    a_fac = a_fac @ a_fac.T + 0.3 * np.eye(3)
    s_fac = rng.normal(size=(2, 2))
    s_fac = s_fac @ s_fac.T + 0.3 * np.eye(2)
    agent.actor_stats.a_factors[0] = a_fac.copy()
    agent.actor_stats.s_factors[0] = s_fac.copy()

    rollout = make_transitions(rng, 12, dim=3)
    obs = np.stack([t.obs for t in rollout])
    actions = np.array([t.action for t in rollout])
    rewards = np.array([t.reward for t in rollout])
    nxt = np.stack([t.next_obs for t in rollout])
    v_now = agent.critic(obs).ravel()
    v_next = agent.critic(nxt).ravel()
    adv = rewards + cfg.gamma * v_next - v_now
    adv -= adv.mean()  # the batch-mean baseline
    logits = agent.actor(obs)
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

    w_before = agent.actor.layers[0].w.copy()
    b_before = agent.actor.layers[0].b.copy()
    agent.update(rollout)
    np.testing.assert_allclose(agent.actor.layers[0].w - w_before,
                               expected_dw, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(agent.actor.layers[0].b - b_before,
                               expected_db, rtol=1e-8, atol=1e-12)


def test_acktr_trust_radius_caps_step_norm():
    radius = 1e-4
    agent = AcktrAgent(config_for("acktr", trust_region_radius=radius,
                                  actor_lr=10.0, critic_lr=10.0), OBS_DIM)
    before = agent.actor.flatten()
    agent.update(make_transitions(np.random.default_rng(13), 16))
    step = np.linalg.norm(agent.actor.flatten() - before)
    assert step <= radius + 1e-12
    assert step > 0.0


def test_acktr_kl_budget_bounds_curvature_step():
    rollout = make_transitions(np.random.default_rng(14), 16)
    big = AcktrAgent(config_for("acktr", kl_budget=math.inf, actor_lr=1.0),
                     OBS_DIM)
    small = AcktrAgent(config_for("acktr", kl_budget=1e-8, actor_lr=1.0), OBS_DIM)
    before = big.actor.flatten()
    big.update(list(rollout))
    small.update(list(rollout))
    step_big = np.linalg.norm(big.actor.flatten() - before)
    step_small = np.linalg.norm(small.actor.flatten() - before)
    assert step_small < step_big
    assert step_small > 0.0


def test_acktr_zero_advantages_fixed_point_with_kl_budget():
    cfg = config_for("acktr", entropy_coef=0.0, kl_budget=1e-2)
    agent = AcktrAgent(cfg, OBS_DIM)
    rollout = zero_advantage_rollout(agent, np.random.default_rng(5))
    before = agent.actor.flatten()
    agent.update(rollout)
    np.testing.assert_array_equal(agent.actor.flatten(), before)


def natural_reference(agent, stats, grads, learning_rate):
    """``AcktrAgent._natural`` as it was: the KL quad and the step norm
    summed per 2-D layer array, and each scaling a new vector."""
    nat = stats.precondition(grads)
    quad = 0.0
    for gw, gb, nw, nb in zip(grads.dw, grads.db, nat.dw, nat.db):
        quad += float(np.sum(gw * nw)) + float(np.sum(gb * nb))
    if quad > 0:
        delta = agent.config.kl_budget
        scale = min(1.0, math.sqrt(2.0 * delta / quad) / learning_rate)
        nat = Gradients(nat.flat * scale, nat.shapes)
    radius = agent.config.trust_region_radius
    if math.isfinite(radius):
        step_norm = learning_rate * math.sqrt(sum(
            float(np.sum(w * w)) + float(np.sum(b * b))
            for w, b in zip(nat.dw, nat.db)))
        if step_norm > radius:
            nat = Gradients(nat.flat * (radius / step_norm), nat.shapes)
    return nat


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
    agent.update(make_transitions(rng, 24))  # factors other than identity
    for stats, net in ((agent.actor_stats, agent.actor),
                       (agent.critic_stats, agent.critic)):
        grads = gradients_of([rng.normal(size=l.w.shape) for l in net.layers],
                             [rng.normal(size=l.b.shape) for l in net.layers])
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
            batch.append(Transition(obs, action, reward, nxt, done))
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
        agent.update(list(rollout))
    rng = np.random.default_rng(41)
    for stats, net in ((agent.actor_stats, agent.actor),
                       (agent.critic_stats, agent.critic)):
        assert stats.damping == 1e-2
        grads = gradients_of([rng.normal(size=l.w.shape) for l in net.layers],
                             [rng.normal(size=l.b.shape) for l in net.layers])
        np.testing.assert_allclose(stats.precondition(grads).flat,
                                   solve_precondition(stats, grads).flat,
                                   rtol=1e-9)


def test_acktr_cached_inverses_agree_with_solve_oracle_agent():
    agent = default_acktr()
    oracle = use_solve_preconditioner(default_acktr())
    start = {name: net.flatten() for name, net in agent._nets().items()}
    for done, rollout in enumerate(env_rollouts(10), start=1):
        agent.update(list(rollout))
        oracle.update(list(rollout))
        if done in (1, 10):
            for name, net in agent._nets().items():
                expect = oracle._nets()[name].params
                assert not np.array_equal(expect, start[name])
                assert relative_gap(net.params, expect) <= 1e-12, (name, done)


def test_acktr_resumes_bit_for_bit_from_a_mid_training_checkpoint():
    agent = default_acktr()
    rollouts = env_rollouts(4)
    for rollout in rollouts[:3]:
        agent.update(list(rollout))
    resumed = agent_from_bytes(agent_to_bytes(agent))
    agent.update(list(rollouts[3]))
    resumed.update(list(rollouts[3]))
    for name, net in agent._nets().items():
        np.testing.assert_array_equal(resumed._nets()[name].params, net.params)
    for name, opt in agent._optimizers().items():
        for mine, theirs in zip(opt.state_arrays(),
                                resumed._optimizers()[name].state_arrays()):
            np.testing.assert_array_equal(theirs, mine)


def test_dql_resumed_from_a_checkpoint_syncs_its_target_on_the_same_steps():
    # the target sync reads Adam's step count, which the counters restore
    cfg = config_for("dql", warmup=8, batch_size=4, target_sync_period=3,
                     hidden_sizes=[4])
    agent = DqlAgent(cfg, 4)
    rng = np.random.default_rng(6)
    transitions = [Transition(rand_obs(rng, dim=4), int(rng.integers(2)),
                              float(rng.normal()), rand_obs(rng, dim=4), False)
                   for _ in range(16)]
    agent.update(transitions[:10])
    assert agent.optimizer.t == 3
    resumed = agent_from_bytes(agent_to_bytes(agent))
    assert resumed.optimizer.t == 3
    resumed.replay = copy.deepcopy(agent.replay)  # no checkpoint holds it
    for twin in (agent, resumed):
        twin.update(transitions[10:])
    assert resumed.optimizer.t == agent.optimizer.t == 9
    for name, net in agent._nets().items():
        np.testing.assert_array_equal(resumed._nets()[name].params, net.params)
    np.testing.assert_array_equal(agent.target_net.params, agent.q_net.params)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["dql", "a2c", "ppo", "acktr", "fixed_time"])
def test_save_load_round_trip_greedy_actions(tmp_path, algorithm):
    agent = make_agent(config_for(algorithm), OBS_DIM)
    rng = np.random.default_rng(17)
    if algorithm != "fixed_time":
        for _ in range(3):
            agent.update(recorded(agent, make_transitions(
                rng, max(agent.needs_rollout, 8))))
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
    """The payload as the checkpoint layout spells it out: each net's
    parameters, then each optimizer's state; Adam's is ``m`` then ``v``,
    each as [w0 .. wL, b0 .. bL], and K-FAC's the A then the S factors."""
    nets = agent._nets()
    parts = [net.params for net in nets.values()]
    for name, opt in agent._optimizers().items():
        if isinstance(opt, AdamOptimizer):
            shapes = [l.w.shape for l in nets[name].layers]
            for flat in (opt.m, opt.v):
                moment = Gradients(flat, shapes)
                parts += [w.ravel() for w in moment.dw] + moment.db
        elif isinstance(opt, KfacStats):
            parts += [f.ravel() for f in opt.a_factors + opt.s_factors]
    return np.concatenate(parts)


@pytest.mark.parametrize("algorithm", ["dql", "ppo", "a2c", "acktr"])
def test_checkpoint_bytes_are_stable(tmp_path, algorithm):
    agent = make_agent(config_for(algorithm, warmup=16, batch_size=8,
                                  rollout_length=32, ppo_minibatch=16), OBS_DIM)
    rng = np.random.default_rng(29)
    for _ in range(3):
        assert agent.update(recorded(agent, make_transitions(rng, 32)))
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
    payload = np.frombuffer(blob, dtype="<f8", offset=12 + header_len)
    np.testing.assert_array_equal(payload, laid_out_payload(agent))


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
    agent.update(make_transitions(rng, 16))
    loaded = agent_from_bytes(agent_to_bytes(agent))
    rollout = make_transitions(np.random.default_rng(23), 16)
    agent.update(list(rollout))
    loaded.update(list(rollout))
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
    agent.update(recorded(agent, make_transitions(np.random.default_rng(31),
                                                  8, dim=4)))
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


@pytest.mark.parametrize("version", [1, 2, 3, 4, 99])
def test_checkpoint_version_mismatch_rejected(version):
    blob = bytearray(agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM)))
    blob[4:8] = struct.pack("<I", version)
    with pytest.raises(CheckpointFormatError, match=f"version {version}"):
        agent_from_bytes(bytes(blob))


NON_FINITE_SLOTS = {
    "ppo-actor": ("ppo", lambda agent: agent.actor.params),
    "ppo-critic-adam": ("ppo", lambda agent: agent.critic_optimizer.v),
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
    agent.update(recorded(agent, make_transitions(np.random.default_rng(4), 8)))
    header = agent_header(agent_to_bytes(agent))
    # only what make_agent cannot rebuild from the config and obs_dim
    assert list(header) == ["obs_dim", "config", "counters", "rng_state"]
    assert list(header["config"]) == [
        f.name for f in dataclasses.fields(AgentConfig)]
    assert len(header["config"]) == 28
    # each Adam optimizer's step count sits beside the agent's
    assert header["counters"] == {"train_steps": 8, "actor.t": 4,
                                  "critic.t": 4}


def payload_values(blob):
    _, header_len = struct.unpack_from("<II", blob, 4)
    return (len(blob) - 12 - header_len) // 8


def test_checkpoint_activation_count_mismatch_rejected():
    # one hidden layer fewer: one activation fewer per net, and fewer
    # values than the payload holds
    blob = agent_to_bytes(make_agent(config_for("a2c"), OBS_DIM))
    fewer = make_agent(config_for("a2c", hidden_sizes=[64]), OBS_DIM)
    expected = payload_values(agent_to_bytes(fewer))

    def drop_layer(header):
        assert header["config"]["hidden_sizes"] == [64, 64]
        header["config"]["hidden_sizes"].pop()

    with pytest.raises(CheckpointFormatError,
                       match=f"trailing bytes.* {expected} values, the "
                             f"payload {payload_values(blob)}"):
        agent_from_bytes(forge_header(blob, drop_layer))


def test_checkpoint_size_mismatch_rejected():
    # a hidden layer one unit wider needs more values than the payload holds
    blob = agent_to_bytes(make_agent(config_for("ppo"), OBS_DIM))
    wider = make_agent(config_for("ppo", hidden_sizes=[64, 65]), OBS_DIM)
    expected = payload_values(agent_to_bytes(wider))

    def resize(header):
        header["config"]["hidden_sizes"][1] += 1

    with pytest.raises(CheckpointTruncatedError,
                       match=f"cut short.* {expected} values, the "
                             f"payload {payload_values(blob)}"):
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
    with pytest.raises(CheckpointFormatError, match="obs_dim must be a "
                                                    "positive int"):
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


@pytest.mark.parametrize("key", ["obs_dim", "config", "counters", "rng_state"])
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
        agent.update(recorded(agent, make_transitions(rng, 8)))
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
