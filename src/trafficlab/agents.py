"""The signal controllers: deep Q-learning, advantage actor-critic, clipped
surrogate policy optimization, curvature-preconditioned actor-critic, and a
fixed-time baseline, all behind one act/update interface.

Policy nets emit two logits (keep, switch); critics emit one value.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from trafficlab.env import PHASE_TIME_SLOT, TrafficSignalEnv
from trafficlab.nn import (
    AdamOptimizer,
    DivergenceError,
    Gradients,
    KfacStats,
    Mlp,
    SgdOptimizer,
)

ALGORITHMS = ("dql", "a2c", "ppo", "acktr", "fixed_time")

_MAGIC = b"TLAG"
_FORMAT_VERSION = 5

N_ACTIONS = 2


class ObservationShapeError(ValueError):
    """Observation length does not match what the agent was built for."""


class CheckpointError(RuntimeError):
    """Base class for unreadable checkpoint files."""


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class AlgorithmMismatchError(CheckpointError):
    """Checkpoint holds a different algorithm than the caller expected."""


@dataclass
class AgentConfig:
    """Hyperparameters for every controller; unused fields are ignored by
    algorithms that do not need them. The defaults are what every command
    runs, except the few values ``_ALGO_DEFAULTS`` sets per algorithm."""

    algorithm: str = "ppo"
    gamma: float = 0.95
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    q_lr: float = 5e-4
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    exploration_fraction: float = 0.2
    train_steps_budget: int = 100_000
    clip_epsilon: float = 0.2
    rollout_length: int = 256
    ppo_epochs: int = 4
    ppo_minibatch: int = 64
    critic_epochs: int = 1
    # uniform mixing into the actor-critic learners' training-time action
    # sampling
    explore_floor: float = 0.05
    replay_capacity: int = 50_000
    batch_size: int = 64
    warmup: int = 1_000
    target_sync_period: int = 500
    fixed_time_green: float = 30.0
    entropy_coef: float = 0.01
    hidden_sizes: list[int] = field(default_factory=lambda: [64, 64])
    kfac_damping: float = 1e-2
    kfac_decay: float = 0.99
    # cap on the parameter-space norm of each ACKTR step: >= 0, 0 freezes
    # the nets, inf disables the cap
    trust_region_radius: float = 1.0
    # curvature-metric step budget: the applied step is scaled so that
    # approximately step^T F step <= 2 * kl_budget; > 0, inf disables it
    kl_budget: float = 1e-2
    phase_time_scale: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("train_steps_budget", "rollout_length", "ppo_epochs",
                     "ppo_minibatch", "critic_epochs", "replay_capacity",
                     "batch_size", "warmup", "target_sync_period", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool or a float is no count
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name, value in vars(self).items():
            if (isinstance(value, float) and not math.isfinite(value)
                    and name not in ("trust_region_radius", "kl_budget")):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("epsilon_start", "epsilon_end", "explore_floor",
                     "kfac_decay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("exploration_fraction", "train_steps_budget",
                     "entropy_coef", "warmup", "fixed_time_green",
                     "kfac_damping"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        for name in ("actor_lr", "critic_lr", "q_lr", "clip_epsilon",
                     "replay_capacity", "rollout_length", "batch_size",
                     "target_sync_period", "ppo_epochs", "ppo_minibatch",
                     "critic_epochs", "phase_time_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.trust_region_radius >= 0:
            raise ValueError("trust_region_radius must be non-negative "
                             "(inf disables the cap)")
        if not self.kl_budget > 0:
            raise ValueError("kl_budget must be positive (inf disables it)")
        if any(type(size) is not int or size <= 0
               for size in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be positive ints, "
                             f"got {self.hidden_sizes!r}")


# What a learner sets apart from the ``AgentConfig`` defaults to train
# reliably at desk scale; [agent] config keys layer on top. The default
# exploration floor and the batch-mean advantage baseline keep the switch
# action sampled and the shared reward offset out of the actor-critics'
# gradient; without them the policies fall into a never-switch basin.
_ALGO_DEFAULTS: dict[str, dict] = {
    "a2c": dict(actor_lr=1e-2, critic_lr=5e-3, critic_epochs=10),
    "acktr": dict(actor_lr=0.25, critic_lr=0.1, critic_epochs=10,
                  entropy_coef=0.02),
}


def default_agent_config(algorithm: str, seed: int = 0,
                         train_steps_budget: int = 100_000,
                         overrides: dict | None = None) -> AgentConfig:
    """The config a command trains: ``_ALGO_DEFAULTS[algorithm]``, then
    ``overrides``, over the ``AgentConfig`` defaults. ``overrides`` may not
    name the cell's ``algorithm`` or ``seed``, which this call sets."""
    for key, grid_key in (("algorithm", "algorithms"), ("seed", "seeds")):
        if key in (overrides or {}):
            raise ValueError(f"[agent] {key}: set it with [experiment] {grid_key}")
    return AgentConfig(**{"train_steps_budget": train_steps_budget,
                          **_ALGO_DEFAULTS.get(algorithm, {}),
                          **(overrides or {}),
                          "algorithm": algorithm, "seed": seed})


@dataclass(slots=True)
class Transition:
    obs: np.ndarray
    action: int
    reward: float
    next_obs: np.ndarray
    done: bool
    log_prob: float | None = None


def rollout(agent: Agent, env: TrafficSignalEnv, batch: int = 0,
            obs: np.ndarray | None = None
            ) -> Iterator[tuple[float, bool, list[Transition] | None]]:
    """The one exploring act -> step loop of training and deployment.

    Greedy evaluation does not come through here: ``evaluate_agent`` steps
    its episodes side by side and picks their actions together with
    ``Agent.greedy_actions``.

    Each step yields ``(reward, done, full)``. With ``batch > 0`` the
    step's ``Transition`` is gathered, and ``full`` is the list of the last
    ``batch`` of them once it fills, else ``None``; the caller hands it to
    ``agent.update``. The env is reset first when ``obs`` is None
    and before the step after each episode end, so the caller can read
    the finished episode's state when ``done`` is yielded.
    """
    pending: list[Transition] = []
    while True:
        if obs is None:
            obs = env.reset()
        action = agent.act(obs, explore=True)
        next_obs, reward, done, _ = env.step(action)
        full = None
        if batch:
            pending.append(Transition(obs, action, reward, next_obs, done,
                                      agent.last_logprob))
            if len(pending) >= batch:
                full, pending = pending, []
        obs = None if done else next_obs
        yield reward, done, full


# row ``a`` is the one-hot row of action ``a``
_ONE_HOT = np.eye(N_ACTIONS)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis of two logits, max-shifted.
    The maximum and the exp sum of the two columns are ufuncs, bit-equal
    to the axis reductions they replace: a max reduction of two values is
    ``np.maximum`` of them, and an axis sum adds its terms to 0.0, which
    leaves the sum of two exps (never -0.0) as ``e0 + e1`` has it."""
    top = np.maximum(logits[..., 0], logits[..., 1])
    z = logits - top[..., None]
    e = np.exp(z)
    z -= np.log(e[..., 0] + e[..., 1])[..., None]
    return z


def _entropy(pi: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """-sum(pi * log pi) of each row of two probabilities. The columns are
    added by one ufunc, bit-equal to the axis sum, which adds them to 0.0:
    the two differ only where both terms are -0.0, and the likelier
    action's term never is (its log-probability is +0.0 or negative)."""
    terms = pi * logp
    return -(terms[:, 0] + terms[:, 1])


def _stack(transitions: list[Transition]):
    obs = np.array([t.obs for t in transitions])
    actions = np.array([t.action for t in transitions], dtype=np.intp)
    rewards = np.array([t.reward for t in transitions])
    next_obs = np.array([t.next_obs for t in transitions])
    dones = np.array([1.0 if t.done else 0.0 for t in transitions])
    return obs, actions, rewards, next_obs, dones


class Agent:
    """Common act/update surface. ``needs_rollout`` tells a driver how many
    transitions to hand to update() at a time (0 = never updates)."""

    needs_rollout = 0

    def __init__(self, config: AgentConfig, obs_dim: int):
        if type(obs_dim) is not int or obs_dim < 1:  # a bool is no size
            raise ValueError(f"obs_dim must be a positive int, got {obs_dim!r}")
        self.config = config
        self.obs_dim = obs_dim
        self.train_steps = 0
        self.last_logprob: float | None = None
        self._rng = np.random.default_rng(config.seed)
        scale = np.ones(obs_dim)
        if obs_dim > PHASE_TIME_SLOT:
            scale[PHASE_TIME_SLOT] = 1.0 / config.phase_time_scale
        self._obs_scale = scale

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    def _check_obs(self, obs) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != (self.obs_dim,):
            raise ObservationShapeError(
                f"expected observation of length {self.obs_dim}, got {obs.shape}")
        return obs

    def act(self, obs, explore: bool = False) -> int:
        raise NotImplementedError

    def greedy_actions(self, obs) -> list[int]:
        """The greedy action for each observation in ``obs``, a sequence
        of ``E`` of them (a list of 1-D arrays or an ``(E, obs_dim)``
        array): entry ``k`` equals ``act(obs[k], explore=False)``. Draws
        and stores nothing."""
        raise NotImplementedError

    def _check_rows(self, obs) -> np.ndarray:
        """``obs``, a stack of observations, as one ``(E, obs_dim)`` float
        array; a ragged stack or a row of another length is an
        ``ObservationShapeError``."""
        expected = (f"expected observations of length {self.obs_dim} "
                    f"stacked in rows")
        try:
            x = np.asarray(obs, dtype=np.float64)
        except ValueError as exc:  # say, rows of unequal length
            raise ObservationShapeError(f"{expected}: {exc}") from None
        if x.ndim != 2 or x.shape[1] != self.obs_dim:
            raise ObservationShapeError(f"{expected}, got {x.shape}")
        return x

    def _argmax_rows(self, net: Mlp, obs, what: str) -> list[int]:
        """Argmax of ``net``'s two outputs for each observation in
        ``obs``, run as one call on a stack of single rows (see
        ``Mlp.__call__``), so each row's outputs are bit-equal to those of
        a one-row call and are compared as ``act`` compares them."""
        x = self._check_rows(obs)
        actions = []
        for v0, v1 in net((x * self._obs_scale)[:, None, :])[:, 0].tolist():
            if not (math.isfinite(v0) and math.isfinite(v1)):  # else an arbitrary action
                raise DivergenceError(f"{what} are not finite: {v0}, {v1}")
            actions.append(0 if v0 >= v1 else 1)  # argmax: a tie keeps the first
        return actions

    def update(self, transitions: list[Transition]) -> dict[str, float]:
        return {}

    # -- persistence hooks ---------------------------------------------------

    def _nets(self) -> dict[str, Mlp]:
        return {}

    def _optimizers(self) -> dict:
        return {}

    def _counter_slots(self) -> list[tuple[str, object, str]]:
        """``(key, owner, attribute)`` of each int a checkpoint keeps: the
        agent's ``train_steps`` and each Adam optimizer's step count."""
        slots = [("train_steps", self, "train_steps")]
        for name, opt in self._optimizers().items():
            if isinstance(opt, AdamOptimizer):
                slots.append((f"{name}.t", opt, "t"))
        return slots


class FixedTimeAgent(Agent):
    """Non-adaptive baseline: request a switch whenever the current phase
    has lasted the configured green time."""

    def __init__(self, config: AgentConfig, obs_dim: int):
        super().__init__(config, obs_dim)
        if obs_dim <= PHASE_TIME_SLOT:
            raise ValueError(f"obs_dim must exceed {PHASE_TIME_SLOT}, the "
                             f"phase-timer slot it reads, got {obs_dim}")

    def act(self, obs, explore: bool = False) -> int:
        obs = self._check_obs(obs)
        return 1 if obs[PHASE_TIME_SLOT] >= self.config.fixed_time_green else 0

    def greedy_actions(self, obs) -> list[int]:
        green = self.config.fixed_time_green
        return [1 if t >= green else 0
                for t in self._check_rows(obs)[:, PHASE_TIME_SLOT].tolist()]


class _ReplayBuffer:
    """Fixed-capacity ring of transitions held as one array per field.

    The ``k``-th transition added (from 0) goes to slot ``k % capacity``,
    so once the ring is full each new transition overwrites the oldest.
    ``sample`` returns stacked batch arrays, ready for a regression step.
    """

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        self.added = 0
        self.obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros(capacity, dtype=np.intp)
        self.rewards = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.dones = np.zeros(capacity)

    def __len__(self) -> int:
        return min(self.added, self.capacity)

    def add(self, item: Transition) -> None:
        i = self.added % self.capacity
        self.obs[i] = item.obs
        self.actions[i] = item.action
        self.rewards[i] = item.reward
        self.next_obs[i] = item.next_obs
        self.dones[i] = 1.0 if item.done else 0.0
        self.added += 1

    def sample(self, rng: np.random.Generator, n: int):
        """(obs, actions, rewards, next_obs, dones) of ``n`` uniform draws."""
        idx = rng.integers(0, len(self), size=n)
        # take copies the same rows as indexing; for the 2-D fields it
        # costs a third as much, for the 1-D ones indexing is cheaper
        return (self.obs.take(idx, axis=0), self.actions[idx],
                self.rewards[idx], self.next_obs.take(idx, axis=0),
                self.dones[idx])


class DqlAgent(Agent):
    """Deep Q-learning with a replay buffer and a periodically synced
    target net. Epsilon decays linearly over the first fraction of the
    training budget, then holds."""

    needs_rollout = 1

    def __init__(self, config: AgentConfig, obs_dim: int):
        super().__init__(config, obs_dim)
        sizes = [obs_dim] + list(config.hidden_sizes) + [N_ACTIONS]
        self.q_net = Mlp.create(sizes, seed=config.seed)
        self.target_net = self.q_net.clone()
        self.optimizer = AdamOptimizer(self.q_net)
        self.replay = _ReplayBuffer(config.replay_capacity, obs_dim)
        self._rows = np.arange(config.batch_size)

    def epsilon(self) -> float:
        cfg = self.config
        horizon = max(1, int(cfg.train_steps_budget * cfg.exploration_fraction))
        frac = min(1.0, self.train_steps / horizon)
        return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)

    def act(self, obs, explore: bool = False) -> int:
        obs = self._check_obs(obs)
        if explore and self._rng.random() < self.epsilon():
            return int(self._rng.integers(N_ACTIONS))
        q0, q1 = self.q_net(obs * self._obs_scale).tolist()
        if not (math.isfinite(q0) and math.isfinite(q1)):  # else an arbitrary action
            raise DivergenceError(f"q-values are not finite: {q0}, {q1}")
        return 0 if q0 >= q1 else 1  # argmax: a tie keeps the first

    def greedy_actions(self, obs) -> list[int]:
        return self._argmax_rows(self.q_net, obs, "q-values")

    def update(self, transitions: list[Transition]) -> dict[str, float]:
        """Add each transition to the replay, then take one gradient step
        per transition once the replay is warm, however many transitions
        one call brings. Returns the mean loss of the steps taken."""
        cfg = self.config
        warm = max(cfg.warmup, cfg.batch_size)
        losses = []
        for t in transitions:
            self.replay.add(t)
            self.train_steps += 1
            if len(self.replay) >= warm:
                losses.append(self._fit(*self.replay.sample(self._rng,
                                                            cfg.batch_size)))
        if not losses:
            return {}
        return {"loss": sum(losses) / len(losses), "epsilon": self.epsilon()}

    def _fit(self, obs, actions, rewards, next_obs, dones) -> float:
        """One regression step of Q(s,a) toward r + gamma * max Q_target(s')
        on a stacked batch of at most ``batch_size`` rows; returns the mean
        squared TD error."""
        cfg = self.config
        n = len(actions)
        obs = obs * self._obs_scale
        next_obs = next_obs * self._obs_scale
        # r + (gamma * (1 - d)) * max Q', its products and sum commuted
        targets = self.target_net(next_obs).max(axis=1)
        targets *= cfg.gamma * (1.0 - dones)
        targets += rewards
        q, cache = self.q_net.forward(obs)
        rows = self._rows[:n]
        td = q[rows, actions]
        td -= targets
        loss = float((td * td).sum()) / n  # what np.mean computes
        if not math.isfinite(loss):
            raise DivergenceError("q-learning loss became non-finite")
        td *= 2.0
        td /= n
        dout = np.zeros_like(q)
        dout[rows, actions] = td
        grads = self.q_net.backward(cache, dout)
        grads.flat *= -1.0  # descent
        self.optimizer.step(self.q_net, grads, cfg.q_lr)
        if self.optimizer.t % cfg.target_sync_period == 0:
            self.target_net = self.q_net.clone()
        return loss

    def _nets(self) -> dict[str, Mlp]:
        return {"q": self.q_net, "target": self.target_net}

    def _optimizers(self) -> dict:
        return {"q": self.optimizer}


class _ActorCriticAgent(Agent):
    """Shared machinery: softmax policy over two logits plus a value net,
    each with its own optimizer of the class's ``optimizer_class``."""

    optimizer_class: type = AdamOptimizer

    def __init__(self, config: AgentConfig, obs_dim: int):
        super().__init__(config, obs_dim)
        hidden = list(config.hidden_sizes)
        self.actor = Mlp.create([obs_dim] + hidden + [N_ACTIONS],
                                seed=config.seed)
        self.critic = Mlp.create([obs_dim] + hidden + [1], seed=config.seed + 1)
        self.actor_optimizer = self.optimizer_class(self.actor)
        self.critic_optimizer = self.optimizer_class(self.critic)

    @property
    def needs_rollout(self) -> int:
        return self.config.rollout_length

    def act(self, obs, explore: bool = False) -> int:
        # A scalar head: _log_softmax on the two logits as Python floats,
        # skipping numpy's per-call cost on 2-element arrays. np.exp and
        # np.log run the array calls' ufunc loops, so results stay bit-equal
        # to the array path; math.exp and math.log may round differently.
        obs = self._check_obs(obs)
        l0, l1 = self.actor(obs * self._obs_scale).tolist()
        if not (math.isfinite(l0) and math.isfinite(l1)):  # else an arbitrary action
            raise DivergenceError(f"policy logits are not finite: {l0}, {l1}")
        top = max(l0, l1)
        z0, z1 = l0 - top, l1 - top
        lse = np.log(np.exp(z0) + np.exp(z1))
        if explore:
            # a uniform floor keeps rare actions sampled even once the
            # policy has become confident
            floor = self.config.explore_floor
            if floor and self._rng.random() < floor:
                action = int(self._rng.integers(N_ACTIONS))
            else:
                action = 0 if self._rng.random() < np.exp(z0 - lse) else 1
        else:
            action = 0 if l0 >= l1 else 1  # argmax: a tie keeps the first
        self.last_logprob = float((z1 if action else z0) - lse)
        return action

    def greedy_actions(self, obs) -> list[int]:
        return self._argmax_rows(self.actor, obs, "policy logits")

    def _targets_and_advantages(self, transitions: list[Transition]):
        cfg = self.config
        obs, actions, rewards, next_obs, dones = _stack(transitions)
        obs = obs * self._obs_scale
        next_obs = next_obs * self._obs_scale
        v_now = self.critic(obs).ravel()
        v_next = self.critic(next_obs).ravel()
        targets = rewards + cfg.gamma * (1.0 - dones) * v_next
        advantages = targets - v_now
        if len(advantages) > 1:
            # batch-mean baseline: keeps the estimator unbiased while
            # removing the shared offset that otherwise swamps the
            # state-conditional signal (the mean as np.mean computes it)
            advantages = advantages - advantages.sum() / len(advantages)
        return obs, actions, targets, advantages

    def _actor_surrogate_grad(self, logp, pi, score, coeff, entropy):
        """d/d logits of mean(coeff * log pi(a)) plus the entropy bonus,
        from ``score``, the rows ``onehot(a) - pi``, and each row's
        ``entropy`` (read only with a non-zero ``entropy_coef``)."""
        grad = coeff[:, None] * score
        if self.config.entropy_coef:
            grad += self.config.entropy_coef * (-pi * (logp + entropy[:, None]))
        grad /= len(coeff)
        return grad

    def _critic_step(self, obs, targets) -> float:
        """Descend the squared error toward fixed targets; repeated
        ``critic_epochs`` times so the value scale can be reached within a
        desk-scale update budget."""
        n = len(targets)
        loss = 0.0
        for epoch in range(self.config.critic_epochs):
            v, cache = self.critic.forward(obs)
            resid = v.ravel() - targets
            loss = float((resid * resid).sum()) / n  # what np.mean computes
            if not math.isfinite(loss):
                raise DivergenceError("critic loss became non-finite")
            grads = self.critic.backward(cache, (2.0 * resid / n)[:, None])
            self.critic_optimizer.step(
                self.critic, self._critic_direction(grads, cache, resid, epoch),
                self.config.critic_lr)
        return loss

    def _critic_direction(self, grads: Gradients, cache, resid,
                          epoch: int) -> Gradients:
        """The critic's step direction from its loss gradient: descent,
        negated in place."""
        grads.flat *= -1.0
        return grads

    def _nets(self) -> dict[str, Mlp]:
        return {"actor": self.actor, "critic": self.critic}

    def _optimizers(self) -> dict:
        return {"actor": self.actor_optimizer, "critic": self.critic_optimizer}


class A2cAgent(_ActorCriticAgent):
    """One-step advantage actor-critic: the actor ascends
    mean(log pi(a|s) * A), the critic regresses onto bootstrapped targets."""

    def update(self, transitions: list[Transition]) -> dict[str, float]:
        if not transitions:
            return {}
        n = len(transitions)
        self.train_steps += n
        obs, actions, targets, advantages = self._targets_and_advantages(transitions)
        logits, cache = self.actor.forward(obs)
        logp = _log_softmax(logits)
        pi = np.exp(logp)
        taken = logp[np.arange(n), actions]
        taken *= advantages
        surrogate = float(taken.sum()) / n  # what np.mean computes
        if not math.isfinite(surrogate):
            raise DivergenceError("actor surrogate became non-finite")
        entropy = _entropy(pi, logp)
        score = _ONE_HOT[actions] - pi
        dlogits = self._actor_surrogate_grad(logp, pi, score, advantages,
                                             entropy)
        grads = self.actor.backward(cache, dlogits)
        self.actor_optimizer.step(
            self.actor, self._actor_direction(grads, cache, score),
            self.config.actor_lr)
        critic_loss = self._critic_step(obs, targets)
        return {"actor_loss": -surrogate, "critic_loss": critic_loss,
                "entropy": float(entropy.sum()) / n}

    def _actor_direction(self, grads: Gradients, cache, score) -> Gradients:
        """The actor's step direction from its surrogate gradient: ascent.
        ``score`` holds the rows ``onehot(a) - pi`` of the batch."""
        return grads


class PpoAgent(_ActorCriticAgent):
    """Clipped-ratio surrogate over several epochs of minibatches.

    Per-step objective: min(ratio * A, clip(ratio, 1-eps, 1+eps) * A) with
    ratio = pi_new(a|s) / pi_old(a|s); the ratio gradient is dropped
    wherever the clipped branch is the active minimum.
    """

    def update(self, transitions: list[Transition]) -> dict[str, float]:
        if not transitions:
            return {}
        if any(t.log_prob is None for t in transitions):
            raise ValueError("a PPO update needs the log-probability of each "
                             "action taken, which rollout records")
        cfg = self.config
        n = len(transitions)
        self.train_steps += n
        obs, actions, targets, advantages = self._targets_and_advantages(transitions)
        old_logp = np.array([t.log_prob for t in transitions])
        low, high = 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon
        last_actor_loss = 0.0
        last_critic_loss = 0.0
        for _ in range(cfg.ppo_epochs):
            perm = self._rng.permutation(n)
            for start in range(0, n, cfg.ppo_minibatch):
                mb = perm[start:start + cfg.ppo_minibatch]
                m = len(mb)
                mb_obs = obs[mb]
                mb_actions = actions[mb]
                logits, cache = self.actor.forward(mb_obs)
                logp = _log_softmax(logits)
                pi = np.exp(logp)
                ratio = logp[np.arange(m), mb_actions]
                ratio -= old_logp[mb]
                np.exp(ratio, out=ratio)
                adv = advantages[mb]
                unclipped = ratio * adv
                # np.clip(ratio, low, high) * adv, as np.clip computes it
                clipped = np.maximum(ratio, low)
                np.minimum(clipped, high, out=clipped)
                clipped *= adv
                objective = float(np.minimum(unclipped, clipped).sum()) / m
                if not math.isfinite(objective):
                    raise DivergenceError("clipped surrogate became non-finite")
                # ratio gradient only where the unclipped branch is active
                coeff = np.where(unclipped <= clipped, adv * ratio, 0.0)
                entropy = _entropy(pi, logp) if cfg.entropy_coef else None
                dlogits = self._actor_surrogate_grad(
                    logp, pi, _ONE_HOT[mb_actions] - pi, coeff, entropy)
                grads = self.actor.backward(cache, dlogits)
                self.actor_optimizer.step(self.actor, grads, cfg.actor_lr)
                last_actor_loss = -objective
                last_critic_loss = self._critic_step(mb_obs, targets[mb])
        return {"actor_loss": last_actor_loss, "critic_loss": last_critic_loss}


class AcktrAgent(A2cAgent):
    """Actor-critic with per-layer Kronecker-factored curvature: the A2C
    update, with each gradient preconditioned by the running factor
    inverses, scaled to the KL budget and capped to a maximum
    parameter-space norm.

    The factors are refreshed once per update for each net, from the
    actor's score rows ``onehot(a) - pi`` and the critic's residuals of
    its first epoch. A refresh reads only the layer inputs and the
    pre-activation gradients, so it runs ``Mlp.pre_activation_grads``, the
    chain of ``backward`` without its weight and bias products. Both
    scalings write into the fresh preconditioned vector; the raw gradient
    is only read."""

    optimizer_class = SgdOptimizer

    def __init__(self, config: AgentConfig, obs_dim: int):
        super().__init__(config, obs_dim)
        self.actor_stats = KfacStats(self.actor, damping=config.kfac_damping,
                                     decay=config.kfac_decay)
        self.critic_stats = KfacStats(self.critic, damping=config.kfac_damping,
                                      decay=config.kfac_decay)

    def _actor_direction(self, grads, cache, score) -> Gradients:
        # curvature pass: per-sample score-function gradients, unscaled;
        # the factors read only the pre-activation gradients
        self.actor_stats.update(cache.inputs,
                                self.actor.pre_activation_grads(cache, score))
        return self._natural(self.actor_stats, grads, self.config.actor_lr)

    def _critic_direction(self, grads, cache, resid, epoch) -> Gradients:
        if epoch == 0:  # refresh curvature once per rollout
            self.critic_stats.update(
                cache.inputs, self.critic.pre_activation_grads(cache, resid[:, None]))
        grads.flat *= -1.0  # descent
        return self._natural(self.critic_stats, grads, self.config.critic_lr)

    def _natural(self, stats: KfacStats, grads: Gradients,
                 learning_rate: float) -> Gradients:
        """Precondition ``grads``, scale the step so that its
        curvature-metric length stays within the KL budget (eta^2 g^T F^-1 g
        <= 2 delta), then cap its norm at the trust-region radius. g^T F^-1 g
        is the raw gradient's inner product with the preconditioned one, so
        no extra curvature products are needed; saturated directions (tiny
        Fisher) would otherwise blow up under the inverse. An infinite
        budget scales by exactly 1.0; an infinite radius never scales."""
        nat = stats.precondition(grads)
        delta = self.config.kl_budget
        quad = grads.layer_sums(grads.flat * nat.flat)
        if quad > 0:
            nat.flat *= min(1.0, math.sqrt(2.0 * delta / quad) / learning_rate)
        radius = self.config.trust_region_radius
        step_norm = learning_rate * nat.norm()
        if step_norm > radius:
            nat.flat *= radius / step_norm
        return nat

    def _optimizers(self) -> dict:
        return {"actor": self.actor_optimizer, "critic": self.critic_optimizer,
                "actor_stats": self.actor_stats, "critic_stats": self.critic_stats}


_AGENT_CLASSES = {
    "dql": DqlAgent,
    "a2c": A2cAgent,
    "ppo": PpoAgent,
    "acktr": AcktrAgent,
    "fixed_time": FixedTimeAgent,
}


def make_agent(config: AgentConfig, obs_dim: int) -> Agent:
    return _AGENT_CLASSES[config.algorithm](config, obs_dim)


# ---------------------------------------------------------------------------
# agent checkpoints
# ---------------------------------------------------------------------------
#
# Layout: b"TLAG", <II (format version, header length), a UTF-8 JSON header,
# then one little-endian float64 payload. The header holds only what
# ``make_agent`` cannot rebuild: obs_dim, the full config, the counters
# (``_counter_slots``) and the RNG state. The agent that ``make_agent``
# builds from the first two sets the payload's layout: each net's
# ``params`` in ``_nets()`` order, then each optimizer's
# ``state_arrays()`` in ``_optimizers()`` order.

def _payload_arrays(agent: Agent) -> list[np.ndarray]:
    arrays = [net.params for net in agent._nets().values()]
    for opt in agent._optimizers().values():
        arrays += opt.state_arrays()
    return arrays


def agent_to_bytes(agent: Agent) -> bytes:
    header = json.dumps({
        "obs_dim": agent.obs_dim,
        "config": asdict(agent.config),
        "counters": {key: getattr(owner, attr)
                     for key, owner, attr in agent._counter_slots()},
        "rng_state": agent._rng.bit_generator.state,
    }, default=int).encode("utf-8")
    payload = b"".join(np.asarray(a, dtype="<f8").tobytes()
                       for a in _payload_arrays(agent))
    return (_MAGIC + struct.pack("<II", _FORMAT_VERSION, len(header))
            + header + payload)


def agent_from_bytes(blob: bytes, expected_algorithm: str | None = None) -> Agent:
    prefix = len(_MAGIC) + 8
    if len(blob) < prefix:
        raise CheckpointTruncatedError("agent checkpoint prefix cut short")
    if blob[:len(_MAGIC)] != _MAGIC:
        raise CheckpointFormatError("bad agent checkpoint magic bytes")
    version, header_len = struct.unpack_from("<II", blob, len(_MAGIC))
    if version != _FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported agent checkpoint version {version}; this build "
            f"reads version {_FORMAT_VERSION} only")
    if len(blob) < prefix + header_len:
        raise CheckpointTruncatedError("agent header cut short")
    try:
        header = json.loads(blob[prefix:prefix + header_len].decode("utf-8"))
        return _restore(header, blob, prefix + header_len, expected_algorithm)
    except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise CheckpointFormatError(
            f"unreadable agent header: {type(exc).__name__}: {exc}") from exc


def _restore(header: dict, blob: bytes, offset: int,
             expected_algorithm: str | None) -> Agent:
    """Build the agent of the header's config and obs_dim and fill it from
    the payload at ``offset``. A malformed header surfaces as a KeyError,
    TypeError, ValueError or OverflowError, and one that names sizes too
    large to allocate as a MemoryError; the caller reports each as a
    format error. A payload whose length does not fit the built agent, a
    payload value that is not finite (training raises before it could
    save one) and a counter that is not a non-negative int are format
    errors too."""
    config = AgentConfig(**header["config"])
    if expected_algorithm is not None and config.algorithm != expected_algorithm:
        raise AlgorithmMismatchError(
            f"checkpoint holds {config.algorithm!r}, expected "
            f"{expected_algorithm!r}")
    agent = make_agent(config, header["obs_dim"])
    arrays = _payload_arrays(agent)  # the payload's destinations, in order
    count = sum(a.size for a in arrays)
    sizes = (f"the agent its config builds holds {count} values, the "
             f"payload {(len(blob) - offset) / 8:.15g}")
    if len(blob) < offset + 8 * count:
        raise CheckpointTruncatedError(f"checkpoint payload cut short: {sizes}")
    if len(blob) > offset + 8 * count:
        raise CheckpointFormatError(
            f"trailing bytes after checkpoint payload: {sizes}")
    payload = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    if not np.isfinite(payload).all():
        raise CheckpointFormatError("checkpoint payload holds a value that is "
                                    "not finite")
    for dst in arrays:
        dst[...] = payload[:dst.size].reshape(dst.shape)
        payload = payload[dst.size:]
    counters = header["counters"]
    slots = agent._counter_slots()
    keys = sorted(key for key, _, _ in slots)
    if sorted(counters) != keys:
        raise CheckpointFormatError(
            f"checkpoint counters {sorted(counters)}, expected {keys}")
    for key, owner, attr in slots:
        value = counters[key]
        if type(value) is not int or value < 0:  # a bool is no count
            raise CheckpointFormatError(
                f"checkpoint counter {key!r} must be a non-negative int, "
                f"got {value!r}")
        setattr(owner, attr, value)
    agent._rng.bit_generator.state = header["rng_state"]
    return agent


def save_agent(agent: Agent, path) -> None:
    with open(path, "wb") as fh:
        fh.write(agent_to_bytes(agent))


def load_agent(path, expected_algorithm: str | None = None) -> Agent:
    with open(path, "rb") as fh:
        return agent_from_bytes(fh.read(), expected_algorithm)
