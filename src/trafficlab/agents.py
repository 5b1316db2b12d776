"""The signal controllers: deep Q-learning, advantage actor-critic, clipped
surrogate policy optimization, curvature-preconditioned actor-critic, and a
fixed-time baseline, all behind one act/update interface.

Policy nets emit two logits (keep, switch); critics emit one value.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from trafficlab.env import PHASE_TIME_SLOT
from trafficlab.nn import (
    DivergenceError,
    Gradients,
    KfacStats,
    Mlp,
    make_optimizer,
)

ALGORITHMS = ("dql", "a2c", "ppo", "acktr", "fixed_time")

_MAGIC = b"TLAG"
_FORMAT_VERSION = 2

N_ACTIONS = 2


class ObservationShapeError(ValueError):
    """Observation length does not match what the agent was built for."""


class CheckpointError(RuntimeError):
    """Base class for unreadable checkpoint files."""


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


class AlgorithmMismatchError(CheckpointError):
    """Checkpoint holds a different algorithm than the caller expected."""


@dataclass
class AgentConfig:
    """Hyperparameters for every controller; unused fields are ignored by
    algorithms that do not need them."""

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
    center_advantages: bool = False
    # uniform mixing into training-time action sampling; decays linearly
    # from the init value to the final one over exploration_fraction of the
    # training budget (same shape as the q-learning epsilon schedule)
    explore_floor: float = 0.0
    explore_floor_init: float | None = None
    replay_capacity: int = 50_000
    batch_size: int = 64
    warmup: int = 1_000
    target_sync_period: int = 500
    fixed_time_green: float = 30.0
    entropy_coef: float = 0.01
    hidden_sizes: list[int] = field(default_factory=lambda: [64, 64])
    optimizer: str = "adam"
    kfac_damping: float = 1e-2
    kfac_decay: float = 0.95
    kfac_augment_bias: bool = False
    # cap on the parameter-space norm of each ACKTR step: >= 0, 0 freezes
    # the nets, inf disables the cap
    trust_region_radius: float = 1.0
    # curvature-metric step budget: the applied step is scaled so that
    # approximately step^T F step <= 2 * kl_budget; > 0, or None to disable
    kl_budget: float | None = None
    phase_time_scale: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.clip_epsilon <= 0:
            raise ValueError("clip_epsilon must be positive")
        for name in ("actor_lr", "critic_lr", "q_lr", "replay_capacity",
                     "rollout_length", "batch_size", "target_sync_period",
                     "ppo_epochs", "ppo_minibatch", "critic_epochs",
                     "phase_time_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.trust_region_radius >= 0:
            raise ValueError("trust_region_radius must be non-negative "
                             "(inf disables the cap)")
        if self.kl_budget is not None and not self.kl_budget > 0:
            raise ValueError("kl_budget must be positive, or None to disable it")
        if any(size <= 0 for size in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive")


@dataclass(slots=True)
class Transition:
    obs: np.ndarray
    action: int
    reward: float
    next_obs: np.ndarray
    done: bool
    log_prob: float | None = None


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _stack(transitions: list[Transition]):
    obs = np.stack([t.obs for t in transitions])
    actions = np.array([t.action for t in transitions], dtype=np.intp)
    rewards = np.array([t.reward for t in transitions])
    next_obs = np.stack([t.next_obs for t in transitions])
    dones = np.array([1.0 if t.done else 0.0 for t in transitions])
    return obs, actions, rewards, next_obs, dones


class Agent:
    """Common act/update surface. ``needs_rollout`` tells a driver how many
    transitions to hand to update() at a time (0 = never updates)."""

    needs_rollout = 0

    def __init__(self, config: AgentConfig, obs_dim: int):
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

    def update(self, transitions: list[Transition]) -> dict[str, float]:
        return {}

    # -- persistence hooks ---------------------------------------------------

    def _nets(self) -> dict[str, Mlp]:
        return {}

    def _optimizers(self) -> dict:
        return {}

    def _extra_state(self) -> dict:
        return {}

    def _load_extra_state(self, state: dict) -> None:
        pass


class FixedTimeAgent(Agent):
    """Non-adaptive baseline: request a switch whenever the current phase
    has lasted the configured green time."""

    needs_rollout = 0

    def act(self, obs, explore: bool = False) -> int:
        obs = self._check_obs(obs)
        return 1 if obs[PHASE_TIME_SLOT] >= self.config.fixed_time_green else 0


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
        acts = ["tanh"] * len(config.hidden_sizes) + ["identity"]
        self.q_net = Mlp.create(sizes, acts, seed=config.seed)
        self.target_net = self.q_net.clone()
        self.optimizer = make_optimizer(config.optimizer, self.q_net)
        self.replay = _ReplayBuffer(config.replay_capacity, obs_dim)
        self.updates = 0
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
        self.updates += 1
        if self.updates % cfg.target_sync_period == 0:
            self.target_net = self.q_net.clone()
        return loss

    def _nets(self) -> dict[str, Mlp]:
        return {"q": self.q_net, "target": self.target_net}

    def _optimizers(self) -> dict:
        return {"q": self.optimizer}

    def _extra_state(self) -> dict:
        return {"train_steps": self.train_steps, "updates": self.updates}

    def _load_extra_state(self, state: dict) -> None:
        self.train_steps = state["train_steps"]
        self.updates = state["updates"]


class _ActorCriticAgent(Agent):
    """Shared machinery: softmax policy over two logits plus a value net,
    each with its own optimizer (``config.optimizer`` unless the class
    fixes one)."""

    optimizer_name: str | None = None

    def __init__(self, config: AgentConfig, obs_dim: int):
        super().__init__(config, obs_dim)
        hidden = list(config.hidden_sizes)
        acts = ["tanh"] * len(hidden) + ["identity"]
        self.actor = Mlp.create([obs_dim] + hidden + [N_ACTIONS], acts,
                                seed=config.seed)
        self.critic = Mlp.create([obs_dim] + hidden + [1], acts,
                                 seed=config.seed + 1)
        optimizer = self.optimizer_name or config.optimizer
        self.actor_optimizer = make_optimizer(optimizer, self.actor)
        self.critic_optimizer = make_optimizer(optimizer, self.critic)

    @property
    def needs_rollout(self) -> int:
        return self.config.rollout_length

    def exploration_floor(self) -> float:
        cfg = self.config
        floor = cfg.explore_floor
        init = cfg.explore_floor_init
        if init is None or init <= floor:
            return floor
        horizon = max(1, int(cfg.train_steps_budget * cfg.exploration_fraction))
        frac = min(1.0, self.train_steps / horizon)
        return init + frac * (floor - init)

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
            floor = self.exploration_floor()
            if floor and self._rng.random() < floor:
                action = int(self._rng.integers(N_ACTIONS))
            else:
                action = 0 if self._rng.random() < np.exp(z0 - lse) else 1
        else:
            action = 0 if l0 >= l1 else 1  # argmax: a tie keeps the first
        self.last_logprob = float((z1 if action else z0) - lse)
        return action

    def _targets_and_advantages(self, transitions: list[Transition]):
        cfg = self.config
        obs, actions, rewards, next_obs, dones = _stack(transitions)
        obs = obs * self._obs_scale
        next_obs = next_obs * self._obs_scale
        v_now = self.critic(obs).ravel()
        v_next = self.critic(next_obs).ravel()
        targets = rewards + cfg.gamma * (1.0 - dones) * v_next
        advantages = targets - v_now
        if cfg.center_advantages and len(advantages) > 1:
            # batch-mean baseline: keeps the estimator unbiased while
            # removing the shared offset that otherwise swamps the
            # state-conditional signal
            advantages = advantages - advantages.mean()
        return obs, actions, targets, advantages

    def _actor_surrogate_grad(self, logp, pi, actions, coeff, batch_size):
        """d/d logits of mean(coeff * log pi(a)) plus the entropy bonus."""
        onehot = np.zeros_like(pi)
        onehot[np.arange(len(actions)), actions] = 1.0
        grad = coeff[:, None] * (onehot - pi)
        if self.config.entropy_coef:
            entropy = -(pi * logp).sum(axis=1, keepdims=True)
            grad += self.config.entropy_coef * (-pi * (logp + entropy))
        return grad / batch_size

    def _critic_step(self, obs, targets) -> float:
        """Descend the squared error toward fixed targets; repeated
        ``critic_epochs`` times so the value scale can be reached within a
        desk-scale update budget."""
        loss = 0.0
        for epoch in range(self.config.critic_epochs):
            v, cache = self.critic.forward(obs)
            resid = v.ravel() - targets
            loss = float(np.mean(resid * resid))
            if not np.isfinite(loss):
                raise DivergenceError("critic loss became non-finite")
            grads = self.critic.backward(cache,
                                         (2.0 * resid / len(targets))[:, None])
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

    def _extra_state(self) -> dict:
        return {"train_steps": self.train_steps}

    def _load_extra_state(self, state: dict) -> None:
        self.train_steps = state["train_steps"]


class A2cAgent(_ActorCriticAgent):
    """One-step advantage actor-critic: the actor ascends
    mean(log pi(a|s) * A), the critic regresses onto bootstrapped targets."""

    def update(self, transitions: list[Transition]) -> dict[str, float]:
        self.train_steps += len(transitions)
        obs, actions, targets, advantages = self._targets_and_advantages(transitions)
        logits, cache = self.actor.forward(obs)
        logp = _log_softmax(logits)
        pi = np.exp(logp)
        taken = logp[np.arange(len(actions)), actions]
        surrogate = float(np.mean(taken * advantages))
        if not np.isfinite(surrogate):
            raise DivergenceError("actor surrogate became non-finite")
        dlogits = self._actor_surrogate_grad(logp, pi, actions, advantages,
                                             len(transitions))
        grads = self.actor.backward(cache, dlogits)
        self.actor_optimizer.step(
            self.actor, self._actor_direction(grads, cache, pi, actions),
            self.config.actor_lr)
        critic_loss = self._critic_step(obs, targets)
        return {"actor_loss": -surrogate, "critic_loss": critic_loss,
                "entropy": float(np.mean(-(pi * logp).sum(axis=1)))}

    def _actor_direction(self, grads: Gradients, cache, pi,
                         actions) -> Gradients:
        """The actor's step direction from its surrogate gradient: ascent."""
        return grads


class PpoAgent(_ActorCriticAgent):
    """Clipped-ratio surrogate over several epochs of minibatches.

    Per-step objective: min(ratio * A, clip(ratio, 1-eps, 1+eps) * A) with
    ratio = pi_new(a|s) / pi_old(a|s); the ratio gradient is dropped
    wherever the clipped branch is the active minimum.
    """

    def update(self, transitions: list[Transition]) -> dict[str, float]:
        cfg = self.config
        self.train_steps += len(transitions)
        obs, actions, targets, advantages = self._targets_and_advantages(transitions)
        if all(t.log_prob is not None for t in transitions):
            old_logp = np.array([t.log_prob for t in transitions])
        else:  # rollout collected without recording; the policy is unchanged
            logits = self.actor(obs)
            old_logp = _log_softmax(logits)[np.arange(len(actions)), actions]
        n = len(transitions)
        last_actor_loss = 0.0
        last_critic_loss = 0.0
        for _ in range(cfg.ppo_epochs):
            perm = self._rng.permutation(n)
            for start in range(0, n, cfg.ppo_minibatch):
                mb = perm[start:start + cfg.ppo_minibatch]
                logits, cache = self.actor.forward(obs[mb])
                logp = _log_softmax(logits)
                pi = np.exp(logp)
                taken = logp[np.arange(len(mb)), actions[mb]]
                ratio = np.exp(taken - old_logp[mb])
                adv = advantages[mb]
                unclipped = ratio * adv
                clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon,
                                  1.0 + cfg.clip_epsilon) * adv
                objective = float(np.mean(np.minimum(unclipped, clipped)))
                if not np.isfinite(objective):
                    raise DivergenceError("clipped surrogate became non-finite")
                # ratio gradient only where the unclipped branch is active
                coeff = np.where(unclipped <= clipped, adv * ratio, 0.0)
                dlogits = self._actor_surrogate_grad(logp, pi, actions[mb],
                                                     coeff, len(mb))
                grads = self.actor.backward(cache, dlogits)
                self.actor_optimizer.step(self.actor, grads, cfg.actor_lr)
                last_actor_loss = -objective
                last_critic_loss = self._critic_step(obs[mb], targets[mb])
        return {"actor_loss": last_actor_loss, "critic_loss": last_critic_loss}


class AcktrAgent(A2cAgent):
    """Actor-critic with per-layer Kronecker-factored curvature: the A2C
    update, with each gradient preconditioned by the running factor
    inverses, scaled to the KL budget and capped to a maximum
    parameter-space norm."""

    optimizer_name = "sgd"

    def __init__(self, config: AgentConfig, obs_dim: int):
        super().__init__(config, obs_dim)
        self.actor_stats = KfacStats(self.actor, damping=config.kfac_damping,
                                     decay=config.kfac_decay,
                                     augment_bias=config.kfac_augment_bias)
        self.critic_stats = KfacStats(self.critic, damping=config.kfac_damping,
                                      decay=config.kfac_decay,
                                      augment_bias=config.kfac_augment_bias)

    def _actor_direction(self, grads, cache, pi, actions) -> Gradients:
        onehot = np.zeros_like(pi)
        onehot[np.arange(len(actions)), actions] = 1.0
        # curvature pass: per-sample score-function gradients, unscaled
        self.actor.backward(cache, onehot - pi)
        self.actor_stats.update(cache.inputs, cache.pre_grads)
        return self._natural(self.actor_stats, grads, self.config.actor_lr)

    def _critic_direction(self, grads, cache, resid, epoch) -> Gradients:
        if epoch == 0:  # refresh curvature once per rollout
            self.critic.backward(cache, resid[:, None])
            self.critic_stats.update(cache.inputs, cache.pre_grads)
        grads.flat *= -1.0  # descent
        return self._natural(self.critic_stats, grads, self.config.critic_lr)

    def _natural(self, stats: KfacStats, grads: Gradients,
                 learning_rate: float) -> Gradients:
        """Precondition, then scale to the KL budget, then cap."""
        direction = self._kl_scaled(grads, stats.precondition(grads),
                                    learning_rate)
        return self._capped(direction, learning_rate)

    def _capped(self, direction: Gradients, learning_rate: float) -> Gradients:
        radius = self.config.trust_region_radius
        if not np.isfinite(radius):
            return direction
        step_norm = learning_rate * direction.norm()
        if step_norm > radius:
            return direction.scaled(radius / step_norm)
        return direction

    def _kl_scaled(self, grads: Gradients, nat: Gradients,
                   learning_rate: float) -> Gradients:
        """Shrink the preconditioned step so its curvature-metric length
        stays within the configured budget: eta^2 g^T F^-1 g <= 2 delta.

        g^T F^-1 g is just the inner product of the raw gradient with the
        preconditioned direction, so no extra curvature products are
        needed. Saturated directions (tiny Fisher) would otherwise blow up
        under the inverse."""
        delta = self.config.kl_budget
        if delta is None:
            return nat
        quad = 0.0
        for gw, gb, nw, nb in zip(grads.dw, grads.db, nat.dw, nat.db):
            quad += float(np.sum(gw * nw)) + float(np.sum(gb * nb))
        if quad <= 0:
            return nat
        scale = min(1.0, math.sqrt(2.0 * delta / quad) / learning_rate)
        return nat.scaled(scale)

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
# then one little-endian float64 payload. The header holds the algorithm,
# obs_dim, the full config, each net's sizes, activations and seed, each
# optimizer's meta and state-array shapes, the counters and the RNG state.
# The payload is each net's ``params`` in ``_nets()`` order, then each
# optimizer's ``state_arrays()`` in ``_optimizers()`` order.

def agent_to_bytes(agent: Agent) -> bytes:
    nets = agent._nets()
    optimizers = agent._optimizers()
    arrays = [net.params for net in nets.values()]
    opt_header = {}
    for name, opt in optimizers.items():
        state = opt.state_arrays()
        opt_header[name] = {"meta": opt.state_meta(),
                            "shapes": [list(a.shape) for a in state]}
        arrays += state
    header = json.dumps({
        "algorithm": agent.algorithm,
        "obs_dim": agent.obs_dim,
        "config": asdict(agent.config),
        "nets": {name: {"sizes": net.sizes, "activations": net.activations,
                        "seed": net.seed} for name, net in nets.items()},
        "optimizers": opt_header,
        "extra_state": agent._extra_state(),
        "rng_state": agent._rng.bit_generator.state,
    }, default=int).encode("utf-8")
    payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointFormatError(
            f"unreadable agent header: {type(exc).__name__}: {exc}") from exc


def _restore(header: dict, blob: bytes, offset: int,
             expected_algorithm: str | None) -> Agent:
    """Build the agent a parsed header describes and fill it from the
    payload at ``offset``. A malformed header surfaces as a KeyError,
    TypeError, ValueError or OverflowError, which the caller reports as a
    format error."""
    algorithm = header["algorithm"]
    if expected_algorithm is not None and algorithm != expected_algorithm:
        raise AlgorithmMismatchError(
            f"checkpoint holds {algorithm!r}, expected {expected_algorithm!r}")
    config = AgentConfig(**header["config"])
    if config.algorithm != algorithm:
        raise CheckpointFormatError("header algorithm disagrees with its config")
    agent = make_agent(config, header["obs_dim"])
    nets, optimizers = agent._nets(), agent._optimizers()
    if list(header["nets"]) != list(nets):
        raise CheckpointFormatError("checkpoint nets do not match the algorithm")
    if list(header["optimizers"]) != list(optimizers):
        raise CheckpointFormatError(
            "checkpoint optimizers do not match the algorithm")
    arrays = []  # the payload's destinations, in payload order
    for name, net in nets.items():
        spec = header["nets"][name]
        if spec["sizes"] != net.sizes or spec["activations"] != net.activations:
            raise CheckpointShapeError(
                f"net {name!r}: checkpoint sizes {spec['sizes']} and activations "
                f"{spec['activations']}, agent {net.sizes} and {net.activations}")
        net.seed = spec["seed"]
        arrays.append(net.params)
    for name, opt in optimizers.items():
        spec = header["optimizers"][name]
        state = opt.state_arrays()
        if (spec["meta"]["kind"] != opt.kind
                or spec["shapes"] != [list(a.shape) for a in state]):
            raise CheckpointShapeError(
                f"optimizer {name!r}: checkpoint holds {spec['meta']['kind']} "
                f"state of shapes {spec['shapes']}")
        opt.load_state_meta(spec["meta"])
        arrays += state
    count = sum(a.size for a in arrays)
    stop = offset + 8 * count
    if len(blob) < stop:
        raise CheckpointTruncatedError("checkpoint payload cut short")
    if len(blob) > stop:
        raise CheckpointFormatError("trailing bytes after checkpoint payload")
    payload = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    for dst in arrays:
        dst[...] = payload[:dst.size].reshape(dst.shape)
        payload = payload[dst.size:]
    agent._load_extra_state(header["extra_state"])
    agent._rng.bit_generator.state = header["rng_state"]
    return agent


def save_agent(agent: Agent, path) -> None:
    with open(path, "wb") as fh:
        fh.write(agent_to_bytes(agent))


def load_agent(path, expected_algorithm: str | None = None) -> Agent:
    with open(path, "rb") as fh:
        return agent_from_bytes(fh.read(), expected_algorithm)
