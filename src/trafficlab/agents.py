"""The signal controllers: deep Q-learning, advantage actor-critic, clipped
surrogate policy optimization, curvature-preconditioned actor-critic, and a
fixed-time baseline, all behind one act/update interface.

Policy nets emit two logits (keep, switch); critics emit one value. The
learners compute in their nets' dtype, ``nn.DTYPE``, and an observation is
cast once, where it enters: into a ``Rollout``'s rows, which ``act`` and
the updates read, in ``act``'s one multiply that casts and scales
(``_check_obs``), or in ``_check_rows`` for greedy evaluation. Rewards and
log-probabilities are held in that dtype too. The fixed-time controller
reads the same cast: at the 1-s time step every preset uses, its phase
timer is a whole number of seconds, which float32 holds exactly.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from trafficlab.env import PHASE_TIME_SLOT, TrafficSignalEnv
from trafficlab.nn import (
    DTYPE,
    AdamOptimizer,
    DivergenceError,
    Gradients,
    KfacStats,
    Mlp,
    MlpStack,
    SgdOptimizer,
    StackPass,
)
from trafficlab.sim import check_fields, check_value

ALGORITHMS = ("dql", "a2c", "ppo", "acktr", "fixed_time")

_MAGIC = b"TLAG"
_FORMAT_VERSION = 7

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
    clip_epsilon: float = 0.2  # read by PPO only
    rollout_length: int = 256
    ppo_epochs: int = 4  # read by PPO only
    ppo_minibatch: int = 64  # read by PPO only
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
    kfac_damping: float = 1e-2  # read by ACKTR only
    kfac_decay: float = 0.99  # read by ACKTR only
    # read by ACKTR only: cap on the parameter-space norm of each step:
    # >= 0, 0 freezes the nets, inf disables the cap
    trust_region_radius: float = 1.0
    # read by ACKTR only: each step is scaled so that approximately
    # step^T F step <= 2 * kl_budget; > 0, inf disables it
    kl_budget: float = 1e-2
    phase_time_scale: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, infinite=("trust_region_radius", "kl_budget"))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("epsilon_start", "epsilon_end", "explore_floor",
                     "kfac_decay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("exploration_fraction", "train_steps_budget",
                     "entropy_coef", "warmup", "fixed_time_green",
                     "kfac_damping", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        for name in ("actor_lr", "critic_lr", "q_lr", "clip_epsilon",
                     "replay_capacity", "rollout_length", "batch_size",
                     "target_sync_period", "ppo_epochs", "ppo_minibatch",
                     "critic_epochs", "phase_time_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # DQL's first gradient step waits for this many replayed transitions
        warm = max(self.warmup, self.batch_size)
        if self.replay_capacity < warm:
            raise ValueError(f"replay_capacity must be at least max(warmup, "
                             f"batch_size) = {warm}, got {self.replay_capacity}")
        if not self.trust_region_radius >= 0:
            raise ValueError("trust_region_radius must be non-negative "
                             "(inf disables the cap)")
        if not self.kl_budget > 0:
            raise ValueError("kl_budget must be positive (inf disables it)")
        if any(size <= 0 for size in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be a list of positive ints, "
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
    ``overrides``, over the ``AgentConfig`` defaults. ``overrides`` may
    name only ``AgentConfig`` fields, and not the cell's ``algorithm`` or
    ``seed``, which this call sets."""
    known = {f.name for f in fields(AgentConfig)}
    for key in overrides or {}:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in section [agent]")
    for key, grid_key in (("algorithm", "algorithms"), ("seed", "seeds")):
        if key in (overrides or {}):
            raise ValueError(f"[agent] {key}: set it with [experiment] {grid_key}")
    return AgentConfig(**{"train_steps_budget": train_steps_budget,
                          **_ALGO_DEFAULTS.get(algorithm, {}),
                          **(overrides or {}),
                          "algorithm": algorithm, "seed": seed})


class Rollout:
    """``T`` steps of ``rollout`` as columns, floats cast to ``DTYPE``:
    ``obs``, ``(T + 1, obs_dim)``, row ``t`` the observation step ``t``
    acted on and row ``T`` the last one's next; ``actions``, ``rewards``,
    behaviour ``log_probs`` (NaN where none is recorded); and ``finals``,
    the final observation of an episode ending at step ``t < T - 1``, by
    ``t`` (row ``t + 1`` is the reset one). Every end is a time limit, so
    every step bootstraps: no done flag is kept."""

    __slots__ = ("obs", "actions", "rewards", "log_probs", "finals")

    def __init__(self, steps: int, obs_dim: int):
        self.obs = np.empty((steps + 1, obs_dim), DTYPE)
        self.actions = np.empty(steps, np.intp)
        self.rewards = np.empty(steps, DTYPE)
        self.log_probs = np.empty(steps, DTYPE)
        self.finals: dict[int, np.ndarray] = {}

    def scaled(self, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``0..T-1`` and each step's next observation (rows ``1..T``
        with the finals in), times ``scale`` by one product over the rows."""
        rows = self.obs * scale
        next_obs = rows[1:].copy()
        for t, final in self.finals.items():
            next_obs[t] = final * scale
        return rows[:-1], next_obs


def rollout(agent: Agent, env: TrafficSignalEnv, batch: int = 0,
            obs: np.ndarray | None = None
            ) -> Iterator[tuple[float, bool, Rollout | None]]:
    """The one exploring act -> step loop of training and deployment
    (greedy evaluation picks its actions with ``Agent.greedy_actions``).
    Each step yields ``(reward, done, full)``. With ``batch > 0`` each step
    is written into one ``Rollout`` of ``batch`` steps, which ``act``
    reads; ``full`` is it once full, else None: the caller hands it to
    ``agent.update`` (which copies what it keeps) before the next step
    starts the next batch in the same columns. The env is reset first when
    ``obs`` is None and before the step after an episode end, so the caller
    can read the ended episode's state when ``done`` is yielded."""
    cols = None
    while True:
        if obs is None:
            obs = env.reset()
        if batch:
            if cols is None:
                cols, t = Rollout(batch, len(obs)), 0
                rows = list(cols.obs)  # each row's view, taken once
            elif not t:
                cols.finals.clear()
            rows[t][...] = obs
            obs = rows[t]
        action = agent.act(obs, explore=True)
        next_obs, reward, done, _ = env.step(action)
        full = None
        if batch:
            log_prob = agent.last_logprob
            cols.actions[t], cols.rewards[t] = action, reward
            cols.log_probs[t] = math.nan if log_prob is None else log_prob
            t += 1
            if t == batch:
                rows[t][...] = next_obs
                full, t = cols, 0
            elif done:
                cols.finals[t - 1] = np.array(next_obs, DTYPE)
        obs = None if done else next_obs
        yield reward, done, full


# row ``a`` is the one-hot row of action ``a``
_ONE_HOT = np.eye(N_ACTIONS, dtype=DTYPE)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis of two logits, max-shifted,
    by ufuncs bit-equal to the axis reductions they replace: a max of two
    values is ``np.maximum`` of them, and an axis sum adds its terms to
    0.0, which leaves the sum of two exps (never -0.0) as ``e0 + e1``."""
    top = np.maximum(logits[..., 0], logits[..., 1])
    z = logits - top[..., None]
    e = np.exp(z)
    z -= np.log(e[..., 0] + e[..., 1])[..., None]
    return z


def _entropy(pi: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """-sum(pi * log pi) of each row of two probabilities, by one ufunc,
    bit-equal to the axis sum, which adds the columns to 0.0: the two
    differ only where both terms are -0.0, and the likelier action's term
    never is (its log-probability is +0.0 or negative)."""
    terms = pi * logp
    return -(terms[:, 0] + terms[:, 1])


def _advantages(targets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``targets - values`` less their mean (as np.mean takes it): an
    unbiased baseline that removes the offset swamping the state signal."""
    advantages = targets - values
    if len(advantages) > 1:
        advantages -= advantages.sum() / len(advantages)
    return advantages


class Agent:
    """Common act/update surface. ``needs_rollout`` tells a driver how many
    steps each ``Rollout`` it hands to update() holds (0 = never updates)."""

    needs_rollout = 0
    # a learner's update arrays, built at its first update (an
    # actor-critic's at the first of each row count); they view its nets,
    # so a copy takes none and builds its own
    _workspace: _TdWorkspace | dict[int, tuple[StackPass, StackPass]] | None = None

    def __init__(self, config: AgentConfig, obs_dim: int):
        check_value("obs_dim", "int", obs_dim)
        if obs_dim < 1:
            raise ValueError(f"obs_dim must be a positive int, got {obs_dim!r}")
        self.config = config
        self.obs_dim = obs_dim
        self.train_steps = 0
        self.last_logprob: float | None = None
        self._rng = np.random.default_rng(config.seed)
        scale = np.ones(obs_dim, dtype=DTYPE)
        if obs_dim > PHASE_TIME_SLOT:
            scale[PHASE_TIME_SLOT] = 1.0 / config.phase_time_scale
        self._obs_scale = scale

    def __getstate__(self) -> dict:
        return dict(self.__dict__, _workspace=None)

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    def _check_obs(self, obs, scale=1.0) -> np.ndarray:
        """One observation times ``scale``, by one multiply that casts to
        ``DTYPE`` first."""
        obs = np.asarray(obs)
        if obs.shape != (self.obs_dim,):
            raise ObservationShapeError(
                f"expected observation of length {self.obs_dim}, got {obs.shape}")
        return np.multiply(obs, scale, dtype=DTYPE)

    def act(self, obs, explore: bool = False) -> int:
        raise NotImplementedError

    def greedy_actions(self, obs) -> list[int]:
        """The greedy action for each of the ``E`` observations in ``obs``
        (1-D arrays or an ``(E, obs_dim)`` array): entry ``k`` equals
        ``act(obs[k], explore=False)``. Draws and stores nothing."""
        raise NotImplementedError

    def _check_rows(self, obs) -> np.ndarray:
        """``obs``, a stack of observations, as one ``(E, obs_dim)`` array
        in ``DTYPE``; a ragged stack or a row of another length is an
        ``ObservationShapeError``."""
        expected = (f"expected observations of length {self.obs_dim} "
                    f"stacked in rows")
        try:
            x = np.asarray(obs, dtype=DTYPE)
        except ValueError as exc:  # say, rows of unequal length
            raise ObservationShapeError(f"{expected}: {exc}") from None
        if x.ndim != 2 or x.shape[1] != self.obs_dim:
            raise ObservationShapeError(f"{expected}, got {x.shape}")
        return x

    def _argmax_rows(self, net: Mlp, obs, what: str) -> list[int]:
        """Argmax of ``net``'s two outputs for each observation in
        ``obs``, run as one call on a stack of single rows, whose outputs
        are bit-equal to one-row calls' (see ``Mlp.run``)."""
        x = self._check_rows(obs)
        actions = []
        outputs = net.run((x * self._obs_scale)[:, None, :])[:, 0]
        for v0, v1 in outputs.tolist():
            if not (math.isfinite(v0) and math.isfinite(v1)):  # else an arbitrary action
                raise DivergenceError(f"{what} are not finite: {v0}, {v1}")
            actions.append(0 if v0 >= v1 else 1)  # argmax: a tie keeps the first
        return actions

    def update(self, batch: Rollout) -> dict[str, float]:
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
    """Fixed-capacity ring of transitions, held in the form
    ``DqlAgent._td_step`` reads them.

    The ``k``-th transition added (from 0) goes to slot ``k % capacity``,
    so once the ring is full each new transition overwrites the oldest.
    Each observation and next observation is stored cast to ``DTYPE`` and
    multiplied by the agent's ``obs_scale`` (in ``DTYPE``, as the agent
    scales what it acts on), and a draw writes them into the
    ``(2, n, obs_dim)`` array the q and target nets read in one pass. No
    checkpoint holds the ring: a loaded agent starts with an empty one.
    """

    def __init__(self, capacity: int, obs_scale: np.ndarray):
        self.capacity = capacity
        self.added = 0
        self._obs_scale = obs_scale
        # two arrays, not one (2, capacity, obs_dim): numpy asks the kernel
        # for huge pages for an array of 4 MiB or more, which the default
        # capacity's pair would be, and a partly filled ring would then
        # hold up to 4 MiB more memory than it has written
        self.obs = np.zeros((capacity, obs_scale.size), dtype=DTYPE)
        self.next_obs = np.zeros((capacity, obs_scale.size), dtype=DTYPE)
        self.actions = np.zeros(capacity, dtype=np.intp)
        self.rewards = np.zeros(capacity, dtype=DTYPE)

    def __len__(self) -> int:
        return min(self.added, self.capacity)

    def add(self, obs, action, reward, next_obs) -> None:
        i = self.added % self.capacity
        # dtype=DTYPE casts the observation before the product, which is
        # the cast-then-scale of the agent's own observations
        np.multiply(obs, self._obs_scale, out=self.obs[i], dtype=DTYPE)
        np.multiply(next_obs, self._obs_scale, out=self.next_obs[i],
                    dtype=DTYPE)
        self.actions[i] = action
        self.rewards[i] = reward
        self.added += 1

    def draw(self, rng: np.random.Generator, pairs: np.ndarray,
             actions: np.ndarray, rewards: np.ndarray) -> None:
        """``len(actions)`` uniform draws, written in place: the
        observations into ``pairs[0]``, the next ones into ``pairs[1]``
        (``pairs`` is ``(2, n, obs_dim)``), and the actions and rewards."""
        idx = rng.integers(0, len(self), size=len(actions))
        # take copies the same rows as indexing, for the observations at a
        # third of the cost; every index is in range, and mode="clip" lets
        # it write into ``out`` directly, where the default mode buffers
        self.obs.take(idx, axis=0, out=pairs[0], mode="clip")
        self.next_obs.take(idx, axis=0, out=pairs[1], mode="clip")
        self.actions.take(idx, out=actions, mode="clip")
        self.rewards.take(idx, out=rewards, mode="clip")


class _TdWorkspace:
    """The arrays of ``DqlAgent._td_step`` at ``batch`` rows, built at its
    first step: the replay draw ``pairs``, in ``DTYPE``, the ``StackPass``
    over it and the TD error's. Every array is overwritten by the next
    step."""

    def __init__(self, pair: MlpStack, batch: int, obs_dim: int):
        self.pairs = np.empty((2, batch, obs_dim), DTYPE)
        self.stack = StackPass(pair, self.pairs)
        self.actions = np.empty(batch, np.intp)
        # the flat offset of each row's first q-value in a (B, 2) array
        self.row_starts = N_ACTIONS * np.arange(batch)
        self.rewards = np.empty(batch, DTYPE)
        self.targets, self.td, self.squares = np.empty(
            (3, batch), pair.params.dtype)


class DqlAgent(Agent):
    """Deep Q-learning with a replay buffer and a periodically synced
    target net. Epsilon decays linearly over the first fraction of the
    training budget, then holds.

    The q net and the target net are the two members of one ``MlpStack``
    (row 0 and row 1), each a net over its row, and a target sync copies
    row 0 into row 1. Every
    target bootstraps (see ``Rollout``). The replay holds scaled
    observations and is not checkpointed: a loaded agent takes no
    gradient step until it has gathered
    ``max(warmup, batch_size)`` transitions again (1,000 by default), in
    deployment too.

    Each gradient step, ``_td_step``, draws ``batch_size`` rows from the
    replay into a workspace (``_TdWorkspace``) built at the first step,
    and over it runs both nets' forwards as one ``StackPass``, the TD
    error, the q net's backward in the same pass, and the Adam step; it
    equals, bit for bit, the step built from the generic forward and
    backward on fresh arrays of ``tests/nn_reference.py`` (the test suite
    holds them equal). A copy (``copy.deepcopy``, ``pickle``) keeps its
    nets the members of its own stack, as every copied member is, and
    builds a workspace of its own at its first step.
    """

    needs_rollout = 1

    def __init__(self, config: AgentConfig, obs_dim: int):
        super().__init__(config, obs_dim)
        sizes = [obs_dim] + list(config.hidden_sizes) + [N_ACTIONS]
        self._pair = MlpStack(Mlp.create(sizes, seed=config.seed).layers, 2)
        self.q_net, self.target_net = self._pair.members
        self.optimizer = AdamOptimizer(self.q_net)
        self.replay = _ReplayBuffer(config.replay_capacity, self._obs_scale)

    def epsilon(self) -> float:
        cfg = self.config
        horizon = max(1, int(cfg.train_steps_budget * cfg.exploration_fraction))
        frac = min(1.0, self.train_steps / horizon)
        return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)

    def act(self, obs, explore: bool = False) -> int:
        x = self._check_obs(obs, self._obs_scale)
        if explore and self._rng.random() < self.epsilon():
            return int(self._rng.integers(N_ACTIONS))
        q0, q1 = self.q_net.run(x).tolist()
        if not (math.isfinite(q0) and math.isfinite(q1)):  # else an arbitrary action
            raise DivergenceError(f"q-values are not finite: {q0}, {q1}")
        return 0 if q0 >= q1 else 1  # argmax: a tie keeps the first

    def greedy_actions(self, obs) -> list[int]:
        return self._argmax_rows(self.q_net, obs, "q-values")

    def update(self, batch: Rollout) -> dict[str, float]:
        """Add each step of ``batch`` to the replay, each followed by one
        gradient step once the replay is warm; returns their mean loss."""
        cfg = self.config
        warm = max(cfg.warmup, cfg.batch_size)
        obs, finals = batch.obs, batch.finals
        losses = []
        for t in range(len(batch.actions)):
            self.replay.add(obs[t], batch.actions[t], batch.rewards[t],
                            finals.get(t, obs[t + 1]))
            self.train_steps += 1
            if len(self.replay) >= warm:
                losses.append(self._td_step())
        if not losses:
            return {}
        return {"loss": sum(losses) / len(losses), "epsilon": self.epsilon()}

    def _td_step(self) -> float:
        """One regression step of Q(s,a) toward r + gamma * max
        Q_target(s') on ``batch_size`` rows drawn from the replay; returns
        the mean squared TD error."""
        cfg = self.config
        ws = self._workspace
        if ws is None:
            ws = self._workspace = _TdWorkspace(self._pair, cfg.batch_size,
                                                self.obs_dim)
        n = cfg.batch_size
        self.replay.draw(self._rng, ws.pairs, ws.actions, ws.rewards)
        q, next_q = ws.stack.forward()
        # max Q' as np.maximum of its two columns (bit-equal to the axis
        # reduction, see _log_softmax), then * gamma + r
        targets = np.maximum(next_q[:, 0], next_q[:, 1], out=ws.targets)
        targets *= cfg.gamma
        targets += ws.rewards
        # Q(s, a) of each row, gathered and scattered by flat index
        taken = ws.actions
        taken += ws.row_starts
        td = q.take(taken, out=ws.td, mode="clip")
        td -= targets
        # what np.mean computes
        loss = float(np.add.reduce(np.multiply(td, td, out=ws.squares))) / n
        if not math.isfinite(loss):
            raise DivergenceError("q-learning loss became non-finite")
        # -2 * td / n, the descent direction's output gradient: doubling
        # and negation are exact, and n / 2 is exact in the nets' dtype, so
        # one division rounds as the three operations did
        td /= -(n / 2)
        dout = ws.stack.dout
        dout.fill(0.0)
        dout.put(taken, td, mode="clip")
        self.optimizer.step(self.q_net, ws.stack.backward(0), cfg.q_lr)
        if self.optimizer.t % cfg.target_sync_period == 0:
            self.target_net.params[...] = self.q_net.params
        return loss

    def _nets(self) -> dict[str, Mlp]:
        return {"q": self.q_net, "target": self.target_net}

    def _optimizers(self) -> dict:
        return {"q": self.optimizer}


class _ActorCriticAgent(Agent):
    """Shared machinery: softmax policy over two logits plus a value net,
    each with its own optimizer of the class's ``optimizer_class``, and the
    one update of the three policy-based learners.

    Per minibatch, ``update`` takes one actor step up the clipped surrogate
    min(ratio * A, clip(ratio, 1-eps, 1+eps) * A), ratio = pi(a|s) /
    pi_old(a|s), without the ratio gradient wherever the clipped branch is
    the active minimum, and ``_critic_step`` on the same rows. With
    ``single_pass`` set (A2C; ACKTR inherits it) the one minibatch is the
    whole rollout, its critic steps come first, and pi_old is this
    forward's own policy: the ratio is exactly 1, the clip never binds,
    and the step is A2C's, bit for bit (Huang et al., arXiv 2205.09123).

    Each net, a stack of one, trains through a ``StackPass`` over itself.
    The workspace maps a row count to the actor's and the critic's pass
    over one ``(1, rows, obs_dim)`` input, built at the first update step
    of that many rows (the rollout, a PPO minibatch or its short last
    one); the two passes share that input and no other array, so after an
    update each holds its own net's last forward. The update equals, bit
    for bit, its reference built from the generic forward, backward and
    chain of ``tests/nn_reference.py`` (the test suite holds them equal).
    The passes read the nets in place, so rebinding ``actor`` or
    ``critic`` after the first update cuts it off from them; a copy
    builds its own workspace.
    """

    optimizer_class: type = AdamOptimizer
    single_pass: bool = False

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
        x = self._check_obs(obs, self._obs_scale)
        l0, l1 = self.actor.run(x).tolist()
        if not (math.isfinite(l0) and math.isfinite(l1)):  # else an arbitrary action
            raise DivergenceError(f"policy logits are not finite: {l0}, {l1}")
        top = max(l0, l1)
        z0, z1 = l0 - top, l1 - top
        lse = float(np.log(np.exp(z0) + np.exp(z1)))
        if explore:
            # a uniform floor keeps rare actions sampled even once the
            # policy has become confident
            floor = self.config.explore_floor
            if floor and self._rng.random() < floor:
                action = int(self._rng.integers(N_ACTIONS))
            else:
                keep = float(np.exp(z0 - lse))
                action = 0 if self._rng.random() < keep else 1
        else:
            action = 0 if l0 >= l1 else 1  # argmax: a tie keeps the first
        self.last_logprob = (z1 if action else z0) - lse
        return action

    def greedy_actions(self, obs) -> list[int]:
        return self._argmax_rows(self.actor, obs, "policy logits")

    def update(self, batch: Rollout) -> dict[str, float]:
        """One update on a rollout; the stats are its last minibatch's. At
        a ratio of 1, ``actor_loss`` is ``-mean(A)``, which the batch-mean
        baseline centres to rounding noise: no learning signal for A2C and
        ACKTR, nor for PPO when one epoch's one minibatch is the rollout.
        A single pass takes V(s) from its first critic epoch (the nets
        share no parameter, optimizer or draw, so fitting the critic first
        moves no number); PPO calls the critic on the rollout."""
        steps = len(batch.actions)
        if not steps:
            return {}
        if not self.single_pass and np.isnan(batch.log_probs).any():
            raise ValueError("a PPO update needs the log-probability of each "
                             "action taken, which rollout records")
        cfg = self.config
        self.train_steps += steps
        obs, targets = self._targets(batch)
        if self.single_pass:
            actor, critic = self._passes(steps)
            actor.x[0] = obs
            critic_loss, values = self._critic_step(critic, targets)
            objective, entropy = self._actor_step(
                actor, batch.actions, _advantages(targets, values), None)
        else:
            advantages = _advantages(targets, self.critic.run(obs).ravel())
            for _ in range(cfg.ppo_epochs):
                perm = self._rng.permutation(steps)
                for start in range(0, steps, cfg.ppo_minibatch):
                    mb = perm[start:start + cfg.ppo_minibatch]
                    actor, critic = self._passes(len(mb))
                    actor.x[0] = obs[mb]
                    objective, entropy = self._actor_step(
                        actor, batch.actions[mb], advantages[mb],
                        batch.log_probs[mb])
                    critic_loss, _ = self._critic_step(critic, targets[mb])
        return {"actor_loss": -objective, "critic_loss": critic_loss,
                "entropy": float(entropy.sum()) / len(entropy)}

    def _passes(self, rows: int) -> tuple[StackPass, StackPass]:
        """The actor's and the critic's pass over one ``(1, rows,
        obs_dim)`` input, built at the first step of ``rows`` rows."""
        if self._workspace is None:
            self._workspace = {}
        pair = self._workspace.get(rows)
        if pair is None:
            x = np.zeros((1, rows, self.obs_dim), self.actor.params.dtype)
            pair = self._workspace[rows] = (StackPass(self.actor, x),
                                            StackPass(self.critic, x))
        return pair

    def _targets(self, batch: Rollout) -> tuple[np.ndarray, np.ndarray]:
        """The scaled observations and each step's ``r + gamma * V(s')``."""
        obs, next_obs = batch.scaled(self._obs_scale)
        v_next = self.critic.run(next_obs).ravel()
        return obs, batch.rewards + self.config.gamma * v_next

    def _actor_step(self, run: StackPass, actions, adv, old_logp):
        """A step up the clipped surrogate through the actor's pass ``run``
        (``old_logp`` None: a single pass); returns it and the entropies."""
        cfg = self.config
        m = len(adv)
        logp = _log_softmax(run.forward()[0])
        pi = np.exp(logp)
        taken = logp[np.arange(m), actions]
        # a single pass against its own log-probs: exp(0) = 1 exactly
        ratio = np.exp(taken - (taken if old_logp is None else old_logp))
        unclipped = ratio * adv
        # np.clip(ratio, low, high) * adv, as np.clip computes it
        clipped = np.maximum(ratio, 1.0 - cfg.clip_epsilon)
        np.minimum(clipped, 1.0 + cfg.clip_epsilon, out=clipped)
        clipped *= adv
        objective = float(np.minimum(unclipped, clipped).sum()) / m
        if not math.isfinite(objective):
            raise DivergenceError("actor surrogate became non-finite")
        # ratio gradient only where the unclipped branch is active
        coeff = np.where(unclipped <= clipped, adv * ratio, 0.0)
        entropy = _entropy(pi, logp)
        score = _ONE_HOT[actions] - pi
        run.dout[...] = self._actor_surrogate_grad(logp, pi, score, coeff,
                                                   entropy)
        self.actor_optimizer.step(
            self.actor, self._actor_direction(run.backward(0), run, score),
            cfg.actor_lr)
        return objective, entropy

    def _actor_surrogate_grad(self, logp, pi, score, coeff, entropy):
        """d/d logits of mean(coeff * log pi(a)) plus the entropy bonus,
        from ``score``, the rows ``onehot(a) - pi``, and each row's
        ``entropy`` (read only with a non-zero ``entropy_coef``)."""
        grad = coeff[:, None] * score
        if self.config.entropy_coef:
            grad += self.config.entropy_coef * (-pi * (logp + entropy[:, None]))
        grad /= len(coeff)
        return grad

    def _actor_direction(self, grads: Gradients, run, score) -> Gradients:
        """The actor's step direction from its surrogate gradient (ascent),
        its pass and the rows ``onehot(a) - pi``: the gradient itself."""
        return grads

    def _critic_step(self, run: StackPass, targets):
        """Descend the squared error toward fixed targets through ``run``,
        the critic's pass over the actor's rows, ``critic_epochs`` times so
        the value scale is reached within a desk-scale budget. Returns the
        last loss and the first epoch's values, copied before its step."""
        n = len(targets)
        values = run.acts[-1][0, :, 0]
        for epoch in range(self.config.critic_epochs):
            run.forward()
            if epoch == 0:
                first = values.copy()
            resid = values - targets
            loss = float((resid * resid).sum()) / n  # what np.mean computes
            if not math.isfinite(loss):
                raise DivergenceError("critic loss became non-finite")
            # the negated loss gradient: the optimizers ascend
            run.dout[:, 0] = -2.0 * resid / n
            self.critic_optimizer.step(
                self.critic,
                self._critic_direction(run.backward(0), run, resid, epoch),
                self.config.critic_lr)
        return loss, first

    def _critic_direction(self, grads: Gradients, run, resid,
                          epoch: int) -> Gradients:
        """The critic's step direction from the gradient of its negated
        loss: that gradient itself."""
        return grads

    def _nets(self) -> dict[str, Mlp]:
        return {"actor": self.actor, "critic": self.critic}

    def _optimizers(self) -> dict:
        return {"actor": self.actor_optimizer, "critic": self.critic_optimizer}


class A2cAgent(_ActorCriticAgent):
    """One-step advantage actor-critic: a single pass per rollout."""

    single_pass = True


class PpoAgent(_ActorCriticAgent):
    """The clipped surrogate over ``ppo_epochs`` epochs of minibatches, its
    ratio against the log-probability ``rollout`` records for each action."""


class AcktrAgent(A2cAgent):
    """Actor-critic with per-layer Kronecker-factored curvature: A2C's
    single pass, with each gradient preconditioned by the running factor
    inverses, scaled to the KL budget and capped to a maximum
    parameter-space norm.

    The factors are refreshed once per update for each net, from the
    critic's residuals of its first epoch and the actor's score rows
    ``onehot(a) - pi``. A refresh reads only the layer inputs and the
    pre-activation gradients: it runs the pass's ``chain`` from those
    rows, after the backward that gave the step's gradient. Both scalings
    write into the fresh preconditioned vector."""

    optimizer_class = SgdOptimizer

    def __init__(self, config: AgentConfig, obs_dim: int):
        super().__init__(config, obs_dim)
        self.actor_stats = KfacStats(self.actor, damping=config.kfac_damping,
                                     decay=config.kfac_decay)
        self.critic_stats = KfacStats(self.critic, damping=config.kfac_damping,
                                      decay=config.kfac_decay)

    def _actor_direction(self, grads, run, score) -> Gradients:
        # curvature pass: per-sample score-function gradients, unscaled;
        # the factors read only the pre-activation gradients
        run.dout[...] = score
        self.actor_stats.update(run.inputs[0], run.chain(0))
        return self._natural(self.actor_stats, grads, self.config.actor_lr)

    def _critic_direction(self, grads, run, resid, epoch) -> Gradients:
        if epoch == 0:  # refresh curvature once per rollout
            run.dout[:, 0] = resid
            self.critic_stats.update(run.inputs[0], run.chain(0))
        return self._natural(self.critic_stats, grads, self.config.critic_lr)

    def _natural(self, stats: KfacStats, grads: Gradients,
                 learning_rate: float) -> Gradients:
        """Precondition ``grads``, scale the step so that its
        curvature-metric length stays within the KL budget (eta^2 g^T F^-1 g
        <= 2 delta, g^T F^-1 g the raw gradient's inner product with the
        preconditioned one), which keeps saturated directions (tiny Fisher)
        from blowing up, then cap its norm at the trust-region radius. An
        infinite budget scales by exactly 1.0; an infinite radius never."""
        nat = stats.precondition(grads)
        delta = self.config.kl_budget
        quad = float(np.dot(grads.flat, nat.flat))
        if quad > 0:
            nat.flat *= min(1.0, math.sqrt(2.0 * delta / quad) / learning_rate)
        radius = self.config.trust_region_radius
        step_norm = learning_rate * math.sqrt(float(np.dot(nat.flat, nat.flat)))
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
# then one little-endian payload. The header holds only what ``make_agent``
# cannot rebuild: obs_dim, the full config, the counters (``_counter_slots``)
# and the RNG state. The payload holds each net's ``params`` in ``_nets()``
# order, then each optimizer's ``state_arrays()`` in ``_optimizers()``
# order, every array float32 (``DTYPE``); a change of dtype is a new format
# version, so the version alone tells a file's dtype.

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
    payload = b"".join(np.asarray(a, dtype=a.dtype.newbyteorder("<")).tobytes()
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
            f"reads version {_FORMAT_VERSION} only, whose every array is "
            f"{np.dtype(DTYPE).name}")
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
    TypeError, ValueError, OverflowError or (sizes too large to allocate)
    MemoryError, which the caller reports as a format error; so are a
    payload whose length does not fit the agent, a payload value that is
    not finite (training raises before saving one) and a counter that is
    not a non-negative int."""
    config = AgentConfig(**header["config"])
    if expected_algorithm is not None and config.algorithm != expected_algorithm:
        raise AlgorithmMismatchError(
            f"checkpoint holds {config.algorithm!r}, expected "
            f"{expected_algorithm!r}")
    agent = make_agent(config, header["obs_dim"])
    arrays = _payload_arrays(agent)  # the payload's destinations, in order
    size = sum(a.nbytes for a in arrays)
    sizes = (f"the agent its config builds holds {size} payload bytes, the "
             f"file {len(blob) - offset}")
    if len(blob) < offset + size:
        raise CheckpointTruncatedError(f"checkpoint payload cut short: {sizes}")
    if len(blob) > offset + size:
        raise CheckpointFormatError(
            f"trailing bytes after checkpoint payload: {sizes}")
    for dst in arrays:
        values = np.frombuffer(blob, dtype=dst.dtype.newbyteorder("<"),
                               count=dst.size, offset=offset)
        if not np.isfinite(values).all():
            raise CheckpointFormatError("checkpoint payload holds a value "
                                        "that is not finite")
        dst[...] = values.reshape(dst.shape)
        offset += dst.nbytes
    counters = header["counters"]
    slots = agent._counter_slots()
    keys = sorted(key for key, _, _ in slots)
    if sorted(counters) != keys:
        raise CheckpointFormatError(
            f"checkpoint counters {sorted(counters)}, expected {keys}")
    for key, owner, attr in slots:
        value = counters[key]
        check_value(f"checkpoint counter {key!r}", "int", value)
        if value < 0:
            raise ValueError(f"checkpoint counter {key!r} must be at least 0")
        setattr(owner, attr, value)
    agent._rng.bit_generator.state = header["rng_state"]
    return agent


def save_agent(agent: Agent, path) -> None:
    with open(path, "wb") as fh:
        fh.write(agent_to_bytes(agent))


def load_agent(path, expected_algorithm: str | None = None) -> Agent:
    with open(path, "rb") as fh:
        return agent_from_bytes(fh.read(), expected_algorithm)
