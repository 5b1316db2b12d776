"""The benchmark's workloads: phases of seeded trafficlab work, run in
chunks so each chunk can be timed and normalised on its own.

A run of any workload executes all four phase groups, because every run
reports every end-to-end metric. The workload's own group gets 40% of
the run's time budget and the phases of the other three groups share
the rest. How
many chunks each phase runs is a function of the workload and
``--seconds`` only, never of the measured speed, so a run's seeded
outputs, and their digest, are the same on a fast and a slow host.

The train, eval and adapt phases each make one long program call at the
program's own lengths: ``train_agent`` and ``evaluate_agent`` on
3600-s episodes, ``run_deployment`` as one never-reset episode. A chunk
is a window of env steps of that call (see ``stepping.py``), so the
road carries its load from one chunk to the next.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from contextlib import contextmanager

import numpy as np

from stepping import SteppedCall
from trafficlab import adapt, agents, harness
from trafficlab.adapt import DeploymentConfig, DetectionSchedule
from trafficlab.agents import make_agent
from trafficlab.config import ExperimentSpec
from trafficlab.env import TrafficSignalEnv
from trafficlab.nn import DivergenceError, Mlp

WORKLOADS = {
    "train_sparse": "train",
    "eval_dense": "eval",
    "adapt_medium": "adapt",
    "grid_small": "grid",
}
PRIMARY_SHARE = 0.4
# a median of fewer timed chunks spread too far between runs (grid_s
# with six chunks of a whole grid each)
MIN_CHUNKS = 10
# Controllers are built from one fixed seed; --seed varies the traffic.
# A different initial policy shapes the traffic it meets (an untrained
# greedy policy may never switch), which would make the cost of a step
# depend on the seed rather than on the code.
AGENT_SEED = 0

# the program's episode length (EnvConfig and ExperimentSpec default)
EPISODE_S = 3600.0
# env steps per timed chunk; for actor-critic learners two rollouts of 256
TRAIN_CHUNK_STEPS = {"dql": 64, "ppo": 512, "a2c": 512, "acktr": 512}
# untimed leading chunks; DQL's take it past its 1000-transition replay
# warm-up, after which every step makes a gradient step
TRAIN_WARMUP_CHUNKS = {"dql": 16, "ppo": 1, "a2c": 1, "acktr": 1}
EVAL_CHUNK_STEPS = 450  # an eighth of an episode
ADAPT_CHUNK_STEPS = 512
ADAPT_UPDATE_PERIOD = 256
GRID_ALGORITHMS = ["ppo", "a2c"]


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_conserved(env: TrafficSignalEnv) -> None:
    state = env.state
    check(state.spawned_count == state.exited_count + state.vehicle_count(),
          f"vehicles not conserved: spawned {state.spawned_count}, exited "
          f"{state.exited_count}, on road {state.vehicle_count()}")


@contextmanager
def captured_envs():
    """Collect every TrafficSignalEnv built inside the block, including
    the ones evaluate_agent and run_deployment build for themselves."""
    envs: list[TrafficSignalEnv] = []
    original = TrafficSignalEnv.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        envs.append(self)

    TrafficSignalEnv.__init__ = init
    try:
        yield envs
    finally:
        TrafficSignalEnv.__init__ = original


def probe_observations(obs_dim: int, seed: int, n: int = 32) -> np.ndarray:
    """Observations spread over the valid range of every slot."""
    rng = np.random.default_rng(seed)
    obs = rng.random((n, obs_dim))
    obs[:, 8] *= 120.0  # phase timer in seconds
    obs[:, 9] = rng.integers(0, 2, n)  # amber flag
    obs[:, 10] = rng.integers(0, 2, n)  # phase index
    return obs


def check_round_trip(agent, path: str, seed: int) -> None:
    """A saved and reloaded agent must act greedily exactly as before."""
    agents.save_agent(agent, path)
    loaded = agents.load_agent(path, expected_algorithm=agent.algorithm)
    for obs in probe_observations(agent.obs_dim, seed):
        check(agent.act(obs, explore=False) == loaded.act(obs, explore=False),
              f"{agent.algorithm} greedy action changed across save/load")


def check_finite(agent) -> None:
    for net in vars(agent).values():
        if isinstance(net, Mlp):
            check(bool(np.isfinite(net.flatten()).all()),
                  f"{agent.algorithm} parameters are not finite")


def agent_digest(agent) -> str:
    """SHA-256 of the agent's checkpoint bytes: weights, optimizer state
    and random state."""
    return hashlib.sha256(agents.agent_to_bytes(agent)).hexdigest()


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

class Phase:
    """One controller's share of a phase group.

    ``start`` builds configs, env and agents; ``chunk`` runs one unit of
    timed work and returns what it produced for the digest; ``finish``
    checks the final state and returns what the phase produced at the
    end, also for the digest. ``chunks`` is the number of timed chunks
    the run gives the phase. ``attempted`` and ``failed`` count
    operations: update calls, eval episodes, grid cells.
    """

    group = ""
    name = ""  # span phase tag, "<group>.<controller>"
    metric = ""
    steps_per_chunk = 0  # env steps in a chunk; 0 when timed as seconds
    warmup_chunks = 0
    nominal_chunk_s = 1.0  # chunk time at nominal host speed, for sizing

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.chunks = MIN_CHUNKS
        self.attempted = 0
        self.failed = 0

    def start(self) -> None:
        raise NotImplementedError

    def chunk(self, index: int, tracer=None):
        """One chunk of work; ``tracer``, when given, records it."""
        raise NotImplementedError

    def collect(self, out):
        """Turn a chunk's return value into digest input; runs after the
        chunk's timer has stopped."""
        return out

    def finish(self):
        """Checks on the phase's final state, outside the timed region;
        returns digest input."""

    def close(self) -> None:
        """Release what ``start`` set running; safe to call twice."""


class SteppedPhase(Phase):
    """A phase that is one long program call, ``self.call``; a chunk is
    its next ``steps_per_chunk`` env steps."""

    loop = ""  # span name of a traced window
    call: SteppedCall | None = None

    def total_steps(self) -> int:
        return (self.warmup_chunks + self.chunks) * self.steps_per_chunk

    def chunk(self, index: int, tracer=None):
        steps = self.call.advance(self.steps_per_chunk, tracer)
        check(steps == self.steps_per_chunk,
              f"{self.name} ended after {steps} of {self.steps_per_chunk} "
              f"steps in chunk {index}")

    def collect(self, out):
        for env in self.call.envs:
            assert_conserved(env)

    def close(self) -> None:
        if self.call is not None:
            self.call.close()


class TrainPhase(SteppedPhase):
    group = "train"
    loop = "loop.train_agent"

    def __init__(self, algorithm: str, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.algorithm = algorithm
        self.name = f"train.{algorithm}"
        self.metric = f"train_sps.{algorithm}"
        self.steps_per_chunk = TRAIN_CHUNK_STEPS[algorithm]
        self.warmup_chunks = TRAIN_WARMUP_CHUNKS[algorithm]
        self.nominal_chunk_s = self.steps_per_chunk / {
            "dql": 1300, "ppo": 7500, "a2c": 8800, "acktr": 6500}[algorithm]

    def start(self) -> None:
        env_cfg = harness.build_env_config("sparse", 0.5, self.seed,
                                           episode_length=EPISODE_S)
        self.agent = make_agent(harness.default_agent_config(
            self.algorithm, seed=AGENT_SEED,
            train_steps_budget=harness.TRAIN_STEPS_BY_ALGORITHM[self.algorithm]),
            env_cfg.observation_size)
        self.call = SteppedCall(
            lambda: harness.train_agent(
                self.agent, TrafficSignalEnv(env_cfg, seed=self.seed),
                self.total_steps()),
            span=self.loop)

    def chunk(self, index: int, tracer=None):
        self.attempted += self.steps_per_chunk // self.agent.needs_rollout
        try:
            super().chunk(index, tracer)
        except DivergenceError as exc:
            self.failed += 1
            raise CheckFailed(f"{self.algorithm} training diverged: {exc}")

    def finish(self):
        self.call.close()
        for env in self.call.envs:
            assert_conserved(env)
        check_finite(self.agent)
        check_round_trip(self.agent, os.path.join(
            self.work_dir, f"train_{self.algorithm}.ckpt"), self.seed)
        return {"episodes": [[r.episode_return, r.mean_wait]
                             for r in self.call.result],
                "agent": agent_digest(self.agent)}


class EvalPhase(SteppedPhase):
    group = "eval"
    loop = "loop.evaluate_agent"
    steps_per_chunk = EVAL_CHUNK_STEPS
    warmup_chunks = 1

    def __init__(self, controller: str, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.controller = controller
        self.name = f"eval.{controller}"
        self.metric = f"eval_sps.{controller}"
        self.nominal_chunk_s = EVAL_CHUNK_STEPS / {
            "fixed_time": 10500, "ppo": 6500}[controller]

    def start(self) -> None:
        env_cfg = harness.build_env_config("dense", 1.0, self.seed,
                                           episode_length=EPISODE_S)
        self.agent = make_agent(harness.default_agent_config(
            self.controller, seed=AGENT_SEED), env_cfg.observation_size)
        episodes = math.ceil(self.total_steps() / EPISODE_S)
        self.call = SteppedCall(harness.evaluate_agent, self.agent, env_cfg,
                                episodes, self.seed, span=self.loop)

    def finish(self):
        self.call.advance(None)  # the rest of the last episode, untimed
        self.call.close()
        stats = self.call.result
        self.attempted += stats.episodes
        for env in self.call.envs:
            assert_conserved(env)
        check(stats.wait_all is not None, f"{self.controller} eval has no waits")
        check(stats.exited_all > 0, f"{self.controller} dense eval had no exits")
        check_round_trip(self.agent, os.path.join(
            self.work_dir, f"eval_{self.controller}.ckpt"), self.seed)
        return stats.to_json_dict()


class AdaptPhase(SteppedPhase):
    group = "adapt"
    loop = "loop.run_deployment"
    steps_per_chunk = ADAPT_CHUNK_STEPS
    warmup_chunks = 1

    def __init__(self, algorithm: str, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.algorithm = algorithm
        self.name = f"adapt.{algorithm}"
        self.metric = f"adapt_sps.{algorithm}"
        self.nominal_chunk_s = ADAPT_CHUNK_STEPS / {
            "ppo": 5900, "acktr": 4900}[algorithm]

    def start(self) -> None:
        # a SimConfig of its own: run_deployment writes the detection
        # rate into the config it is given
        env_cfg = harness.build_env_config("medium", 1.0, self.seed)
        total = self.total_steps()
        deploy = DeploymentConfig(
            schedule=DetectionSchedule.ramp(
                0.0, 1.0, total * env_cfg.sim.time_step, 0.2),
            total_steps=total, update_period=ADAPT_UPDATE_PERIOD)
        self.agent = make_agent(harness.default_agent_config(
            self.algorithm, seed=AGENT_SEED), env_cfg.observation_size)
        self.call = SteppedCall(adapt.run_deployment, self.agent, env_cfg,
                                deploy, self.seed, span=self.loop)

    def chunk(self, index: int, tracer=None):
        self.attempted += ADAPT_CHUNK_STEPS // ADAPT_UPDATE_PERIOD
        try:
            super().chunk(index, tracer)
        except CheckFailed:
            self.aborted()  # the more telling failure, if that is why
            raise

    def aborted(self) -> None:
        result = self.call.result
        if result is not None and result.aborted:
            self.failed += 1
            raise CheckFailed(f"{self.algorithm} deployment aborted at step "
                              f"{result.failure_step}: {result.failure_message}")

    def finish(self):
        self.call.close()
        self.aborted()
        result = self.call.result
        check_finite(self.agent)
        check_round_trip(self.agent, os.path.join(
            self.work_dir, f"adapt_{self.algorithm}.ckpt"), self.seed)
        return {"timeline": [vars(p) for p in result.timeline],
                "flags": result.instability_flags,
                "spawned": [result.spawned_total, result.spawned_detected],
                "agent": agent_digest(self.agent)}


class GridPhase(Phase):
    """A tiny train, sweep and adapt grid through the ``cmd_*`` entry
    points, with checkpoints and CSV/SVG output.

    It runs with one worker, so its cells run in this process. With a
    pool of nproc workers the grid's time followed host states that the
    reference kernel does not see: process start-up and wake-ups, not
    computation. Two sets of ten runs twenty minutes apart gave medians
    of 0.33 s and 0.57 s, more than any bound allows.
    """

    group = "grid"
    name = "grid"
    metric = "grid_s"
    warmup_chunks = 1
    nominal_chunk_s = 0.28

    def start(self) -> None:
        self.spec_args = dict(
            name="grid_small", scenario="medium", algorithms=GRID_ALGORITHMS,
            rates=[1.0], seeds=[self.seed], train_steps=256,
            eval_episodes=1, episode_length=256.0, workers=1)
        self.deploy = DeploymentConfig(
            schedule=DetectionSchedule([(0.0, 1.0), (512.0, 0.5)]),
            total_steps=512, update_period=256, instability_window=256)

    def chunk(self, index: int, tracer=None):
        out_dir = os.path.join(self.work_dir, f"grid{index}")
        spec = ExperimentSpec(out_dir=out_dir, **self.spec_args)
        trained = harness.cmd_train(spec)
        _, swept = harness.cmd_sweep(spec)
        adapted = harness.cmd_adapt(spec, self.deploy)
        results = trained + swept + adapted
        self.attempted += len(results)
        self.failed += sum(1 for r in results if r.error)
        return out_dir

    def collect(self, out_dir: str):
        """Check and digest one grid's files, then delete them; runs
        after the chunk's timer has stopped."""
        cells = list(ExperimentSpec(**self.spec_args).cells())
        expected = ["sweep.csv", "sweep_summary.csv", "adapt_summary.csv"]
        expected += [f"timeline_{a}_s{self.seed}.csv" for a in GRID_ALGORITHMS]
        expected += [os.path.join("curves", "train_" + harness.checkpoint_name(
            a, "medium", r, s)[:-5] + ".csv") for a, r, s in cells]
        files = {}
        for rel in expected:
            path = os.path.join(out_dir, rel)
            check(os.path.isfile(path), f"grid did not write {rel}")
            with open(path, "rb") as fh:
                files[rel] = hashlib.sha256(fh.read()).hexdigest()
        sweep = harness.read_sweep_csv(os.path.join(out_dir, "sweep.csv"))
        check(len(sweep) == len(cells),
              f"sweep.csv has {len(sweep)} rows for {len(cells)} cells")
        _, rows = harness.read_csv(os.path.join(out_dir, "adapt_summary.csv"))
        check(all(row[-1] == "" for row in rows),
              f"adapt cells reported errors: {[row[-1] for row in rows]}")
        check(self.failed == 0, f"{self.failed} grid cells failed")
        shutil.rmtree(out_dir)
        return files


def make_phases(workload: str, seed: int, seconds: float,
               work_dir: str) -> list[Phase]:
    """Every phase, each with its number of timed chunks: the phases
    of the workload's own group split ``PRIMARY_SHARE`` of ``seconds``
    evenly, and the other phases split the rest evenly."""
    phases = [
        *[TrainPhase(a, seed, work_dir) for a in ("dql", "ppo", "a2c", "acktr")],
        *[EvalPhase(c, seed, work_dir) for c in ("fixed_time", "ppo")],
        *[AdaptPhase(a, seed, work_dir) for a in ("ppo", "acktr")],
        GridPhase(seed, work_dir),
    ]
    primary = WORKLOADS[workload]
    own = sum(1 for p in phases if p.group == primary)
    for phase in phases:
        budget = seconds * (PRIMARY_SHARE / own if phase.group == primary
                            else (1.0 - PRIMARY_SHARE) / (len(phases) - own))
        phase.chunks = max(MIN_CHUNKS, round(budget / phase.nominal_chunk_s))
    return phases


def chunk_schedule(counts: list[int]) -> list[tuple[int, int]]:
    """Interleave the phases' timed chunks: (phase index, chunk number)
    pairs, each phase's chunks spread evenly over the run. A phase then
    samples every host state the run meets, instead of the few seconds
    it would own if phases ran one after another."""
    slots = [((k + 0.5) / n, i, k) for i, n in enumerate(counts)
             for k in range(n)]
    return [(i, k) for _, i, k in sorted(slots)]
