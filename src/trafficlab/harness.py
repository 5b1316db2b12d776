"""Experiment orchestration: training runs over the (algorithm, detection
rate, seed) grid, detection-rate sweeps, deployment/adaptation runs,
single-checkpoint evaluation, and CSV/SVG report emission.

``train_agent`` and ``adapt.run_deployment`` step through
``agents.rollout`` and hand its full batches to ``agent.update``.
``evaluate_agent`` plays its greedy episodes side by side, one env each,
and picks every env's action of a tick with one ``agent.greedy_actions``
call.

Each grid cell is self-contained and seeded, so cells can run in any
order or in a worker pool; outputs are sorted by cell key before writing,
which keeps every CSV byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from trafficlab.adapt import (
    DeploymentConfig,
    DeploymentResult,
    TimelinePoint,
    run_deployment,
)
from trafficlab.agents import (
    Agent,
    ObservationShapeError,
    default_agent_config,  # noqa: F401 (the benchmark builds agents with it)
    load_agent,
    make_agent,
    rollout,
    save_agent,
)
from trafficlab.charts import Series, write_chart
from trafficlab.config import (  # noqa: F401 (re-exports the budgets)
    TRAIN_STEPS_BY_ALGORITHM,
    ExperimentSpec,
    checkpoint_name,
)
from trafficlab.env import (
    EnvConfig,
    TrafficSignalEnv,
    episode_seeds,
)
from trafficlab.sim import class_means, scenario_preset

SWEEP_HEADER = ["algorithm", "scenario", "detection_rate", "seed",
                "wait_all", "wait_detected", "wait_undetected", "episodes"]
TIMELINE_HEADER = ["step", "detection_rate", "wait_all", "wait_detected",
                   "wait_undetected", "instability_flag"]
CURVE_HEADER = ["episode", "end_step", "return", "mean_wait"]


def build_env_config(scenario: str, detection_rate: float, seed: int,
                     episode_length: float = 3600.0) -> EnvConfig:
    sim = scenario_preset(scenario, detection_rate=detection_rate,
                          rng_seed=seed)
    return EnvConfig(sim=sim, episode_length=episode_length)


# ---------------------------------------------------------------------------
# training and evaluation drivers
# ---------------------------------------------------------------------------

@dataclass
class EpisodeRecord:
    episode: int
    end_step: int
    episode_return: float
    mean_wait: float | None


def _entered_waits(state) -> tuple:
    """Per-class wait totals and counts of every vehicle that entered: the
    exit totals plus the vehicles still on the road."""
    return state.add_onroad_waits(
        state.exited_wait_detected, state.exited_n_detected,
        state.exited_wait_undetected, state.exited_n_undetected)


def train_agent(agent: Agent, env: TrafficSignalEnv,
                total_steps: int) -> list[EpisodeRecord]:
    """Drive the env for total_steps, feeding the agent its rollouts.

    Returns one record per completed episode; an episode that ends on the
    last step is recorded and left as it ended. A record's ``mean_wait``
    counts the vehicles still on the road at the episode's end beside
    those that exited, as evaluation does, so a starved approach shows
    in the curve. Agents that never update (fixed-time) skip the loop
    entirely.
    """
    records: list[EpisodeRecord] = []
    if total_steps <= 0 or agent.needs_rollout == 0:
        return records
    ep_return = 0.0
    steps = rollout(agent, env, agent.needs_rollout)
    for step, (reward, done, batch) in zip(range(1, total_steps + 1), steps):
        ep_return += reward
        if batch:
            agent.update(batch)
        if done:
            wait = class_means(*_entered_waits(env.state))[0]
            records.append(EpisodeRecord(len(records), step, ep_return, wait))
            ep_return = 0.0
    return records


@dataclass
class EvalStats:
    """Greedy-policy evaluation aggregates over N fresh episodes. The
    ``exited_*`` counts hold every vehicle that entered, exited or still
    on the road; ``eval --out`` writes them and the benchmark hashes them
    under these names."""

    episodes: int
    mean_return: float
    wait_all: float | None
    wait_detected: float | None
    wait_undetected: float | None
    wait_all_std: float | None
    exited_all: int
    exited_detected: int
    exited_undetected: int
    mean_queue: float

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def evaluate_agent(agent: Agent, env_config: EnvConfig, episodes: int,
                   seed: int = 0) -> EvalStats:
    """Greedy evaluation over ``episodes`` fresh episodes, run in lockstep.

    Episode ``k`` gets an env of its own, reset with the ``k``-th seed of
    ``episode_seeds(seed)``: the seed that ``reset()`` of one env built
    with ``seed`` draws for its ``k``-th episode. Every env is built and
    reset before the first step. Each tick then picks all the envs'
    actions with one ``agent.greedy_actions`` call and steps each env once,
    in episode order; returns and waits are added in episode order, so the
    stats equal those of playing the episodes one after another. Each env
    holds its own road, so the heap grows with ``episodes``, by about
    20 KB each on the medium preset (a 20-episode evaluation peaks near
    410 KB of traced allocations).
    """
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    if agent.obs_dim != env_config.observation_size:
        raise ObservationShapeError(
            f"checkpoint expects observations of length {agent.obs_dim}, "
            f"environment emits {env_config.observation_size}")
    envs = [TrafficSignalEnv(env_config) for _ in range(episodes)]
    obs = [env.reset(seed=s) for env, s in zip(envs, episode_seeds(seed))]
    returns = [0.0] * episodes
    queue_total = 0  # integer queue lengths: exact in any order
    ticks = 0
    done = False
    while not done:  # one episode length: all envs end on the same tick
        actions = agent.greedy_actions(obs)
        for k, env in enumerate(envs):
            obs[k], reward, done, info = env.step(actions[k])
            returns[k] += reward
            queue_total += sum(info["census"].queue_lengths)
        ticks += 1
    totals = (0.0, 0, 0.0, 0)  # per-class wait sums and vehicle counts
    per_episode_wait = []
    for env in envs:
        episode = _entered_waits(env.state)
        totals = tuple(a + b for a, b in zip(totals, episode))
        per_episode_wait.append(class_means(*episode)[0])
    _, n_det, _, n_undet = totals
    wait_all, wait_detected, wait_undetected = class_means(*totals)
    waits = [w for w in per_episode_wait if w is not None]
    return EvalStats(
        episodes=episodes,
        mean_return=float(np.mean(returns)),
        wait_all=wait_all,
        wait_detected=wait_detected,
        wait_undetected=wait_undetected,
        wait_all_std=float(np.std(waits)) if len(waits) > 1 else None,
        exited_all=n_det + n_undet,
        exited_detected=n_det,
        exited_undetected=n_undet,
        mean_queue=queue_total / (ticks * episodes),
    )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path} is empty, expected at least a header")
    return rows[0], rows[1:]


def _opt_float(text: str) -> float | None:
    return None if text == "" else float(text)


@dataclass
class SweepRecord:
    """One sweep cell: per-class mean waits of a trained controller
    evaluated at its detection rate."""

    algorithm: str
    scenario: str
    detection_rate: float
    seed: int
    wait_all: float | None
    wait_detected: float | None
    wait_undetected: float | None
    episodes: int

    def row(self) -> list:
        return [self.algorithm, self.scenario, self.detection_rate, self.seed,
                self.wait_all, self.wait_detected, self.wait_undetected,
                self.episodes]

    @classmethod
    def from_row(cls, row: list[str]) -> "SweepRecord":
        return cls(
            algorithm=row[0], scenario=row[1], detection_rate=float(row[2]),
            seed=int(row[3]), wait_all=_opt_float(row[4]),
            wait_detected=_opt_float(row[5]), wait_undetected=_opt_float(row[6]),
            episodes=int(row[7]),
        )


def write_sweep_csv(path, records: list[SweepRecord]) -> None:
    emit_csv(path, SWEEP_HEADER, [r.row() for r in records])


def read_sweep_csv(path) -> list[SweepRecord]:
    header, rows = read_csv(path)
    if header != SWEEP_HEADER:
        raise ValueError(f"unexpected sweep CSV header {header}")
    return [SweepRecord.from_row(r) for r in rows]


def write_timeline_csv(path, result: DeploymentResult) -> None:
    rows = [[p.step, p.detection_rate, p.wait_all, p.wait_detected,
             p.wait_undetected, p.instability] for p in result.timeline]
    emit_csv(path, TIMELINE_HEADER, rows)


def write_curve_csv(path, records: list[EpisodeRecord]) -> None:
    rows = [[r.episode, r.end_step, r.episode_return, r.mean_wait]
            for r in records]
    emit_csv(path, CURVE_HEADER, rows)


# ---------------------------------------------------------------------------
# command: train
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    algorithm: str
    rate: float
    seed: int
    checkpoint: str | None = None
    error: str | None = None


def _cell_error(exc: Exception) -> str:
    """The one-line error of a failed grid cell: the exception type name,
    then its message. A cell catches every ``Exception`` and reports it
    this way, so one bad cell never ends the grid."""
    return f"{type(exc).__name__}: {exc}"


def _checkpoint_path(spec: ExperimentSpec, algorithm: str, rate: float,
                     seed: int) -> str:
    return os.path.join(spec.out_dir, "checkpoints",
                        checkpoint_name(algorithm, spec.scenario, rate, seed))


def _load_cell_agent(spec: ExperimentSpec, path: str, algorithm: str) -> Agent:
    """The agent of a cell's checkpoint at ``path``, refused unless it
    holds every value the spec's [agent] sets: scoring or deploying it
    would drop that value without a word."""
    agent = load_agent(path, expected_algorithm=algorithm)
    for key, value in spec.agent.items():
        held = getattr(agent.config, key)
        if held != value:
            raise ValueError(f"[agent] {key} = {value!r}, but checkpoint "
                             f"{path} holds {held!r}; train the cell again")
    return agent


def _train_cell(spec: ExperimentSpec,
                cell: tuple[str, float, int]) -> CellResult:
    algorithm, rate, seed = cell
    ckpt_path = _checkpoint_path(spec, algorithm, rate, seed)
    curve_dir = os.path.join(spec.out_dir, "curves")
    os.makedirs(os.path.dirname(ckpt_path), exist_ok=True)
    os.makedirs(curve_dir, exist_ok=True)
    try:
        env_cfg = build_env_config(spec.scenario, rate, seed,
                                   episode_length=spec.episode_length)
        agent = make_agent(spec.agent_config(algorithm, seed),
                           env_cfg.observation_size)
        env = TrafficSignalEnv(env_cfg, seed=seed)
        curve = train_agent(agent, env, spec.steps_for(algorithm))
        save_agent(agent, ckpt_path)
        name = os.path.basename(ckpt_path)[:-5]
        write_curve_csv(os.path.join(curve_dir, f"train_{name}.csv"), curve)
        return CellResult(algorithm, rate, seed, checkpoint=ckpt_path)
    except Exception as exc:
        return CellResult(algorithm, rate, seed, error=_cell_error(exc))


def _run_cells(worker, args_list: list, workers: int) -> list:
    if workers <= 1 or len(args_list) <= 1:
        return [worker(*args) for args in args_list]
    # imported here: the pool machinery (multiprocessing and its helpers)
    # costs every import of this module about 15 ms, and only a run with
    # several workers needs it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, *args) for args in args_list]
        return [f.result() for f in futures]


def cmd_train(spec: ExperimentSpec) -> list[CellResult]:
    """Train one agent per grid cell; failed cells are recorded and the
    rest continue."""
    args = [(spec, cell) for cell in spec.cells()]
    results = _run_cells(_train_cell, args, spec.workers)
    return sorted(results, key=lambda r: (r.algorithm, r.rate, r.seed))


# ---------------------------------------------------------------------------
# command: sweep
# ---------------------------------------------------------------------------

def _sweep_cell(spec: ExperimentSpec,
                cell: tuple[str, float, int]) -> tuple[SweepRecord | None,
                                                       CellResult]:
    algorithm, rate, seed = cell
    ckpt_path = _checkpoint_path(spec, algorithm, rate, seed)
    try:
        if not os.path.exists(ckpt_path):
            if not spec.train_missing:
                raise FileNotFoundError(f"missing checkpoint {ckpt_path}")
            trained = _train_cell(spec, cell)
            if trained.error:
                return None, trained
        agent = _load_cell_agent(spec, ckpt_path, algorithm)
        env_cfg = build_env_config(spec.scenario, rate, seed + 10_000,
                                   episode_length=spec.episode_length)
        stats = evaluate_agent(agent, env_cfg, spec.eval_episodes,
                               seed=seed + 10_000)
        record = SweepRecord(
            algorithm=algorithm, scenario=spec.scenario, detection_rate=rate,
            seed=seed, wait_all=stats.wait_all,
            wait_detected=stats.wait_detected,
            wait_undetected=stats.wait_undetected, episodes=stats.episodes)
        return record, CellResult(algorithm, rate, seed, checkpoint=ckpt_path)
    except Exception as exc:
        return None, CellResult(algorithm, rate, seed, error=_cell_error(exc))


def cmd_sweep(spec: ExperimentSpec
              ) -> tuple[list[SweepRecord], list[CellResult]]:
    """Evaluate each trained cell at its detection rate; emit the sweep CSV,
    a cross-seed summary, and one waiting-time chart per algorithm."""
    cells = list(spec.cells())
    args = [(spec, cell) for cell in cells]
    outcomes = _run_cells(_sweep_cell, args, spec.workers)
    pairs = sorted(zip(cells, outcomes), key=lambda p: p[0])
    records = [rec for _, (rec, _) in pairs if rec is not None]
    results = [res for _, (_, res) in pairs]
    os.makedirs(spec.out_dir, exist_ok=True)
    write_sweep_csv(os.path.join(spec.out_dir, "sweep.csv"), records)
    _write_sweep_summary(spec, records)
    _write_sweep_charts(spec, records)
    return records, results


def _write_sweep_summary(spec: ExperimentSpec,
                         records: list[SweepRecord]) -> None:
    header = ["algorithm", "scenario", "detection_rate", "wait_all_mean",
              "wait_all_std", "seeds"]
    groups: dict[tuple, list[SweepRecord]] = {}
    for rec in records:
        groups.setdefault((rec.algorithm, rec.scenario, rec.detection_rate),
                          []).append(rec)
    rows = []
    for key in sorted(groups):
        values = [r.wait_all for r in groups[key] if r.wait_all is not None]
        rows.append([
            key[0], key[1], key[2],
            float(np.mean(values)) if values else None,
            float(np.std(values)) if len(values) > 1 else None,
            len(groups[key]),
        ])
    emit_csv(os.path.join(spec.out_dir, "sweep_summary.csv"), header, rows)


def _write_sweep_charts(spec: ExperimentSpec,
                        records: list[SweepRecord]) -> None:
    for algorithm in spec.algorithms:
        recs = [r for r in records if r.algorithm == algorithm]
        if not recs:
            continue
        series = []
        for label, attr in (("all", "wait_all"), ("detected", "wait_detected"),
                            ("undetected", "wait_undetected")):
            xs, ys = [], []
            for rate in sorted({r.detection_rate for r in recs}):
                values = [getattr(r, attr) for r in recs
                          if r.detection_rate == rate
                          and getattr(r, attr) is not None]
                if values:
                    xs.append(rate)
                    ys.append(float(np.mean(values)))
            if xs:
                series.append(Series(label=label, xs=xs, ys=ys))
        if series:
            write_chart(
                os.path.join(spec.out_dir,
                             f"sweep_{algorithm}_{spec.scenario}.svg"),
                series,
                title=f"{algorithm} on {spec.scenario}",
                x_label="detection rate",
                y_label="mean waiting time (s)")


# ---------------------------------------------------------------------------
# command: adapt
# ---------------------------------------------------------------------------

@dataclass
class AdaptRunResult:
    algorithm: str
    seed: int
    timeline_csv: str | None
    instability_flags: int
    aborted: bool
    error: str | None = None
    timeline: list[TimelinePoint] | None = None  # what timeline_csv holds


def _adapt_cell(spec: ExperimentSpec, deploy: DeploymentConfig,
                start_rate: float,
                cell: tuple[str, int]) -> AdaptRunResult:
    algorithm, seed = cell
    ckpt_path = _checkpoint_path(spec, algorithm, start_rate, seed)
    try:
        agent = _load_cell_agent(spec, ckpt_path, algorithm)
        env_cfg = build_env_config(spec.scenario, start_rate, seed,
                                   episode_length=spec.episode_length)
        result = run_deployment(agent, env_cfg, deploy, seed=seed + 50_000)
        csv_path = os.path.join(spec.out_dir,
                                f"timeline_{algorithm}_s{seed}.csv")
        write_timeline_csv(csv_path, result)
        return AdaptRunResult(
            algorithm=algorithm, seed=seed, timeline_csv=csv_path,
            instability_flags=result.instability_flags,
            aborted=result.aborted,
            error=result.failure_message if result.aborted else None,
            timeline=result.timeline)
    except Exception as exc:
        return AdaptRunResult(algorithm=algorithm, seed=seed,
                              timeline_csv=None, instability_flags=0,
                              aborted=True, error=_cell_error(exc))


def cmd_adapt(spec: ExperimentSpec, deploy: DeploymentConfig
              ) -> list[AdaptRunResult]:
    """Deploy each pre-trained agent on the drifting-detection schedule;
    emit per-run timelines, an instability summary, and a comparison chart."""
    start_rate = deploy.schedule.breakpoints[0][1]
    cells = [(algo, seed) for algo in spec.algorithms for seed in spec.seeds]
    args = [(spec, deploy, start_rate, cell) for cell in cells]
    os.makedirs(spec.out_dir, exist_ok=True)
    results = _run_cells(_adapt_cell, args, spec.workers)
    results.sort(key=lambda r: (r.algorithm, r.seed))
    emit_csv(os.path.join(spec.out_dir, "adapt_summary.csv"),
             ["algorithm", "seed", "instability_flags", "aborted", "error"],
             [[r.algorithm, r.seed, r.instability_flags, r.aborted,
               r.error or ""] for r in results])
    _write_adapt_chart(spec, results)
    return results


def _write_adapt_chart(spec: ExperimentSpec,
                       results: list[AdaptRunResult]) -> None:
    """One series per algorithm: each step's mean ``wait_all`` over the
    seeds' timelines, skipping windows with no exits. The timelines are
    read in memory; their CSV round trip is exact."""
    series = []
    for algorithm in spec.algorithms:
        per_step: dict[int, list[float]] = {}
        for res in results:
            if res.algorithm != algorithm or res.timeline is None:
                continue
            for point in res.timeline:
                if point.wait_all is not None:
                    per_step.setdefault(point.step, []).append(point.wait_all)
        if per_step:
            xs = sorted(per_step)
            series.append(Series(
                label=algorithm, xs=[float(x) for x in xs],
                ys=[float(np.mean(per_step[x])) for x in xs]))
    if series:
        write_chart(os.path.join(spec.out_dir, f"adapt_{spec.scenario}.svg"),
                    series, title=f"deployment on {spec.scenario}",
                    x_label="step", y_label="mean waiting time (s)")


# ---------------------------------------------------------------------------
# command: eval
# ---------------------------------------------------------------------------

def cmd_eval(checkpoint: str, scenario: str, detection_rate: float,
             episodes: int, seed: int = 0, episode_length: float = 3600.0,
             out_path: str | None = None) -> EvalStats:
    """Greedy evaluation of one checkpoint; raises ObservationShapeError if
    the checkpoint and environment disagree on the observation layout."""
    agent = load_agent(checkpoint)
    env_cfg = build_env_config(scenario, detection_rate, seed,
                               episode_length=episode_length)
    stats = evaluate_agent(agent, env_cfg, episodes, seed=seed)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"checkpoint": checkpoint, "scenario": scenario,
                       "detection_rate": detection_rate, "seed": seed,
                       **stats.to_json_dict()}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return stats
