"""Experiment orchestration: training runs over the (algorithm, detection
rate, seed) grid, detection-rate sweeps, deployment/adaptation runs,
single-checkpoint evaluation, and CSV/SVG report emission.

``train_agent`` and ``adapt.run_deployment`` step through
``agents.rollout`` and hand its full batches to ``agent.update``.
``evaluate_agent`` plays its greedy episodes side by side, one env each,
and picks every env's action of a tick with one ``agent.greedy_actions``
call.

Each grid cell is self-contained and seeded, so it can run in a worker
pool. ``train``, ``sweep`` and ``adapt`` cells take one path: each
command hands its worker and its cells to ``_run_cells``, and
``_run_cell`` names a cell's checkpoint, calls the worker and is the one
place a cell's error is caught. Every command returns one ``CellResult``
per cell. Cells run in sorted order, and results and rows keep that
order, which keeps every CSV byte-reproducible. A CSV row is its record's
fields in order.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import astuple, dataclass, replace

import numpy as np

from trafficlab.adapt import (DeploymentConfig, DeploymentResult,
                              run_deployment)
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
from trafficlab.sim import check_seed, check_value, class_means, scenario_preset

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
            wait = class_means(*env.state.entered_waits())[0]
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


def _check_episodes(episodes: int) -> None:
    check_value("episodes", "int", episodes)
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")


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
    _check_episodes(episodes)
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
            queue_total += info["census"].queue
        ticks += 1
    totals = (0.0, 0, 0.0, 0)  # per-class wait sums and vehicle counts
    per_episode_wait = []
    for env in envs:
        episode = env.state.entered_waits()
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


def emit_csv(path, header: list[str], rows) -> None:
    """Write ``header``, then each of ``rows`` (any iterable of value
    sequences) with every value spelt by ``_cell``."""
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

    @classmethod
    def from_row(cls, row: list[str]) -> "SweepRecord":
        return cls(
            algorithm=row[0], scenario=row[1], detection_rate=float(row[2]),
            seed=int(row[3]), wait_all=_opt_float(row[4]),
            wait_detected=_opt_float(row[5]), wait_undetected=_opt_float(row[6]),
            episodes=int(row[7]),
        )


def read_sweep_csv(path) -> list[SweepRecord]:
    header, rows = read_csv(path)
    if header != SWEEP_HEADER:
        raise ValueError(f"unexpected sweep CSV header {header}")
    return [SweepRecord.from_row(r) for r in rows]


def _grouped(pairs) -> dict:
    """The values of ``(key, value)`` pairs grouped by key, the keys in
    sorted order and each key's values in the order given."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: groups[key] for key in sorted(groups)}


# ---------------------------------------------------------------------------
# grid cells
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    """One grid cell's outcome, the result type of every grid command.
    ``checkpoint`` is the path the cell wrote or read, unset if it raised;
    ``error`` is its one-line error; ``output`` is what the cell returned:
    its ``SweepRecord`` in ``sweep``, its ``DeploymentResult`` in
    ``adapt``."""

    algorithm: str
    rate: float
    seed: int
    checkpoint: str | None = None
    error: str | None = None
    output: SweepRecord | DeploymentResult | None = None


def _run_cell(worker, spec: ExperimentSpec, cell: tuple[str, float, int],
              *args) -> CellResult:
    """Run ``worker(spec, checkpoint_path, *cell, *args)``, the one place a
    cell's error is caught: every ``Exception`` it raises becomes the
    cell's one-line error, the type name and then the message, so one bad
    cell never ends the grid. A deployment that aborted is an errored cell
    that keeps its output."""
    algorithm, rate, seed = cell
    path = os.path.join(spec.out_dir, "checkpoints",
                        checkpoint_name(algorithm, spec.scenario, rate, seed))
    try:
        output = worker(spec, path, *cell, *args)
    except Exception as exc:
        return CellResult(*cell, error=f"{type(exc).__name__}: {exc}")
    error = (output.failure_message if isinstance(output, DeploymentResult)
             else None)
    return CellResult(*cell, checkpoint=path, error=error, output=output)


def _run_cells(worker, spec: ExperimentSpec, cells, *args) -> list[CellResult]:
    """``_run_cell`` over ``cells`` in order: in this process, or in a pool
    of ``spec.workers`` processes; the results are the same either way."""
    jobs = [(worker, spec, cell, *args) for cell in cells]
    if spec.workers <= 1 or len(jobs) <= 1:
        return [_run_cell(*job) for job in jobs]
    # imported here: the pool machinery (multiprocessing and its helpers)
    # costs every import of this module about 15 ms, and only a run with
    # several workers needs it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=spec.workers) as pool:
        futures = [pool.submit(_run_cell, *job) for job in jobs]
        return [f.result() for f in futures]


def _load_cell_agent(spec: ExperimentSpec, path: str, algorithm: str) -> Agent:
    """The agent of a cell's checkpoint at ``path``, the one checkpoint
    reader of ``sweep`` and ``adapt``. A missing file is a
    ``FileNotFoundError`` naming it; a checkpoint is refused unless it
    holds every value the spec's [agent] sets: scoring or deploying it
    would drop that value without a word."""
    try:
        agent = load_agent(path, expected_algorithm=algorithm)
    except FileNotFoundError:
        raise FileNotFoundError(f"missing checkpoint {path}") from None
    for key, value in spec.agent.items():
        held = getattr(agent.config, key)
        if held != value:
            raise ValueError(f"[agent] {key} = {value!r}, but checkpoint "
                             f"{path} holds {held!r}; train the cell again")
    return agent


# ---------------------------------------------------------------------------
# command: train
# ---------------------------------------------------------------------------

def _train_cell(spec: ExperimentSpec, path: str, algorithm: str, rate: float,
                seed: int) -> None:
    curve_dir = os.path.join(spec.out_dir, "curves")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    os.makedirs(curve_dir, exist_ok=True)
    env_cfg = build_env_config(spec.scenario, rate, seed,
                               episode_length=spec.episode_length)
    agent = make_agent(spec.agent_config(algorithm, seed),
                       env_cfg.observation_size)
    env = TrafficSignalEnv(env_cfg, seed=seed)
    curve = train_agent(agent, env, spec.steps_for(algorithm))
    save_agent(agent, path)
    name = os.path.basename(path)[:-5]
    emit_csv(os.path.join(curve_dir, f"train_{name}.csv"), CURVE_HEADER,
             map(astuple, curve))


def cmd_train(spec: ExperimentSpec) -> list[CellResult]:
    """Train one agent per grid cell and save its checkpoint and learning
    curve; a failed cell is an errored result and the rest continue."""
    return _run_cells(_train_cell, spec, spec.cells())


# ---------------------------------------------------------------------------
# command: sweep
# ---------------------------------------------------------------------------

def _sweep_cell(spec: ExperimentSpec, path: str, algorithm: str, rate: float,
                seed: int) -> SweepRecord:
    agent = _load_cell_agent(spec, path, algorithm)
    env_cfg = build_env_config(spec.scenario, rate, seed + 10_000,
                               episode_length=spec.episode_length)
    stats = evaluate_agent(agent, env_cfg, spec.eval_episodes,
                           seed=seed + 10_000)
    return SweepRecord(
        algorithm=algorithm, scenario=spec.scenario, detection_rate=rate,
        seed=seed, wait_all=stats.wait_all, wait_detected=stats.wait_detected,
        wait_undetected=stats.wait_undetected, episodes=stats.episodes)


def cmd_sweep(spec: ExperimentSpec
              ) -> tuple[list[SweepRecord], list[CellResult]]:
    """Evaluate each trained cell at its detection rate; emit the sweep CSV,
    a cross-seed summary, and one waiting-time chart per algorithm. Returns
    the records of the cells that ran and every cell's result."""
    results = _run_cells(_sweep_cell, spec, spec.cells())
    records = [r.output for r in results if r.output is not None]
    os.makedirs(spec.out_dir, exist_ok=True)
    emit_csv(os.path.join(spec.out_dir, "sweep.csv"), SWEEP_HEADER,
             map(astuple, records))
    _write_sweep_summary(spec, records)
    _write_sweep_charts(spec, records)
    return records, results


def _write_sweep_summary(spec: ExperimentSpec,
                         records: list[SweepRecord]) -> None:
    header = ["algorithm", "scenario", "detection_rate", "wait_all_mean",
              "wait_all_std", "seeds"]
    rows = []
    for key, waits in _grouped(((r.algorithm, r.scenario, r.detection_rate),
                                r.wait_all) for r in records).items():
        values = [w for w in waits if w is not None]
        rows.append([
            *key,
            float(np.mean(values)) if values else None,
            float(np.std(values)) if len(values) > 1 else None,
            len(waits),
        ])
    emit_csv(os.path.join(spec.out_dir, "sweep_summary.csv"), header, rows)


def _write_sweep_charts(spec: ExperimentSpec,
                        records: list[SweepRecord]) -> None:
    for algorithm, recs in _grouped((r.algorithm, r) for r in records).items():
        series = []
        for label in ("all", "detected", "undetected"):
            per_rate = _grouped(
                (r.detection_rate, wait) for r in recs
                if (wait := getattr(r, f"wait_{label}")) is not None)
            if per_rate:
                series.append(Series(
                    label=label, xs=list(per_rate),
                    ys=[float(np.mean(v)) for v in per_rate.values()]))
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

def _adapt_cell(spec: ExperimentSpec, path: str, algorithm: str, rate: float,
                seed: int, deploy: DeploymentConfig) -> DeploymentResult:
    agent = _load_cell_agent(spec, path, algorithm)
    env_cfg = build_env_config(spec.scenario, rate, seed,
                               episode_length=spec.episode_length)
    result = run_deployment(agent, env_cfg, deploy, seed=seed + 50_000)
    emit_csv(os.path.join(spec.out_dir, f"timeline_{algorithm}_s{seed}.csv"),
             TIMELINE_HEADER, map(astuple, result.timeline))
    return result


def check_adapt_rates(spec: ExperimentSpec, deploy: DeploymentConfig) -> None:
    """Refuse ``rates`` that train no checkpoint at the schedule's first
    rate, which every adapt cell loads, with a ValueError."""
    def name(rate: float) -> str:
        return checkpoint_name(spec.algorithms[0], spec.scenario, rate,
                               spec.seeds[0])

    first = name(deploy.schedule.breakpoints[0][1])
    if all(name(rate) != first for rate in spec.rates):
        tag = first.split("_")[-2]  # the name's rate part, "r1.00"
        raise ValueError(f"rates {spec.rates} train no {tag} checkpoint, "
                         f"which the schedule's first rate loads")


def cmd_adapt(spec: ExperimentSpec, deploy: DeploymentConfig
              ) -> list[CellResult]:
    """Deploy each pre-trained agent on the drifting-detection schedule;
    emit per-run timelines, an instability summary, and a comparison chart.
    A cell is (algorithm, the schedule's first rate, seed): it loads that
    rate's checkpoint. ``check_adapt_rates`` refuses the grid before any
    file is written. An aborted deployment still writes its timeline, and
    its failure message is the cell's error."""
    check_adapt_rates(spec, deploy)
    os.makedirs(spec.out_dir, exist_ok=True)
    cells = replace(spec, rates=[deploy.schedule.breakpoints[0][1]]).cells()
    results = _run_cells(_adapt_cell, spec, cells, deploy)
    emit_csv(os.path.join(spec.out_dir, "adapt_summary.csv"),
             ["algorithm", "seed", "instability_flags", "aborted", "error"],
             [[r.algorithm, r.seed,
               r.output.instability_flags if r.output else 0,
               r.error is not None, r.error] for r in results])
    _write_adapt_chart(spec, results)
    return results


def _write_adapt_chart(spec: ExperimentSpec,
                       results: list[CellResult]) -> None:
    """One series per algorithm, in sorted order: each step's mean
    ``wait_all`` over the seeds' timelines, skipping windows with no
    exits. The timelines are read in memory; their CSV round trip is
    exact."""
    series = []
    for algorithm, runs in _grouped((r.algorithm, r) for r in results).items():
        per_step = _grouped(
            (point.step, point.wait_all) for res in runs
            if res.output is not None
            for point in res.output.timeline if point.wait_all is not None)
        if per_step:
            series.append(Series(
                label=algorithm, xs=[float(x) for x in per_step],
                ys=[float(np.mean(v)) for v in per_step.values()]))
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
    the checkpoint and environment disagree on the observation layout.
    A bad ``seed``, ``scenario``, ``detection_rate`` or ``episodes``, and an
    ``out_path`` that names a directory or lies in none, are refused with
    a ValueError before the checkpoint is read."""
    check_seed(seed)
    env_cfg = build_env_config(scenario, detection_rate, seed,
                               episode_length=episode_length)
    _check_episodes(episodes)
    if out_path and os.path.isdir(out_path):
        raise ValueError(f"output path {out_path} is a directory")
    if out_path and not os.path.isdir(os.path.dirname(out_path) or "."):
        raise ValueError(f"output path {out_path} is in no existing directory")
    agent = load_agent(checkpoint)
    stats = evaluate_agent(agent, env_cfg, episodes, seed=seed)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"checkpoint": checkpoint, "scenario": scenario,
                       "detection_rate": detection_rate, "seed": seed,
                       **stats.to_json_dict()}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return stats
