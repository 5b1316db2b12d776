"""Per-layer metrics computed from the spans of one traced run.

Every run executes every phase, so every span name has samples. A
metric is computed over the spans of the workload's own phase group
("train", "eval", "adapt" or "grid") when that group has any, and over
all phases otherwise; the sample counts say how many calls it rests on.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

import numpy as np

from spans import ALGORITHMS, NO_PARENT, Tracer

LEARNERS = ("dql", "ppo", "a2c", "acktr")

# (metric, span name, unit scale) for per-call timings; each gives
# <metric>.p50, <metric>.p99 and <metric>.n
_CALL_TIMINGS = [
    ("sim.signal_us", "sim.signal", 1e6),
    ("sim.spawn_us", "sim.spawn", 1e6),
    ("sim.kinematics_us", "sim.kinematics", 1e6),
    ("sim.metrics_us", "sim.metrics", 1e6),
    ("env.reward_us", "env.reward", 1e6),
    ("env.observation_us", "env.observation", 1e6),
    *[(f"agents.act_us.{a}", f"agents.act.{a}", 1e6) for a in ALGORITHMS],
    *[(f"agents.update_ms.{a}", f"agents.update.{a}", 1e3) for a in LEARNERS],
    ("nn.forward_us.single", "nn.forward.single", 1e6),
    ("nn.forward_us.batch", "nn.forward.batch", 1e6),
    ("nn.backward_us", "nn.backward", 1e6),
    ("nn.optimizer_us", "nn.optimizer", 1e6),
    ("nn.kfac_update_us", "nn.kfac_update", 1e6),
    ("nn.kfac_precondition_us", "nn.kfac_precondition", 1e6),
    ("adapt.set_detection_rate_us", "env.set_detection_rate", 1e6),
    ("agents.checkpoint_save_ms", "agents.save_agent", 1e3),
    ("agents.checkpoint_load_ms", "agents.load_agent", 1e3),
]
# the same, over self time
_SELF_TIMINGS = [
    ("env.step_self_us", "env.step", 1e6),
    *[(f"agents.update_self_ms.{a}", f"agents.update.{a}", 1e3)
      for a in LEARNERS],
]
# (metric, window span) for a stepping loop's self time per env step;
# a window span is the part of the loop's one long call that a timed
# chunk ran (stepping.py)
_LOOP_SELF = [
    ("harness.train_loop_self_us_per_step", "loop.train_agent"),
    ("harness.eval_loop_self_us_per_step", "loop.evaluate_agent"),
    ("adapt.loop_self_us_per_step", "loop.run_deployment"),
]
_GRID_PHASES = [
    ("harness.train_phase_s", "harness.cmd_train"),
    ("harness.sweep_phase_s", "harness.cmd_sweep"),
    ("harness.adapt_phase_s", "harness.cmd_adapt"),
]
_ROOTS = ("loop.train_agent", "loop.evaluate_agent", "loop.run_deployment",
          "harness.cmd_train", "harness.cmd_sweep", "harness.cmd_adapt")


def _unit(scale: float) -> str:
    return {1e6: "us", 1e3: "ms"}[scale]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for metric, _, scale in _CALL_TIMINGS + _SELF_TIMINGS:
        units[f"{metric}.p50"] = _unit(scale)
        units[f"{metric}.p99"] = _unit(scale)
        units[f"{metric}.n"] = "count"
    units["sim.vehicles_on_road"] = "count"
    units["sim.kinematics_ns_per_vehicle"] = "ns"
    for algo in LEARNERS:
        units[f"agents.update_us_per_step.{algo}"] = "us"
        units[f"agents.updates_per_1k_steps.{algo}"] = "count"
        units[f"nn.forward_calls_per_update.{algo}"] = "count"
    for metric, _ in _LOOP_SELF:
        units[metric] = "us"
    for metric, _ in _GRID_PHASES:
        units[metric] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.unattributed_share"] = "ratio"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, primary: str,
                  overhead_ratio: float) -> dict[str, float]:
    durations = tracer.durations()
    own = tracer.self_times()
    group = [p.split(".")[0] for p in tracer.phases]
    names = [tracer.names[n] for n in tracer.name]
    parents = tracer.parent
    by_name: dict[str, list[int]] = defaultdict(list)
    for idx, name in enumerate(names):
        by_name[name].append(idx)

    def scoped(name: str) -> list[int]:
        spans = by_name.get(name, [])
        mine = [i for i in spans if tracer.span_phase[i] != NO_PARENT
                and group[tracer.span_phase[i]] == primary]
        return mine or spans

    def steps_under(loops: list[int]) -> int:
        inside = set(loops)
        return sum(1 for i in by_name.get("env.step", [])
                   if parents[i] in inside)

    out: dict[str, float] = {}
    for metric, name, scale in _CALL_TIMINGS:
        _percentiles(out, metric, [durations[i] * scale for i in scoped(name)])
    for metric, name, scale in _SELF_TIMINGS:
        _percentiles(out, metric, [own[i] * scale for i in scoped(name)])

    kin = scoped("sim.kinematics")
    vehicles = [tracer.count[i] for i in kin]
    out["sim.vehicles_on_road"] = _ratio(sum(vehicles), len(vehicles))
    out["sim.kinematics_ns_per_vehicle"] = _ratio(
        sum(durations[i] for i in kin) * 1e9, sum(vehicles))

    # nearest enclosing update span of every span (parents come first)
    update_ids = {tracer.name_id(f"agents.update.{a}") for a in LEARNERS}
    enclosing = [NO_PARENT] * len(names)
    for idx, parent in enumerate(parents):
        if tracer.name[idx] in update_ids:
            enclosing[idx] = idx
        elif parent != NO_PARENT:
            enclosing[idx] = enclosing[parent]
    forwards = defaultdict(int)
    for name in ("nn.forward.single", "nn.forward.batch"):
        for idx in by_name.get(name, []):
            if enclosing[idx] != NO_PARENT:
                forwards[enclosing[idx]] += 1

    for algo in LEARNERS:
        updates = scoped(f"agents.update.{algo}")
        phases = {tracer.span_phase[i] for i in updates}
        steps = sum(1 for i in by_name.get("env.step", [])
                    if tracer.span_phase[i] in phases)
        out[f"agents.update_us_per_step.{algo}"] = _ratio(
            sum(durations[i] for i in updates) * 1e6, steps)
        out[f"agents.updates_per_1k_steps.{algo}"] = _ratio(
            1000.0 * len(updates), steps)
        out[f"nn.forward_calls_per_update.{algo}"] = _ratio(
            sum(forwards[i] for i in updates), len(updates))

    for metric, name in _LOOP_SELF:
        loops = scoped(name)
        out[metric] = _ratio(sum(own[i] for i in loops) * 1e6,
                             steps_under(loops))
    for metric, name in _GRID_PHASES:
        spans = scoped(name)
        out[metric] = median([durations[i] for i in spans]) if spans else 0.0

    out["trace.overhead_ratio"] = overhead_ratio
    roots = [i for name in _ROOTS for i in scoped(name)
             if parents[i] == NO_PARENT]
    roots = [i for i in roots if group[tracer.span_phase[i]] == primary] or roots
    out["trace.unattributed_share"] = _ratio(
        sum(own[i] for i in roots), sum(durations[i] for i in roots))
    return out


def _percentiles(out: dict, metric: str, values: list[float]) -> None:
    out[f"{metric}.p50"] = float(np.quantile(values, 0.5)) if values else 0.0
    out[f"{metric}.p99"] = float(np.quantile(values, 0.99)) if values else 0.0
    out[f"{metric}.n"] = len(values)
