"""In-memory span recorder and the timing wrappers it installs around
trafficlab's layer boundaries, from outside ``src/``.

A span is one call of a wrapped function: its name, start, end, parent
span and the benchmark phase it ran in. Spans are appended to flat
arrays in start order, so a parent always precedes its children. The
wrappers are installed for the traced part of a run only and removed
afterwards; nothing is written until the run ends. Each thread keeps
its own stack of open spans, so a span's parent is always a span of the
same thread.
"""

from __future__ import annotations

import sys
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

NO_PARENT = -1


class _Stacks(threading.local):
    def __init__(self) -> None:
        self.stack = [NO_PARENT]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self.phase = NO_PARENT
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_phase = array("i")
        # vehicles on the road when a kinematics span opened, 0 elsewhere
        self.count = array("i")
        self._stacks = _Stacks()

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_phase(self, phase: str) -> None:
        if phase not in self.phases:
            self.phases.append(phase)
        self.phase = self.phases.index(phase)

    def record(self, name: str, start: float, end: float,
               parent: int = NO_PARENT, count: int = 0) -> int:
        """Append a finished span; used by tests to build synthetic trees."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.span_phase.append(self.phase)
        self.count.append(count)
        return idx

    def open(self, name: str) -> int:
        """Start a span in the current thread; later spans of the thread
        are its children until ``close``."""
        stack = self._stacks.stack
        idx = self.record(name, 0.0, 0.0, parent=stack[-1])
        stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stacks.stack.pop()

    def timed(self, fn, name: str | None = None, label=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        Or ``label(args)`` picks the span's name id and count per call,
        for wrappers whose name depends on the receiver or the input.
        """
        fixed = None if name is None else self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, phases, counts = self.parent, self.span_phase, self.count
        stacks = self._stacks

        def wrapper(*args, **kwargs):
            nid, count = (fixed, 0) if label is None else label(args)
            stack = stacks.stack
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            phases.append(self.phase)
            counts.append(count)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration minus the time direct children cover. A span's
        children run in its thread and nest, so they are disjoint."""
        durations = self.durations()
        own = list(durations)
        for idx, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                own[parent] -= durations[idx]
        return own


# ---------------------------------------------------------------------------
# layer boundaries
# ---------------------------------------------------------------------------

ENV_STAGES = {
    "signal_step": "sim.signal",
    "spawn_step": "sim.spawn",
    "kinematics_step": "sim.kinematics",
    "metrics_snapshot": "sim.metrics",
    "compute_reward": "env.reward",
    "build_observation": "env.observation",
}
# entry points by defining module; span name "<module>.<function>"
ENTRY_POINTS = {
    "harness": ("train_agent", "evaluate_agent", "cmd_train", "cmd_sweep",
                "cmd_adapt"),
    "adapt": ("run_deployment",),
    "agents": ("save_agent", "load_agent"),
}
ALGORITHMS = ("fixed_time", "dql", "ppo", "a2c", "acktr")


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper) for every layer boundary."""
    from trafficlab import adapt, agents, env, harness, nn

    targets = []
    for attr, name in ENV_STAGES.items():
        label = None
        if attr == "kinematics_step":
            kin = tracer.name_id(name)
            label = lambda args: (kin, args[0].vehicle_count())  # noqa: E731
        targets.append((env, attr, tracer.timed(getattr(env, attr), name,
                                                label=label)))
    for attr, name in (("step", "env.step"),
                       ("set_detection_rate", "env.set_detection_rate")):
        targets.append((env.TrafficSignalEnv, attr, tracer.timed(
            getattr(env.TrafficSignalEnv, attr), name)))

    for method in ("act", "update"):
        ids = {a: tracer.name_id(f"agents.{method}.{a}") for a in ALGORITHMS}
        label = lambda args, ids=ids: (ids[args[0].config.algorithm], 0)  # noqa: E731
        for cls in (agents.FixedTimeAgent, agents.DqlAgent, agents.PpoAgent,
                    agents.A2cAgent, agents.AcktrAgent):
            if method == "update" and cls is agents.FixedTimeAgent:
                continue  # never updates
            targets.append((cls, method, tracer.timed(
                getattr(cls, method), label=label)))

    single = tracer.name_id("nn.forward.single")
    batch = tracer.name_id("nn.forward.batch")
    targets.append((nn.Mlp, "forward", tracer.timed(
        nn.Mlp.forward,
        label=lambda args: (single if args[1].ndim == 1 else batch, 0))))
    targets.append((nn.Mlp, "backward",
                    tracer.timed(nn.Mlp.backward, "nn.backward")))
    for cls in (nn.SgdOptimizer, nn.AdamOptimizer):
        targets.append((cls, "step", tracer.timed(cls.step, "nn.optimizer")))
    for attr, name in (("update", "nn.kfac_update"),
                       ("precondition", "nn.kfac_precondition")):
        targets.append((nn.KfacStats, attr, tracer.timed(
            getattr(nn.KfacStats, attr), name)))

    for owner in (harness, adapt, agents):
        short = owner.__name__.rsplit(".", 1)[1]
        for attr in ENTRY_POINTS[short]:
            targets.append((owner, attr, tracer.timed(
                getattr(owner, attr), f"{short}.{attr}")))
    return targets


def _bindings(owner, attr):
    """Every place the object ``owner.attr`` must be replaced: the owner,
    plus each loaded trafficlab module that imported it by name."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        return [owner]
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "trafficlab" or name.startswith("trafficlab."))
            and vars(mod).get(attr) is original]


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the body of the ``with`` block; restore
    every original, also when the body raises."""
    saved = []  # (holder, attr, original value or None, was own attribute)
    try:
        for owner, attr, wrapper in _targets(tracer):
            for holder in _bindings(owner, attr):
                own = attr in vars(holder)
                saved.append((holder, attr, vars(holder).get(attr), own))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original, own in reversed(saved):
            if own:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
