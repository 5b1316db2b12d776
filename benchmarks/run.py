"""trafficlab benchmark: one seeded workload per process, closed loop.

    python3 benchmarks/run.py --workload eval_dense --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

The program is imported from ``src/`` of the checkout the script sits in.
Each workload drives env and agents synchronously, one step at a time.
With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a run with timing wrappers installed. A full record of the run (machine,
digest of the seeded outputs, raw and normalised timings) goes to
``.bench_results/``. The exit status is non-zero when a correctness
check fails. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from hostspeed import NOMINAL_REF_S, HostClock  # noqa: E402
from layers import layer_metrics, metric_units  # noqa: E402
from spans import Tracer, installed  # noqa: E402

WORKLOAD_NAMES = ("train_sparse", "eval_dense", "adapt_medium", "grid_small")
END_TO_END = {
    "setup_s": "s",
    "train_sps.dql": "steps/s",
    "train_sps.ppo": "steps/s",
    "train_sps.a2c": "steps/s",
    "train_sps.acktr": "steps/s",
    "eval_sps.fixed_time": "steps/s",
    "eval_sps.ppo": "steps/s",
    "adapt_sps.ppo": "steps/s",
    "adapt_sps.acktr": "steps/s",
    "grid_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9
RUN_SECONDS = 20.0  # run_seconds of BENCHMARK.json


def machine_record() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure_setup(workload: str, seed: int, seconds: float) -> list[float]:
    """Normalised set-up seconds of ``SETUP_REPEATS`` fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed), f"{seconds:g}"],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"] * NOMINAL_REF_S / probe["ref_s"])
    return times


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    # imports trafficlab, so only once the sources are known to be there
    from workloads import (
        WORKLOADS,
        CheckFailed,
        assert_conserved,
        captured_envs,
        chunk_schedule,
        digest_of,
        make_phases,
    )

    machine = machine_record()
    setup = measure_setup(workload, seed, seconds)
    primary = WORKLOADS[workload]
    work_dir = ROOT / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    phases = make_phases(workload, seed, seconds, str(work_dir))
    samples = {p.metric: [] for p in phases}  # (normalised, wall, traced)
    outputs = {p.name: [] for p in phases}
    digests: dict[str, str] = {}
    failure = None
    clock = HostClock()

    def run_chunk(phase, index, traced):
        if tracer is not None:
            tracer.set_phase(phase.name)
        with installed(tracer) if traced else nullcontext():
            out, wall, norm = clock.time(phase.chunk, index,
                                         tracer if traced else None)
        outputs[phase.name].append(phase.collect(out))
        for env in envs:
            assert_conserved(env)
        envs.clear()
        return wall, norm

    try:
        with captured_envs() as envs:
            for phase in phases:
                phase.start()
                for index in range(phase.warmup_chunks):
                    run_chunk(phase, index, traced=False)
            for i, k in chunk_schedule([p.chunks for p in phases]):
                phase = phases[i]
                # the own group alternates traced and untraced chunks,
                # which gives the tracing overhead
                traced = tracer is not None and (
                    phase.group != primary or k % 2 == 1)
                wall, norm = run_chunk(phase, phase.warmup_chunks + k, traced)
                samples[phase.metric].append((norm, wall, traced))
            if tracer is not None:
                tracer.set_phase("checks")
            with installed(tracer) if tracer is not None else nullcontext():
                for phase in phases:
                    final = phase.finish()
                    digests[phase.name] = digest_of(
                        {"chunks": outputs[phase.name], "final": final})
    except CheckFailed as exc:
        failure = str(exc)
    finally:
        for phase in phases:
            phase.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    for phase in phases:
        runs = [r for r in samples[phase.metric] if not r[2]]
        if not runs:
            metrics[phase.metric] = raw[phase.metric] = 0.0
            continue
        norm = median([r[0] for r in runs])
        wall = median([r[1] for r in runs])
        if phase.steps_per_chunk:
            metrics[phase.metric] = phase.steps_per_chunk / norm
            raw[phase.metric] = phase.steps_per_chunk / wall
        else:
            metrics[phase.metric] = norm
            raw[phase.metric] = wall
    metrics["setup_s"] = median(setup)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if tracer is not None:
        ratios = []
        for phase in phases:
            runs = samples[phase.metric]
            on = [r[0] for r in runs if r[2]]
            off = [r[0] for r in runs if not r[2]]
            if phase.group == primary and on and off:
                ratios.append(median(on) / median(off))
        reported = layer_metrics(tracer, primary,
                                 median(ratios) if ratios else 0.0)
    else:
        reported = {name: metrics[name] for name in END_TO_END}

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine,
        "correct": failure is None,
        "failure": failure,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "digest": digest_of(digests),
        "phase_digests": digests,
        "chunk_samples": samples,
        "setup_samples_s": setup,
        "end_to_end_wall": raw,
        "metrics": reported,
        "tracer": tracer,
    }


def write_record(result: dict) -> Path:
    """Write the run record, and the spans of a traced run, once."""
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = (f"{result['workload']}-seed{result['seed']}"
            f"-trace{int(result['trace'])}")
    tracer = result.pop("tracer")
    if tracer is not None:
        np.savez_compressed(
            out_dir / f"{stem}-spans.npz", names=np.array(tracer.names),
            phases=np.array(tracer.phases), name=np.array(tracer.name),
            start=np.array(tracer.start), end=np.array(tracer.end),
            parent=np.array(tracer.parent),
            phase=np.array(tracer.span_phase), count=np.array(tracer.count))
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def report(result: dict, units: dict[str, str]) -> dict:
    """Print the run's metrics by name and unit; return the result line."""
    machine = result["machine"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"seconds {result['seconds']:g} trace {int(result['trace'])}")
    print(f"machine: nproc {machine['nproc']}, {machine['cpu_model']}, "
          f"python {machine['python']}, numpy {machine['numpy']}, "
          f"blas {machine['blas'].get('name')} {machine['blas'].get('version')}"
          f", load {machine['loadavg_at_start'][0]:.2f}")
    for name, value in result["metrics"].items():
        wall = result["end_to_end_wall"].get(name)
        extra = f"  (wall clock {wall:.6g})" if wall is not None and not result["trace"] else ""
        print(f"{name} = {value:.6g} {units[name]}{extra}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"error_rate = {rate:.6g} ({result['failed']} of "
          f"{result['attempted']} operations failed)")
    print(f"digest {result['digest']}")
    print("correct" if result["correct"] else f"CHECK FAILED: {result['failure']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh interpreter, one after another."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return status or 1
        line = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trafficlab" / "__init__.py").is_file():
        print(f"trafficlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    units = metric_units() if args.trace else END_TO_END
    record = write_record(result)
    line = report(result, units)
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
