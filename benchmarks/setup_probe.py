"""Time one workload's set-up in a fresh interpreter.

    python3 benchmarks/setup_probe.py <workload> <seed> <seconds>

Set-up is everything up to the first timed step: imports, configs, env
and agent construction for the workload's own phases. Prints one JSON
line with the set-up seconds and the median reference-kernel seconds
measured right after, which ``run.py`` uses to normalise it.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    group = workloads.WORKLOADS[workload]
    own = [p for p in workloads.make_phases(workload, seed, seconds, "")
           if p.group == group]
    for phase in own:
        phase.start()
    setup_s = time.perf_counter() - START
    for phase in own:
        phase.close()

    from hostspeed import reference_seconds

    ref_s = reference_seconds()
    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))


if __name__ == "__main__":
    main()
