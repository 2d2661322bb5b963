"""One repetition of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --traced 0|1 --workdir DIR [--spans FILE]

Prints one JSON record on stdout: when the first timed operation started
(time.monotonic, which every process on the machine shares), what the
operation did, its output checks and, when traced, its per-layer figures.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def numpy_info() -> dict:
    info = {"numpy": np.__version__}
    try:
        config = np.show_config(mode="dicts")
        info["blas"] = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        info["blas"] = "unavailable"
    return info


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    VmHWM starts afresh at exec; ru_maxrss would carry over the spawning
    runner's own peak.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the traced spans here as JSON")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        layers.install(tracer)

    workload = WORKLOADS[args.workload](args.seed, workdir)

    setup_synth_s = 0.0
    if tracer is not None:
        setup_synth_s = tracer.totals().get("dataset.synthesize_dataset", (0.0, 0.0))[0]
        tracer.reset()
        tracer.start_gc()
    first_op = time.monotonic()
    workload.run()
    if tracer is not None:
        tracer.recording = False
        tracer.stop_gc()
    outcome = workload.finish()

    record = {
        "started": STARTED,
        "first_op": first_op,
        "items": outcome.items,
        "seconds": outcome.seconds,
        "quality": outcome.quality,
        "checks": outcome.checks,
        "figures": outcome.figures,
        "losses": [repr(v) for v in outcome.losses],
        "epoch_ms": outcome.epoch_ms,
        "peak_rss_mb": peak_rss_mb(),
        "machine": {"python": platform.python_version(), **numpy_info()},
    }
    if tracer is not None:
        figures = layers.summarize(tracer, outcome)
        figures["dataset.synthesize_dataset.ms"] = 1000.0 * setup_synth_s
        record["layers"] = figures
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans()), encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
