"""rallycast benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repetition runs in a fresh process
(perfbench/worker.py), one after another, until the next one would end past
--seconds; repeats in one process drift as the heap grows. Each metric is
the median over repetitions. Between repetitions the runner times a fixed
reference (calibrate.py) and rescales each repetition's set-up time and
throughput to the reference's nominal time, so that the shared host's drifting
speed does not show as a change in the program. With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 repetitions
alternate traced and untraced, and it holds the per-layer metrics plus the
tracing overhead.

The run record (machine, every repetition, the metrics) goes to
perfbench/out/<workload>-seed<N>-trace<T>.json and the spans of the last
traced repetition to perfbench/out/spans-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, reference_s
from checks import check_repeat_losses

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("train-corpus32", "forecast-long", "ingest-score")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio", "items_per_s": "items/s", "quality": "loss"}
# every per-layer metric as (name, unit, better), in the order BENCHMARK.json
# lists them; train-corpus32 reports per epoch, the other workloads per run
PER_LAYER = [
    ("training.train.ms", "ms", "lower"),
    ("training.train.self_ms", "ms", "lower"),
    ("training.epoch_ms.p50", "ms", "lower"),
    ("training.epoch_ms.p90", "ms", "lower"),
    ("network.forward_teacher_forced.ms", "ms", "lower"),
    ("network.forward_teacher_forced.calls", "count", "lower"),
    ("network.embed_strokes.ms", "ms", "lower"),
    ("network.encode_contexts.ms", "ms", "lower"),
    ("network.fuse_contexts.ms", "ms", "lower"),
    ("network.prediction_heads.ms", "ms", "lower"),
    ("training.step_loss.ms", "ms", "lower"),
    ("autodiff.backward.ms", "ms", "lower"),
    ("autodiff.tape_nodes_per_target", "nodes/target", "lower"),
    ("training.Adam.step.ms", "ms", "lower"),
    ("runtime.gc_pause_ms", "ms", "lower"),
    ("runtime.gc_collections.gen0", "count", "lower"),
    ("runtime.gc_collections.gen1", "count", "lower"),
    ("runtime.gc_collections.gen2", "count", "lower"),
    ("scoring.generate_sample_sets.ms", "ms", "lower"),
    ("scoring.generate_suffix.calls", "count", "lower"),
    ("scoring.generate_suffix.self_ms", "ms", "lower"),
    ("network.forward_positions.calls", "count", "lower"),
    ("network.forward_positions.ms", "ms", "lower"),
    ("network.forward_positions.strokes_in", "count", "lower"),
    ("network.forward_positions.useful_ratio", "ratio", "higher"),
    ("scoring.export_predictions.ms", "ms", "lower"),
    ("scoring.import_predictions.ms", "ms", "lower"),
    ("scoring.score_sample_sets.ms", "ms", "lower"),
    ("dataset.synthesize_dataset.ms", "ms", "lower"),
    ("dataset.write_dataset.ms", "ms", "lower"),
    ("dataset.parse_dataset.ms", "ms", "lower"),
    ("dataset.parse_dataset.rows_rejected", "count", "lower"),
    ("court.validate_rally.ms", "ms", "lower"),
    ("court.validate_rally.violations", "count", "lower"),
    ("dataset.filter_training.ms", "ms", "lower"),
    ("dataset.split.ms", "ms", "lower"),
    ("analysis.shot_distribution.ms", "ms", "lower"),
    ("court.coord_to_zone.calls", "count", "lower"),
    ("analysis.predicted_type_vote.ms", "ms", "lower"),
    ("analysis.landing_zone_distribution.ms", "ms", "lower"),
    ("analysis.round_trend.ms", "ms", "lower"),
    ("analysis.mean_probability.ms", "ms", "lower"),
    ("workload.train_ms_per_epoch", "ms", "lower"),
    ("workload.train_loss_last", "nats", "lower"),
    ("workload.predict_strokes_per_s", "strokes/s", "higher"),
    ("workload.ingest_rows_per_s", "rows/s", "higher"),
    ("workload.score_rows_per_s", "rows/s", "higher"),
    ("trace.accounted_frac", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("machine.reference_ms", "ms", "lower"),
]

REQUIRED_FILES = ("src/rallycast/__init__.py", "fixtures/corpus32.csv", "fixtures/configs/overfit.cfg")

MIN_REPETITIONS = {0: 3, 1: 4}  # trace 1 needs two traced and two untraced
MAX_REPETITIONS = 40
DEADLINE_S = 165  # the whole run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def run_one(workload: str, seed: int, traced: bool, workdir: Path, timeout: float) -> dict:
    """Spawn one repetition; returns its record, or one with an "error" key."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--traced", str(int(traced)), "--workdir", str(workdir),
    ]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {timeout:.0f} s", "wall_s": time.monotonic() - spawned}
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": traced, "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}", "wall_s": wall}
    record = json.loads(lines[-1])
    record.update(traced=traced, wall_s=wall, setup_s=record["first_op"] - spawned)
    return record


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def failures(reps: list[dict]) -> list[str]:
    """One message per failed repetition: crashed, or failing an output check."""
    out = []
    first_losses = next((r["losses"] for r in reps if "error" not in r), None)
    for i, r in enumerate(reps):
        if "error" in r:
            out.append(f"repetition {i} failed: {r['error']}")
            continue
        checks = r["checks"] + [check_repeat_losses(r["losses"], first_losses)]
        bad = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
        if bad:
            out.append(f"repetition {i}: " + "; ".join(bad))
    return out


def speed(rep: dict) -> float:
    """How much faster than nominal the machine ran around this repetition."""
    return NOMINAL_S / rep["reference_s"]


def rate(rep: dict) -> float:
    """Items per second, rescaled to the nominal machine speed."""
    return rep["items"] / rep["seconds"] / speed(rep)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median([r["setup_s"] * speed(r) for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "items_per_s": median([rate(r) for r in reps]),
        "quality": median([r["quality"] for r in reps]),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, dict]:
    names = [name for name, _, _ in PER_LAYER]
    values = {name: median([r["layers"].get(name, 0.0) for r in traced]) for name in names}
    for name in names:
        if name.startswith("workload."):
            key = name.removeprefix("workload.")
            values[name] = median([r["figures"][key] for r in untraced if key in r["figures"]])
    epoch_ms = [ms for r in untraced for ms in r["epoch_ms"]]
    values["training.epoch_ms.p50"] = median(epoch_ms)
    values["training.epoch_ms.p90"] = percentile(epoch_ms, 90)
    rate_untraced = median([rate(r) for r in untraced])
    rate_traced = median([rate(r) for r in traced])
    values["trace.overhead_pct"] = 100.0 * (rate_untraced / rate_traced - 1.0) if rate_traced else 0.0
    values["machine.reference_ms"] = 1000.0 * median([r["reference_s"] for r in traced + untraced])
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [f for f in REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a rallycast checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    started = time.monotonic()
    reps: list[dict] = []
    reference_before = reference_s()
    try:
        while len(reps) < MAX_REPETITIONS:
            elapsed = time.monotonic() - started
            expected = max((r["wall_s"] for r in reps), default=0.0) + reference_before
            if len(reps) >= MIN_REPETITIONS[args.trace] and elapsed + expected > args.seconds:
                break
            if reps and elapsed + expected > DEADLINE_S:
                break
            traced = bool(args.trace) and len(reps) % 2 == 0
            rep = run_one(args.workload, args.seed, traced, workdir, DEADLINE_S - elapsed)
            reference_after = reference_s()
            rep["reference_s"] = (reference_before + reference_after) / 2
            reference_before = reference_after
            reps.append(rep)
            if "error" in rep:
                status = rep["error"].splitlines()[-1]
            else:
                status = f"{rep['items'] / rep['seconds']:.1f} items/s, reference {rep['reference_s']:.3f} s"
            print(f"repetition {len(reps) - 1}{' traced' if traced else ''}: {rep['wall_s']:.2f} s, {status}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [r for r in reps if "error" not in r]
    if not done:
        print("error: every repetition failed", file=sys.stderr)
        for msg in failures(reps):
            print(msg, file=sys.stderr)
        return 1
    failed = failures(reps)
    for msg in failed:
        print(f"FAILED {msg}")

    untraced = [r for r in done if not r["traced"]]
    if args.trace:
        traced = [r for r in done if r["traced"]]
        metrics = per_layer(traced, untraced)
    else:
        values = end_to_end(untraced)
        values["ok_frac"] = (len(reps) - len(failed)) / len(reps)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        for key in sorted({k for r in untraced for k in r["figures"]}):
            print(f"{key} = {median([r['figures'][key] for r in untraced]):.6g}")
        raw_rate = median([r["items"] / r["seconds"] for r in untraced])
        raw_setup = median([r["setup_s"] for r in untraced])
        reference = median([r["reference_s"] for r in untraced])
        print(f"uncalibrated: items_per_s = {raw_rate:.6g}, setup_s = {raw_setup:.6g}")
        print(f"reference = {reference:.4f} s, nominal {NOMINAL_S} s")

    info = {**machine(), **done[0]["machine"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": info, "failures": failed, "metrics": metrics, "repetitions": reps,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(
        f"machine: nproc {info['nproc']}, {info['cpu_model']}, python {info['python']}, numpy {info['numpy']}, "
        f"PYTHONHASHSEED {info['PYTHONHASHSEED']}, threads {info['thread_env']}"
    )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not failed, "attempted": len(reps), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
