"""Per-layer spans: which library functions are wrapped, and the per-layer metrics.

Functions are wrapped at the module attribute their caller looks up, so
`training.train` sees the wrapped `forward_teacher_forced`, and
`Forecaster.forward_positions` sees the wrapped `embed_strokes`.
"""

from __future__ import annotations

from rallycast import analysis, autodiff, court, dataset, network, scoring, training

from tracer import Tracer

# (span name, object whose attribute is looked up, attribute)
SPANS = [
    ("training.train", training, "train"),
    ("network.forward_teacher_forced", training, "forward_teacher_forced"),
    ("training.step_loss", training, "step_loss"),
    ("training.Adam.step", getattr(training, "Adam", None), "step"),
    ("network.embed_strokes", network, "embed_strokes"),
    ("network.encode_contexts", network, "encode_contexts"),
    ("network.fuse_contexts", network, "fuse_contexts"),
    ("network.prediction_heads", network, "prediction_heads"),
    ("scoring.generate_sample_sets", scoring, "generate_sample_sets"),
    ("scoring.generate_suffix", scoring, "generate_suffix"),
    ("scoring.export_predictions", scoring, "export_predictions"),
    ("scoring.import_predictions", scoring, "import_predictions"),
    ("scoring.score_sample_sets", scoring, "score_sample_sets"),
    ("dataset.synthesize_dataset", dataset, "synthesize_dataset"),
    ("dataset.write_dataset", dataset, "write_dataset"),
    ("dataset.filter_training", dataset, "filter_training"),
    ("dataset.split", dataset, "split"),
    ("analysis.shot_distribution", analysis, "shot_distribution"),
    ("analysis.predicted_type_vote", analysis, "predicted_type_vote"),
    ("analysis.landing_zone_distribution", analysis, "landing_zone_distribution"),
    ("analysis.round_trend", analysis, "round_trend"),
    ("analysis.mean_probability", analysis, "mean_probability"),
]

def _count_tape(tracer: Tracer, tape) -> None:
    tracer.counters["tape_nodes"] += len(tape)


def _count_history(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    strokes = kwargs["strokes"] if "strokes" in kwargs else args[1]
    tracer.counters["strokes_in"] += len(strokes)


def _count_rejects(tracer: Tracer, result) -> None:
    tracer.counters["rows_rejected"] += len(result[2])


def _count_violations(tracer: Tracer, result) -> None:
    tracer.counters["violations"] += len(result)


def install(tracer: Tracer) -> None:
    for name, owner, attr in SPANS:
        tracer.wrap(owner, attr, name)
    tracer.wrap(autodiff, "backward", "autodiff.backward", on_result=_count_tape)
    tracer.wrap(
        getattr(network, "Forecaster", None), "forward_positions", "network.forward_positions", on_call=_count_history
    )
    tracer.wrap(dataset, "parse_dataset", "dataset.parse_dataset", on_result=_count_rejects)
    tracer.wrap(court, "validate_rally", "court.validate_rally", on_result=_count_violations)
    tracer.wrap(analysis, "coord_to_zone", "court.coord_to_zone", span=False)


def summarize(tracer: Tracer, outcome) -> dict[str, float]:
    """Per-layer figures of one traced operation, per epoch or per run."""
    unit = outcome.per_unit
    out: dict[str, float] = {}
    for name, (inclusive, own) in tracer.totals().items():
        out[f"{name}.ms"] = 1000.0 * inclusive / unit
        out[f"{name}.self_ms"] = 1000.0 * own / unit
    for name, n in tracer.calls.items():
        out[f"{name}.calls"] = n / unit
    strokes_in = tracer.counters["strokes_in"]
    out["network.forward_positions.strokes_in"] = strokes_in / unit
    out["network.forward_positions.useful_ratio"] = outcome.useful_positions / strokes_in if strokes_in else 0.0
    out["autodiff.tape_nodes_per_target"] = tracer.counters["tape_nodes"] / outcome.targets if outcome.targets else 0.0
    out["dataset.parse_dataset.rows_rejected"] = tracer.counters["rows_rejected"] / unit
    out["court.validate_rally.violations"] = tracer.counters["violations"] / unit
    out["runtime.gc_pause_ms"] = 1000.0 * tracer.gc_pause_s / unit
    for gen in range(3):
        out[f"runtime.gc_collections.gen{gen}"] = tracer.gc_collections[gen] / unit
    out["trace.accounted_frac"] = tracer.top_level_s() / outcome.op_wall_s
    return out
