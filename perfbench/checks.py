"""Output checks; each returns (name, passed, detail) tuples.

They are pure functions of the workload outputs so the benchmark's own test
can feed them deliberately corrupted outputs.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

Check = tuple[str, bool, str]

PROB_SUM_TOL = 1e-6
FRACTION_SUM_TOL = 1e-9


def check_train_losses(losses: list[float], expected_epochs: int) -> list[Check]:
    n = len(losses)
    finite = all(math.isfinite(v) for v in losses)
    return [
        ("one loss per epoch", n == expected_epochs, f"{n} epoch losses for {expected_epochs} epochs"),
        ("every epoch loss finite", finite, f"losses {losses}"),
        (
            "last epoch loss below the first",
            n > 1 and finite and losses[-1] < losses[0],
            f"first {losses[0] if losses else None}, last {losses[-1] if losses else None}",
        ),
    ]


def check_repeat_losses(losses: list[float], reference: list[float]) -> Check:
    """Per-epoch losses must be identical across repetitions of the same code and inputs."""
    return ("epoch losses identical across repetitions", losses == reference, f"{losses} vs {reference}")


def check_forecast(sets, pred, rallies, vocab, report, in_memory, n_sets: int, tau: int) -> list[Check]:
    serve = set(vocab.serve_ids)
    expected_rows = n_sets * sum(len(r) - tau for r in rallies)
    imported = [g for per_sample in pred.rows.values() for suffix in per_sample.values() for g in suffix]
    generated = [g for one in sets for suffix in one for g in suffix]
    bad_sums = sum(abs(float(np.sum(g.type_probs)) - 1.0) > PROB_SUM_TOL for g in imported + generated)
    serve_drawn = sum(g.type_id in serve for g in generated)
    serve_mass = sum(float(g.type_probs[s]) != 0.0 for g in imported + generated for s in serve)
    same = report.score == in_memory.score and report.sample_losses == in_memory.sample_losses
    return [
        ("re-imported row count", len(imported) == expected_rows, f"{len(imported)} rows, expected {expected_rows}"),
        ("probability rows sum to 1", bad_sums == 0, f"{bad_sums} rows off by more than {PROB_SUM_TOL}"),
        (
            "no service type after the prefix",
            serve_drawn == 0 and serve_mass == 0,
            f"{serve_drawn} service draws, {serve_mass} nonzero service probabilities",
        ),
        (
            "file score equals in-memory score bit for bit",
            same,
            f"file {report.score!r} {report.sample_losses}, memory {in_memory.score!r} {in_memory.sample_losses}",
        ),
    ]


def check_distribution_tables(tables, zones, trend, means) -> list[Check]:
    """Every table's fractions sum to 1 per group."""
    off: list[str] = []
    for table in tables:
        sums: dict[str, float] = defaultdict(float)
        for row in table.rows:
            sums[row.key] += row.fraction
        off += [f"{table.group_key}={k}: {s!r}" for k, s in sums.items() if abs(s - 1.0) > FRACTION_SUM_TOL]
    if abs(sum(zones.fractions.values()) - 1.0) > FRACTION_SUM_TOL:
        off.append(f"zones: {sum(zones.fractions.values())!r}")
    for r, row_sum in zip(trend.rounds, trend.matrix.sum(axis=1)):
        if abs(row_sum - 1.0) > FRACTION_SUM_TOL:
            off.append(f"trend round {r}: {row_sum!r}")
    if abs(sum(means.values()) - 1.0) > FRACTION_SUM_TOL:
        off.append(f"mean probability: {sum(means.values())!r}")
    return [("distribution fractions sum to 1 per group", not off, "; ".join(off[:5]))]


def check_min_of_sets(report) -> Check:
    above = [l for l in report.sample_losses if report.min_of_sets > l]
    return ("min_of_sets at most every l_i", not above, f"min_of_sets {report.min_of_sets!r} above {above}")
