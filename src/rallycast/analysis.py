"""Descriptive tables over datasets and prediction files.

Everything here is pure and deterministic: empirical shot-type distributions
grouped by round, player, or court zone; majority voting over the six
per-stroke samples; landing-zone histograms; and per-round mean probability
trends suitable for comparing two embedding modes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .court import N_ZONES, CourtSpec, Player, Rally, ShotTypeVocab, coord_to_zones
from .scoring import PredictionFile, run_starts

GROUPINGS = ("ball_round", "player", "landing_zone", "player_location_zone")


@dataclass(frozen=True)
class DistRow:
    key: str
    type_name: str
    count: int
    fraction: float


@dataclass
class DistributionTable:
    group_key: str
    rows: list[DistRow]

    def fractions_by_group(self) -> dict[str, float]:
        sums: dict[str, float] = defaultdict(float)
        for row in self.rows:
            sums[row.key] += row.fraction
        return dict(sums)

    def write_csv(self, path: str | Path) -> None:
        lines = [f"{self.group_key},type,count,fraction"]
        for row in self.rows:
            lines.append(f"{row.key},{row.type_name},{row.count},{row.fraction!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _group_sort_key(group_key: str):
    if group_key in ("ball_round", "landing_zone", "player_location_zone"):
        return lambda k: (int(k), )
    return lambda k: (k, )


def shot_distribution(
    rallies: Sequence[Rally],
    group_by: str,
    vocab: ShotTypeVocab,
    court: CourtSpec | None = None,
) -> DistributionTable:
    """Empirical shot-type counts and fractions per group value.

    Zone groupings use the canonical frame: landings are zoned in the
    receiver's (high-y) half, hitter locations in the hitter's (low-y) half.
    """
    if group_by not in GROUPINGS:
        raise ValueError(f"group_by must be one of {GROUPINGS}, got {group_by!r}")
    court = court or CourtSpec()
    strokes = [s for r in rallies for s in r.strokes]
    if group_by == "ball_round":
        keys = [s.round_index for s in strokes]
    elif group_by == "player":
        keys = [r.name_of(s.player) for r in rallies for s in r.strokes]
    elif group_by == "landing_zone":
        keys = coord_to_zones([s.landing for s in strokes], court, Player.B).tolist()
    else:
        keys = coord_to_zones([s.player_location for s in strokes], court, Player.A).tolist()
    counts: dict[str, Counter[int]] = defaultdict(Counter)
    for key, s in zip(keys, strokes):
        counts[str(key)][s.shot_type] += 1
    rows: list[DistRow] = []
    sort_key = _group_sort_key(group_by)
    for key in sorted(counts, key=sort_key):
        total = sum(counts[key].values())
        for type_id in sorted(counts[key]):
            c = counts[key][type_id]
            rows.append(DistRow(key, vocab.name_of(type_id), c, c / total))
    return DistributionTable(group_by, rows)


@dataclass(frozen=True)
class VoteResult:
    rally_id: str
    ball_round: int
    type_id: int
    type_name: str
    votes: int


def _normalized(pred: PredictionFile) -> np.ndarray:
    """Every probability row divided by its sum (the file format quantizes them to six decimals)."""
    return pred.probs / pred.probs.sum(axis=1, keepdims=True)


def _running_sum(rows: np.ndarray) -> np.ndarray:
    """0.0 + rows[0] + rows[1] + ..., added in row order as a loop of += from zeros adds them.

    The + 0.0 turns a column of only negative zeros into 0.0, as that loop does.
    """
    return np.cumsum(rows, axis=0)[-1] + 0.0


def predicted_type_vote(pred: PredictionFile, vocab: ShotTypeVocab) -> tuple[list[VoteResult], DistributionTable]:
    """Majority vote over each stroke's per-sample argmax types.

    Ties break first by the type's probability summed across the samples,
    then by the lower type id. Probability rows are renormalized before use
    (the file format quantizes them to six decimals).
    """
    # a stroke is a (rally, round); its rows run by sample id, then in file order
    order = np.lexsort((pred.sample_ids, pred.rounds, pred.rally_index))
    vectors = _normalized(pred)[order]
    rally_index, rounds = pred.rally_index[order], pred.rounds[order]
    new = run_starts(rally_index, rounds)
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(order)))
    votes = np.zeros((len(starts), vocab.size), dtype=np.int64)
    np.add.at(votes, (np.cumsum(new) - 1, vectors.argmax(axis=1)), 1)
    summed = vectors[starts]  # summed left to right, one sample position at a time
    for j in range(1, int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > j)
        summed[live] += vectors[starts[live] + j]
    tied = votes == votes.max(axis=1, keepdims=True)
    mass = np.where(tied, summed, -np.inf)
    tied &= mass == mass.max(axis=1, keepdims=True)
    best = tied.argmax(axis=1)
    counts = votes[np.arange(len(best)), best].tolist()
    winners = [
        VoteResult(pred.rally_ids[r], ball_round, t, vocab.name_of(t), n)
        for r, ball_round, t, n in zip(rally_index[starts].tolist(), rounds[starts].tolist(), best.tolist(), counts)
    ]
    aggregate = np.bincount(best, minlength=vocab.size).tolist()
    total = len(winners)
    rows = [DistRow("all", vocab.name_of(t), c, c / total) for t, c in enumerate(aggregate) if c]
    return winners, DistributionTable("final_type", rows)


@dataclass
class ZoneHistogram:
    counts: dict[int, int]  # zone 1..10, all zones present
    fractions: dict[int, float]

    def write_csv(self, path: str | Path) -> None:
        lines = ["landing_zone,count,fraction"]
        for zone in range(1, N_ZONES + 1):
            lines.append(f"{zone},{self.counts[zone]},{self.fractions[zone]!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def landing_zone_distribution(pred: PredictionFile, court: CourtSpec | None = None) -> ZoneHistogram:
    """Zone histogram over every sample of every predicted stroke."""
    court = court or CourtSpec()
    zones = coord_to_zones(pred.landings, court, Player.B)
    total = len(zones)
    if total == 0:
        raise ValueError("prediction file has no strokes")
    counts = dict(enumerate(np.bincount(zones, minlength=N_ZONES + 1)[1:].tolist(), start=1))
    return ZoneHistogram(counts, {z: c / total for z, c in counts.items()})


@dataclass
class RoundTrend:
    """Mean predicted probability per type at each ball round."""

    rounds: list[int]
    type_names: list[str]
    matrix: np.ndarray  # (n_rounds, V), rows sum to 1

    def write_csv(self, path: str | Path) -> None:
        header = "ball_round," + ",".join(n.replace(" ", "_") for n in self.type_names)
        lines = [header]
        for i, r in enumerate(self.rounds):
            lines.append(f"{r}," + ",".join(repr(float(v)) for v in self.matrix[i]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def round_trend(pred: PredictionFile, vocab: ShotTypeVocab) -> RoundTrend:
    """Per-round mean of the predicted type distribution over all samples."""
    order = np.argsort(pred.rounds, kind="stable")
    vectors = _normalized(pred)[order]
    rounds, starts, counts = np.unique(pred.rounds[order], return_index=True, return_counts=True)
    means = [_running_sum(vectors[s : s + c]) / c for s, c in zip(starts.tolist(), counts.tolist())]
    return RoundTrend(rounds.tolist(), [e.name for e in vocab.entries], np.stack(means))


def mean_probability(pred: PredictionFile, vocab: ShotTypeVocab) -> dict[str, float]:
    """Mean predicted probability per type over every stroke and sample."""
    count = len(pred.probs)
    if count == 0:
        raise ValueError("prediction file has no strokes")
    total = _running_sum(_normalized(pred))
    return {e.name: float(total[e.type_id] / count) for e in vocab.entries}


def write_mean_probability(means: dict[str, float], path: str | Path) -> None:
    lines = ["type,mean_probability"]
    for name, value in means.items():
        lines.append(f"{name},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
