"""Descriptive tables over datasets and prediction files.

Everything here is pure and deterministic: empirical shot-type distributions
grouped by round, player, or court zone; majority voting over the six
per-stroke samples; landing-zone histograms; and per-round mean probability
trends suitable for comparing two embedding modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .court import N_ZONES, CourtSpec, Player, Rally, ShotTypeVocab, coord_to_zones, run_starts, write_csv
from .scoring import PredictionFile

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

    def write_csv(self, path: str | Path) -> None:
        lines = (f"{row.key},{row.type_name},{row.count},{row.fraction!r}" for row in self.rows)
        write_csv(path, f"{self.group_key},type,count,fraction", lines)


def shot_distribution(
    rallies: Sequence[Rally],
    group_by: str,
    vocab: ShotTypeVocab,
    court: CourtSpec | None = None,
) -> DistributionTable:
    """Empirical shot-type counts and fractions per group value.

    Zone groupings use the canonical frame: landings are zoned in the
    receiver's (high-y) half, hitter locations in the hitter's (low-y) half.
    Groups run in ascending order of their value (a round or zone number,
    or a player name), and each group's types by id.
    """
    if group_by not in GROUPINGS:
        raise ValueError(f"group_by must be one of {GROUPINGS}, got {group_by!r}")
    court = court or CourtSpec()
    if not rallies:
        return DistributionTable(group_by, [])
    types = np.concatenate([r.type_ids for r in rallies])
    if group_by == "player":
        labels = sorted({name for r in rallies for name in (r.player_a, r.player_b)})
        index = {name: i for i, name in enumerate(labels)}
        lengths = [len(r) for r in rallies]
        codes = np.where(
            np.concatenate([r.hit_by_a for r in rallies]),
            np.repeat(np.array([index[r.player_a] for r in rallies], dtype=np.int64), lengths),
            np.repeat(np.array([index[r.player_b] for r in rallies], dtype=np.int64), lengths),
        )
    else:
        if group_by == "ball_round":
            keys = np.concatenate([r.rounds for r in rallies])
        elif group_by == "landing_zone":
            keys = coord_to_zones(np.concatenate([r.landings for r in rallies]), court, Player.B)
        else:
            keys = coord_to_zones(np.concatenate([r.locations for r in rallies]), court, Player.A)
        values, codes = np.unique(keys, return_inverse=True)
        labels = [str(v) for v in values.tolist()]
    width = int(types.max(initial=0)) + 1
    counts = np.bincount(codes * width + types, minlength=len(labels) * width).reshape(len(labels), width)
    rows: list[DistRow] = []
    for label, row, total in zip(labels, counts.tolist(), counts.sum(axis=1).tolist()):
        rows.extend(DistRow(label, vocab.name_of(t), c, c / total) for t, c in enumerate(row) if c)
    return DistributionTable(group_by, rows)


@dataclass(frozen=True)
class VoteResult:
    rally_id: str
    ball_round: int
    type_name: str
    votes: int


def _normalized(pred: PredictionFile) -> np.ndarray:
    """Every probability row divided by its sum (the file format quantizes them to six decimals)."""
    return pred.probs / pred.probs.sum(axis=1, keepdims=True)


def _group_sums(rows: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, V) sums of the (n, V) rows by their group, each 0.0 + its rows in row order."""
    sums = np.zeros((n_groups, rows.shape[1]))
    np.add.at(sums, groups, rows)
    return sums


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
    stroke = np.cumsum(new) - 1
    votes = np.zeros((len(starts), vocab.size), dtype=np.int64)
    np.add.at(votes, (stroke, vectors.argmax(axis=1)), 1)
    summed = _group_sums(vectors, stroke, len(starts))
    tied = votes == votes.max(axis=1, keepdims=True)
    mass = np.where(tied, summed, -np.inf)
    tied &= mass == mass.max(axis=1, keepdims=True)
    best = tied.argmax(axis=1)
    counts = votes[np.arange(len(best)), best].tolist()
    winners = [
        VoteResult(pred.rally_ids[r], ball_round, vocab.name_of(t), n)
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
        lines = (f"{zone},{self.counts[zone]},{self.fractions[zone]!r}" for zone in range(1, N_ZONES + 1))
        write_csv(path, "landing_zone,count,fraction", lines)


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
        lines = [f"{r}," + ",".join(map(repr, row)) for r, row in zip(self.rounds, self.matrix.tolist())]
        write_csv(path, header, lines)


def round_trend(pred: PredictionFile, vocab: ShotTypeVocab) -> RoundTrend:
    """Per-round mean of the predicted type distribution over all samples."""
    if len(pred.probs) == 0:
        raise ValueError("prediction file has no strokes")
    rounds, codes, counts = np.unique(pred.rounds, return_inverse=True, return_counts=True)
    means = _group_sums(_normalized(pred), codes, len(rounds)) / counts[:, None]
    return RoundTrend(rounds.tolist(), [e.name for e in vocab.entries], means)


def mean_probability(pred: PredictionFile, vocab: ShotTypeVocab) -> dict[str, float]:
    """Mean predicted probability per type over every stroke and sample."""
    count = len(pred.probs)
    if count == 0:
        raise ValueError("prediction file has no strokes")
    total = _group_sums(_normalized(pred), np.zeros(count, dtype=np.int64), 1)[0]
    return {e.name: float(total[e.type_id] / count) for e in vocab.entries}
