"""Per-stroke reimplementations of the analyses and of the zone map.

Deliberately naive (Python loops over PredictionFile.rows, one
GeneratedStroke at a time, or over a rally list one Stroke at a time; only
the result types come from rallycast.analysis, and the zone map is a copy,
not rallycast.court's) so they can serve as oracles for the array forms.
Each adds in the order the array forms must reproduce.
"""

import math
from collections import Counter, defaultdict

import numpy as np

from rallycast.analysis import DistributionTable, DistRow, RoundTrend, VoteResult, ZoneHistogram
from rallycast.court import N_ZONES, ZONE_OUT, Player


def reference_coord_to_zone(landing, court, receiver_side):
    x, y = landing
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite landing coordinate: {landing!r}")
    w, l = court.width_m, court.length_m
    half = l / 2
    if receiver_side is Player.B:
        if not (0.0 <= x <= w and half <= y <= l):
            return ZONE_OUT
        depth = y - half
        left = w - x
    else:
        if not (0.0 <= x <= w and 0.0 <= y <= half):
            return ZONE_OUT
        depth = half - y
        left = x
    row = 0 if depth <= l / 6 else (1 if depth <= l / 3 else 2)
    col = 0 if left <= w / 3 else (1 if left <= 2 * w / 3 else 2)
    return 3 * row + col + 1


def reference_shot_distribution(rallies, group_by, vocab, court):
    strokes = [s for r in rallies for s in r.strokes]
    if group_by == "ball_round":
        keys = [s.round_index for s in strokes]
    elif group_by == "player":
        keys = [r.player_a if s.player is Player.A else r.player_b for r in rallies for s in r.strokes]
    elif group_by == "landing_zone":
        keys = [reference_coord_to_zone(s.landing, court, Player.B) for s in strokes]
    else:
        keys = [reference_coord_to_zone(s.player_location, court, Player.A) for s in strokes]
    counts = defaultdict(Counter)
    for key, s in zip(keys, strokes):
        counts[str(key)][s.shot_type] += 1
    sort_key = (lambda k: k) if group_by == "player" else int
    rows = []
    for key in sorted(counts, key=sort_key):
        total = sum(counts[key].values())
        for type_id in sorted(counts[key]):
            c = counts[key][type_id]
            rows.append(DistRow(key, vocab.name_of(type_id), c, c / total))
    return DistributionTable(group_by, rows)


def reference_type_vote(pred, vocab):
    winners = []
    aggregate = Counter()
    for rally_id in pred.rows:
        per_sample = pred.rows[rally_id]
        rounds = sorted({g.round_index for suffix in per_sample.values() for g in suffix})
        by_round = {r: [] for r in rounds}
        for sample_id in sorted(per_sample):
            for g in per_sample[sample_id]:
                by_round[g.round_index].append(g.type_probs / g.type_probs.sum())
        for ball_round in rounds:
            vectors = by_round[ball_round]
            votes = Counter(int(np.argmax(v)) for v in vectors)
            summed = vectors[0].copy()
            for v in vectors[1:]:
                summed += v
            best = max(votes, key=lambda t: (votes[t], summed[t], -t))
            winners.append(VoteResult(rally_id, ball_round, vocab.name_of(best), votes[best]))
            aggregate[best] += 1
    total = sum(aggregate.values())
    rows = [DistRow("all", vocab.name_of(t), aggregate[t], aggregate[t] / total) for t in sorted(aggregate)]
    return winners, DistributionTable("final_type", rows)


def reference_zone_distribution(pred, court):
    counts = {z: 0 for z in range(1, N_ZONES + 1)}
    total = 0
    for per_sample in pred.rows.values():
        for suffix in per_sample.values():
            for g in suffix:
                counts[reference_coord_to_zone(g.landing, court, Player.B)] += 1
                total += 1
    return ZoneHistogram(counts, {z: c / total for z, c in counts.items()})


def reference_round_trend(pred, vocab):
    sums = defaultdict(lambda: np.zeros(vocab.size))
    counts = Counter()
    for per_sample in pred.rows.values():
        for suffix in per_sample.values():
            for g in suffix:
                sums[g.round_index] += g.type_probs / g.type_probs.sum()
                counts[g.round_index] += 1
    rounds = sorted(sums)
    matrix = np.stack([sums[r] / counts[r] for r in rounds])
    return RoundTrend(rounds, [e.name for e in vocab.entries], matrix)


def reference_mean_probability(pred, vocab):
    total = np.zeros(vocab.size)
    count = 0
    for per_sample in pred.rows.values():
        for suffix in per_sample.values():
            for g in suffix:
                total += g.type_probs / g.type_probs.sum()
                count += 1
    return {e.name: float(total[e.type_id] / count) for e in vocab.entries}
