"""Stochastic suffix generation, the CE+MAE rally loss, and min-of-6 scoring.

The per-stroke loss of a generated suffix against ground truth is the
negative log of the probability the model assigned to the true shot type
plus the L1 distance in meters between the true and sampled landing points.
A sample set's loss is the mean of that quantity over every predicted stroke
of every rally, and the competition score is the minimum over six
independently sampled sets.

Generated strokes are quantized to six decimal places (the prediction-file
format) at generation time, so scoring a file and scoring in memory agree
bit for bit. Scoring, export and import hold sample sets and prediction
files as columns (SampleSets, PredictionFile), not as an object per stroke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, cycle
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .court import (
    PARSE_BLOCK_LINES,
    CourtSpec,
    ParseError,
    Player,
    Rally,
    ShotTypeVocab,
    int_column,
    read_csv,
    run_starts,
    write_csv,
)
from .dataset import TAU, require_strokes
from .network import Forecaster, KVCache, StrokeInputs
from .seeding import TAG_EVAL

PROB_SUM_TOL = 1e-6  # how far a prediction row's probabilities may sum from 1
EXPECTED_SAMPLE_SETS = 6


def quantize6(v: float) -> float:
    """Canonical 6-decimal quantization (via the formatted representation)."""
    return float(f"{v:.6f}")


# quantize6_array rounds x * 1e6 to the nearest integer. That equals
# quantize6 unless rounding the product moved it across a tie k + 0.5, and
# for |x| < FAST_LIMIT that rounding error is below 1e-7, while x * 1e6
# minus its nearest integer is exact. So a value whose x * 1e6 lies within
# TIE_BAND of a tie, or a larger value, takes the formatted path; NaN stays NaN.
TIE_BAND = 1e-6
FAST_LIMIT = 1e3


def quantize6_array(x: np.ndarray) -> np.ndarray:
    """quantize6 of every element, bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    scaled = np.minimum(np.maximum(x, -FAST_LIMIT), FAST_LIMIT) * 1e6  # no overflow from the slow values
    whole = np.rint(scaled)
    slow = (np.abs(x) >= FAST_LIMIT) | (np.abs(scaled - whole) > 0.5 - TIE_BAND)
    out = whole / 1e6
    if slow.any():
        for i in zip(*np.nonzero(slow)):
            out[i] = quantize6(float(x[i]))
    return out


def quantize_simplex(probs: np.ndarray) -> np.ndarray:
    """Quantize (B, V) probability rows so each row's 6-decimal values sum to exactly 1.

    The rounding residual (at most 5e-7 per entry) is folded into the row's
    largest entry, which is orders of magnitude bigger than the correction.
    """
    q = quantize6_array(probs)
    rows, top = np.arange(len(q)), q.argmax(axis=1)
    q[rows, top] = quantize6_array(q[rows, top] + (1.0 - q.sum(axis=1)))
    return q


@dataclass(frozen=True, slots=True)
class GeneratedStroke:
    """One sampled future stroke plus the full predictive type distribution."""

    round_index: int
    player: Player
    type_id: int
    landing: tuple[float, float]  # meters, quantized
    type_probs: np.ndarray  # (V,), serve-masked, renormalized, quantized


def check_sampling(n_sets: int, seed: int, horizon: int | None) -> None:
    """Raise ValueError for a set count, seed or horizon that generate_sample_sets cannot sample with."""
    if n_sets < 1:
        raise ValueError(f"need at least one sample set, got {n_sets}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be at least 1")


def generate_sample_sets(
    model: Forecaster,
    rallies: Sequence[Rally],
    n_sets: int,
    seed: int,
    horizon: int | None = None,
) -> list[list[list[GeneratedStroke]]]:
    """Draw n_sets suffix samples per rally, shaped [set][rally][stroke].

    Every continuation has its own stream, seeded from (seed, rally index,
    set index), and each row of the lockstep batch gets the values it would
    get alone. So the draws do not depend on batch composition, and the first
    draws of a larger n_sets reproduce a smaller run exactly.
    When horizon is None each rally is continued to its ground-truth length,
    and a rally without TAU + 1 strokes (TAU with a horizon) raises ValueError naming it.
    """
    check_sampling(n_sets, seed, horizon)
    require_strokes(rallies, TAU + 1 if horizon is None else TAU, "predict")
    tasks = [
        (
            r_idx,
            horizon if horizon is not None else len(rally) - TAU,
            np.random.SeedSequence([seed, TAG_EVAL, r_idx, j]),
        )
        for j in range(n_sets)
        for r_idx, rally in enumerate(rallies)
    ]
    results = sample(model, rallies, tasks)
    return [results[j * len(rallies) : (j + 1) * len(rallies)] for j in range(n_sets)]


def sample(
    model: Forecaster,
    rallies: Sequence[Rally],
    tasks: Sequence[tuple[int, int, int | np.random.SeedSequence]],
) -> list[list[GeneratedStroke]]:
    """Sample one continuation per (rally index, horizon, seed) task, all in one batched forward per step.

    A continuation autoregressively samples `horizon` strokes after its
    rally's TAU-stroke prefix, so step t draws round TAU + t. Every horizon
    must be at least 1 (generate_sample_sets checks), and a rally shorter
    than TAU raises ValueError. Service types are masked out of the sampled
    distribution (they occur only on the opening stroke), the hitter
    of each generated stroke stands at the previous landing point mirrored
    into the new canonical frame, and the draw is deterministic under
    (params, prefix, seed): each continuation draws only its own random()
    and standard_normal(2) from its own seed, so it does not depend on the
    other tasks.

    Each rally's prefix is read once from its columns, so at step t all
    active histories hold TAU + t strokes and need no padding; a
    continuation leaves the batch once it reaches its horizon. The batch
    rows run by falling horizon, so continuations leave from its tail. The
    forward runs without a tape, from a key/value cache of the earlier
    positions: the first step feeds each rally's prefix once, and every
    continuation takes copies of its rally's rows (KVCache.take_rows); each
    later step feeds the strokes just drawn. The gate and the heads run on
    the last fed position only, the one a draw reads.
    """
    if not tasks:
        return []
    horizons = np.array([horizon for _, horizon, _ in tasks])
    serve_ids = list(model.vocab.serve_ids)
    rngs = [np.random.default_rng(seed) for _, _, seed in tasks]
    outs: list[list[GeneratedStroke]] = [[] for _ in tasks]

    active = np.argsort(-horizons, kind="stable")  # task index of each batch row
    rally_of = np.array([r_idx for r_idx, _, _ in tasks])[active]  # each row's rally
    # per batch row: the stroke before the next one, and the player-table rows of sides A and B
    prefixes = StrokeInputs.stack([model.rally_inputs(r, TAU) for r in rallies])
    prev_landing = np.array([r.landings[TAU - 1] for r in rallies])[rally_of]
    side_ids = np.array([[model.player_id(r.player_a), model.player_id(r.player_b)] for r in rallies])[rally_of]

    fed = prefixes  # the strokes the next step feeds: one row per rally at step 1, then one per batch row
    cache = KVCache(len(rallies), model.config)
    court = model.court
    size = np.array([court.width_m, court.length_m])
    with ad.no_tape():
        for step in range(1, int(horizons.max()) + 1):
            start = cache.length

            def forward() -> tuple[ad.Tensor, ...]:  # repeatable: a replay feeds the cache from the same length
                cache.length = start
                return model.forward(fed, cache=cache, first=fed.type_ids.shape[-1] - 1)  # only the last is read

            probs, gaussian = ad.replay_step(forward, lambda heads: heads)
            probs, gaussian, hit_a = probs.data[:, -1], gaussian.data[:, -1], ~fed.hit_by_a[:, -1]
            if step == 1:  # every continuation takes its rally's rows
                cache.take_rows(rally_of)
                probs, gaussian, hit_a = probs[rally_of], gaussian[rally_of], hit_a[rally_of]
            type_ids, landing, type_probs = _draw_strokes([rngs[c] for c in active], probs, gaussian, serve_ids, court)
            columns = zip(active.tolist(), type_ids.tolist(), landing.tolist(), hit_a.tolist())
            for row, (c, t, xy, a) in enumerate(columns):
                outs[c].append(GeneratedStroke(TAU + step, Player.A if a else Player.B, t, tuple(xy), type_probs[row]))

            n = int(np.count_nonzero(horizons[active] > step))
            if n == 0:
                break
            active, type_ids, landing, hit_a, side_ids = active[:n], type_ids[:n], landing[:n], hit_a[:n], side_ids[:n]
            cache.keep_rows(n)
            fed = StrokeInputs(
                type_ids=type_ids[:, None],
                player_ids=np.where(hit_a, side_ids[:, 0], side_ids[:, 1])[:, None],
                hit_by_a=hit_a[:, None],
                landings=court.normalize(landing)[:, None],
                locations=court.normalize(size - prev_landing[:n])[:, None],  # the previous landing, mirrored
            )
            prev_landing = landing
    return outs


def _draw_strokes(
    rngs: Sequence[np.random.Generator],
    type_probs: np.ndarray,
    gaussian: np.ndarray,
    serve_ids: list[int],
    court: CourtSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the next stroke of each row: random() picks the type, then standard_normal(2) the landing.

    Takes the (B, V) type probabilities and the (B, 5) landing Gaussians,
    packed as autodiff.landing_columns reads them, one generator per row,
    and the court, whose frame the landings are normalized in. Returns
    the (B,) type ids, the (B, 2) quantized landings in meters and the
    (B, V) serve-masked, renormalized, quantized distributions.
    """
    probs = type_probs.copy()
    probs[:, serve_ids] = 0.0
    mass = probs.sum(axis=1)
    if (mass <= 0.0).any():  # every vocabulary has a rally type, so only an underflowed softmax leaves none
        raise ad.NumericHealthError("the service mask left a type distribution with no probability mass")
    probs /= mass[:, None]
    u = np.empty(len(rngs))
    noise = np.empty((len(rngs), 2))
    for row, rng in enumerate(rngs):
        u[row] = rng.random()
        rng.standard_normal(out=noise[row])
    cum = probs.cumsum(axis=1)
    type_ids = np.minimum((cum / cum[:, -1:] <= u[:, None]).sum(axis=1), probs.shape[1] - 1)

    mu, log_sigma, rho = ad.landing_columns(gaussian)
    sigma = np.exp(log_sigma)
    chol = np.zeros((len(rngs), 2, 2))
    chol[:, 0, 0] = sigma[:, 0]
    chol[:, 1, 0] = rho * sigma[:, 1]
    chol[:, 1, 1] = sigma[:, 1] * np.sqrt(1.0 - rho * rho)  # |rho| <= ad.RHO_CAP, so 1 - rho^2 >= 2e-12
    z = mu + (chol @ noise[:, :, None])[:, :, 0]  # a matrix-vector product per row, as for one row
    return type_ids, quantize6_array(court.denormalize(z)), quantize_simplex(probs)


# ---------------------------------------------------------------------------
# sample sets as columns
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleSets:
    """k sample sets over the same R rallies, held as columns.

    Rows run [set][rally][stroke]: set 1's suffix of the first rally, then of
    the second, and so on, then set 2's.
    """

    lengths: np.ndarray  # (k, R) strokes in each set's suffix of each rally
    rounds: np.ndarray  # (M,) ball rounds
    landings: np.ndarray  # (M, 2) meters
    probs: np.ndarray  # (M, V) predicted type distributions

    def __len__(self) -> int:
        return len(self.lengths)

    @classmethod
    def from_nested(cls, sets: Sequence[Sequence[Sequence[GeneratedStroke]]]) -> "SampleSets":
        """Columns of [set][rally][stroke] lists, as generate_sample_sets returns them."""
        n_rallies = {len(one) for one in sets}
        if len(n_rallies) > 1:
            raise ValueError(f"sample sets cover different numbers of rallies: {sorted(n_rallies)}")
        strokes = [g for one in sets for suffix in one for g in suffix]
        lengths = np.array([[len(suffix) for suffix in one] for one in sets], dtype=np.int64)
        return cls(
            lengths.reshape(len(sets), len(sets[0]) if sets else 0),
            np.array([g.round_index for g in strokes], dtype=np.int64),
            np.array([g.landing for g in strokes], dtype=np.float64).reshape(len(strokes), 2),
            np.array([g.type_probs for g in strokes], dtype=np.float64) if strokes else np.zeros((0, 0)),
        )


def _as_sample_sets(sets: SampleSets | Sequence[Sequence[Sequence[GeneratedStroke]]], truths: Sequence[Rally]) -> SampleSets:
    sets = sets if isinstance(sets, SampleSets) else SampleSets.from_nested(sets)
    if len(sets) and sets.lengths.shape[1] != len(truths):  # every set covers the truths' rallies; zero sets, any
        raise ValueError(f"sample set covers {sets.lengths.shape[1]} rallies, ground truth has {len(truths)}")
    return sets


def _segment_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row indices of the segments [start, start + length), concatenated in the given order."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


# ---------------------------------------------------------------------------
# the CE + MAE metric
# ---------------------------------------------------------------------------

def _stroke_losses(sets: SampleSets, truths: Sequence[Rally]) -> tuple[np.ndarray, np.ndarray]:
    """(k, N) per-stroke CE + L1 losses of every set, and the (R,) suffix length of each rally.

    Every truth rally needs TAU + 1 strokes (require_strokes), and every set's suffix of it must
    cover its rounds TAU+1..n, so all sets share one layout of N strokes. A stroke whose loss, or
    whose probability of the true type, is not finite raises ValueError naming its set and rally,
    whatever the number of sets and the protocol.
    """
    require_strokes(truths, TAU + 1, "score")
    k, n_rallies = sets.lengths.shape
    suffix = np.array([len(r) - TAU for r in truths], dtype=np.int64)
    flat = sets.lengths.ravel()
    starts = np.cumsum(flat) - flat
    position = np.arange(len(sets.rounds)) - np.repeat(starts, flat)
    off_rows = np.repeat(np.arange(flat.size), flat)[sets.rounds != position + TAU + 1]
    bad = (sets.lengths != suffix).ravel() | (np.bincount(off_rows, minlength=flat.size) > 0)
    if bad.any():
        seg = int(np.argmax(bad))
        rally = truths[seg % n_rallies]
        got = sets.rounds[starts[seg] : starts[seg] + flat[seg]].tolist()
        expected = list(range(TAU + 1, len(rally) + 1))
        raise ValueError(f"rally {rally.rally_id}: predictions cover rounds {got}, expected {expected}")
    n = int(suffix.sum())
    if n == 0:
        raise ValueError("no predicted strokes to score")
    true_types = np.tile(np.concatenate([r.type_ids[TAU:] for r in truths]), k)
    true_xy = np.tile(np.concatenate([r.landings[TAU:] for r in truths]), (k, 1))
    p_true = sets.probs[np.arange(k * n), true_types]
    ce = -np.fromiter(map(math.log, np.maximum(p_true, ad.PROB_FLOOR).tolist()), dtype=np.float64, count=k * n)
    with np.errstate(over="ignore"):  # a huge finite landing makes an infinite loss, which the rule below reports
        mae = np.abs(true_xy[:, 0] - sets.landings[:, 0]) + np.abs(true_xy[:, 1] - sets.landings[:, 1])
    losses = ce + mae
    finite = np.isfinite(p_true) & np.isfinite(losses)  # the clamp would hide a probability of -inf
    if not finite.all():
        row = int(np.argmin(finite))
        set_idx, stroke = divmod(row, n)
        rally = truths[int(np.searchsorted(np.cumsum(suffix), stroke, side="right"))]
        x, y = sets.landings[row].tolist()
        raise ValueError(
            f"sample set {set_idx + 1}, rally {rally.rally_id}, round {sets.rounds[row]}: stroke loss is not finite "
            f"(landing ({x}, {y}), probability {p_true[row]} of the true type)"
        )
    return losses.reshape(k, n), suffix


@dataclass
class ScoreReport:
    """Aggregate scoring outcome for a batch of sampled suffix sets.

    min_of_sets is the competition reading (minimum over whole-set losses);
    best_per_rally_agg picks the best set per rally before aggregating, which
    is the training-time best-of-k protocol on the same draws. score holds
    whichever of the two the caller's protocol defines.
    """

    score: float
    sample_losses: list[float]
    min_of_sets: float
    best_per_rally_agg: float
    per_rally: dict[str, float]
    per_round: dict[int, float]

    def lines(self) -> list[str]:
        out = [f"l_{i + 1} = {l:.6f}" for i, l in enumerate(self.sample_losses)]
        out.append(f"Score = {self.score:.6f}")
        out.append(f"best_per_rally = {self.best_per_rally_agg:.6f}")
        return out

    def write_csv(self, path: str | Path) -> None:
        lines = [f"score,,{self.score:.6f}"]
        lines += [f"sample_loss,{i},{l:.6f}" for i, l in enumerate(self.sample_losses, start=1)]
        lines += [f"min_of_sets,,{self.min_of_sets:.6f}", f"best_per_rally,,{self.best_per_rally_agg:.6f}"]
        lines += [f"rally_sum,{rally_id},{v:.6f}" for rally_id, v in self.per_rally.items()]
        lines += [f"round_mean,{ball_round},{self.per_round[ball_round]:.6f}" for ball_round in sorted(self.per_round)]
        write_csv(path, "metric,key,value", lines)


def score_sample_sets(
    sets: SampleSets | Sequence[Sequence[Sequence[GeneratedStroke]]],
    truths: Sequence[Rally],
    protocol: str = "min_of_sets",
) -> ScoreReport:
    """Score k sample sets, as columns or [set][rally][stroke] lists, under either aggregation protocol."""
    if protocol not in ("min_of_sets", "best_of_k"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if not len(sets):
        raise ValueError("need at least one sample set")
    stroke_losses, suffix = _stroke_losses(_as_sample_sets(sets, truths), truths)
    rally_of_stroke = np.repeat(np.arange(len(truths)), suffix)
    rally_sums = np.zeros((len(stroke_losses), len(truths)))  # (k, R), each rally's losses added left to right
    with np.errstate(over="ignore"):  # finite stroke losses can add up to inf
        np.add.at(rally_sums.T, rally_of_stroke, stroke_losses.T)
        set_sums = [row.sum() for row in rally_sums]
    overflowed = ~np.isfinite(set_sums)  # if none is, no sum below is either: losses are not negative
    if overflowed.any():
        set_idx = int(np.argmax(overflowed))
        rally = truths[int(np.argmax(rally_sums[set_idx]))]  # the set's largest rally sum
        raise ValueError(
            f"sample set {set_idx + 1}, rally {rally.rally_id}: loss sum is not finite (stroke losses too large to add)"
        )
    n = stroke_losses.shape[1]
    losses = [float(total / n) for total in set_sums]

    min_sets = min(losses)
    best_idx = np.argmin(rally_sums, axis=0)
    best_agg = float(rally_sums.min(axis=0).sum() / n)

    # per-rally contributions and the round breakdown follow each rally's
    # winning set so they describe the scored prediction, not a loser;
    # round sums accumulate rally by rally, as a loop over the rallies would
    per_rally = {rally.rally_id: v for rally, v in zip(truths, rally_sums[best_idx, np.arange(len(truths))].tolist())}
    position = np.arange(n) - np.repeat(np.cumsum(suffix) - suffix, suffix)
    round_sum = np.zeros(int(suffix.max()))
    np.add.at(round_sum, position, stroke_losses[best_idx[rally_of_stroke], np.arange(n)])
    round_mean = round_sum / np.bincount(position)
    per_round = {TAU + 1 + j: v for j, v in enumerate(round_mean.tolist())}

    score = min_sets if protocol == "min_of_sets" else best_agg
    return ScoreReport(
        score=score,
        sample_losses=losses,
        min_of_sets=min_sets,
        best_per_rally_agg=best_agg,
        per_rally=per_rally,
        per_round=per_round,
    )


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

def prediction_header(vocab: ShotTypeVocab) -> str:
    probs = [f"prob_{e.name.replace(' ', '_')}" for e in vocab.entries]
    return ",".join(["rally_id", "sample_id", "ball_round", "landing_x", "landing_y"] + probs)


def check_rally_ids_unique(rallies: Sequence[Rally]) -> None:
    """Raise ValueError if two rallies share a rally id: a prediction file keys its rows by rally id alone."""
    match_of: dict[str, str] = {}
    for rally in rallies:
        if rally.rally_id in match_of:
            raise ValueError(
                f"rally id {rally.rally_id} is used by match {match_of[rally.rally_id]} and by match {rally.match_id}; "
                "a prediction file keys its rows by rally id alone"
            )
        match_of[rally.rally_id] = rally.match_id


def export_predictions(
    truths: Sequence[Rally],
    sets: SampleSets | Sequence[Sequence[Sequence[GeneratedStroke]]],
    vocab: ShotTypeVocab,
    path: str | Path,
) -> None:
    """Write sample sets, as columns or [set][rally][stroke] lists, as a prediction CSV (6-decimal floats)."""
    check_rally_ids_unique(truths)
    ids = [r.rally_id for r in truths]
    sets = _as_sample_sets(sets, truths)
    k, n_rallies = sets.lengths.shape
    # the file runs rally by rally, each rally's sets in order
    by_rally = sets.lengths.T.ravel()
    starts = (np.cumsum(sets.lengths) - sets.lengths.ravel()).reshape(k, n_rallies).T.ravel()
    order = _segment_rows(starts, by_rally)
    prefixes = [f"{rally_id},{set_idx}," for rally_id in ids for set_idx in range(1, k + 1)]
    prefix_of_row = np.repeat(np.arange(len(prefixes)), by_rally)
    width = 2 + sets.probs.shape[1]
    row = "%s%d" + ",%.6f" * width

    def lines():
        for block in range(0, len(order), PARSE_BLOCK_LINES):  # so that few rows are Python objects at once
            rows = order[block : block + PARSE_BLOCK_LINES]
            # one flat list of floats, which the garbage collector does not track, not a list per row
            values = np.column_stack((sets.landings[rows], sets.probs[rows])).ravel().tolist()
            prefix = prefix_of_row[block : block + PARSE_BLOCK_LINES].tolist()
            rounds = sets.rounds[rows].tolist()
            starts = range(0, len(values), width)
            yield from [row % (prefixes[p], r, *values[i : i + width]) for p, r, i in zip(prefix, rounds, starts)]

    write_csv(path, prediction_header(vocab), lines())


@dataclass(eq=False)
class PredictionFile:
    """A parsed prediction CSV as columns, one row per data line.

    Rows run rally by rally in first-seen order, each rally's samples in
    first-seen order, and each sample's strokes by ascending round, lines of
    one round keeping their file order.
    """

    n_samples: int
    rally_ids: list[str]  # in first-seen order
    rally_index: np.ndarray  # (M,) each row's position in rally_ids
    sample_ids: np.ndarray  # (M,)
    rounds: np.ndarray  # (M,)
    landings: np.ndarray  # (M, 2)
    probs: np.ndarray  # (M, V)

    @classmethod
    def from_columns(
        cls,
        rally_ids: list[str],
        rally_index: np.ndarray,
        sample_ids: np.ndarray,
        rounds: np.ndarray,
        landings: np.ndarray,
        probs: np.ndarray,
    ) -> "PredictionFile":
        """Group rows given in file order; rally_index numbers rallies in first-seen order."""
        rally_index, sample_ids, rounds = (np.asarray(a, dtype=np.int64) for a in (rally_index, sample_ids, rounds))
        # the first line of each row's (rally, sample) orders the samples of a rally
        pair = np.lexsort((sample_ids, rally_index))
        new = run_starts(rally_index[pair], sample_ids[pair])
        first_line = np.empty_like(pair)
        first_line[pair] = pair[new][np.cumsum(new) - 1]
        order = np.lexsort((rounds, first_line, rally_index))
        return cls(
            int(sample_ids.max(initial=0)),
            rally_ids,
            rally_index[order],
            sample_ids[order],
            rounds[order],
            np.asarray(landings, dtype=np.float64)[order],
            np.asarray(probs, dtype=np.float64)[order],
        )

    @cached_property
    def rows(self) -> dict[str, dict[int, list[GeneratedStroke]]]:
        """rally_id -> sample_id -> suffix, one GeneratedStroke per row, built on first use.

        Each type_probs is a view of its row of probs. The columns become
        Python lists PARSE_BLOCK_LINES rows at a time, so that few of their
        values are Python objects at once.
        """
        out: dict[str, dict[int, list[GeneratedStroke]]] = {}
        for lo in range(0, len(self.rounds), PARSE_BLOCK_LINES):
            block = slice(lo, lo + PARSE_BLOCK_LINES)
            columns = zip(
                self.rally_index[block].tolist(),
                self.sample_ids[block].tolist(),
                self.rounds[block].tolist(),
                self.landings[block].tolist(),
                self.probs[block].argmax(axis=1).tolist(),
                self.probs[block],
            )
            for r, sample_id, ball_round, xy, type_id, probs in columns:
                side = Player.A if ball_round % 2 == 1 else Player.B
                g = GeneratedStroke(ball_round, side, type_id, tuple(xy), probs)
                out.setdefault(self.rally_ids[r], {}).setdefault(sample_id, []).append(g)
        return out

    def sample_sets(self, truths: Sequence[Rally]) -> SampleSets:
        """Sample sets 1..n_samples over the given rallies, in their order."""
        check_rally_ids_unique(truths)
        index = {rally_id: i for i, rally_id in enumerate(self.rally_ids)}
        missing = [r.rally_id for r in truths if r.rally_id not in index]
        if missing:
            raise ValueError(f"prediction file lacks rallies: {missing[:5]}")
        scored = {r.rally_id for r in truths}
        extra = [rally_id for rally_id in self.rally_ids if rally_id not in scored]
        if extra:
            raise ValueError(f"prediction file holds rallies the truth does not score: {extra[:5]}")
        starts = np.flatnonzero(run_starts(self.rally_index, self.sample_ids))  # one run of rows per (rally, sample)
        counts = np.diff(np.append(starts, len(self.rounds)))
        sample_ids = self.sample_ids[starts]
        table = np.full((self.n_samples, len(self.rally_ids)), -1)  # (sample, rally) -> its run of rows
        named = np.flatnonzero((sample_ids >= 1) & (sample_ids <= self.n_samples))
        table[sample_ids[named] - 1, self.rally_index[starts[named]]] = named
        runs = table[:, [index[r.rally_id] for r in truths]]
        if (runs < 0).any():
            sample, rally = divmod(int(np.argmax(runs.ravel() < 0)), len(truths))
            raise ValueError(f"rally {truths[rally].rally_id} lacks sample {sample + 1}")
        rows = _segment_rows(starts[runs.ravel()], counts[runs.ravel()])
        return SampleSets(counts[runs], self.rounds[rows], self.landings[rows], self.probs[rows])


def import_predictions(path: str | Path, vocab: ShotTypeVocab) -> PredictionFile:
    """Read a prediction file; a damaged row raises ParseError naming the file and the row's line.

    Every numeric cell must parse, landings must be finite, and each row's
    probabilities must lie in [0, 1] and sum to 1. A (rally, sample, round)
    may appear once, and the sample ids must run 1..k without a gap. A header
    that does not match the vocabulary raises ParseError naming the file.

    Lines are parsed in blocks (court.read_csv), each converted and checked
    as arrays; a block that fails is parsed again one line at a time, by the
    same function, to name the first bad line. The file is read once: each
    row keeps its line number, which the sample-id gap and repeat messages
    name.
    """
    header = prediction_header(vocab)
    columns = header.split(",")
    codes: dict[str, int] = {}  # rally id -> its position in first-seen order

    line_numbers, rally_index, sample_ids, rounds, values = read_csv(
        Path(path), "prediction", header, str.strip, lambda cells, numbers: _parse_block(cells, numbers, columns, codes)
    )
    ids = np.sort(sample_ids)
    ids = ids[run_starts(ids)]  # not np.unique, which imports numpy.ma on its first call
    if len(ids) and ids[-1] != len(ids):
        gap = int(np.argmax(ids != np.arange(1, len(ids) + 1))) + 1
        row = int(np.argmax(sample_ids > gap))  # rows run in file order
        message = f"sample id {sample_ids[row]} skips sample id {gap}; ids must run 1..k"
        raise ParseError(path, message, line_numbers[row])
    landings, probs = values[:, :2], values[:, 2:]
    pred = PredictionFile.from_columns(list(codes), rally_index, sample_ids, rounds, landings, probs)
    if not run_starts(pred.rally_index, pred.sample_ids, pred.rounds).all():
        # the earliest line whose (rally, sample, round) an earlier line has, found by a sort that only this error pays
        order = np.lexsort((rounds, sample_ids, rally_index))
        new = run_starts(rally_index[order], sample_ids[order], rounds[order])
        repeats = np.flatnonzero(~new)
        i = repeats[np.argmin(order[repeats])]
        row, first = order[i], order[np.flatnonzero(new)[np.cumsum(new)[i] - 1]]
        rally = pred.rally_ids[rally_index[row]]
        message = f"rally {rally} sample {sample_ids[row]} round {rounds[row]} repeats line {line_numbers[first]}"
        raise ParseError(path, message, line_numbers[row])
    return pred


def _parse_block(
    cells: list[str], numbers: np.ndarray, columns: list[str], codes: dict[str, int]
) -> tuple[np.ndarray, ...]:
    """(line number, rally index, sample id, round, landings and probabilities) arrays of a block's cells.

    Raises ValueError at the first check that fails; the checks run in this
    order, so a one-line block raises its row's fault. A block that passes
    adds its new rally ids to codes.
    """
    width = len(columns)
    n = len(numbers)
    sample_ids = int_column(cells[1::width], "sample id")
    rounds = int_column(cells[2::width], "ball round")
    numeric = cycle([False] * 3 + [True] * (width - 3))
    values = np.fromiter(map(float, compress(cells, numeric)), dtype=np.float64, count=n * (width - 3))
    values = values.reshape(n, width - 3)
    landings, probs = values[:, :2], values[:, 2:]
    if not np.isfinite(landings).all():
        row = int(np.argmax(~np.isfinite(landings).all(axis=1)))
        x, y = cells[row * width + 3 : row * width + 5]
        raise ValueError(f"landing ({x}, {y}) is not finite")
    outside = ~((probs >= 0.0) & (probs <= 1.0))  # NaN is outside too
    if outside.any():
        row, col = divmod(int(np.argmax(outside)), width - 5)
        raise ValueError(f"{columns[col + 5]} = {cells[row * width + col + 5]} is not in [0, 1]")
    totals = probs.sum(axis=1)
    off = np.abs(totals - 1.0) > PROB_SUM_TOL
    if off.any():
        raise ValueError(f"probabilities sum to {totals[np.argmax(off)]:.8f}")
    if (sample_ids < 1).any():
        row = int(np.argmax(sample_ids < 1))
        raise ValueError(f"sample id {sample_ids[row]} is below 1")
    rally_ids = cells[0::width]
    for rally_id in dict.fromkeys(rally_ids):
        codes.setdefault(rally_id, len(codes))
    rally_index = np.fromiter(map(codes.__getitem__, rally_ids), dtype=np.int64, count=n)
    return numbers, rally_index, sample_ids, rounds, values
