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
from itertools import compress, cycle, repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .court import CourtSpec, Player, Rally, ShotTypeVocab, utf8_line_errors
from .dataset import TAU, ParseError
from .network import Forecaster, KVCache, StrokeInputs
from .seeding import TAG_EVAL

PROB_FLOOR = 1e-12  # CE clamp; quantized probabilities can be exactly zero
EXPECTED_SAMPLE_SETS = 6
PARSE_BLOCK_LINES = 4096  # prediction-file lines parsed and checked, or rows formatted, as one block


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


def generate_suffix(
    model: Forecaster,
    rally: Rally,
    horizon: int,
    seed: int | np.random.SeedSequence,
) -> list[GeneratedStroke]:
    """Autoregressively sample `horizon` strokes after the observed prefix.

    Service types are masked out of the sampled distribution (they occur only
    on the opening stroke), the hitter of each generated stroke is the
    previous landing point mirrored into the new canonical frame, and the
    whole draw is deterministic under (params, prefix, seed). This is the
    one-continuation case of the lockstep sampler behind generate_sample_sets.
    """
    return _sample_lockstep(model, [(rally, horizon, seed)])[0]


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
    When horizon is None each rally is continued to its ground-truth length.
    """
    tau = model.config.tau
    tasks = [
        (
            rally,
            horizon if horizon is not None else len(rally) - tau,
            np.random.SeedSequence([seed, TAG_EVAL, r_idx, j]),
        )
        for j in range(n_sets)
        for r_idx, rally in enumerate(rallies)
    ]
    results = _sample_lockstep(model, tasks)
    return [results[j * len(rallies) : (j + 1) * len(rallies)] for j in range(n_sets)]


def _sample_lockstep(
    model: Forecaster,
    tasks: Sequence[tuple[Rally, int, int | np.random.SeedSequence]],
) -> list[list[GeneratedStroke]]:
    """Sample one continuation per (rally, horizon, seed), all in one batched forward per step.

    Every history starts from its tau-stroke prefix, so at step t all active
    histories hold tau + t strokes and need no padding; a continuation leaves
    the batch once it reaches its horizon. The forward runs without a tape,
    from a key/value cache of the earlier positions, and only each
    continuation's own random() and standard_normal(2) are drawn per row.
    """
    tau = model.config.tau
    for rally, horizon, _ in tasks:
        if len(rally) < tau:
            raise ValueError(f"rally {rally.rally_id}: prefix needs {tau} strokes, found {len(rally)}")
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
    if not tasks:
        return []
    court = model.court
    serve_ids = list(model.vocab.serve_ids)
    names = [(rally.player_a, rally.player_b) for rally, _, _ in tasks]
    rngs = [np.random.default_rng(seed) for _, _, seed in tasks]
    horizons = np.array([horizon for _, horizon, _ in tasks])
    outs: list[list[GeneratedStroke]] = [[] for _ in tasks]

    # per batch row: the stroke before the next one, and the player-table rows of sides A and B
    last = [rally.strokes[tau - 1] for rally, _, _ in tasks]
    prev_landing = np.array([s.landing for s in last])
    prev_a = np.array([s.player is Player.A for s in last])
    prev_round = np.array([s.round_index for s in last])
    side_ids = np.array([[model.player_id(a), model.player_id(b)] for a, b in names])

    active = np.arange(len(tasks))  # task index of each batch row
    prefixes = StrokeInputs.stack([model.stroke_inputs(r.strokes[:tau], n) for (r, _, _), n in zip(tasks, names)])
    history = prefixes.padded(tau + int(horizons.max()))
    cache = KVCache(len(tasks), model.config)
    center = np.array([court.mean_x, court.mean_y])
    spread = np.array([court.std_x, court.std_y])
    size = np.array([court.width_m, court.length_m])
    with ad.no_tape():
        for n in range(tau, history.type_ids.shape[1]):
            probs, mu, log_sigma, rho = model.forward(history.positions(cache.length, n), cache=cache)
            type_ids, landing, type_probs = _draw_strokes(
                [rngs[c] for c in active],
                probs.data[:, -1],
                mu.data[:, -1],
                log_sigma.data[:, -1],
                rho.data[:, -1],
                serve_ids,
                center,
                spread,
            )
            hit_a = ~prev_a
            rounds = prev_round + 1
            for row, (c, t, xy, a, r) in enumerate(
                zip(active.tolist(), type_ids.tolist(), landing.tolist(), hit_a.tolist(), rounds.tolist())
            ):
                outs[c].append(GeneratedStroke(r, Player.A if a else Player.B, t, tuple(xy), type_probs[row]))
            history.type_ids[:, n] = type_ids
            history.player_ids[:, n] = np.where(hit_a, side_ids[:, 0], side_ids[:, 1])
            history.hit_by_a[:, n] = hit_a
            history.landings[:, n] = (landing - center) / spread
            history.locations[:, n] = (size - prev_landing - center) / spread  # the previous landing, mirrored
            prev_landing, prev_a, prev_round = landing, hit_a, rounds

            keep = np.flatnonzero(horizons[active] > n + 1 - tau)
            if len(keep) == 0:
                break
            if len(keep) < len(active):
                active, history = active[keep], history.rows(keep)
                prev_landing, prev_a, prev_round, side_ids = prev_landing[keep], prev_a[keep], prev_round[keep], side_ids[keep]
                cache.keep_rows(keep)
    return outs


def _draw_strokes(
    rngs: Sequence[np.random.Generator],
    type_probs: np.ndarray,
    mu: np.ndarray,
    log_sigma: np.ndarray,
    rho: np.ndarray,
    serve_ids: list[int],
    center: np.ndarray,
    spread: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the next stroke of each row: random() picks the type, then standard_normal(2) the landing.

    Takes (B, V), (B, 2), (B, 2) and (B,) head outputs, one generator per
    row, and the court's normalization means and stds. Returns the (B,) type
    ids, the (B, 2) quantized landings in meters and the (B, V) serve-masked,
    renormalized, quantized distributions.
    """
    probs = type_probs.copy()
    probs[:, serve_ids] = 0.0
    mass = probs.sum(axis=1)
    if (mass <= 0.0).any():
        raise RuntimeError("service mask removed all probability mass; vocabulary has no rally types")
    probs /= mass[:, None]
    u = np.empty(len(rngs))
    noise = np.empty((len(rngs), 2))
    for row, rng in enumerate(rngs):
        u[row] = rng.random()
        noise[row] = rng.standard_normal(2)
    cum = probs.cumsum(axis=1)
    type_ids = np.minimum((cum / cum[:, -1:] <= u[:, None]).sum(axis=1), probs.shape[1] - 1)

    sigma = np.exp(log_sigma)
    chol = np.zeros((len(rngs), 2, 2))
    chol[:, 0, 0] = sigma[:, 0]
    chol[:, 1, 0] = rho * sigma[:, 1]
    chol[:, 1, 1] = sigma[:, 1] * np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
    z = mu + (chol @ noise[:, :, None])[:, :, 0]  # a matrix-vector product per row, as for one row
    return type_ids, quantize6_array(z * spread + center), quantize_simplex(probs)


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


def _as_sample_sets(sets: SampleSets | Sequence[Sequence[Sequence[GeneratedStroke]]]) -> SampleSets:
    return sets if isinstance(sets, SampleSets) else SampleSets.from_nested(sets)


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """True at the first row and at every row whose keys differ from the row before's."""
    new = np.ones(len(keys[0]), dtype=bool)
    new[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return new


def _segment_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row indices of the segments [start, start + length), concatenated in the given order."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


# ---------------------------------------------------------------------------
# the CE + MAE metric
# ---------------------------------------------------------------------------

def _stroke_losses(sets: SampleSets, truths: Sequence[Rally], tau: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, N) per-stroke CE + L1 losses of every set, and the (R,) suffix length of each rally.

    Every set's suffix of a rally must cover the rally's rounds tau+1..n, so
    all sets share one layout of N strokes.
    """
    k, n_rallies = sets.lengths.shape
    if n_rallies != len(truths):
        raise ValueError(f"sample set covers {n_rallies} rallies, ground truth has {len(truths)}")
    suffix = np.array([max(len(r) - tau, 0) for r in truths], dtype=np.int64)
    flat = sets.lengths.ravel()
    starts = np.cumsum(flat) - flat
    position = np.arange(len(sets.rounds)) - np.repeat(starts, flat)
    off_rows = np.repeat(np.arange(flat.size), flat)[sets.rounds != position + tau + 1]
    bad = (sets.lengths != suffix).ravel() | (np.bincount(off_rows, minlength=flat.size) > 0)
    if bad.any():
        seg = int(np.argmax(bad))
        rally = truths[seg % n_rallies]
        got = sets.rounds[starts[seg] : starts[seg] + flat[seg]].tolist()
        expected = list(range(tau + 1, len(rally) + 1))
        raise ValueError(f"rally {rally.rally_id}: predictions cover rounds {got}, expected {expected}")
    future = [s for r in truths for s in r.strokes[tau:]]
    n = len(future)
    if n == 0:
        raise ValueError("no predicted strokes to score")
    true_types = np.tile(np.array([s.shot_type for s in future], dtype=np.int64), k)
    true_xy = np.tile(np.array([s.landing for s in future], dtype=np.float64), (k, 1))
    p_true = np.maximum(sets.probs[np.arange(k * n), true_types], PROB_FLOOR)
    ce = -np.fromiter(map(math.log, p_true.tolist()), dtype=np.float64, count=k * n)
    mae = np.abs(true_xy[:, 0] - sets.landings[:, 0]) + np.abs(true_xy[:, 1] - sets.landings[:, 1])
    return (ce + mae).reshape(k, n), suffix


def _rally_sums(losses: np.ndarray, suffix: np.ndarray) -> np.ndarray:
    """(k, R) sums of each rally's stroke losses, added left to right as Python's sum does.

    One step per stroke position, each across every set and every rally that
    long.
    """
    starts = np.cumsum(suffix) - suffix
    sums = np.zeros((len(losses), len(suffix)))
    for j in range(int(suffix.max(initial=0))):
        live = np.flatnonzero(suffix > j)
        sums[:, live] += losses[:, starts[live] + j]
    return sums


@dataclass
class SetEvaluation:
    """Per-rally losses of one sample set."""

    rally_sums: np.ndarray  # (R,) summed stroke losses per rally
    n_strokes: int

    @property
    def loss(self) -> float:
        return float(self.rally_sums.sum() / self.n_strokes)


def evaluate_sample_set(
    samples: Sequence[Sequence[GeneratedStroke]], truths: Sequence[Rally], tau: int = TAU
) -> SetEvaluation:
    losses, suffix = _stroke_losses(SampleSets.from_nested([samples]), truths, tau)
    return SetEvaluation(_rally_sums(losses, suffix)[0], losses.shape[1])


def sample_set_loss(samples: Sequence[Sequence[GeneratedStroke]], truths: Sequence[Rally], tau: int = TAU) -> float:
    """Mean per-stroke CE + L1 loss of one sample set over all rallies."""
    return evaluate_sample_set(samples, truths, tau=tau).loss


def score_min6(losses: Sequence[float]) -> float:
    """Exact minimum of the six sample-set losses."""
    values = [float(v) for v in losses]
    if len(values) != EXPECTED_SAMPLE_SETS:
        raise ValueError(f"expected {EXPECTED_SAMPLE_SETS} sample sets, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("sample-set losses must be finite")
    return min(values)


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
    n_strokes: int

    def lines(self) -> list[str]:
        out = [f"l_{i + 1} = {l:.6f}" for i, l in enumerate(self.sample_losses)]
        out.append(f"Score = {self.score:.6f}")
        out.append(f"best_per_rally = {self.best_per_rally_agg:.6f}")
        return out

    def write_csv(self, path: str | Path) -> None:
        lines = ["metric,key,value", f"score,,{self.score:.6f}"]
        for i, l in enumerate(self.sample_losses, start=1):
            lines.append(f"sample_loss,{i},{l:.6f}")
        lines.append(f"min_of_sets,,{self.min_of_sets:.6f}")
        lines.append(f"best_per_rally,,{self.best_per_rally_agg:.6f}")
        for rally_id, v in self.per_rally.items():
            lines.append(f"rally_sum,{rally_id},{v:.6f}")
        for ball_round in sorted(self.per_round):
            lines.append(f"round_mean,{ball_round},{self.per_round[ball_round]:.6f}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def score_sample_sets(
    sets: SampleSets | Sequence[Sequence[Sequence[GeneratedStroke]]],
    truths: Sequence[Rally],
    protocol: str = "min_of_sets",
    tau: int = TAU,
) -> ScoreReport:
    """Score k sample sets, as columns or [set][rally][stroke] lists, under either aggregation protocol."""
    if protocol not in ("min_of_sets", "best_of_k"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if not len(sets):
        raise ValueError("need at least one sample set")
    stroke_losses, suffix = _stroke_losses(_as_sample_sets(sets), truths, tau)
    rally_sums = _rally_sums(stroke_losses, suffix)  # (k, R)
    n = stroke_losses.shape[1]
    losses = [float(row.sum() / n) for row in rally_sums]

    if protocol == "min_of_sets":
        min_sets = score_min6(losses) if len(losses) == EXPECTED_SAMPLE_SETS else min(losses)
    else:
        min_sets = min(losses)
    assert all(min_sets <= l for l in losses)

    best_idx = np.argmin(rally_sums, axis=0)
    best_agg = float(rally_sums.min(axis=0).sum() / n)

    # per-rally contributions and the round breakdown follow each rally's
    # winning set so they describe the scored prediction, not a loser;
    # round sums accumulate rally by rally, as a loop over the rallies would
    per_rally = {rally.rally_id: v for rally, v in zip(truths, rally_sums[best_idx, np.arange(len(truths))].tolist())}
    rally_of_stroke = np.repeat(np.arange(len(truths)), suffix)
    position = np.arange(n) - np.repeat(np.cumsum(suffix) - suffix, suffix)
    round_sum = np.zeros(int(suffix.max()))
    np.add.at(round_sum, position, stroke_losses[best_idx[rally_of_stroke], np.arange(n)])
    round_mean = round_sum / np.bincount(position)
    per_round = {tau + 1 + j: v for j, v in enumerate(round_mean.tolist())}

    score = min_sets if protocol == "min_of_sets" else best_agg
    return ScoreReport(
        score=score,
        sample_losses=losses,
        min_of_sets=min_sets,
        best_per_rally_agg=best_agg,
        per_rally=per_rally,
        per_round=per_round,
        n_strokes=n,
    )


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

def _prob_columns(vocab: ShotTypeVocab) -> list[str]:
    return [f"prob_{e.name.replace(' ', '_')}" for e in vocab.entries]


def prediction_header(vocab: ShotTypeVocab) -> str:
    return ",".join(["rally_id", "sample_id", "ball_round", "landing_x", "landing_y"] + _prob_columns(vocab))


def export_predictions(
    truths: Sequence[Rally],
    sets: SampleSets | Sequence[Sequence[Sequence[GeneratedStroke]]],
    vocab: ShotTypeVocab,
    path: str | Path,
) -> None:
    """Write sample sets, as columns or [set][rally][stroke] lists, as a prediction CSV (6-decimal floats)."""
    ids = [r.rally_id for r in truths]
    if len(set(ids)) != len(ids):
        raise ValueError("rally_ids must be unique to export predictions")
    sets = _as_sample_sets(sets)
    k, n_rallies = sets.lengths.shape
    if k and n_rallies != len(truths):
        raise ValueError(f"sample set covers {n_rallies} rallies, ground truth has {len(truths)}")
    # the file runs rally by rally, each rally's sets in order
    by_rally = sets.lengths.T.ravel()
    starts = (np.cumsum(sets.lengths) - sets.lengths.ravel()).reshape(k, n_rallies).T.ravel()
    order = _segment_rows(starts, by_rally)
    prefixes = [f"{rally_id},{set_idx}," for rally_id in ids for set_idx in range(1, k + 1)]
    prefix_of_row = np.repeat(np.arange(len(prefixes)), by_rally)
    row = "%s%d" + ",%.6f" * (2 + sets.probs.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prediction_header(vocab) + "\n")
        for block in range(0, len(order), PARSE_BLOCK_LINES):  # so that few rows are Python objects at once
            rows = order[block : block + PARSE_BLOCK_LINES]
            values = np.column_stack((sets.landings[rows], sets.probs[rows])).tolist()
            prefix = prefix_of_row[block : block + PARSE_BLOCK_LINES].tolist()
            rounds = sets.rounds[rows].tolist()
            fh.write("".join([row % (prefixes[p], r, *v) for p, r, v in zip(prefix, rounds, values)]))


@dataclass(eq=False)
class PredictionFile:
    """A parsed prediction CSV as columns, one row per data line.

    Rows run rally by rally in first-seen order, each rally's samples in
    first-seen order, and each sample's strokes by ascending round, lines of
    one round keeping their file order.
    """

    vocab: ShotTypeVocab
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
        vocab: ShotTypeVocab,
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
            vocab,
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

        Each type_probs is a view of its row of probs.
        """
        out: dict[str, dict[int, list[GeneratedStroke]]] = {}
        columns = zip(
            self.rally_index.tolist(),
            self.sample_ids.tolist(),
            self.rounds.tolist(),
            self.landings.tolist(),
            self.probs.argmax(axis=1).tolist(),
            self.probs,
        )
        for r, sample_id, ball_round, xy, type_id, probs in columns:
            g = GeneratedStroke(ball_round, Player.A if ball_round % 2 == 1 else Player.B, type_id, tuple(xy), probs)
            out.setdefault(self.rally_ids[r], {}).setdefault(sample_id, []).append(g)
        return out

    def sample_sets(self, truths: Sequence[Rally]) -> SampleSets:
        """Sample sets 1..n_samples over the given rallies, in their order."""
        index = {rally_id: i for i, rally_id in enumerate(self.rally_ids)}
        missing = [r.rally_id for r in truths if r.rally_id not in index]
        if missing:
            raise ValueError(f"prediction file lacks rallies: {missing[:5]}")
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
    """Read a prediction file; a damaged row raises ParseError naming its line.

    Every numeric cell must parse, landings must be finite, and each row's
    probabilities must lie in [0, 1] and sum to 1. A (rally, sample, round)
    may appear once, and the sample ids must run 1..k without a gap. A header
    that does not match the vocabulary raises ValueError.

    Lines are parsed in blocks, each converted and checked as arrays; a block
    that fails is read again line by line, which names the first bad line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"prediction file not found: {path}")
    expected_header = prediction_header(vocab)
    codes: dict[str, int] = {}  # rally id -> its position in first-seen order
    blocks: list[tuple[np.ndarray, ...]] = []
    with open(path, newline="", encoding="utf-8") as fh, utf8_line_errors(path):
        header = fh.readline().strip()
        if header != expected_header:
            raise ValueError(f"prediction header does not match the vocabulary: {header!r}")
        columns = header.split(",")
        line_number = 2
        huge_sample_id = False
        for block in _line_blocks(fh):
            arrays = _parse_block(block, len(columns), codes)
            if arrays is None:
                _check_lines(block, line_number, columns)
                huge_sample_id = True  # its lines pass one at a time, so a sample id overflowed int64
            else:
                blocks.append(arrays)
            line_number += len(block)
    blocks.append(_parse_block([], len(columns), codes))  # columns even for a file without rows
    rally_index, sample_ids, rounds, numbers = (np.concatenate(column) for column in zip(*blocks))
    blocks.clear()
    ids = np.unique(sample_ids)
    if huge_sample_id or (len(ids) and ids[-1] != len(ids)):
        raise ParseError(_grouping_error(path))
    landings, probs = numbers[:, :2], numbers[:, 2:]
    pred = PredictionFile.from_columns(vocab, list(codes), rally_index, sample_ids, rounds, landings, probs)
    if not run_starts(pred.rally_index, pred.sample_ids, pred.rounds).all():
        raise ParseError(_grouping_error(path))
    return pred


def _line_blocks(fh) -> Iterator[list[str]]:
    """The file's remaining lines in blocks of PARSE_BLOCK_LINES.

    Before a byte that is not UTF-8 stops the read, the lines read so far
    are handed on, so a bad row before it is still reported first.
    """
    block: list[str] = []
    try:
        for line in fh:
            block.append(line)
            if len(block) == PARSE_BLOCK_LINES:
                yield block
                block = []
    except UnicodeDecodeError:
        yield block
        raise
    if block:
        yield block


def _parse_block(block: list[str], n_columns: int, codes: dict[str, int]) -> tuple[np.ndarray, ...] | None:
    """(rally index, sample id, round, landings and probabilities) arrays of a block, or None if a check fails."""
    lines = list(filter(None, map(str.strip, block)))
    if set(map(str.count, lines, repeat(","))) - {n_columns - 1}:
        return None
    n = len(lines)
    cells = ",".join(lines).split(",") if lines else []
    numeric = cycle([False] * 3 + [True] * (n_columns - 3))
    try:
        sample_ids = np.fromiter(map(int, cells[1::n_columns]), dtype=np.int64, count=n)
        rounds = np.fromiter(map(int, cells[2::n_columns]), dtype=np.int64, count=n)
        numbers = np.fromiter(map(float, compress(cells, numeric)), dtype=np.float64, count=n * (n_columns - 3))
    except (ValueError, OverflowError):
        return None
    numbers = numbers.reshape(n, n_columns - 3)
    probs = numbers[:, 2:]
    if not (
        np.isfinite(numbers[:, :2]).all()
        and ((probs >= 0.0) & (probs <= 1.0)).all()
        and (np.abs(probs.sum(axis=1) - 1.0) <= 1e-6).all()
        and (sample_ids >= 1).all()
    ):
        return None
    rally_ids = cells[0::n_columns]
    for rally_id in dict.fromkeys(rally_ids):
        codes.setdefault(rally_id, len(codes))
    rally_index = np.fromiter(map(codes.__getitem__, rally_ids), dtype=np.int64, count=n)
    return rally_index, sample_ids, rounds, numbers


def _check_lines(block: list[str], first_line: int, columns: list[str]) -> None:
    """The checks of _parse_block, one line at a time: raises ParseError naming the first bad line.

    Returns only for a block whose one fault is a sample id beyond int64, a
    sample id that must skip one.
    """
    for line_number, line in enumerate(block, start=first_line):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ParseError(f"line {line_number}: expected {len(columns)} columns, found {len(cells)}")
        try:
            sample_id, ball_round = int(cells[1]), int(cells[2])
            landing = (float(cells[3]), float(cells[4]))
            values = [float(c) for c in cells[5:]]
        except ValueError as exc:
            raise ParseError(f"line {line_number}: {exc}") from exc
        if not (math.isfinite(landing[0]) and math.isfinite(landing[1])):
            raise ParseError(f"line {line_number}: landing ({cells[3]}, {cells[4]}) is not finite")
        for col, p in enumerate(values, start=5):
            if not 0.0 <= p <= 1.0:  # NaN fails too
                raise ParseError(f"line {line_number}: {columns[col]} = {cells[col]} is not in [0, 1]")
        total = np.array(values).sum()
        if abs(total - 1.0) > 1e-6:
            raise ParseError(f"line {line_number}: probabilities sum to {total:.8f}")
        if sample_id < 1:
            raise ParseError(f"line {line_number}: sample id {sample_id} is below 1")
        if not -(2**63) <= ball_round < 2**63:
            raise ParseError(f"line {line_number}: ball round {ball_round} does not fit in 64 bits")


def _grouping_error(path: Path) -> str:
    """The message for a file whose sample ids skip one or whose (rally, sample, round) repeats.

    Sample ids are checked first: the message names the first line whose id
    lies past the first unused one, else the first line that repeats an
    earlier line's (rally, sample, round). Only a file known to have one of these faults is read again, so a valid
    file costs no per-row record.
    """
    first_line: dict[int, int] = {}  # sample id -> the first line that has it
    seen: dict[tuple[str, int, int], int] = {}
    repeat = None
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        for line_number, line in enumerate(fh, start=2):
            cells = line.strip().split(",", 3)
            if len(cells) < 3:
                continue
            key = (cells[0], int(cells[1]), int(cells[2]))
            first_line.setdefault(key[1], line_number)
            if repeat is None and key in seen:
                repeat = f"line {line_number}: rally {key[0]} sample {key[1]} round {key[2]} repeats line {seen[key]}"
            seen.setdefault(key, line_number)
    ids = sorted(first_line)
    if ids and ids[-1] != len(ids):
        gap = next(i for i, sample_id in enumerate(ids, start=1) if sample_id != i)
        line_number, sample_id = min((line, sid) for sid, line in first_line.items() if sid > gap)
        return f"line {line_number}: sample id {sample_id} skips sample id {gap}; ids must run 1..k"
    return repeat or f"{path}: a fault that a second read no longer finds; the file changed while it was read"
