"""Stochastic suffix generation, the CE+MAE rally loss, and min-of-6 scoring.

The per-stroke loss of a generated suffix against ground truth is the
negative log of the probability the model assigned to the true shot type
plus the L1 distance in meters between the true and sampled landing points.
A sample set's loss is the mean of that quantity over every predicted stroke
of every rally, and the competition score is the minimum over six
independently sampled sets.

Generated strokes are quantized to six decimal places (the prediction-file
format) at generation time, so scoring a file and scoring in memory agree
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .court import CourtSpec, Player, Rally, ShotTypeVocab, Stroke, denormalize_coord, mirror_coord
from .network import Forecaster, StrokeInputs, stroke_inputs
from .seeding import TAG_EVAL

PROB_FLOOR = 1e-12  # CE clamp; quantized probabilities can be exactly zero
EXPECTED_SAMPLE_SETS = 6


def quantize6(v: float) -> float:
    """Canonical 6-decimal quantization (via the formatted representation)."""
    return float(f"{v:.6f}")


def quantize_simplex(probs: np.ndarray) -> np.ndarray:
    """Quantize a probability vector so the 6-decimal values sum to exactly 1.

    The rounding residual (at most 5e-7 per entry) is folded into the largest
    entry, which is orders of magnitude bigger than the correction.
    """
    q = np.array([quantize6(p) for p in probs])
    residual = 1.0 - q.sum()
    top = int(np.argmax(q))
    q[top] = quantize6(q[top] + residual)
    return q


@dataclass(frozen=True)
class GeneratedStroke:
    """One sampled future stroke plus the full predictive type distribution."""

    round_index: int
    player: Player
    type_id: int
    landing: tuple[float, float]  # meters, quantized
    type_probs: np.ndarray  # (V,), serve-masked, renormalized, quantized


def _sample_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum / cum[-1], rng.random(), side="right"), len(probs) - 1))


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
    the batch once it reaches its horizon. The forward runs without a tape.
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
    prev = [rally.strokes[tau - 1] for rally, _, _ in tasks]
    outs: list[list[GeneratedStroke]] = [[] for _ in tasks]

    active = list(range(len(tasks)))  # task index of each batch row
    inputs = StrokeInputs.stack([model.stroke_inputs(r.strokes[:tau], n) for (r, _, _), n in zip(tasks, names)])
    with ad.no_tape():
        while active:
            probs_t, mu_t, log_sigma_t, rho_t = model.forward(inputs)
            new: list[Stroke] = []
            for row, c in enumerate(active):
                stroke, generated = _draw_stroke(
                    rngs[c],
                    prev[c],
                    probs_t.data[row, -1],
                    mu_t.data[row, -1],
                    log_sigma_t.data[row, -1],
                    float(rho_t.data[row, -1]),
                    serve_ids,
                    court,
                )
                prev[c] = stroke
                outs[c].append(generated)
                new.append(stroke)
            ids = [model.stroke_player_ids(names[c], [s.player])[0] for c, s in zip(active, new)]
            inputs = inputs.append(stroke_inputs(new, ids, court))
            keep = [row for row, c in enumerate(active) if len(outs[c]) < tasks[c][1]]
            if len(keep) < len(active):
                inputs = inputs.rows(keep)
                active = [active[row] for row in keep]
    return outs


def _draw_stroke(
    rng: np.random.Generator,
    prev: Stroke,
    type_probs: np.ndarray,
    mu: np.ndarray,
    log_sigma: np.ndarray,
    rho: float,
    serve_ids: list[int],
    court: CourtSpec,
) -> tuple[Stroke, GeneratedStroke]:
    """Draw the stroke after prev: random() picks the type, then standard_normal(2) the landing."""
    probs = type_probs.copy()
    probs[serve_ids] = 0.0
    mass = probs.sum()
    if mass <= 0.0:
        raise RuntimeError("service mask removed all probability mass; vocabulary has no rally types")
    probs /= mass
    type_id = _sample_index(rng, probs)

    sigma = np.exp(log_sigma)
    chol = np.array(
        [
            [sigma[0], 0.0],
            [rho * sigma[1], sigma[1] * math.sqrt(max(1.0 - rho * rho, 0.0))],
        ]
    )
    z = mu + chol @ rng.standard_normal(2)
    landing = denormalize_coord((float(z[0]), float(z[1])), court)
    landing_q = (quantize6(landing[0]), quantize6(landing[1]))

    stroke = Stroke(
        round_index=prev.round_index + 1,
        player=prev.player.opponent,
        shot_type=type_id,
        landing=landing_q,
        player_location=mirror_coord(prev.landing, court),
    )
    generated = GeneratedStroke(
        round_index=stroke.round_index,
        player=stroke.player,
        type_id=type_id,
        landing=landing_q,
        type_probs=quantize_simplex(probs),
    )
    return stroke, generated


# ---------------------------------------------------------------------------
# the CE + MAE metric
# ---------------------------------------------------------------------------

@dataclass
class SetEvaluation:
    """Per-rally and per-stroke losses of one sample set."""

    rally_sums: np.ndarray  # (R,) summed stroke losses per rally
    stroke_losses: list[list[tuple[int, float]]]  # per rally: (ball_round, loss)
    n_strokes: int

    @property
    def loss(self) -> float:
        return float(self.rally_sums.sum() / self.n_strokes)


def evaluate_sample_set(
    samples: Sequence[Sequence[GeneratedStroke]], truths: Sequence[Rally], tau: int = 4
) -> SetEvaluation:
    if len(samples) != len(truths):
        raise ValueError(f"sample set covers {len(samples)} rallies, ground truth has {len(truths)}")
    rally_sums = np.zeros(len(truths))
    stroke_losses: list[list[tuple[int, float]]] = []
    n_strokes = 0
    for i, (suffix, rally) in enumerate(zip(samples, truths)):
        expected = list(range(tau + 1, len(rally) + 1))
        got = [g.round_index for g in suffix]
        if got != expected:
            raise ValueError(
                f"rally {rally.rally_id}: predictions cover rounds {got}, expected {expected}"
            )
        per_stroke: list[tuple[int, float]] = []
        for g, truth in zip(suffix, rally.strokes[tau:]):
            p_true = float(g.type_probs[truth.shot_type])
            ce = -math.log(max(p_true, PROB_FLOOR))
            mae = abs(truth.landing[0] - g.landing[0]) + abs(truth.landing[1] - g.landing[1])
            per_stroke.append((g.round_index, ce + mae))
        rally_sums[i] = sum(loss for _, loss in per_stroke)
        stroke_losses.append(per_stroke)
        n_strokes += len(per_stroke)
    if n_strokes == 0:
        raise ValueError("no predicted strokes to score")
    return SetEvaluation(rally_sums, stroke_losses, n_strokes)


def sample_set_loss(samples: Sequence[Sequence[GeneratedStroke]], truths: Sequence[Rally], tau: int = 4) -> float:
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

    protocol: str  # "min_of_sets" or "best_of_k"
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
    sets: Sequence[Sequence[Sequence[GeneratedStroke]]],
    truths: Sequence[Rally],
    protocol: str = "min_of_sets",
    tau: int = 4,
) -> ScoreReport:
    """Score k sample sets under either aggregation protocol."""
    if protocol not in ("min_of_sets", "best_of_k"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if not sets:
        raise ValueError("need at least one sample set")
    evals = [evaluate_sample_set(s, truths, tau=tau) for s in sets]
    n = evals[0].n_strokes
    losses = [e.loss for e in evals]

    if protocol == "min_of_sets":
        min_sets = score_min6(losses) if len(losses) == EXPECTED_SAMPLE_SETS else min(losses)
    else:
        min_sets = min(losses)
    assert all(min_sets <= l for l in losses)

    per_rally_matrix = np.stack([e.rally_sums for e in evals])  # (k, R)
    best_idx = np.argmin(per_rally_matrix, axis=0)
    best_agg = float(per_rally_matrix.min(axis=0).sum() / n)

    # per-rally contributions and the round breakdown follow each rally's
    # winning set so they describe the scored prediction, not a loser
    per_rally: dict[str, float] = {}
    round_sum: dict[int, float] = {}
    round_count: dict[int, int] = {}
    for i, rally in enumerate(truths):
        e = evals[int(best_idx[i])]
        per_rally[rally.rally_id] = float(e.rally_sums[i])
        for ball_round, loss in e.stroke_losses[i]:
            round_sum[ball_round] = round_sum.get(ball_round, 0.0) + loss
            round_count[ball_round] = round_count.get(ball_round, 0) + 1
    per_round = {r: round_sum[r] / round_count[r] for r in round_sum}

    score = min_sets if protocol == "min_of_sets" else best_agg
    return ScoreReport(
        protocol=protocol,
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
    sets: Sequence[Sequence[Sequence[GeneratedStroke]]],
    vocab: ShotTypeVocab,
    path: str | Path,
) -> None:
    """Write sampled suffix sets as a prediction CSV (6-decimal floats)."""
    ids = [r.rally_id for r in truths]
    if len(set(ids)) != len(ids):
        raise ValueError("rally_ids must be unique to export predictions")
    lines = [prediction_header(vocab)]
    for i, rally in enumerate(truths):
        for set_idx, sample_set in enumerate(sets, start=1):
            for g in sample_set[i]:
                cells = [
                    rally.rally_id,
                    str(set_idx),
                    str(g.round_index),
                    f"{g.landing[0]:.6f}",
                    f"{g.landing[1]:.6f}",
                ]
                cells.extend(f"{p:.6f}" for p in g.type_probs)
                lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class PredictionFile:
    """Parsed prediction CSV: rows grouped by rally and sample id."""

    vocab: ShotTypeVocab
    n_samples: int
    rows: dict[str, dict[int, list[GeneratedStroke]]]  # rally_id -> sample_id -> suffix

    def sample_sets(self, truths: Sequence[Rally]) -> list[list[list[GeneratedStroke]]]:
        """Reshape to [sample][rally] order aligned with the given rallies."""
        missing = [r.rally_id for r in truths if r.rally_id not in self.rows]
        if missing:
            raise ValueError(f"prediction file lacks rallies: {missing[:5]}")
        sets = []
        for sample_id in range(1, self.n_samples + 1):
            one = []
            for r in truths:
                per_sample = self.rows[r.rally_id]
                if sample_id not in per_sample:
                    raise ValueError(f"rally {r.rally_id} lacks sample {sample_id}")
                one.append(per_sample[sample_id])
            sets.append(one)
        return sets


def import_predictions(path: str | Path, vocab: ShotTypeVocab) -> PredictionFile:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"prediction file not found: {path}")
    expected_header = prediction_header(vocab)
    rows: dict[str, dict[int, list[GeneratedStroke]]] = {}
    max_sample = 0
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise ValueError(f"prediction header does not match the vocabulary: {header!r}")
        for line_number, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 5 + vocab.size:
                raise ValueError(f"line {line_number}: expected {5 + vocab.size} columns")
            rally_id, sample_s, round_s = cells[0], cells[1], cells[2]
            sample_id = int(sample_s)
            probs = np.array([float(c) for c in cells[5:]])
            if abs(probs.sum() - 1.0) > 1e-6:
                raise ValueError(f"line {line_number}: probabilities sum to {probs.sum():.8f}")
            ball_round = int(round_s)
            g = GeneratedStroke(
                round_index=ball_round,
                player=Player.A if ball_round % 2 == 1 else Player.B,
                type_id=int(np.argmax(probs)),
                landing=(float(cells[3]), float(cells[4])),
                type_probs=probs,
            )
            rows.setdefault(rally_id, {}).setdefault(sample_id, []).append(g)
            max_sample = max(max_sample, sample_id)
    for per_sample in rows.values():
        for suffix in per_sample.values():
            suffix.sort(key=lambda g: g.round_index)
    return PredictionFile(vocab=vocab, n_samples=max_sample, rows=rows)
