"""Teacher-forced training with Adam, gradient clipping, and best-of-k eval.

The training loss pairs cross-entropy on the true shot type with the
negative log-likelihood of the true normalized landing point under the
predicted bivariate Gaussian. The evaluation metric (CE + L1 on sampled
coordinates) lives in scoring; the two are intentionally different
functionals of the same head.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NumericHealthError, Tensor
from .court import CourtSpec, Rally, ShotTypeVocab, write_csv
from .dataset import TAU
from .network import (
    Forecaster,
    ModelConfig,
    build_player_index,
    forward_teacher_forced,
    init_params,
)
from .scoring import ScoreReport, generate_sample_sets, score_sample_sets
from .seeding import TAG_DROPOUT, TAG_SHUFFLE, rng_from_key

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss or gradients left the finite range during an update."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-4
    clip_norm: float = 5.0  # 0 disables clipping
    eval_every: int = 0  # 0 disables periodic evaluation
    eval_samples: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        for name in ("learning_rate", "clip_norm", "eval_every", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("learning_rate", "clip_norm"):  # a NaN passes every comparison above
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eval_samples < 1:
            raise ValueError(f"eval_samples must be at least 1, got {self.eval_samples}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    shot_loss: float
    area_loss: float
    total_loss: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    evals: list[tuple[int, float]] = field(default_factory=list)
    best_epoch: int = 0
    wall_clock_s: float = 0.0

    def write_csv(self, path: str | Path) -> None:
        scores = {epoch: repr(score) for epoch, score in self.evals}
        lines = [
            f"{e.epoch},{e.shot_loss!r},{e.area_loss!r},{e.total_loss!r},{scores.get(e.epoch, '')}" for e in self.epochs
        ]
        write_csv(path, "epoch,shot_loss,area_loss,total_loss,val_score", lines)


@dataclass
class LossBundle:
    shot_loss: float
    area_loss: float
    node: Tensor  # scalar graph node for backward
    n_steps: int


Heads = tuple[Tensor, Tensor]  # (m, V) type probabilities, (m, 5) landing Gaussian


def step_loss(heads: Sequence[Heads], rallies: Sequence[Rally], court: CourtSpec) -> LossBundle:
    """Mean cross-entropy and mean Gaussian NLL over a batch's target strokes.

    heads holds one (probs, landing) pair per rally, as returned by
    forward_teacher_forced; their rows, concatenated, align with the
    rallies' strokes TAU+1 .. n, read from the type_ids and landings columns.
    The graph is the two heads concatenated, ad.cross_entropy and
    ad.gaussian_nll over the (N,) rows, and the two means. Differentiable
    when the heads are live graph nodes; constant heads give only the values.
    """
    n = sum(h[0].shape[0] for h in heads)
    targets = sum(max(len(r) - TAU, 0) for r in rallies)
    if n != targets or not targets:
        raise ValueError(f"got {n} prediction rows for {targets} targets")
    probs, landing = (ad.concat(parts, axis=0) for parts in zip(*heads))
    true_types = np.concatenate([r.type_ids[TAU:] for r in rallies])
    xy = court.normalize(np.concatenate([r.landings[TAU:] for r in rallies]))

    p_true = probs.data[np.arange(n), true_types]
    if underflowed := int((p_true < ad.PROB_FLOOR).sum()):
        log.warning("%d true-type probabilities underflowed (min %.3e); clamping", underflowed, float(p_true.min()))

    inv_n = 1.0 / n
    shot = ad.scale(ad.tsum(ad.cross_entropy(probs, true_types)), inv_n)
    area = ad.scale(ad.tsum(ad.gaussian_nll(landing, xy)), inv_n)
    return LossBundle(
        shot_loss=float(shot.data),
        area_loss=float(area.data),
        node=ad.add(shot, area),
        n_steps=n,
    )


class Adam:
    """Adam with bias correction and global-norm gradient clipping, over all parameters as one flat array.

    Every parameter's data becomes a view of one flat array, and m and v are
    flat arrays beside it, so a step updates every parameter with one array
    expression; a step writes into the parameters' data in place. The
    gradient norm adds up each parameter's sum of squares in turn, so the
    clipping factor, and every update, has the bits of a loop over the
    parameters.
    """

    def __init__(self, params: dict[str, Tensor], config: TrainConfig):
        self.params = params
        self.config = config
        self.flat = np.concatenate([t.data.ravel() for t in params.values()])
        offset = 0
        for t in params.values():
            t.data = self.flat[offset : offset + t.size].reshape(t.shape)
            offset += t.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self) -> None:
        c = self.config
        grads = [ad.grad_of(t) for t in self.params.values()]
        g = np.concatenate([grad.ravel() for grad in grads])
        if c.clip_norm > 0:
            norm = math.sqrt(sum(float((grad * grad).sum()) for grad in grads))
            if norm > c.clip_norm:
                g *= c.clip_norm / norm
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * g * g
        update = (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)
        self.flat -= c.learning_rate * update


def train(
    train_set: Sequence[Rally],
    val_set: Sequence[Rally],
    model_config: ModelConfig,
    train_config: TrainConfig,
    court: CourtSpec | None = None,
    vocab: ShotTypeVocab | None = None,
    progress: Callable[[EpochStats, float | None], None] | None = None,
) -> tuple[Forecaster, TrainReport]:
    """Teacher-forced training; returns the params of the best eval epoch.

    Deterministic under (data order, seed). With eval_every == 0 the final
    epoch's parameters are returned. A training rally shorter than TAU+1,
    or such a validation rally when eval_every > 0, raises ValueError
    naming it before epoch 1.
    """
    if not train_set:
        raise ValueError("training set is empty")
    short = [r.rally_id for r in train_set if len(r) < TAU + 1]
    if short:
        raise ValueError(f"rallies too short to train on: {short[:5]}")
    short = [r.rally_id for r in val_set if len(r) < TAU + 1] if train_config.eval_every > 0 else []
    if short:
        raise ValueError(f"validation rallies too short to evaluate: {short[:5]}")
    court = court or CourtSpec()
    vocab = vocab or ShotTypeVocab.default()

    player_index = build_player_index(train_set)
    config = replace(model_config, n_players=len(player_index), vocab_size=vocab.size)
    params = init_params(config, train_config.seed)
    model = Forecaster(params, config, court, vocab, player_index)

    adam = Adam(params, train_config)
    report = TrainReport()
    best_score = math.inf
    best_params = None
    started = time.perf_counter()

    for epoch in range(1, train_config.epochs + 1):
        order = rng_from_key(train_config.seed, TAG_SHUFFLE, epoch).permutation(len(train_set))
        ce_sum = nll_sum = 0.0
        n_steps = 0
        for b_idx in range(0, len(order), train_config.batch_size):
            batch = [train_set[i] for i in order[b_idx : b_idx + train_config.batch_size]]
            for t in params.values():
                t.grad = None

            def batch_loss() -> LossBundle:  # repeatable: the dropout streams are keyed, the params unchanged
                heads = [
                    forward_teacher_forced(
                        model, rally, rng=rng_from_key(train_config.seed, TAG_DROPOUT, epoch, b_idx, pos)
                    )
                    for pos, rally in enumerate(batch)
                ]
                return step_loss(heads, batch, court)

            try:
                bundle = ad.replay_step(batch_loss, lambda loss: (loss.node,))
            except NumericHealthError as exc:
                ids = ", ".join(r.rally_id for r in batch)
                raise TrainingDivergedError(f"epoch {epoch}, batch of rallies [{ids}]: {exc}") from exc
            ad.backward(bundle.node)
            adam.step()
            ce_sum += bundle.shot_loss * bundle.n_steps
            nll_sum += bundle.area_loss * bundle.n_steps
            n_steps += bundle.n_steps

        stats = EpochStats(
            epoch=epoch,
            shot_loss=ce_sum / n_steps,
            area_loss=nll_sum / n_steps,
            total_loss=(ce_sum + nll_sum) / n_steps,
        )
        report.epochs.append(stats)

        val_score = None
        if train_config.eval_every > 0 and val_set and epoch % train_config.eval_every == 0:
            eval_report = eval_best_of_k(model, val_set, train_config.eval_samples, train_config.seed)
            val_score = eval_report.score
            report.evals.append((epoch, val_score))
            if val_score < best_score:
                best_score = val_score
                best_params = {k: Tensor(t.data.copy()) for k, t in params.items()}
                report.best_epoch = epoch
        if progress is not None:
            progress(stats, val_score)

    if best_params is None:
        best_params = {k: Tensor(t.data.copy()) for k, t in params.items()}
        report.best_epoch = train_config.epochs
    report.wall_clock_s = time.perf_counter() - started
    return Forecaster(best_params, config, court, vocab, player_index), report


def eval_best_of_k(
    model: Forecaster,
    rallies: Sequence[Rally],
    k: int,
    seed: int,
) -> ScoreReport:
    """Best-of-k evaluation: per rally, keep the closest of k sampled suffixes.

    Sample streams are derived per (seed, rally index, sample index), so the
    first draws of a larger k reproduce a smaller k's draws exactly.
    """
    if not rallies:
        raise ValueError("no rallies to evaluate")
    sets = generate_sample_sets(model, rallies, k, seed)
    return score_sample_sets(sets, rallies, protocol="best_of_k")
