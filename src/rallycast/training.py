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
from .court import CourtSpec, Rally, ShotTypeVocab, Stroke, normalize_coord
from .network import (
    Forecaster,
    ModelConfig,
    build_player_index,
    forward_teacher_forced,
    init_params,
)
from .scoring import PROB_FLOOR, ScoreReport, generate_sample_sets, score_sample_sets
from .seeding import TAG_DROPOUT, TAG_SHUFFLE, rng_from_key

log = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
RHO_FLOOR = 1e-12  # keeps log(1 - rho^2) finite


class TrainingDivergedError(RuntimeError):
    """Loss or gradients left the finite range during an update."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    eval_every: int = 0  # 0 disables periodic evaluation
    eval_samples: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")


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
    checkpoint_path: str | None = None

    def write_csv(self, path: str | Path) -> None:
        scores = dict(self.evals)
        lines = ["epoch,shot_loss,area_loss,total_loss,val_score"]
        for e in self.epochs:
            val = repr(scores[e.epoch]) if e.epoch in scores else ""
            lines.append(f"{e.epoch},{e.shot_loss!r},{e.area_loss!r},{e.total_loss!r},{val}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class LossBundle:
    shot_loss: float
    area_loss: float
    total_loss: float
    node: Tensor  # scalar graph node for backward
    n_steps: int


Heads = tuple[Tensor, Tensor, Tensor, Tensor]  # (m, V), (m, 2), (m, 2), (m,)


def step_loss(heads: Sequence[Heads], targets: Sequence[Stroke], court: CourtSpec) -> LossBundle:
    """Mean cross-entropy and mean Gaussian NLL over a batch of target strokes.

    heads holds one (probs, mu, log_sigma, rho) tuple per rally, as returned
    by forward_teacher_forced; their rows, concatenated, align with targets.
    Both losses are computed once over (N,) arrays. Differentiable when the
    heads are live graph nodes; constant heads give only the values.
    """
    n = sum(h[0].shape[0] for h in heads)
    if n != len(targets) or not targets:
        raise ValueError(f"got {n} prediction rows for {len(targets)} targets")
    probs, mu, log_sigma, rho = (ad.concat(parts, axis=0) for parts in zip(*heads))
    true_types = np.array([s.shot_type for s in targets], dtype=np.int64)
    xy = np.array([normalize_coord(s.landing, court) for s in targets])

    p_true = probs[np.arange(n), true_types]
    underflowed = p_true.data < PROB_FLOOR
    if underflowed.any():
        log.warning(
            "%d true-type probabilities underflowed (min %.3e); clamping",
            int(underflowed.sum()),
            float(p_true.data.min()),
        )
    ce = -ad.log(ad.clamp_min(p_true, PROB_FLOOR))

    # bivariate-Gaussian NLL of each true landing point
    ls_x, ls_y = log_sigma[:, 0], log_sigma[:, 1]
    zx = (Tensor(xy[:, 0]) - mu[:, 0]) / ad.exp(ls_x)
    zy = (Tensor(xy[:, 1]) - mu[:, 1]) / ad.exp(ls_y)
    one_m_rho2 = ad.clamp_min(Tensor(1.0) - rho * rho, RHO_FLOOR)
    quad = zx * zx + zy * zy - 2.0 * rho * zx * zy
    nll = Tensor(LOG_2PI) + ls_x + ls_y + 0.5 * ad.log(one_m_rho2) + quad / (2.0 * one_m_rho2)

    inv_n = 1.0 / n
    shot = ad.scale(ad.tsum(ce), inv_n)
    area = ad.scale(ad.tsum(nll), inv_n)
    total = shot + area
    return LossBundle(
        shot_loss=float(shot.data),
        area_loss=float(area.data),
        total_loss=float(total.data),
        node=total,
        n_steps=n,
    )


class Adam:
    """Adam with bias correction and global-norm gradient clipping."""

    def __init__(self, model_params, config: TrainConfig):
        self.params = model_params
        self.config = config
        self.m = {k: np.zeros_like(t.data) for k, t in model_params.tensors.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in model_params.tensors.items()}
        self.t = 0

    def step(self) -> None:
        c = self.config
        grads = {k: ad.grad_of(t) for k, t in self.params.tensors.items()}
        if c.clip_norm > 0:
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if norm > c.clip_norm:
                factor = c.clip_norm / norm
                grads = {k: g * factor for k, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for k, tensor in self.params.tensors.items():
            g = grads[k]
            self.m[k] = c.beta1 * self.m[k] + (1.0 - c.beta1) * g
            self.v[k] = c.beta2 * self.v[k] + (1.0 - c.beta2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + c.adam_eps)
            tensor.data -= c.learning_rate * update


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
    epoch's parameters are returned.
    """
    if not train_set:
        raise ValueError("training set is empty")
    short = [r.rally_id for r in train_set if len(r) < model_config.tau + 1]
    if short:
        raise ValueError(f"rallies too short to train on: {short[:5]}")
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
            params.zero_grad()
            heads: list[Heads] = []
            targets: list[Stroke] = []
            try:
                for pos, rally in enumerate(batch):
                    rng = rng_from_key(train_config.seed, TAG_DROPOUT, epoch, b_idx, pos)
                    heads.append(forward_teacher_forced(model, rally, training=True, rng=rng))
                    targets.extend(rally.strokes[config.tau :])
                bundle = step_loss(heads, targets, court)
                ad.backward(bundle.node)
            except NumericHealthError as exc:
                ids = ", ".join(r.rally_id for r in batch)
                raise TrainingDivergedError(f"epoch {epoch}, batch of rallies [{ids}]: {exc}") from exc
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
                best_params = params.copy()
                report.best_epoch = epoch
        if progress is not None:
            progress(stats, val_score)

    if best_params is None:
        best_params = params.copy()
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
    if k < 1:
        raise ValueError("k must be at least 1")
    if not rallies:
        raise ValueError("no rallies to evaluate")
    sets = generate_sample_sets(model, rallies, k, seed)
    return score_sample_sets(sets, rallies, protocol="best_of_k", tau=model.config.tau)
