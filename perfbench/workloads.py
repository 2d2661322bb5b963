"""The three benchmark workloads: set-up, one timed operation, output checks.

Each workload drives the library's public functions the way one CLI
subcommand does, looking every function up on its module at call time so the
tracer's wrappers see the call. Inputs derive from the workload seed only.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rallycast import analysis, court as court_mod, dataset, network, scoring, training
from rallycast.court import CourtSpec, ShotTypeVocab

from checks import (
    check_distribution_tables,
    check_forecast,
    check_min_of_sets,
    check_train_losses,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
CORPUS32 = FIXTURES / "corpus32.csv"
OVERFIT_CFG = FIXTURES / "configs" / "overfit.cfg"

TAU = 4
N_SAMPLE_SETS = 6

# train-corpus32: epochs per operation; the first is warm-up and untimed
TRAIN_EPOCHS = 13
# forecast-long: held-out corpus of long rallies
FORECAST_RALLIES = 48
FORECAST_MEAN_LENGTH = 12.0
FORECAST_POOL_RALLIES = 200
FORECAST_POOL_MEAN_LENGTH = 40.0
# ingest-score: dataset rows ~ 7 * INGEST_RALLIES; prediction rows ~ 18 * SCORE_RALLIES
INGEST_RALLIES = 3_500
SCORE_RALLIES = 1_400
SCORE_NOISE_M = 0.8
GROUPINGS = ("ball_round", "player", "landing_zone", "player_location_zone")


@dataclass
class Outcome:
    """What one timed operation did, measured by the benchmark's own clock."""

    items: int  # units of work in the timed part
    seconds: float  # wall time of the timed part
    quality: float  # the workload's output-quality figure, lower is better
    checks: list[tuple[str, bool, str]]
    op_wall_s: float  # wall time of everything the trace covers
    per_unit: float = 1.0  # divisor that makes per-layer figures per epoch or per run
    useful_positions: int = 0  # forward positions whose output the workload used
    targets: int = 0  # target strokes trained, for tape nodes per target
    figures: dict[str, float] = field(default_factory=dict)
    losses: list[float] = field(default_factory=list)
    epoch_ms: list[float] = field(default_factory=list)


def read_flat_config(path: Path) -> dict[str, str]:
    """The `key = value` format of fixtures/configs; '#' starts a comment."""
    out = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def overfit_model_config(vocab: ShotTypeVocab, n_players: int = 2) -> network.ModelConfig:
    cfg = read_flat_config(OVERFIT_CFG)
    return network.ModelConfig(
        embed_dim=int(cfg["embed_dim"]),
        n_heads=int(cfg["n_heads"]),
        n_layers=int(cfg["n_layers"]),
        dropout_rate=float(cfg["dropout"]),
        vocab_size=vocab.size,
        n_players=n_players,
    )


class TrainCorpus32:
    """`rallycast train --config overfit.cfg` on corpus32, for a fixed epoch count.

    Every input is committed: the corpus, and overfit.cfg's hyperparameters
    including its seed, which drives the split, init, shuffling and dropout.
    So the workload seed changes nothing here. It must not: the last-epoch
    loss is a quality guard, and across init seeds it spreads by 10% and more.
    """

    def __init__(self, seed: int, workdir: Path):
        cfg = read_flat_config(OVERFIT_CFG)
        self.vocab = ShotTypeVocab.default()
        self.court = CourtSpec()
        rallies, _, _ = dataset.parse_dataset(CORPUS32, self.vocab, self.court, write_rejects=False)
        kept, _ = dataset.filter_training(rallies, dataset.FilterPolicy())
        self.train_set, self.val_set = dataset.split(kept, 0.8, int(cfg["seed"]))
        self.model_config = overfit_model_config(self.vocab)
        self.train_config = training.TrainConfig(
            epochs=TRAIN_EPOCHS,
            batch_size=int(cfg["batch_size"]),
            learning_rate=float(cfg["learning_rate"]),
            eval_every=0,
            seed=int(cfg["seed"]),
        )
        self.targets_per_epoch = sum(len(r) - TAU for r in self.train_set)

    def run(self) -> None:
        stamps: list[float] = []
        losses: list[float] = []

        def progress(stats, val_score):
            stamps.append(time.perf_counter())
            losses.append(stats.total_loss)

        self.stamps, self.losses = stamps, losses
        self.start = time.perf_counter()
        training.train(
            self.train_set, self.val_set, self.model_config, self.train_config, self.court, self.vocab,
            progress=progress,
        )
        self.end = time.perf_counter()

    def finish(self) -> Outcome:
        stamps, losses, start, end = self.stamps, self.losses, self.start, self.end
        epochs = len(stamps)
        timed = epochs - 1
        epoch_ms = [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
        return Outcome(
            items=self.targets_per_epoch * timed,
            seconds=stamps[-1] - stamps[0],
            quality=losses[-1],
            checks=check_train_losses(losses, TRAIN_EPOCHS),
            op_wall_s=end - start,
            per_unit=epochs,
            useful_positions=self.targets_per_epoch * epochs,
            targets=self.targets_per_epoch * epochs,
            figures={
                "train_ms_per_epoch": 1000.0 * (stamps[-1] - stamps[0]) / timed,
                "train_loss_last": losses[-1],
            },
            losses=losses,
            epoch_ms=epoch_ms,
        )


class ForecastLong:
    """`rallycast predict` in scoring mode, then `rallycast score`, on long rallies.

    The model is freshly initialised with overfit.cfg's shape and seed, so it
    is the same model for every workload seed: sampling cost does not depend
    on the weights, so training changes cannot move this. The workload seed
    drives the held-out corpus and the sampling streams.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.vocab = ShotTypeVocab.default()
        self.court = CourtSpec()
        synth = fixed_length_corpus(seed, self.vocab)
        heldout = workdir / "heldout.csv"
        dataset.write_dataset(synth, self.vocab, heldout)
        self.rallies, _, _ = dataset.parse_dataset(heldout, self.vocab, self.court, write_rejects=False)
        index = network.build_player_index(self.rallies)
        config = overfit_model_config(self.vocab, n_players=len(index))
        params = network.init_params(config, int(read_flat_config(OVERFIT_CFG)["seed"]))
        self.model = network.Forecaster(params, config, self.court, self.vocab, index)
        self.pred_path = workdir / "predictions.csv"

    def run(self) -> None:
        self.start = time.perf_counter()
        self.sets = scoring.generate_sample_sets(self.model, self.rallies, N_SAMPLE_SETS, self.seed)
        scoring.export_predictions(self.rallies, self.sets, self.vocab, self.pred_path)
        self.pred = scoring.import_predictions(self.pred_path, self.vocab)
        scorable = [r for r in self.rallies if len(r) >= TAU + 1]
        self.report = scoring.score_sample_sets(self.pred.sample_sets(scorable), scorable, protocol="min_of_sets")
        self.end = time.perf_counter()

    def finish(self) -> Outcome:
        sets, pred, report, start = self.sets, self.pred, self.report, self.start
        seconds = self.end - start

        generated = sum(len(suffix) for one in sets for suffix in one)
        in_memory = scoring.score_sample_sets(sets, self.rallies, protocol="min_of_sets")
        return Outcome(
            items=generated,
            seconds=seconds,
            quality=report.score,
            checks=check_forecast(sets, pred, self.rallies, self.vocab, report, in_memory, N_SAMPLE_SETS, TAU),
            op_wall_s=seconds,
            useful_positions=generated,
            figures={"predict_strokes_per_s": generated / seconds},
        )


def fixed_length_corpus(seed: int, vocab: ShotTypeVocab) -> list:
    """FORECAST_RALLIES synthesized rallies with the same lengths for every seed.

    The lengths are the quantiles of the synthesizer's own length law at
    mean_length 12 (4 plus a geometric excess). Each is cut from a seeded pool
    of longer rallies, so the seed changes the strokes but not the work: cost
    per sampled stroke grows with the history, and with free lengths the
    mean history alone moved 15% (interquartile) between seeds.
    """
    p = 1.0 / (FORECAST_MEAN_LENGTH - TAU)
    n = FORECAST_RALLIES
    lengths = [TAU + math.ceil(math.log(1.0 - (i + 0.5) / n) / math.log(1.0 - p)) for i in range(n)]
    pool = list(
        dataset.synthesize_dataset(
            dataset.SynthConfig(n_rallies=FORECAST_POOL_RALLIES, mean_length=FORECAST_POOL_MEAN_LENGTH, vocab=vocab, seed=seed)
        )
    )
    corpus = []
    for length in sorted(lengths, reverse=True):
        donor = next(r for r in pool if len(r) >= length)
        pool.remove(donor)
        corpus.append(dataclasses.replace(donor, strokes=donor.strokes[:length]))
    return sorted(corpus, key=lambda r: r.rally_id)


class IngestScore:
    """The CSV and analysis paths: `synth`/`validate`/`train` ingest and `score`/`analyze`.

    Filtering passes FilterPolicy(max_match_total_rounds=None): the
    synthesizer's 4 players make 6 matches, so above about 260 rallies every
    match exceeds the default 300-stroke cap and the default policy drops
    every rally.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.vocab = ShotTypeVocab.default()
        self.court = CourtSpec()
        self.synth = dataset.synthesize_dataset(
            dataset.SynthConfig(n_rallies=INGEST_RALLIES, vocab=self.vocab, seed=seed)
        )
        self.truths = self.synth[:SCORE_RALLIES]
        self.sets = noisy_sample_sets(self.truths, self.vocab, np.random.default_rng(seed))
        self.data_path = workdir / "dataset.csv"
        self.rewrite_path = workdir / "dataset_rewritten.csv"
        self.pred_path = workdir / "predictions.csv"
        self.score_path = workdir / "score.csv"

    def run(self) -> None:
        vocab, court = self.vocab, self.court
        self.start = time.perf_counter()
        dataset.write_dataset(self.synth, vocab, self.data_path)
        self.rallies, _, self.rejects = dataset.parse_dataset(self.data_path, vocab, court)
        self.violations = sum(len(court_mod.validate_rally(r, vocab, strict_serve=True)) for r in self.rallies)
        kept, _ = dataset.filter_training(self.rallies, dataset.FilterPolicy(max_match_total_rounds=None))
        dataset.split(kept, 0.8, self.seed)
        self.tables = [analysis.shot_distribution(self.rallies, g, vocab, court) for g in GROUPINGS]
        self.mid = time.perf_counter()

        scoring.export_predictions(self.truths, self.sets, vocab, self.pred_path)
        self.pred = scoring.import_predictions(self.pred_path, vocab)
        self.report = scoring.score_sample_sets(self.pred.sample_sets(self.truths), self.truths, protocol="min_of_sets")
        self.report.write_csv(self.score_path)
        _, self.vote_table = analysis.predicted_type_vote(self.pred, vocab)
        self.zones = analysis.landing_zone_distribution(self.pred, court)
        self.trend = analysis.round_trend(self.pred, vocab)
        self.means = analysis.mean_probability(self.pred, vocab)
        self.end = time.perf_counter()

    def finish(self) -> Outcome:
        rallies, rejects, violations, pred, report = self.rallies, self.rejects, self.violations, self.pred, self.report
        start, mid, end = self.start, self.mid, self.end
        vocab = self.vocab
        dataset.write_dataset(rallies, vocab, self.rewrite_path)
        ingest_rows = sum(len(r) for r in rallies)
        score_rows = sum(len(suffix) for per_sample in pred.rows.values() for suffix in per_sample.values())
        checks = [
            (
                "parse-write-parse byte-stable",
                self.rewrite_path.read_bytes() == self.data_path.read_bytes(),
                "rewritten dataset differs from the written one",
            ),
            ("zero rejects", len(rejects) == 0, f"{len(rejects)} rows rejected"),
            ("zero strict-serve violations", violations == 0, f"{violations} violations"),
        ]
        checks += check_distribution_tables(self.tables + [self.vote_table], self.zones, self.trend, self.means)
        checks.append(check_min_of_sets(report))
        return Outcome(
            items=ingest_rows + score_rows,
            seconds=end - start,
            quality=report.score,
            checks=checks,
            op_wall_s=end - start,
            figures={
                "ingest_rows_per_s": ingest_rows / (mid - start),
                "score_rows_per_s": score_rows / (end - mid),
            },
        )


def noisy_sample_sets(truths, vocab: ShotTypeVocab, rng: np.random.Generator):
    """Six sample sets built from the truth: jittered landings, random serve-free type distributions."""
    strokes = [s for rally in truths for s in rally.strokes[TAU:]]
    n = N_SAMPLE_SETS * len(strokes)
    probs = rng.dirichlet(np.ones(vocab.size), size=n)
    probs[:, list(vocab.serve_ids)] = 0.0
    probs = quantize_simplex6(probs / probs.sum(axis=1, keepdims=True))
    truth_xy = np.array([s.landing for s in strokes] * N_SAMPLE_SETS)
    landings = np.round(truth_xy + rng.normal(0.0, SCORE_NOISE_M, size=(n, 2)), 6).tolist()
    types = probs.argmax(axis=1).tolist()
    rows = iter(range(n))
    sets = []
    for _ in range(N_SAMPLE_SETS):
        one = []
        for rally in truths:
            suffix = []
            for s in rally.strokes[TAU:]:
                i = next(rows)
                suffix.append(
                    scoring.GeneratedStroke(
                        round_index=s.round_index,
                        player=s.player,
                        type_id=types[i],
                        landing=tuple(landings[i]),
                        type_probs=probs[i],
                    )
                )
            one.append(suffix)
        sets.append(one)
    return sets


def quantize_simplex6(probs: np.ndarray) -> np.ndarray:
    """Six-decimal probability rows that still sum to 1; each residual goes to the row's largest entry."""
    q = np.round(probs, 6)
    rows = np.arange(len(q))
    top = q.argmax(axis=1)
    q[rows, top] = np.round(q[rows, top] + 1.0 - q.sum(axis=1), 6)
    return q


WORKLOADS = {
    "train-corpus32": TrainCorpus32,
    "forecast-long": ForecastLong,
    "ingest-score": IngestScore,
}
