"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live). The slow end is the 300-epoch
overfit run; everything else is seconds.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from rallycast.analysis import landing_zone_distribution, shot_distribution
from rallycast.court import CourtSpec, Player, ShotTypeVocab
from rallycast.dataset import parse_dataset
from rallycast.network import (
    Forecaster,
    ModelConfig,
    embed_strokes,
    forward_teacher_forced,
    init_params,
    sinusoidal_encoding,
)
from rallycast.scoring import (
    GeneratedStroke,
    import_predictions,
    sample,
    score_sample_sets,
)
from rallycast.training import TrainConfig, eval_best_of_k, step_loss, train

from conftest import (
    FIXTURES,
    fractions_by_group,
    make_rally,
    prediction_file,
    random_rallies,
    tiny_model,
    vocab_from_names,
    zero_params,
)
from gradient_reference import gradient_check
from metric_reference import reference_min6, reference_sample_set_loss
import test_autodiff as op_checks

CORPUS32 = FIXTURES / "corpus32.csv"
HAND_SCORED = FIXTURES / "hand_scored"


def _report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rallycast", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def corpus():
    vocab = ShotTypeVocab.default()
    rallies, _, _ = parse_dataset(CORPUS32, vocab, write_rejects=False)
    return vocab, rallies


def test_criterion_scorer_oracle(corpus):
    vocab, _ = corpus
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        truths = random_rallies(rng, int(rng.integers(1, 5)), vocab)
        suffixes = []
        for rally in truths:
            one = []
            for k in range(5, len(rally) + 1):
                probs = rng.dirichlet(np.ones(vocab.size))
                one.append(
                    GeneratedStroke(
                        k,
                        Player.A if k % 2 else Player.B,
                        int(np.argmax(probs)),
                        (float(rng.uniform(0, 6.1)), float(rng.uniform(5, 13.4))),
                        probs,
                    )
                )
            suffixes.append(one)
        worst = max(worst, abs(score_sample_sets([suffixes], truths).sample_losses[0] - reference_sample_set_loss(suffixes, truths)))

    truth_rallies, _, _ = parse_dataset(HAND_SCORED / "truth.csv", vocab, write_rejects=False)
    pred = import_predictions(HAND_SCORED / "predictions.csv", vocab)
    hand = score_sample_sets(pred.sample_sets(truth_rallies), truth_rallies).score
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and abs(hand - 1.539721) < 1e-6 and elapsed < 10
    _report("scorer-oracle", ok, f"max |diff|={worst:.2e}, hand case={hand:.6f}, {elapsed:.1f}s")


def test_criterion_min_of_six(corpus):
    """The min of six through score_sample_sets, the route `rallycast score` takes, on one-stroke suffixes."""
    vocab, _ = corpus
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    truth = make_rally([0, 2, 3, 4, 5])  # one target, round 5, hit by A
    ok = True
    for _ in range(1000):
        probs = rng.dirichlet(np.ones(vocab.size), size=6)
        landings = rng.uniform((0.0, 0.0), (6.1, 13.4), size=(6, 2)).tolist()
        sets = [[[GeneratedStroke(5, Player.A, int(np.argmax(p)), tuple(xy), p)]] for p, xy in zip(probs, landings)]
        report = score_sample_sets(sets, [truth])
        values, base = report.sample_losses, report.min_of_sets
        ok &= base == report.score == reference_min6(values)
        ok &= base == min(values)
        order = rng.permutation(6)
        shuffled = score_sample_sets([sets[i] for i in order], [truth])
        ok &= shuffled.sample_losses == [values[i] for i in order] and shuffled.min_of_sets == base
        ok &= all(base <= v for v in values)
    elapsed = time.perf_counter() - started
    _report("min-of-6", ok and elapsed < 1.0, f"{elapsed:.2f}s over 1000 six-set cases")


def test_criterion_gradient_integrity():
    started = time.perf_counter()
    # every primitive at < 1e-6 over 20 random shapes/seeds
    for case in range(20):
        op_checks.test_grad_add(case)
        op_checks.test_grad_matmul_transpose_scale(case)
        op_checks.test_grad_gate(case)
        op_checks.test_grad_landing_params(case)
        op_checks.test_grad_relu(case)
        op_checks.test_grad_softmax(case)
        op_checks.test_grad_reductions(case)
        op_checks.test_grad_concat_slice(case)
        op_checks.test_grad_embedding_masked_fill(case)
        op_checks.test_grad_layer_norm(case)
        op_checks.test_grad_attention(case)
        op_checks.test_grad_linear(case)
        op_checks.test_grad_dropout_fixed_mask(case)
        op_checks.test_grad_cross_entropy(case)
        op_checks.test_grad_gaussian_nll(case)

    # full model at d=4, V=4, 2 heads, sequence length 5
    vocab = vocab_from_names(["long service", "net shot", "smash", "drive"], ["long service"])
    rally = make_rally([0, 1, 2, 3, 1, 2])
    court = CourtSpec()
    model = tiny_model([rally], vocab, seed=3)
    names = list(model.params)
    base = [model.params[n].data.copy() for n in names]

    def loss_fn(leaves):
        for name, leaf in zip(names, leaves):
            model.params[name] = leaf
        heads = forward_teacher_forced(model, rally)
        return step_loss([heads], [rally], court).node

    err = gradient_check(loss_fn, base)
    elapsed = time.perf_counter() - started
    ok = err < 1e-5 and elapsed < 120
    _report("gradient-integrity", ok, f"full-model rel err={err:.2e}, {elapsed:.1f}s")


def test_criterion_embedding_mode_contract(corpus):
    vocab, rallies = corpus
    started = time.perf_counter()
    rally = rallies[0]
    results = {}
    for mode in ("modified", "baseline"):
        model = tiny_model(rallies, vocab, embedding_mode=mode, param_scale=0.4, seed=2)
        inputs = model.rally_inputs(rally, len(rally))
        pe = sinusoidal_encoding(len(rally), model.config.embed_dim)
        _, area0 = embed_strokes(inputs, model.params, model.config, pe)
        model.params["player_emb"].data += 0.37
        _, area1 = embed_strokes(inputs, model.params, model.config, pe)
        insensitive = np.array_equal(area0.data, area1.data)

        zero_params(model.params)
        model.params["area_b"].data[:] = -1.5
        _, area = embed_strokes(inputs, model.params, model.config, pe)
        residual = area.data - pe
        keeps_negative = np.all(residual < 0.0)
        clamped = np.all(residual == 0.0)
        results[mode] = (insensitive, keeps_negative, clamped)

    ok = results["modified"][0] and results["modified"][1] and not results["modified"][2]
    ok &= (not results["baseline"][0]) and (not results["baseline"][1]) and results["baseline"][2]
    elapsed = time.perf_counter() - started
    _report("embedding-mode-contract", ok and elapsed < 10, f"modified={results['modified']}, baseline={results['baseline']}")


def test_criterion_overfit_experiment(corpus):
    vocab, rallies = corpus
    from rallycast.cli import load_config_file

    cfg = load_config_file(str(FIXTURES / "configs" / "overfit.cfg"))
    started = time.perf_counter()
    model_config = ModelConfig(
        embed_dim=cfg["embed_dim"],
        n_heads=cfg["n_heads"],
        n_layers=cfg["n_layers"],
        dropout_rate=cfg["dropout"],
        vocab_size=vocab.size,
    )
    train_config = TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        eval_every=cfg["eval_every"],
        seed=cfg["seed"],
    )
    assert model_config.embed_dim == 16 and train_config.batch_size == 16
    assert model_config.dropout_rate == 0.2 and train_config.epochs == 300

    model, report = train(rallies, [], model_config, train_config, vocab=vocab)

    heads = [forward_teacher_forced(model, rally) for rally in rallies]
    final_shot = step_loss(heads, rallies, model.court).shot_loss

    untrained = Forecaster(init_params(model.config, train_config.seed), model.config, model.court, vocab, model.player_index)
    score_before = eval_best_of_k(untrained, rallies, 6, train_config.seed).score
    score_after = eval_best_of_k(model, rallies, 6, train_config.seed).score
    drop = 1.0 - score_after / score_before
    elapsed = time.perf_counter() - started

    ok = final_shot < 0.1 and drop >= 0.6 and elapsed < 300
    _report(
        "overfit-experiment",
        ok,
        f"shot_loss={final_shot:.4f}, score {score_before:.3f}->{score_after:.3f} ({100 * drop:.1f}% drop), {elapsed:.0f}s",
    )
    assert report.epochs[-1].total_loss < 0.5 * report.epochs[0].total_loss  # loss-decrease invariant


def test_criterion_serve_mask(corpus):
    vocab, rallies = corpus
    started = time.perf_counter()
    serve_ids = set(vocab.serve_ids)
    rng = np.random.default_rng(17)
    generated = 0
    bad = 0
    trial = 0
    while generated < 10_000:
        model = tiny_model(rallies, vocab, param_scale=float(rng.uniform(0.2, 1.2)), seed=trial)
        tasks = [(r_idx, 10, np.random.SeedSequence([trial, r_idx])) for r_idx in range(len(rallies))]
        for suffix in sample(model, rallies, tasks):
            for g in suffix:
                generated += 1
                if g.type_id in serve_ids or any(g.type_probs[s] != 0.0 for s in serve_ids):
                    bad += 1
        trial += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 30
    _report("serve-mask", ok, f"{generated} strokes, {bad} serves, {elapsed:.1f}s")


def test_criterion_best_of_k_monotonicity(corpus):
    vocab, rallies = corpus
    model = tiny_model(rallies, vocab, param_scale=0.5, seed=4)
    seed = 31
    sets = []
    for j in range(100):
        tasks = [(r_idx, len(rally) - 4, np.random.SeedSequence([seed, 4, r_idx, j])) for r_idx, rally in enumerate(rallies)]
        sets.append(sample(model, rallies, tasks))
    reports = {k: score_sample_sets(sets[:k], rallies, protocol="best_of_k") for k in (1, 10, 100)}

    def score_at(k):
        return reports[k].per_rally  # rally id -> the sum of its best set's stroke losses

    ok = True
    for rally in rallies:
        ok &= score_at(100)[rally.rally_id] <= score_at(10)[rally.rally_id] <= score_at(1)[rally.rally_id]
    s1, s10, s100 = (reports[k].score for k in (1, 10, 100))
    ok &= s100 <= s10 <= s1
    _report("best-of-k-monotonicity", ok, f"scores k=1:{s1:.3f} k=10:{s10:.3f} k=100:{s100:.3f}")


def test_criterion_cli_determinism(tmp_path):
    started = time.perf_counter()
    byte_equal = {}

    outs = [tmp_path / f"synth{i}.csv" for i in (0, 1)]
    for out in outs:
        assert _cli("synth", "--n", 12, "--seed", 3, "--out", out).returncode == 0
    byte_equal["synth"] = outs[0].read_bytes() == outs[1].read_bytes()

    run_dirs = [tmp_path / f"run{i}" for i in (0, 1)]
    for d in run_dirs:
        r = _cli(
            "train", "--data", CORPUS32, "--out-dir", d, "--embed-dim", 4, "--epochs", 2,
            "--batch-size", 8, "--eval-every", 2, "--eval-samples", 2, "--seed", 11,
        )
        assert r.returncode == 0, r.stderr
    byte_equal["train"] = all(
        (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()
        for name in ("model.ckpt", "report.csv", "train_split.csv", "val_split.csv")
    )

    preds = [tmp_path / f"pred{i}.csv" for i in (0, 1)]
    for p in preds:
        r = _cli("predict", "--checkpoint", run_dirs[0] / "model.ckpt", "--data", run_dirs[0] / "val_split.csv", "--out", p, "--seed", 9)
        assert r.returncode == 0, r.stderr
    byte_equal["predict"] = preds[0].read_bytes() == preds[1].read_bytes()

    scores = [tmp_path / f"score{i}.csv" for i in (0, 1)]
    for s in scores:
        r = _cli("score", "--predictions", HAND_SCORED / "predictions.csv", "--truth", HAND_SCORED / "truth.csv", "--out", s)
        assert r.returncode == 0, r.stderr
    byte_equal["score"] = scores[0].read_bytes() == scores[1].read_bytes()

    elapsed = time.perf_counter() - started
    ok = all(byte_equal.values())
    _report("cli-determinism", ok, f"{byte_equal}, {elapsed:.1f}s")


def test_criterion_analysis_partitions(corpus):
    vocab, rallies = corpus
    court = CourtSpec()
    ok = True
    worst = 0.0
    for grouping in ("ball_round", "player", "landing_zone", "player_location_zone"):
        table = shot_distribution(rallies, grouping, vocab, court)
        for total in fractions_by_group(table).values():
            worst = max(worst, abs(total - 1.0))
    ok &= worst < 1e-9

    rng = np.random.default_rng(6)
    n = 100_000
    strokes = [
        GeneratedStroke(
            5,
            Player.A,
            2,
            (float(rng.uniform(0, court.width_m)), float(rng.uniform(court.length_m / 2, court.length_m))),
            np.ones(vocab.size) / vocab.size,
        )
        for _ in range(n)
    ]
    hist = landing_zone_distribution(prediction_file(vocab, {("r", 1): strokes}), court)
    deviation = max(abs(hist.fractions[z] - 1 / 9) for z in range(1, 10))
    ok &= deviation < 0.02 and hist.fractions[10] == 0.0
    _report("analysis-partitions", ok, f"fraction err={worst:.1e}, zone deviation={deviation:.4f} at n={n}")


def test_criterion_mode_comparison_harness(tmp_path):
    """End-to-end CLI run of both embedding modes with trend tables."""
    started = time.perf_counter()
    trends = {}
    for mode in ("baseline", "modified"):
        d = tmp_path / mode
        r = _cli(
            "train", "--data", CORPUS32, "--out-dir", d, "--embed-dim", 8, "--epochs", 3,
            "--batch-size", 8, "--seed", 21, "--embedding-mode", mode, "--train-fraction", 0.9,
        )
        assert r.returncode == 0, r.stderr
        pred = d / "preds.csv"
        r = _cli("predict", "--checkpoint", d / "model.ckpt", "--data", d / "train_split.csv", "--out", pred, "--seed", 21)
        assert r.returncode == 0, r.stderr
        r = _cli("analyze", "--kind", "trend", "--predictions", pred, "--out-dir", d)
        assert r.returncode == 0, r.stderr
        trends[mode] = (d / "analysis_round_trend_ball_round.csv").read_text().splitlines()

    vocab = ShotTypeVocab.default()
    ok = True
    for mode, lines in trends.items():
        header = lines[0].split(",")
        ok &= header[0] == "ball_round" and len(header) == 1 + vocab.size
        ok &= len(lines) >= 2
        for line in lines[1:]:
            cells = line.split(",")
            ok &= abs(sum(float(c) for c in cells[1:]) - 1.0) < 1e-9
    elapsed = time.perf_counter() - started
    _report("mode-comparison-harness", ok, f"rounds per table: {[len(t) - 1 for t in trends.values()]}, {elapsed:.1f}s")
