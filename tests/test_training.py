import math

import numpy as np
import pytest

from rallycast import autodiff as ad
from rallycast.autodiff import Tensor
from rallycast.court import denormalize_coord, normalize_coord
from rallycast.dataset import SynthConfig, synthesize_dataset
from rallycast.network import ModelConfig, forward_teacher_forced
from rallycast.scoring import PROB_FLOOR
from rallycast.training import Adam, TrainConfig, eval_best_of_k, step_loss, train

from conftest import make_rally, tiny_model


def _plain_heads(vocab, p_true, true_type, mu, sigma=(1.0, 1.0), rho=0.0):
    """Constant one-row heads: (1, V), (1, 2), (1, 2), (1,)."""
    probs = np.full(vocab.size, (1.0 - p_true) / (vocab.size - 1))
    probs[true_type] = p_true
    return Tensor(probs[None]), Tensor([mu]), Tensor(np.log([sigma])), Tensor([rho])


def test_step_loss_gaussian_at_mean(vocab, court):
    mu = (0.3, -0.2)
    target = make_rally([0, 2, 3, 4, 2], landings=[(1.0, 8.0)] * 4 + [denormalize_coord(mu, court)])
    heads = _plain_heads(vocab, 1.0, target.strokes[4].shot_type, mu)
    bundle = step_loss([heads], target.strokes[4:], court)
    assert bundle.shot_loss == 0.0
    assert abs(bundle.area_loss - math.log(2 * math.pi)) < 1e-9
    assert abs(bundle.area_loss - 1.8379) < 1e-4


def test_step_loss_half_probability(vocab, court):
    target = make_rally([0, 2, 3, 4, 2])
    heads = _plain_heads(vocab, 0.5, target.strokes[4].shot_type, (0.0, 0.0))
    bundle = step_loss([heads], target.strokes[4:], court)
    assert abs(bundle.shot_loss - math.log(2)) < 1e-12


def test_step_loss_two_step_mean(vocab, court):
    target = make_rally([0, 2, 3, 4, 2, 3])
    heads = [
        _plain_heads(vocab, 0.5, target.strokes[4].shot_type, (0.0, 0.0)),
        _plain_heads(vocab, 0.25, target.strokes[5].shot_type, (0.0, 0.0)),
    ]
    bundle = step_loss(heads, target.strokes[4:], court)
    assert abs(bundle.shot_loss - 1.0397) < 1e-4
    assert abs(bundle.shot_loss - (0.6931471805599453 + 1.3862943611198906) / 2) < 1e-12


def test_step_loss_total_is_sum(vocab, court):
    target = make_rally([0, 2, 3, 4, 2])
    heads = _plain_heads(vocab, 0.5, target.strokes[4].shot_type, (0.1, 0.2), sigma=(0.5, 2.0), rho=0.3)
    bundle = step_loss([heads], target.strokes[4:], court)
    assert abs(bundle.total_loss - (bundle.shot_loss + bundle.area_loss)) < 1e-12
    assert bundle.node.size == 1


def test_step_loss_length_mismatch(vocab, court):
    target = make_rally([0, 2, 3, 4, 2])
    with pytest.raises(ValueError):
        step_loss([], target.strokes[4:], court)


def _reference_losses(rows, targets, court):
    """Per-stroke mean CE and mean NLL from the closed-form bivariate-Gaussian density, in floats."""
    ce, nll = [], []
    for (probs, mu, sigma, rho), stroke in zip(rows, targets):
        ce.append(-math.log(max(probs[stroke.shot_type], PROB_FLOOR)))
        x, y = normalize_coord(stroke.landing, court)
        zx, zy = (x - mu[0]) / sigma[0], (y - mu[1]) / sigma[1]
        q = (zx * zx + zy * zy - 2.0 * rho * zx * zy) / (1.0 - rho * rho)
        density = math.exp(-0.5 * q) / (2.0 * math.pi * sigma[0] * sigma[1] * math.sqrt(1.0 - rho * rho))
        nll.append(-math.log(density))
    return sum(ce) / len(ce), sum(nll) / len(nll)


def _random_heads(rng, rally, vocab, court, tau=4):
    """Constant heads for one rally's targets: sigma_x != sigma_y, rho != 0, landings near mu."""
    targets = rally.strokes[tau:]
    rows = []
    for stroke in targets:
        probs = rng.dirichlet(np.ones(vocab.size))
        sigma = rng.uniform(0.3, 2.0, size=2)
        mu = np.array(normalize_coord(stroke.landing, court)) + rng.normal(0.0, 0.5, size=2) * sigma
        rows.append((probs, mu, sigma, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.9))))
    heads = (
        Tensor(np.stack([r[0] for r in rows])),
        Tensor(np.stack([r[1] for r in rows])),
        Tensor(np.log(np.stack([r[2] for r in rows]))),
        Tensor([r[3] for r in rows]),
    )
    return rows, heads


def test_step_loss_matches_a_per_stroke_closed_form_reference(vocab, court, caplog):
    rng = np.random.default_rng(11)
    rallies = [
        make_rally([0, 2, 3, 4, 2], rally_id="a"),
        make_rally([1, 2, 5, 6, 7, 8, 9], rally_id="b"),
        make_rally([0, 3, 4, 5, 6, 7, 8, 9, 2, 3], rally_id="c"),
    ]
    rows, heads, targets = [], [], []
    for rally in rallies:
        r, h = _random_heads(rng, rally, vocab, court)
        rows.extend(r)
        heads.append(h)
        targets.extend(rally.strokes[4:])
    # push one true-type probability below the CE floor
    probs, true_type = rows[5][0], targets[5].shot_type
    probs[true_type] = 1e-15
    probs /= probs.sum()
    heads[2][0].data[1] = probs
    assert [h[0].shape[0] for h in heads] == [1, 3, 6]

    with caplog.at_level("WARNING", logger="rallycast.training"):
        bundle = step_loss(heads, targets, court)
    shot_ref, area_ref = _reference_losses(rows, targets, court)
    assert abs(bundle.shot_loss - shot_ref) < 1e-10
    assert abs(bundle.area_loss - area_ref) < 1e-10
    assert bundle.n_steps == 10
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage().startswith("1 true-type probabilities underflowed")

    # the loss graph has the same size for 10 targets as for 3
    short = [make_rally([0, 2, 3, 4, 2], rally_id=f"s{i}") for i in range(3)]
    short_heads = [_random_heads(rng, rally, vocab, court)[1] for rally in short]
    short_loss = step_loss(short_heads, [r.strokes[4] for r in short], court)
    assert len(ad.backward(bundle.node)) == len(ad.backward(short_loss.node))


@pytest.fixture
def corpus(vocab):
    return synthesize_dataset(SynthConfig(n_rallies=8, mean_length=6.0, seed=3, vocab=vocab))


def _quick_config(**over):
    base = dict(epochs=2, batch_size=4, learning_rate=1e-3, eval_every=0, eval_samples=2, seed=1)
    base.update(over)
    return TrainConfig(**base)


def _model_config(vocab, **over):
    base = dict(embed_dim=4, n_heads=2, n_layers=1, dropout_rate=0.2, vocab_size=vocab.size)
    base.update(over)
    return ModelConfig(**base)


def test_zero_learning_rate_leaves_params_unchanged(vocab, corpus):
    model, _ = train(corpus, [], _model_config(vocab), _quick_config(learning_rate=0.0), vocab=vocab)
    from rallycast.network import init_params

    fresh = init_params(model.config, 1)
    for name in model.params.names():
        assert np.array_equal(model.params[name].data, fresh[name].data)


def test_training_deterministic(vocab, corpus):
    runs = []
    for _ in range(2):
        model, report = train(corpus, corpus[:2], _model_config(vocab), _quick_config(eval_every=1), vocab=vocab)
        runs.append((model, report))
    r0, r1 = runs[0][1], runs[1][1]
    assert r0.epochs == r1.epochs
    assert r0.evals == r1.evals
    for name in runs[0][0].params.names():
        assert np.array_equal(runs[0][0].params[name].data, runs[1][0].params[name].data)


def test_training_loss_decreases_on_tiny_corpus(vocab, corpus):
    model, report = train(corpus, [], _model_config(vocab), _quick_config(epochs=40, learning_rate=3e-3), vocab=vocab)
    assert report.epochs[-1].total_loss < report.epochs[0].total_loss


def test_single_tiny_step_does_not_increase_smooth_loss(vocab, corpus):
    config = _model_config(vocab, dropout_rate=0.0)
    model = tiny_model(corpus, vocab, dropout_rate=0.0, param_scale=None)

    def batch_loss():
        heads, targets = [], []
        for rally in corpus[:4]:
            heads.append(forward_teacher_forced(model, rally, training=True))
            targets.extend(rally.strokes[4:])
        return step_loss(heads, targets, model.court)

    before = batch_loss()
    model.params.zero_grad()
    ad.backward(before.node)
    Adam(model.params, _quick_config(learning_rate=1e-6)).step()
    after = batch_loss()
    assert after.total_loss <= before.total_loss + 1e-6


def test_training_never_nans_across_seeds(vocab):
    for seed in range(10):
        rallies = synthesize_dataset(SynthConfig(n_rallies=6, mean_length=6.0, seed=seed, vocab=vocab))
        _, report = train(
            rallies, [], _model_config(vocab), _quick_config(epochs=3, seed=seed), vocab=vocab
        )
        for stats in report.epochs:
            assert math.isfinite(stats.total_loss)


def test_train_report_csv(tmp_path, vocab, corpus):
    _, report = train(corpus, corpus[:2], _model_config(vocab), _quick_config(eval_every=2), vocab=vocab)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,shot_loss,area_loss,total_loss,val_score"
    assert len(lines) == 1 + len(report.epochs)
    assert lines[1].endswith(",")  # epoch 1 had no eval
    assert not lines[2].endswith(",")  # epoch 2 did


def test_train_rejects_short_rallies(vocab):
    with pytest.raises(ValueError):
        train([make_rally([0, 2, 3])], [], _model_config(vocab), _quick_config(), vocab=vocab)


# ---------------------------------------------------------------------------
# best-of-k evaluation
# ---------------------------------------------------------------------------

def test_eval_best_of_k_nested_monotonicity(vocab, corpus):
    model = tiny_model(corpus, vocab, param_scale=0.4)
    scores = {k: eval_best_of_k(model, corpus, k, seed=5).score for k in (1, 10, 100)}
    assert scores[100] <= scores[10] <= scores[1]


def test_eval_best_of_k_deterministic(vocab, corpus):
    model = tiny_model(corpus, vocab, param_scale=0.4)
    a = eval_best_of_k(model, corpus, 4, seed=2)
    b = eval_best_of_k(model, corpus, 4, seed=2)
    assert a.score == b.score
    assert a.sample_losses == b.sample_losses


def test_eval_best_of_k_argument_checks(vocab, corpus):
    model = tiny_model(corpus, vocab)
    with pytest.raises(ValueError):
        eval_best_of_k(model, corpus, 0, seed=1)
    with pytest.raises(ValueError):
        eval_best_of_k(model, [], 2, seed=1)
