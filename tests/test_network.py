import numpy as np
import pytest

from rallycast import autodiff as ad
from rallycast.autodiff import Tensor, backward, grad_of, gradient_check
from rallycast.court import CourtSpec, Player, ShotTypeVocab
from rallycast.dataset import ParseError
from rallycast.network import (
    ModelConfig,
    embed_strokes,
    encode_contexts,
    forward_teacher_forced,
    fuse_contexts,
    prediction_heads,
    sinusoidal_encoding,
    stroke_inputs,
)
from rallycast.training import step_loss

from conftest import FIXTURES, make_rally, small_vocab, tiny_model


def _replace_stroke(rally, index, **changes):
    strokes = list(rally.strokes)
    old = strokes[index]
    strokes[index] = type(old)(
        round_index=changes.get("round_index", old.round_index),
        player=changes.get("player", old.player),
        shot_type=changes.get("shot_type", old.shot_type),
        landing=changes.get("landing", old.landing),
        player_location=changes.get("player_location", old.player_location),
    )
    return type(rally)(rally.rally_id, rally.match_id, rally.player_a, rally.player_b, tuple(strokes))


@pytest.fixture
def setup():
    vocab = small_vocab()
    rally = make_rally([0, 2, 3, 4, 2, 3, 4])
    model = tiny_model([rally], vocab, param_scale=0.4)
    return vocab, rally, model


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_zero_params_leave_positional_encoding_only(setup):
    vocab, rally, model = setup
    model.params.set_all(0.0)
    ids = model.stroke_player_ids((rally.player_a, rally.player_b), [s.player for s in rally.strokes])
    pe = sinusoidal_encoding(len(rally), model.config.embed_dim)
    for mode in ("modified", "baseline"):
        config = ModelConfig(**{**model.config.__dict__, "embedding_mode": mode})
        e_s, e_a = embed_strokes(stroke_inputs(rally.strokes, ids, model.court), model.params, config)
        assert np.array_equal(e_s.data, pe)
        assert np.array_equal(e_a.data, pe)


def test_modified_area_channel_ignores_player_embedding(setup):
    vocab, rally, model = setup
    ids = model.stroke_player_ids((rally.player_a, rally.player_b), [s.player for s in rally.strokes])
    e_s0, e_a0 = embed_strokes(stroke_inputs(rally.strokes, ids, model.court), model.params, model.config)
    model.params["player_emb"].data += 0.731
    e_s1, e_a1 = embed_strokes(stroke_inputs(rally.strokes, ids, model.court), model.params, model.config)
    assert np.array_equal(e_a0.data, e_a1.data)  # bit-identical
    assert not np.array_equal(e_s0.data, e_s1.data)


def test_baseline_area_channel_sees_player_embedding(setup):
    vocab, rally, model = setup
    config = ModelConfig(**{**model.config.__dict__, "embedding_mode": "baseline"})
    ids = model.stroke_player_ids((rally.player_a, rally.player_b), [s.player for s in rally.strokes])
    _, e_a0 = embed_strokes(stroke_inputs(rally.strokes, ids, model.court), model.params, config)
    model.params["player_emb"].data += 0.5
    _, e_a1 = embed_strokes(stroke_inputs(rally.strokes, ids, model.court), model.params, config)
    assert not np.array_equal(e_a0.data, e_a1.data)


def test_area_relu_only_in_baseline_mode(setup):
    vocab, rally, model = setup
    # force the landing projection negative, silence every other contribution
    model.params.set_all(0.0)
    model.params["area_w"].data[:] = 0.0
    model.params["area_b"].data[:] = -2.0
    ids = model.stroke_player_ids((rally.player_a, rally.player_b), [s.player for s in rally.strokes])
    pe = sinusoidal_encoding(len(rally), model.config.embed_dim)

    modified = ModelConfig(**{**model.config.__dict__, "embedding_mode": "modified"})
    _, e_a = embed_strokes(stroke_inputs(rally.strokes, ids, model.court), model.params, modified)
    assert np.allclose(e_a.data - pe, -2.0)  # negatives preserved

    baseline = ModelConfig(**{**model.config.__dict__, "embedding_mode": "baseline"})
    _, e_a = embed_strokes(stroke_inputs(rally.strokes, ids, model.court), model.params, baseline)
    assert np.allclose(e_a.data - pe, 0.0)  # clamped at zero


def test_area_gradient_wrt_player_table_is_zero_in_modified_mode(setup):
    vocab, rally, model = setup
    ids = model.stroke_player_ids((rally.player_a, rally.player_b), [s.player for s in rally.strokes])
    _, e_a = embed_strokes(stroke_inputs(rally.strokes, ids, model.court), model.params, model.config)
    backward(ad.tsum(e_a))
    assert np.array_equal(grad_of(model.params["player_emb"]), np.zeros_like(model.params["player_emb"].data))


def test_embed_rejects_unknown_player_id(setup):
    vocab, rally, model = setup
    with pytest.raises(ValueError):
        embed_strokes(stroke_inputs(rally.strokes, [99] * len(rally), model.court), model.params, model.config)


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

def test_length_one_contexts_coincide(setup):
    vocab, rally, model = setup
    x = Tensor(np.random.default_rng(0).normal(size=(1, model.config.embed_dim)))
    rally_ctx, player_ctx = encode_contexts(x, [Player.A], model.params, model.config)
    assert np.array_equal(rally_ctx.data, player_ctx.data)


def test_causality_bit_exact(setup):
    vocab, rally, model = setup
    probs0, mu0, ls0, rho0 = model.forward_positions(rally.strokes, (rally.player_a, rally.player_b))
    perturbed = _replace_stroke(rally, 4, landing=(1.0, 12.9), shot_type=5)
    probs1, mu1, ls1, rho1 = model.forward_positions(perturbed.strokes, (rally.player_a, rally.player_b))
    k = 4  # positions 0..3 precede the change
    assert np.array_equal(probs0.data[:k], probs1.data[:k])
    assert np.array_equal(mu0.data[:k], mu1.data[:k])
    assert np.array_equal(ls0.data[:k], ls1.data[:k])
    assert np.array_equal(rho0.data[:k], rho1.data[:k])
    assert not np.array_equal(probs0.data[k:], probs1.data[k:])


def test_player_context_masks_out_other_player(setup):
    vocab, rally, model = setup
    players = [s.player for s in rally.strokes]
    ids = model.stroke_player_ids((rally.player_a, rally.player_b), players)

    def player_ctx_at_a_positions(strokes):
        e_s, e_a = embed_strokes(stroke_inputs(strokes, ids, model.court), model.params, model.config)
        x = ad.scale(ad.add(e_s, e_a), 0.5)
        _, player_ctx = encode_contexts(x, players, model.params, model.config)
        a_rows = [i for i, p in enumerate(players) if p is Player.A]
        return player_ctx.data[a_rows]

    base = player_ctx_at_a_positions(rally.strokes)
    changed = _replace_stroke(rally, 1, landing=(0.4, 7.1), shot_type=4)  # stroke 2 is B's
    after = player_ctx_at_a_positions(changed.strokes)
    assert np.max(np.abs(base - after)) <= 1e-12


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_zero_gate_averages_contexts(setup):
    vocab, rally, model = setup
    rng = np.random.default_rng(5)
    n, d = 4, model.config.embed_dim
    rally_ctx, player_ctx = Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d)))
    pe = Tensor(sinusoidal_encoding(n, d))
    model.params["gate_w"].data[:] = 0.0
    model.params["gate_b"].data[:] = 0.0
    fused = fuse_contexts(rally_ctx, player_ctx, pe, model.params)
    assert np.allclose(fused.data, (rally_ctx.data + player_ctx.data) / 2, atol=1e-15)


def test_saturated_gate_selects_rally_context(setup):
    vocab, rally, model = setup
    rng = np.random.default_rng(6)
    n, d = 3, model.config.embed_dim
    rally_ctx, player_ctx = Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d)))
    pe = Tensor(sinusoidal_encoding(n, d))
    model.params["gate_w"].data[:] = 0.0
    model.params["gate_b"].data[:] = 40.0
    fused = fuse_contexts(rally_ctx, player_ctx, pe, model.params)
    assert np.max(np.abs(fused.data - rally_ctx.data)) < 1e-6


def test_equal_contexts_pass_through_any_gate(setup):
    vocab, rally, model = setup
    rng = np.random.default_rng(7)
    n, d = 5, model.config.embed_dim
    ctx = Tensor(rng.normal(size=(n, d)))
    pe = Tensor(sinusoidal_encoding(n, d))
    fused = fuse_contexts(ctx, Tensor(ctx.data.copy()), pe, model.params)
    assert np.allclose(fused.data, ctx.data, atol=1e-12)


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

def test_zero_heads_give_uniform_and_unit_gaussian(setup):
    vocab, rally, model = setup
    for name in ("type_head_w", "type_head_b", "area_head_w", "area_head_b"):
        model.params[name].data[:] = 0.0
    fused = Tensor(np.random.default_rng(0).normal(size=(1, model.config.embed_dim)))
    probs, mu, log_sigma, rho = prediction_heads(fused, model.params)
    assert np.allclose(probs.data, 1.0 / vocab.size)
    assert np.allclose(np.exp(log_sigma.data), 1.0)
    assert rho.data[0] == 0.0


def test_head_ranges_over_random_draws(setup):
    vocab, rally, model = setup
    rng = np.random.default_rng(42)
    for _ in range(1000):
        for t in model.params.tensors.values():
            t.data[:] = rng.normal(0.0, 1.5, size=t.shape)
        fused = Tensor(rng.normal(0.0, 2.0, size=(1, model.config.embed_dim)))
        probs, mu, log_sigma, rho = prediction_heads(fused, model.params)
        assert abs(probs.data.sum() - 1.0) < 1e-9
        assert np.all(probs.data >= 0.0)
        assert np.all(np.exp(log_sigma.data) > 0.0)
        assert abs(rho.data[0]) < 1.0


# ---------------------------------------------------------------------------
# teacher-forced forward
# ---------------------------------------------------------------------------

def test_forward_step_counts(setup):
    vocab, rally, model = setup
    five = make_rally([0, 2, 3, 4, 2])
    nine = make_rally([0, 2, 3, 4, 2, 3, 4, 5, 2])
    for rally_, m in ((five, 1), (nine, 5)):
        probs, mu, log_sigma, rho = forward_teacher_forced(model, rally_)
        assert probs.shape == (m, model.config.vocab_size)
        assert mu.shape == log_sigma.shape == (m, 2) and rho.shape == (m,)
    with pytest.raises(ValueError):
        forward_teacher_forced(model, make_rally([0, 2, 3, 4]))


def test_forward_eval_mode_is_deterministic(setup):
    vocab, rally, model = setup
    a = forward_teacher_forced(model, rally)
    b = forward_teacher_forced(model, rally)
    for ha, hb in zip(a, b):
        assert np.array_equal(ha.data, hb.data)


def test_forward_training_keeps_graph_nodes(setup):
    vocab, rally, model = setup
    heads = forward_teacher_forced(model, rally, training=True, rng=np.random.default_rng(0))
    assert all(h._bwd is not None for h in heads)


# ---------------------------------------------------------------------------
# checkpoint round-trip
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path, setup):
    vocab, rally, model = setup
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = type(model).load(path)
    assert loaded.config == model.config
    assert loaded.player_index == model.player_index
    assert loaded.vocab == model.vocab
    for name in model.params.names():
        assert np.array_equal(loaded.params[name].data, model.params[name].data)
    loaded.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path, setup):
    vocab, rally, model = setup
    path = tmp_path / "model.ckpt"
    model.save(path)
    raw = path.read_bytes()
    last = model.params.names()[-1]

    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[:-3])
    with pytest.raises(ParseError, match=f"array '{last}'"):
        type(model).load(cut)

    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(raw + b"\0" * 8)
    with pytest.raises(ParseError, match="8 trailing bytes"):
        type(model).load(padded)

    header_cut = tmp_path / "header_cut.ckpt"
    header_cut.write_bytes(raw[:40])
    with pytest.raises(ParseError, match="header length"):
        type(model).load(header_cut)

    with pytest.raises(ParseError, match="not a checkpoint file"):
        type(model).load(FIXTURES / "corpus32.csv")


def test_checkpoint_rejects_a_header_that_disagrees_with_its_config(tmp_path, setup):
    vocab, rally, model = setup
    path = tmp_path / "model.ckpt"
    model.save(path)
    raw = path.read_bytes()
    # claim a wider model; the header keeps its length, so only the shape check can catch it
    bad = raw.replace(b'"embed_dim":4', b'"embed_dim":8', 1)
    assert bad != raw
    path.write_bytes(bad)
    with pytest.raises(ParseError, match="parameter shapes"):
        type(model).load(path)


# ---------------------------------------------------------------------------
# full-model gradient check (d=4, V=4, 2 heads, sequence 5)
# ---------------------------------------------------------------------------

def test_full_model_gradient_check():
    vocab = ShotTypeVocab.from_names(["long service", "net shot", "smash", "drive"], ["long service"])
    rally = make_rally([0, 1, 2, 3, 1, 2])  # history of 5 strokes, 2 prediction steps
    court = CourtSpec()
    model = tiny_model([rally], vocab, court=court, seed=3)
    names = model.params.names()
    base = [model.params[n].data.copy() for n in names]

    def loss_fn(leaves):
        for name, leaf in zip(names, leaves):
            model.params.tensors[name] = leaf
        heads = forward_teacher_forced(model, rally, training=True)
        bundle = step_loss([heads], rally.strokes[model.config.tau :], court)
        return bundle.node

    err = gradient_check(loss_fn, base)
    assert err < 1e-5, f"full-model gradient error {err:.3e}"
