import dataclasses
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rallycast import autodiff as ad, network
from rallycast.autodiff import Tensor, backward, grad_of
from rallycast.court import CourtSpec, Player, Rally, ShotTypeVocab
from rallycast.dataset import TAU, FilterPolicy, ParseError, filter_training, parse_dataset, split
from rallycast.network import (
    Forecaster,
    KVCache,
    ModelConfig,
    StrokeInputs,
    build_player_index,
    embed_strokes,
    encode_contexts,
    forward_teacher_forced,
    fuse_contexts,
    init_params,
    load_checkpoint,
    prediction_heads,
    save_checkpoint,
    sinusoidal_encoding,
)
from rallycast.training import step_loss

from conftest import FIXTURES, make_rally, small_vocab, tiny_model, vocab_from_names, zero_params
from gradient_reference import gradient_check, weighted_sum
from network_reference import rally_stroke_inputs


def _embed(inputs, params, config):
    """embed_strokes of strokes at positions 0 .. n-1 of their histories."""
    return embed_strokes(inputs, params, config, sinusoidal_encoding(inputs.type_ids.shape[-1], config.embed_dim))


def _positions(inputs, start, stop):
    """The strokes at positions start .. stop-1 of (B, n) histories, as contiguous arrays."""
    columns = (getattr(inputs, f.name) for f in dataclasses.fields(inputs))
    return StrokeInputs(*(np.ascontiguousarray(a[:, start:stop]) for a in columns))


def _rows(inputs, keep):
    """The histories at the given batch rows, in that order."""
    columns = (getattr(inputs, f.name) for f in dataclasses.fields(inputs))
    return StrokeInputs(*(a[list(keep)] for a in columns))


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

def test_the_positional_table_is_read_only_memoized_and_the_sinusoid_formula():
    for n, d, start in [(7, 16, 0), (9, 6, 4), (1, 2, 0), (300, 16, 299)]:
        table = sinusoidal_encoding(n, d, start)
        assert table.shape == (n - start, d) and sinusoidal_encoding(n, d, start) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
        for pos in range(start, n):
            for i in range(d):
                angle = pos / 10000.0 ** (2 * (i // 2) / d)
                want = math.sin(angle) if i % 2 == 0 else math.cos(angle)
                # an ulp of the angle, whose pow and sine libm and numpy may round apart
                assert abs(table[pos - start, i] - want) <= 4e-16 * max(1.0, angle), (n, d, start, pos, i)


def test_zero_params_leave_positional_encoding_only(setup):
    vocab, rally, model = setup
    zero_params(model.params)
    inputs = model.rally_inputs(rally, len(rally))
    pe = sinusoidal_encoding(len(rally), model.config.embed_dim)
    for mode in ("modified", "baseline"):
        config = ModelConfig(**{**model.config.__dict__, "embedding_mode": mode})
        e_s, e_a = _embed(inputs, model.params, config)
        assert np.array_equal(e_s.data, pe)
        assert np.array_equal(e_a.data, pe)


def test_modified_area_channel_ignores_player_embedding(setup):
    vocab, rally, model = setup
    inputs = model.rally_inputs(rally, len(rally))
    e_s0, e_a0 = _embed(inputs, model.params, model.config)
    model.params["player_emb"].data += 0.731
    e_s1, e_a1 = _embed(inputs, model.params, model.config)
    assert np.array_equal(e_a0.data, e_a1.data)  # bit-identical
    assert not np.array_equal(e_s0.data, e_s1.data)


def test_baseline_area_channel_sees_player_embedding(setup):
    vocab, rally, model = setup
    config = ModelConfig(**{**model.config.__dict__, "embedding_mode": "baseline"})
    inputs = model.rally_inputs(rally, len(rally))
    _, e_a0 = _embed(inputs, model.params, config)
    model.params["player_emb"].data += 0.5
    _, e_a1 = _embed(inputs, model.params, config)
    assert not np.array_equal(e_a0.data, e_a1.data)


def test_area_relu_only_in_baseline_mode(setup):
    vocab, rally, model = setup
    # force the landing projection negative, silence every other contribution
    zero_params(model.params)
    model.params["area_w"].data[:] = 0.0
    model.params["area_b"].data[:] = -2.0
    inputs = model.rally_inputs(rally, len(rally))
    pe = sinusoidal_encoding(len(rally), model.config.embed_dim)

    modified = ModelConfig(**{**model.config.__dict__, "embedding_mode": "modified"})
    _, e_a = _embed(inputs, model.params, modified)
    assert np.allclose(e_a.data - pe, -2.0)  # negatives preserved

    baseline = ModelConfig(**{**model.config.__dict__, "embedding_mode": "baseline"})
    _, e_a = _embed(inputs, model.params, baseline)
    assert np.allclose(e_a.data - pe, 0.0)  # clamped at zero


def test_area_gradient_wrt_player_table_is_zero_in_modified_mode(setup):
    vocab, rally, model = setup
    inputs = model.rally_inputs(rally, len(rally))
    _, e_a = _embed(inputs, model.params, model.config)
    backward(ad.tsum(e_a))
    assert np.array_equal(grad_of(model.params["player_emb"]), np.zeros_like(model.params["player_emb"].data))


def test_embed_rejects_unknown_player_id(setup):
    vocab, rally, model = setup
    with pytest.raises(ValueError):
        inputs = dataclasses.replace(model.rally_inputs(rally, len(rally)), player_ids=np.full(len(rally), 99))
        _embed(inputs, model.params, model.config)


# ---------------------------------------------------------------------------
# inputs read from a rally's columns, against the per-stroke oracle
# ---------------------------------------------------------------------------

@st.composite
def rally_and_model(draw):
    """A rally built from columns, as a parse builds it, and a model that may not know its players."""
    n = draw(st.integers(1, 12))
    coord = st.floats(-20.0, 40.0, allow_nan=False)
    columns = (
        np.arange(1, n + 1, dtype=np.int64),
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=np.int64),
        np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)), dtype=np.float64),
        np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)), dtype=np.float64),
    )
    names = draw(st.lists(st.sampled_from(["ana", "bo", "unseen", "stranger"]), min_size=2, max_size=2, unique=True))
    (rally,) = Rally.from_columns([("r", "m", *names)], [(0, n)], columns)
    return rally, tiny_model([make_rally([0, 2], player_a="ana", player_b="bo")], small_vocab())


@given(rally_and_model())
def test_rally_inputs_match_the_per_stroke_oracle_for_every_prefix(case):
    rally, model = case
    for n in range(1, len(rally) + 1):
        got, want = model.rally_inputs(rally, n), rally_stroke_inputs(model, rally, n)
        for g, w in zip(got._arrays(), want._arrays()):
            assert g.dtype == w.dtype and np.array_equal(g, w), n


def test_rally_inputs_take_one_to_all_strokes(setup):
    vocab, rally, model = setup
    for n in (0, len(rally) + 1):
        with pytest.raises(ValueError, match=f"cannot take the first {n}"):
            model.rally_inputs(rally, n)


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

def test_length_one_contexts_coincide(setup):
    vocab, rally, model = setup
    x = Tensor(np.random.default_rng(0).normal(size=(1, model.config.embed_dim)))
    rally_ctx, player_ctx = encode_contexts(x, np.array([True]), model.params, model.config)
    assert np.array_equal(rally_ctx.data, player_ctx.data)


def test_causality_bit_exact(setup):
    vocab, rally, model = setup
    probs0, landing0 = model.forward_positions(rally, len(rally))
    perturbed = _replace_stroke(rally, 4, landing=(1.0, 12.9), shot_type=5)
    probs1, landing1 = model.forward_positions(perturbed, len(perturbed))
    k = 4  # positions 0..3 precede the change
    assert np.array_equal(probs0.data[:k], probs1.data[:k])
    for before, after in zip(ad.landing_columns(landing0.data), ad.landing_columns(landing1.data)):
        assert np.array_equal(before[:k], after[:k])  # mu, log-sigma, rho
    assert not np.array_equal(probs0.data[k:], probs1.data[k:])


def test_player_context_masks_out_other_player(setup):
    vocab, rally, model = setup
    players = [s.player for s in rally.strokes]

    def player_ctx_at_a_positions(r):
        e_s, e_a = _embed(model.rally_inputs(r, len(r)), model.params, model.config)
        x = ad.scale(ad.add(e_s, e_a), 0.5)
        _, player_ctx = encode_contexts(x, np.array([p is Player.A for p in players]), model.params, model.config)
        a_rows = [i for i, p in enumerate(players) if p is Player.A]
        return player_ctx.data[a_rows]

    base = player_ctx_at_a_positions(rally)
    changed = _replace_stroke(rally, 1, landing=(0.4, 7.1), shot_type=4)  # stroke 2 is B's
    after = player_ctx_at_a_positions(changed)
    assert np.max(np.abs(base - after)) <= 1e-12


def _reference_encode_contexts(x, hitters, params, config, rng=None):
    """Two encoder passes, one per mask, each drawing its dropout uniforms from rng as the sites come."""

    def drop(t):
        if rng is None or config.dropout_rate == 0.0:
            return t
        return ad.dropout(t, config.dropout_rate, rng.random(t.shape))

    def stack(x, allowed):
        for i in range(config.n_layers):
            p = f"enc{i}_"
            att = drop(network._attention(x, allowed, params, i, config))
            x = ad.layer_norm(ad.add(x, att), params[p + "ln1_g"], params[p + "ln1_b"])
            hidden = ad.relu(ad.add(ad.linear(x, params[p + "ffn_w1"]), params[p + "ffn_b1"]))
            ff = drop(ad.add(ad.linear(hidden, params[p + "ffn_w2"]), params[p + "ffn_b2"]))
            x = ad.layer_norm(ad.add(x, ff), params[p + "ln2_g"], params[p + "ln2_b"])
        return x

    n = hitters.shape[-1]
    same = hitters[..., :, None] == hitters[..., None, :]
    causal = np.broadcast_to(np.tril(np.ones((n, n), dtype=bool)), same.shape)
    return stack(x, causal), stack(x, causal & same)


def _context_case(n_layers, batch, dropout_rate, n_heads):
    """A config, its initial params, x and mixed hitters for one (n, d) history or a (B, n, d) batch."""
    config = ModelConfig(embed_dim=8, n_heads=n_heads, n_layers=n_layers, dropout_rate=dropout_rate, vocab_size=4)
    rng = np.random.default_rng(10 * n_layers + (batch or 0))
    params = init_params(config, n_layers)
    lead = (6,) if batch is None else (batch, 6)
    hitters = rng.random(lead) < 0.5
    hitters[..., :2] = [True, False]  # both players hit in every history
    x = rng.normal(size=lead + (config.embed_dim,))
    return config, params, x, hitters


def _context_param(n_layers, batch, rate, n_heads=2):
    """One CONTEXT_CASES input; its id names the head count only where it is not 2."""
    heads = "" if n_heads == 2 else f"-{n_heads}heads"
    return pytest.param(n_layers, batch, rate, n_heads, id=f"{n_layers}-{batch}-{rate}{heads}")


CONTEXT_CASES = [
    _context_param(n_layers, batch, rate) for n_layers in (1, 2) for batch in (None, 3) for rate in (0.0, 0.2)
] + [_context_param(2, batch, 0.2, n_heads) for n_heads in (1, 4, 8) for batch in (None, 3)]


@pytest.mark.parametrize("n_layers,batch,dropout_rate,n_heads", CONTEXT_CASES)
def test_one_pass_contexts_equal_two_passes_bit_for_bit(n_layers, batch, dropout_rate, n_heads):
    config, params, x, hitters = _context_case(n_layers, batch, dropout_rate, n_heads)
    for training in (False, True):
        # eval mode passes no generator; in training both sides draw from the same seed
        got = encode_contexts(Tensor(x), hitters, params, config, np.random.default_rng(7) if training else None)
        want = _reference_encode_contexts(Tensor(x), hitters, params, config, np.random.default_rng(7) if training else None)
        for g, w in zip(got, want):
            assert g.shape == w.shape == x.shape
            assert np.array_equal(g.data, w.data), (training, n_layers, batch, dropout_rate)
    if dropout_rate > 0.0:  # the training masks really drop something
        assert not np.array_equal(got[0].data, encode_contexts(Tensor(x), hitters, params, config)[0].data)


@pytest.mark.parametrize("n_layers,batch,dropout_rate,n_heads", CONTEXT_CASES)
def test_one_pass_context_gradients_equal_two_passes(n_layers, batch, dropout_rate, n_heads):
    config, params, x, hitters = _context_case(n_layers, batch, dropout_rate, n_heads)
    weights = np.random.default_rng(3).normal(size=(2,) + x.shape)

    def grads(encode):
        leaves = {k: Tensor(t.data.copy()) for k, t in params.items()}
        x_leaf = Tensor(x)
        rally_ctx, player_ctx = encode(x_leaf, hitters, leaves, config, np.random.default_rng(7))
        loss = ad.add(weighted_sum(rally_ctx, weights[0]), weighted_sum(player_ctx, weights[1]))
        backward(loss)
        return {"x": grad_of(x_leaf), **{name: grad_of(leaves[name]) for name in leaves if name.startswith("enc")}}

    got, want = grads(encode_contexts), grads(_reference_encode_contexts)
    assert got.keys() == want.keys() and len(got) == 1 + 13 * n_layers
    for name, w in want.items():
        assert np.abs(w).max() > 0, name
        assert np.abs(got[name] - w).max() <= 1e-12 * np.abs(w).max(), name


# a teacher-forced forward at overfit.cfg width in training mode takes 35
# primitive ops with the fused layer norm, softmax, attention, linear, gate
# and landing primitives and the gate and heads run on the target rows
# only; with the gate and the landing Gaussian built from elementary ops it
# took 44, slicing the target rows off the heads 48, the one-pass encoder
# built from elementary ops 103, and the two-pass encoder 160
FORWARD_OP_BUDGET = 35


def test_teacher_forced_forward_stays_within_its_op_budget(monkeypatch):
    config = ModelConfig(embed_dim=16, n_heads=2, n_layers=1, dropout_rate=0.2, vocab_size=10)
    vocab = ShotTypeVocab.default()
    rally = make_rally([0, 2, 3, 4, 2, 3, 4, 5])
    model = Forecaster(init_params(config, 0), config, CourtSpec(), vocab, build_player_index([rally]))
    made = []
    make = ad._make
    monkeypatch.setattr(ad, "_make", lambda *args: made.append(args[-1]) or make(*args))
    forward_teacher_forced(model, rally, rng=np.random.default_rng(0))
    assert len(made) == FORWARD_OP_BUDGET, f"{len(made)} ops: {sorted(set(made))}"


# the tape of one 16-rally batch of overfit.cfg training on corpus32, loss
# included, measured at 658 nodes; with the gate and the landing Gaussian
# built from elementary ops (four head arrays) it was 820, with the loss
# built from 45 elementary nodes rather than 11 854, with four head slices
# per rally 918, and with layer norm, softmax, attention and the affine maps
# built from elementary ops 1,881
TAPE_NODE_BUDGET = 658

# the nodes step_loss adds: the two heads concatenated, the two loss primitives and the two means
LOSS_NODES = {"concat": 2, "cross_entropy": 1, "gaussian_nll": 1, "sum": 2, "scale": 2, "add": 1}


def test_a_corpus32_batch_stays_within_its_tape_budget(monkeypatch):
    vocab, court = ShotTypeVocab.default(), CourtSpec()
    rallies, _, _ = parse_dataset(FIXTURES / "corpus32.csv", vocab, court, write_rejects=False)
    kept, _ = filter_training(rallies, FilterPolicy())
    batch = split(kept, 0.8, 7)[0][:16]
    index = build_player_index(batch)
    config = ModelConfig(embed_dim=16, n_heads=2, n_layers=1, dropout_rate=0.2, vocab_size=vocab.size, n_players=len(index))
    model = Forecaster(init_params(config, 7), config, court, vocab, index)
    heads = [forward_teacher_forced(model, r, rng=np.random.default_rng(i)) for i, r in enumerate(batch)]
    made, make, leaf = [], ad._make, Tensor.__init__
    monkeypatch.setattr(ad, "_make", lambda *args: made.append(args[-1]) or make(*args))
    monkeypatch.setattr(Tensor, "__init__", lambda self, data: made.append("leaf") or leaf(self, data))
    loss = step_loss(heads, batch, court)
    monkeypatch.undo()
    assert Counter(made) == LOSS_NODES
    tape = backward(loss.node)
    assert len(batch) == 16 and len(tape) == TAPE_NODE_BUDGET, f"{len(tape)} tape nodes"


# ---------------------------------------------------------------------------
# the fused encoder against plain numpy
# ---------------------------------------------------------------------------

def _np_rows(x, w):
    """x @ w with x's rows zero-padded to a multiple of 8, multiplied 64 rows at a time; x's shape, w's columns."""
    rows = x.reshape(-1, x.shape[-1])
    padded = np.zeros((-(-len(rows) // 8) * 8, rows.shape[1]))
    padded[: len(rows)] = rows
    out = np.concatenate([padded[i : i + 64] @ w for i in range(0, len(padded), 64)])
    return out[: len(rows)].reshape(x.shape[:-1] + (w.shape[1],))


def _np_softmax_rows(scores):
    """Row softmax whose denominator adds the terms one at a time, left to right."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    total = e[..., :1].copy()
    for j in range(1, e.shape[-1]):
        total = total + e[..., j : j + 1]
    return e / total


def _np_layer_norm(x, gain, bias):
    inv_d = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_d
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    return centered / np.sqrt(var + 1e-5) * gain + bias


def _np_attention(x, allowed, w, layer, config, kv=None):
    """Multi-head attention as a loop over heads and query rows of plain-numpy scores, scale, mask, softmax and weighted sum.

    Keys and values are zero-padded to a multiple of 8 positions (at least 8),
    the padding blocked; each query row's scores and weighted sum are a
    one-row product of their own, and every product with a weight goes
    through _np_rows.
    """
    p = f"enc{layer}_"
    q, k, v = _np_rows(x, w[p + "wq"]), _np_rows(x, w[p + "wk"]), _np_rows(x, w[p + "wv"])
    if kv is not None:
        k, v = np.concatenate([kv[0], k], axis=-2), np.concatenate([kv[1], v], axis=-2)
    n, m = q.shape[-2], k.shape[-2]
    m8 = max(-(-m // 8), 1) * 8
    k = np.concatenate([k, np.zeros(k.shape[:-2] + (m8 - m, k.shape[-1]))], axis=-2)
    v = np.concatenate([v, np.zeros(v.shape[:-2] + (m8 - m, v.shape[-1]))], axis=-2)
    allowed = np.concatenate([allowed, np.zeros(allowed.shape[:-1] + (m8 - m,), dtype=bool)], axis=-1)
    dh = x.shape[-1] // config.n_heads
    heads = []
    for h in range(config.n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh, kh_t, vh = q[..., cols].copy(), np.swapaxes(k[..., cols], -1, -2).copy(), v[..., cols].copy()
        scores = np.stack([qh[..., i : i + 1, :] @ kh_t for i in range(n)], axis=-3)[..., 0, :] * float(1.0 / np.sqrt(dh))
        probs = _np_softmax_rows(np.where(allowed, scores, ad.NEG_MASK_VALUE))
        heads.append(np.stack([probs[..., i : i + 1, :] @ vh for i in range(n)], axis=-3)[..., 0, :])
    return _np_rows(np.concatenate(heads, axis=-1), w[p + "wo"]) + w[p + "bo"]


def _np_encoder(x, allowed, w, config, uniforms, kv=None):
    """The encoder layers on plain arrays; uniforms[2i] and uniforms[2i + 1] drive layer i's dropouts."""

    def drop(a, u):
        return a if u is None else a * ((u >= config.dropout_rate) / (1.0 - config.dropout_rate))

    for i in range(config.n_layers):
        p = f"enc{i}_"
        att = drop(_np_attention(x, allowed, w, i, config, None if kv is None else kv[i]), None if uniforms is None else uniforms[2 * i])
        x = _np_layer_norm(x + att, w[p + "ln1_g"], w[p + "ln1_b"])
        hidden = _np_rows(x, w[p + "ffn_w1"]) + w[p + "ffn_b1"]
        ff = _np_rows(np.where(hidden > 0, hidden, 0.0), w[p + "ffn_w2"]) + w[p + "ffn_b2"]
        x = _np_layer_norm(x + drop(ff, None if uniforms is None else uniforms[2 * i + 1]), w[p + "ln2_g"], w[p + "ln2_b"])
    return x


def _np_encode_contexts(x, hitters, w, config, rng=None, cached=None):
    """Both contexts from one plain-numpy pass over [x, x]; cached is (hitters, kv) of positions before x's."""
    single = x.ndim == 2
    if single:
        x, hitters = x[None], hitters[None]
    every = hitters if cached is None else np.concatenate([cached[0], hitters], axis=-1)
    n_new, n = hitters.shape[-1], every.shape[-1]
    same = hitters[..., :, None] == every[..., None, :]
    causal = np.broadcast_to(np.tril(np.ones((n_new, n), dtype=bool), n - n_new), same.shape)
    uniforms = None if rng is None else np.concatenate(rng.random((2, 2 * config.n_layers) + x.shape), axis=1)
    out = _np_encoder(np.concatenate([x, x]), np.concatenate([causal, causal & same]), w, config, uniforms, None if cached is None else cached[1])
    b = len(hitters)
    return (out[0], out[1]) if single else (out[:b], out[b:])


@pytest.mark.parametrize("n_layers,batch,dropout_rate,n_heads", CONTEXT_CASES)
def test_fused_encoder_equals_a_plain_numpy_reference_bit_for_bit(n_layers, batch, dropout_rate, n_heads):
    config, params, x, hitters = _context_case(n_layers, batch, dropout_rate, n_heads)
    w = {name: t.data for name, t in params.items()}
    allowed = np.broadcast_to(np.tril(np.ones((6, 6), dtype=bool)), hitters.shape + (6,))
    got = network._attention(Tensor(x), allowed, params, 0, config).data
    assert np.array_equal(got, _np_attention(x, allowed, w, 0, config))
    for training in (False, True):
        rng = np.random.default_rng(7) if training else None
        got = encode_contexts(Tensor(x), hitters, params, config, rng)
        want = _np_encode_contexts(x, hitters, w, config, np.random.default_rng(7) if training else None)
        for g, ref in zip(got, want):
            assert np.array_equal(g.data, ref), (training, n_layers, batch, dropout_rate)


def test_fused_cached_step_equals_a_plain_numpy_reference_bit_for_bit():
    config = ModelConfig(embed_dim=16, n_heads=2, n_layers=2, vocab_size=10)
    params = init_params(config, 5)
    w = {name: t.data for name, t in params.items()}
    rng = np.random.default_rng(11)
    first, width = 10, 13
    x, hitters = rng.normal(size=(3, width, config.embed_dim)), rng.random((3, width)) < 0.5
    cache = KVCache(3, config)
    with ad.no_tape():
        encode_contexts(Tensor(x[:, :first]), hitters[:, :first], params, config, cache=cache)
        assert cache.length == first
        # the reference stacks the rally rows, then the player rows; the cache holds each history's two rows side by side
        def rally_first(a):  # (B, 2, ...) -> (2B, ...)
            return np.concatenate([a[:, 0], a[:, 1]])

        kv = [
            [rally_first(np.swapaxes(keys, -1, -2)[:, :, :first]), rally_first(values[:, :, :first])]
            for keys, values in cache.layers
        ]
        cached = (cache.hitters[:, :first].copy(), kv)
        # one attention layer over cached keys: 3 queries against 13 keys, in buffers of 16
        allowed = np.broadcast_to(np.tril(np.ones((width - first, 16), dtype=bool), first), (6, width - first, 16))
        x_new = np.concatenate([x[:, first:], x[:, first:]])
        got = network._attention(Tensor(np.repeat(x[:, first:], 2, axis=0)), allowed, params, 0, config, cache).data
        want = _np_attention(x_new, allowed[..., :width], w, 0, config, cached[1][0])
        assert np.array_equal(rally_first(got.reshape((3, 2) + got.shape[1:])), want)
        got = encode_contexts(Tensor(x[:, first:]), hitters[:, first:], params, config, cache=cache)
    want = _np_encode_contexts(x[:, first:], hitters[:, first:], w, config, cached=cached)
    for g, ref in zip(got, want):
        assert np.array_equal(g.data, ref)


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
    probs, landing = prediction_heads(fused, model.params)
    _, log_sigma, rho = ad.landing_columns(landing.data)
    assert np.allclose(probs.data, 1.0 / vocab.size)
    assert np.allclose(np.exp(log_sigma), 1.0)
    assert rho[0] == 0.0


def test_head_ranges_over_random_draws(setup):
    vocab, rally, model = setup
    rng = np.random.default_rng(42)
    for _ in range(1000):
        for t in model.params.values():
            t.data[:] = rng.normal(0.0, 1.5, size=t.shape)
        fused = Tensor(rng.normal(0.0, 2.0, size=(1, model.config.embed_dim)))
        probs, landing = prediction_heads(fused, model.params)
        _, log_sigma, rho = ad.landing_columns(landing.data)
        assert abs(probs.data.sum() - 1.0) < 1e-9
        assert np.all(probs.data >= 0.0)
        assert np.all(np.exp(log_sigma) > 0.0)
        assert abs(rho[0]) < 1.0


# ---------------------------------------------------------------------------
# teacher-forced forward
# ---------------------------------------------------------------------------

def test_forward_step_counts(setup):
    vocab, rally, model = setup
    five = make_rally([0, 2, 3, 4, 2])
    nine = make_rally([0, 2, 3, 4, 2, 3, 4, 5, 2])
    for rally_, m in ((five, 1), (nine, 5)):
        probs, landing = forward_teacher_forced(model, rally_)
        assert probs.shape == (m, model.config.vocab_size)
        assert landing.shape == (m, 5)
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
    heads = forward_teacher_forced(model, rally, rng=np.random.default_rng(0))
    assert all(h._bwd is not None for h in heads)


# ---------------------------------------------------------------------------
# cached forward
# ---------------------------------------------------------------------------

def _random_histories(rng, batch, width, config):
    """(batch, width) inputs with irregular hitters and some strokes of the unknown player row."""
    return StrokeInputs(
        type_ids=rng.integers(0, config.vocab_size, size=(batch, width)),
        player_ids=rng.integers(0, config.n_players + 1, size=(batch, width)),
        hit_by_a=rng.random((batch, width)) < 0.5,
        landings=rng.normal(size=(batch, width, 2)),
        locations=rng.normal(size=(batch, width, 2)),
    )


def _check_cached_steps(n_layers, last_step, seed, n_heads=2):
    """Step every row's cache one position at a time, against the full forward of that row alone.

    last_step maps each row to the history length of its last step; rows
    leave at different steps. The batch runs by falling last step, as the
    sampler's does, so rows leave from its tail. Returns the number of steps
    checked.
    """
    config = ModelConfig(embed_dim=16, n_heads=n_heads, n_layers=n_layers, vocab_size=10, n_players=3)
    model = Forecaster(init_params(config, 4), config, CourtSpec(), ShotTypeVocab.default())
    tau, width = 4, max(last_step.values())
    history = _random_histories(np.random.default_rng(seed), len(last_step), width, config)
    assert (history.player_ids == 0).any() and (history.hit_by_a[:, 1:] == history.hit_by_a[:, :-1]).any()
    rows = sorted(last_step, key=lambda row: -last_step[row])
    cache = KVCache(len(rows), config)
    steps = 0
    with ad.no_tape():
        for n in range(tau, width + 1):
            cached = model.forward(_positions(_rows(history, rows), cache.length, n), cache=cache)
            assert cache.length == n
            for i, row in enumerate(rows):
                full = model.forward(_positions(_rows(history, [row]), 0, n))
                for c, f in zip(cached, full):
                    assert np.array_equal(c.data[i, -1], f.data[0, -1]), (n_layers, n, row)
                steps += 1
            keep = [i for i, row in enumerate(rows) if last_step[row] > n]
            assert keep == list(range(len(keep)))
            if len(keep) < len(rows):
                rows = rows[: len(keep)]
                cache.keep_rows(len(keep))
            if not rows:
                break
    assert rows == [] and steps == sum(last - tau + 1 for last in last_step.values())
    return steps


def test_cached_steps_equal_the_full_forward_bit_for_bit():
    # the benchmark's width and the default 10 types, two layers, rows leaving at different steps; the
    # cache lays its keys out per head, so under 1, 2 and 4 heads
    for n_heads in (1, 2, 4):
        _check_cached_steps(2, {0: 9, 1: 29, 2: 5, 3: 17, 4: 29, 5: 12, 6: 24}, seed=0, n_heads=n_heads)
    # past 128 positions numpy's pairwise sum groups a softmax denominator by the key count; with two
    # layers, the cached positions' keys and values then differed from the full forward's
    for n_layers in (1, 2):
        assert _check_cached_steps(n_layers, {0: 220, 1: 131}, seed=n_layers) == 217 + 128


def _bit_for_bit_checks_pass_in_a_child(**env: str) -> None:
    """The cached-versus-full and row-placement bit-for-bit checks, run by a child process with env set."""
    here = Path(__file__).resolve()
    checks = [
        f"{here}::test_cached_steps_equal_the_full_forward_bit_for_bit",
        f"{here.parent / 'test_autodiff.py'}::test_products_give_each_row_the_same_bits_wherever_it_sits",
    ]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *checks],
        env=dict(os.environ, **env),
        cwd=here.parent.parent,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "2 passed" in result.stdout


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_cached_steps_equal_the_full_forward_under_other_blas_kernels(coretype):
    """OpenBLAS picks its kernels by CPU when it loads; OPENBLAS_CORETYPE makes a child process load others."""
    _bit_for_bit_checks_pass_in_a_child(OPENBLAS_CORETYPE=coretype)


@pytest.mark.parametrize("level", ["X86_V4", "X86_V3"])
def test_cached_steps_equal_the_full_forward_under_other_numpy_dispatch_levels(level):
    """numpy picks its exp, log and tanh kernels by CPU when it loads, as OpenBLAS does its products.

    NPY_DISABLE_CPU_FEATURES makes a child process turn off the level's dispatch target and every one above it.
    """
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = list(umath.__cpu_dispatch__)
    if level not in targets or not umath.__cpu_features__.get(level):
        pytest.skip(f"no {level} dispatch level: this CPU or numpy build lacks its targets")
    above = [t for t in targets[targets.index(level) :] if umath.__cpu_features__.get(t)]
    _bit_for_bit_checks_pass_in_a_child(NPY_DISABLE_CPU_FEATURES=" ".join(above))


def test_keep_rows_copies_nothing():
    config = ModelConfig(embed_dim=16, n_heads=2, n_layers=2, vocab_size=10, n_players=3)
    model = Forecaster(init_params(config, 4), config, CourtSpec(), ShotTypeVocab.default())
    cache = KVCache(5, config)
    with ad.no_tape():
        model.forward(_random_histories(np.random.default_rng(2), 5, 6, config), cache=cache)
    before = [cache.hitters, *(buffer for layer in cache.layers for buffer in layer)]
    cache.keep_rows(3)
    after = [cache.hitters, *(buffer for layer in cache.layers for buffer in layer)]
    assert len(after) == len(before) == 1 + 2 * config.n_layers
    for old, new in zip(before, after):
        assert np.shares_memory(new, old) and np.array_equal(new, old[:3])


def test_rows_taken_from_one_history_continue_it_apart_as_caches_of_their_own():
    """take_rows([1, 1, 0]): two rows copy history 1, feed different strokes, and match per-row caches bit for bit."""
    config = ModelConfig(embed_dim=16, n_heads=2, n_layers=2, vocab_size=10, n_players=3)
    model = Forecaster(init_params(config, 4), config, CourtSpec(), ShotTypeVocab.default())
    rng = np.random.default_rng(5)
    prefixes, taken_rows = _random_histories(rng, 2, 4, config), [1, 1, 0]
    nexts = _random_histories(rng, len(taken_rows), 2, config)  # each taken row's own next two strokes
    assert not np.array_equal(_rows(nexts, [0]).landings, _rows(nexts, [1]).landings)
    taken, own = KVCache(2, config), [KVCache(1, config) for _ in taken_rows]
    with ad.no_tape():
        model.forward(prefixes, cache=taken)
        for cache, row in zip(own, taken_rows):
            model.forward(_rows(prefixes, [row]), cache=cache)
        taken.take_rows(np.array(taken_rows))
        for n in (1, 2):
            stepped = model.forward(_positions(nexts, n - 1, n), cache=taken)
            for i, cache in enumerate(own):
                alone = model.forward(_positions(_rows(nexts, [i]), n - 1, n), cache=cache)
                for s, a in zip(stepped, alone):
                    assert np.array_equal(s.data[i], a.data[0]), (n, i)
            assert not np.array_equal(stepped[1].data[0], stepped[1].data[1])
    assert taken.length == 6
    for i, cache in enumerate(own):
        assert np.array_equal(taken.hitters[i], cache.hitters[0])
        for (keys, values), (own_keys, own_values) in zip(taken.layers, cache.layers):
            assert np.array_equal(keys[i], own_keys[0]) and np.array_equal(values[i], own_values[0])


def test_cached_forward_refuses_the_tape_and_training(setup):
    vocab, rally, model = setup
    inputs = StrokeInputs.stack([model.rally_inputs(rally, len(rally))])
    with pytest.raises(RuntimeError, match="no_tape"):
        model.forward(inputs, cache=KVCache(1, model.config))
    with ad.no_tape(), pytest.raises(RuntimeError, match="no_tape"):
        model.forward(inputs, rng=np.random.default_rng(0), cache=KVCache(1, model.config))
    with ad.no_tape(), pytest.raises(ValueError, match="B histories"):
        model.forward(inputs, cache=KVCache(2, model.config))


def _from(heads, first, axis):
    """Rows first .. of each head output, along the position axis."""
    return [np.take(h.data, range(first, h.shape[axis]), axis=axis) for h in heads]


@pytest.mark.parametrize("batch", [None, 1, 3], ids=["one_history", "B=1", "B=3"])
def test_taped_heads_from_first_equal_those_rows_of_the_full_forward(batch):
    config = ModelConfig(embed_dim=16, n_heads=2, n_layers=2, vocab_size=10, n_players=3)
    model = Forecaster(init_params(config, 4), config, CourtSpec(), ShotTypeVocab.default())
    inputs = _random_histories(np.random.default_rng(5), batch or 1, 9, config)
    if batch is None:  # (n,) arrays: the teacher-forced forward's shape
        inputs = StrokeInputs(*(a[0] for a in inputs._arrays()))
    axis = 0 if batch is None else 1
    for seed in (None, 1):  # eval mode, then dropout drawn from the same stream on both sides
        full = model.forward(inputs, rng=None if seed is None else np.random.default_rng(seed))
        for first in range(9):
            part = model.forward(inputs, rng=None if seed is None else np.random.default_rng(seed), first=first)
            for got, want in zip(part, _from(full, first, axis)):
                assert got.shape == want.shape and got.data.tobytes() == want.tobytes(), (batch, seed, first)
    with pytest.raises(ValueError, match="first must be in 0 .. 8"):
        model.forward(inputs, first=9)


def test_cached_heads_from_first_equal_those_rows_of_the_full_forward():
    config = ModelConfig(embed_dim=16, n_heads=2, n_layers=2, vocab_size=10, n_players=3)
    model = Forecaster(init_params(config, 4), config, CourtSpec(), ShotTypeVocab.default())
    history = _random_histories(np.random.default_rng(6), 3, 7, config)
    with ad.no_tape():
        full = model.forward(history)
        for first in range(5):
            cache = KVCache(3, config)
            prefix = model.forward(_positions(history, 0, 5), cache=cache, first=first)
            for got, want in zip(prefix, _from(full, first, 1)):
                assert got.data.tobytes() == np.ascontiguousarray(want[:, : 5 - first]).tobytes(), first
            step = model.forward(_positions(history, 5, 7), cache=cache, first=1)  # the last of two fed positions
            for got, want in zip(step, _from(full, 6, 1)):
                assert got.data.tobytes() == want.tobytes(), first


def test_teacher_forced_heads_are_the_target_rows_of_forward_positions(setup):
    vocab, rally, model = setup
    heads = forward_teacher_forced(model, rally, rng=np.random.default_rng(3))
    full = model.forward_positions(rally, len(rally) - 1, rng=np.random.default_rng(3))
    for got, want in zip(heads, _from(full, TAU - 1, 0)):
        assert got.data.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# checkpoint round-trip
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path, setup):
    vocab, rally, model = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.player_index == model.player_index
    assert loaded.vocab == model.vocab
    for name in model.params:
        assert np.array_equal(loaded.params[name].data, model.params[name].data)
    save_checkpoint(tmp_path / "again.ckpt", loaded)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


@st.composite
def any_forecaster(draw):
    """A model of any valid shape and header, with arbitrary finite float64 bit patterns for its weights."""
    # names[0] is the one service type, so a vocabulary has at least one rally type too
    names = draw(st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=6, unique_by=str.casefold))
    players = draw(st.lists(st.text(max_size=8), min_size=1, max_size=4, unique=True))
    n_heads = draw(st.integers(1, 3))
    config = ModelConfig(
        embed_dim=n_heads * draw(st.integers(1, 3)),
        n_heads=n_heads,
        n_layers=draw(st.integers(1, 2)),
        ffn_dim=draw(st.none() | st.integers(1, 6)),
        dropout_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
        vocab_size=len(names),
        n_players=len(players),
        embedding_mode=draw(st.sampled_from(["baseline", "modified"])),
    )
    params = init_params(config, 0)
    bits = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for t in params.values():
        pattern = bits.integers(0, 2**64, size=t.shape, dtype=np.uint64)
        pattern[pattern >> np.uint64(52) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 52)  # NaN, inf: refused
        t.data.view(np.uint64)[...] = pattern
    vocab = vocab_from_names(names, names[:1])
    return Forecaster(params, config, CourtSpec(), vocab, {name: i for i, name in enumerate(players, start=1)})


@given(any_forecaster())
def test_checkpoint_write_read_write_is_byte_identical(tmp_path_factory, model):
    d = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(d / "once.ckpt", model)
    loaded = load_checkpoint(d / "once.ckpt")
    assert (loaded.config, loaded.court, loaded.vocab) == (model.config, model.court, model.vocab)
    assert loaded.player_index == model.player_index
    for name in model.params:
        assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes()
    save_checkpoint(d / "twice.ckpt", loaded)
    assert (d / "twice.ckpt").read_bytes() == (d / "once.ckpt").read_bytes()


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path, setup):
    vocab, rally, model = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    last = list(model.params)[-1]

    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[:-3])
    with pytest.raises(ParseError, match=f"array '{last}'"):
        load_checkpoint(cut)

    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(raw + b"\0" * 8)
    with pytest.raises(ParseError, match="8 trailing bytes"):
        load_checkpoint(padded)

    header_cut = tmp_path / "header_cut.ckpt"
    header_cut.write_bytes(raw[:40])
    with pytest.raises(ParseError, match="header length"):
        load_checkpoint(header_cut)

    with pytest.raises(ParseError, match="not a checkpoint file"):
        load_checkpoint(FIXTURES / "corpus32.csv")


def test_checkpoint_rejects_a_header_that_disagrees_with_its_config(tmp_path, setup):
    vocab, rally, model = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    # claim a wider model; the header keeps its length, so only the shape check can catch it
    bad = raw.replace(b'"embed_dim":4', b'"embed_dim":8', 1)
    assert bad != raw
    path.write_bytes(bad)
    with pytest.raises(ParseError, match="parameter shapes"):
        load_checkpoint(path)
    # a value the model config rejects, again at the same header length
    bad = raw.replace(b'"n_heads":2', b'"n_heads":3', 1)
    assert bad != raw
    path.write_bytes(bad)
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}: .*embed_dim must be divisible by n_heads"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# full-model gradient check (d=4, V=4, 2 heads, sequence 5)
# ---------------------------------------------------------------------------

def test_full_model_gradient_check():
    vocab = vocab_from_names(["long service", "net shot", "smash", "drive"], ["long service"])
    rally = make_rally([0, 1, 2, 3, 1, 2])  # history of 5 strokes, 2 prediction steps
    court = CourtSpec()
    model = tiny_model([rally], vocab, seed=3)
    names = list(model.params)
    base = [model.params[n].data.copy() for n in names]

    def loss_fn(leaves):
        for name, leaf in zip(names, leaves):
            model.params[name] = leaf
        heads = forward_teacher_forced(model, rally)
        bundle = step_loss([heads], [rally], court)
        return bundle.node

    err = gradient_check(loss_fn, base)
    assert err < 1e-5, f"full-model gradient error {err:.3e}"
