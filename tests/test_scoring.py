import builtins
import itertools
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rallycast import autodiff as ad, court as court_module, scoring
from rallycast.autodiff import NumericHealthError, Tensor
from rallycast.court import PARSE_BLOCK_LINES, Player, Stroke
from rallycast.dataset import TAU, ParseError, SynthConfig, synthesize_dataset
from rallycast.network import Forecaster
from rallycast.scoring import (
    GeneratedStroke,
    export_predictions,
    generate_sample_sets,
    import_predictions,
    prediction_header,
    quantize6,
    quantize6_array,
    quantize_simplex,
    sample,
    score_sample_sets,
)

from rallycast.seeding import TAG_EVAL

from conftest import FIXTURES, make_rally, prediction_file, random_rallies, small_vocab, tiny_model
from metric_reference import reference_sample_set_loss
from network_reference import denormalize_coord, mirror_coord, stroke_inputs
from prediction_reference import reference_import_predictions
from test_training import BLOWUPS, blow_up


def _gen(round_index, true_type, p_true, landing, vocab, spread_type=None):
    """GeneratedStroke whose CE at true_type and landing are chosen exactly."""
    probs = np.zeros(vocab.size)
    probs[true_type] = p_true
    rest = 1.0 - p_true
    others = [t for t in range(vocab.size) if t != true_type and not vocab.is_serve(t)]
    fill = spread_type if spread_type is not None else others[0]
    probs[fill] = rest
    return GeneratedStroke(
        round_index=round_index,
        player=Player.A if round_index % 2 == 1 else Player.B,
        type_id=int(np.argmax(probs)),
        landing=landing,
        type_probs=probs,
    )


def test_hand_computed_case(vocab):
    # one rally of 6 strokes: true-type probs 0.5 and 0.25, L1 errors 0.3 and 0.7
    truth = make_rally([0, 2, 3, 4, 2, 3], landings=[(1.0, 8.0)] * 4 + [(2.0, 9.0), (3.0, 10.0)])
    suffix = [
        _gen(5, 2, 0.5, (2.3, 9.0), vocab),
        _gen(6, 3, 0.25, (3.0, 10.7), vocab),
    ]
    loss = score_sample_sets([[suffix]], [truth]).sample_losses[0]
    assert abs(loss - 1.539721) < 1e-6
    expected = ((-math.log(0.5) + 0.3) + (-math.log(0.25) + 0.7)) / 2
    assert abs(loss - expected) < 1e-12


def test_perfect_predictions_score_zero(vocab):
    truth = make_rally([0, 2, 3, 4, 2, 3])
    suffix = [
        _gen(5, truth.strokes[4].shot_type, 1.0, truth.strokes[4].landing, vocab),
        _gen(6, truth.strokes[5].shot_type, 1.0, truth.strokes[5].landing, vocab),
    ]
    assert score_sample_sets([[suffix]], [truth]).sample_losses[0] == 0.0


def test_stroke_count_denominator(vocab):
    # per-stroke losses {1.0} and {2.0, 4.0} -> (1+2+4)/3
    r1 = make_rally([0, 2, 3, 4, 2], rally_id="r1", landings=[(1.0, 8.0)] * 5)
    r2 = make_rally([0, 2, 3, 4, 2, 3], rally_id="r2", landings=[(1.0, 8.0)] * 6)
    s1 = [_gen(5, r1.strokes[4].shot_type, 1.0, (2.0, 8.0), vocab)]  # L1 = 1.0
    s2 = [
        _gen(5, r2.strokes[4].shot_type, 1.0, (1.0, 10.0), vocab),  # L1 = 2.0
        _gen(6, r2.strokes[5].shot_type, 1.0, (4.0, 9.0), vocab),  # L1 = 4.0
    ]
    assert abs(score_sample_sets([[s1, s2]], [r1, r2]).sample_losses[0] - 7.0 / 3.0) < 1e-12


def test_zero_probability_clamped(vocab):
    truth = make_rally([0, 2, 3, 4, 2])
    suffix = [_gen(5, 3, 1.0, truth.strokes[4].landing, vocab)]  # prob 0 on true type 2
    loss = score_sample_sets([[suffix]], [truth]).sample_losses[0]
    assert abs(loss - (-math.log(1e-12))) < 1e-9


def test_mismatched_rounds_rejected(vocab):
    truth = make_rally([0, 2, 3, 4, 2, 3])
    suffix = [_gen(5, 2, 1.0, (1.0, 8.0), vocab)]  # missing round 6
    with pytest.raises(ValueError, match="expected"):
        score_sample_sets([[suffix]], [truth])


def _with_probability(g, type_id, value):
    probs = g.type_probs.copy()
    probs[type_id] = value
    return replace(g, type_probs=probs)


# each turns a generated stroke, whose true type is t, into one with a non-finite loss or true-type probability
NON_FINITE_STROKES = {
    "landing_nan": lambda g, t: replace(g, landing=(math.nan, g.landing[1])),
    "landing_inf": lambda g, t: replace(g, landing=(g.landing[0], -math.inf)),
    "probability_nan": lambda g, t: _with_probability(g, t, math.nan),
    "probability_minus_inf": lambda g, t: _with_probability(g, t, -math.inf),  # clamped, it would read as a finite loss
    "landing_huge": lambda g, t: replace(g, landing=(1e308, -1e308)),  # finite, but its L1 distance overflows
}


@pytest.mark.parametrize("fault", sorted(NON_FINITE_STROKES))
def test_a_non_finite_stroke_raises_the_same_error_for_any_set_count_and_protocol(vocab, fault):
    """With six sets a NaN landing raised ValueError; with any other count, or best-of-k, a bare AssertionError."""
    truths = [make_rally([0, 2, 3, 4, 2, 3], rally_id="r1"), make_rally([0, 2, 3, 4, 2], rally_id="r2")]

    def one_set(bad_rally=None):
        suffixes = [[_gen(i, t.type_ids[i - 1], 0.5, (1.0, 8.0), vocab) for i in range(5, len(t) + 1)] for t in truths]
        if bad_rally is not None:
            suffixes[bad_rally][0] = NON_FINITE_STROKES[fault](suffixes[bad_rally][0], truths[bad_rally].type_ids[4])
        return suffixes

    messages = set()
    for k in (1, 2, 6):
        for protocol in ("min_of_sets", "best_of_k"):
            sets = [one_set(bad_rally=1)] + [one_set() for _ in range(k - 1)]
            with pytest.raises(ValueError) as caught:
                score_sample_sets(sets, truths, protocol=protocol)
            messages.add(str(caught.value))
    assert len(messages) == 1
    assert messages.pop().startswith("sample set 1, rally r2, round 5: stroke loss is not finite")
    sets = [one_set() for _ in range(6)]
    sets[3] = one_set(bad_rally=0)
    with pytest.raises(ValueError, match="^sample set 4, rally r1, round 5: stroke loss is not finite"):
        score_sample_sets(sets, truths)


# far-off landing x by stroke, strokes 0..2 being rally r1's suffix and 3 rally r2's, and the rally named
HUGE_SUMS = {
    "one_rally": ({0: 1e308, 1: 1e308, 2: 1e308}, "r1"),  # the three overflow r1's sum
    "across_rallies": ({2: 1e308, 3: 1.7e308}, "r2"),  # each rally's sum is finite, the set's is not; r2's is larger
}


@pytest.mark.parametrize("case", sorted(HUGE_SUMS))
def test_a_loss_sum_that_overflows_raises_the_same_error_for_any_set_count_and_protocol(vocab, case):
    """Landings 1e308 m off make finite stroke losses whose sum overflowed: l_1 read inf, with a RuntimeWarning."""
    huge, rally = HUGE_SUMS[case]
    truths = [make_rally([0, 2, 3, 4, 2, 3, 4], rally_id="r1"), make_rally([0, 2, 3, 4, 2], rally_id="r2")]
    suffixes = [[_gen(i, t.type_ids[i - 1], 0.5, (1.0, 8.0), vocab) for i in range(5, len(t) + 1)] for t in truths]
    strokes = [(r, j) for r, suffix in enumerate(suffixes) for j in range(len(suffix))]
    bad = [list(suffix) for suffix in suffixes]
    for i, x in huge.items():
        r, j = strokes[i]
        bad[r][j] = replace(bad[r][j], landing=(x, 8.0))
    messages = set()
    for k in (1, 2, 6):
        for protocol in ("min_of_sets", "best_of_k"):
            with pytest.raises(ValueError) as caught:
                score_sample_sets([bad] + [suffixes] * (k - 1), truths, protocol=protocol)
            messages.add(str(caught.value))
    assert messages == {f"sample set 1, rally {rally}: loss sum is not finite (stroke losses too large to add)"}
    with pytest.raises(ValueError, match=f"^sample set 4, rally {rally}: loss sum is not finite"):
        score_sample_sets([suffixes] * 3 + [bad] + [suffixes] * 2, truths)


def test_brute_force_equivalence_on_random_fixtures(vocab):
    rng = np.random.default_rng(123)
    for case in range(50):
        truths = random_rallies(rng, int(rng.integers(1, 5)), vocab)
        suffixes = []
        for rally in truths:
            one = []
            for k in range(5, len(rally) + 1):
                p_true = float(rng.uniform(0.05, 1.0))
                true_type = rally.strokes[k - 1].shot_type
                landing = (float(rng.uniform(0, 6.1)), float(rng.uniform(5, 13.4)))
                one.append(_gen(k, true_type, p_true, landing, vocab))
            suffixes.append(one)
        mine = score_sample_sets([suffixes], truths).sample_losses[0]
        theirs = reference_sample_set_loss(suffixes, truths)
        assert abs(mine - theirs) < 1e-12


# ---------------------------------------------------------------------------
# min-of-6
# ---------------------------------------------------------------------------

def test_score_sample_sets_reports_both_protocols(vocab):
    rng = np.random.default_rng(5)
    truths = random_rallies(rng, 3, vocab)
    sets = []
    for _ in range(6):
        one = []
        for rally in truths:
            one.append(
                [
                    _gen(k, rally.strokes[k - 1].shot_type, float(rng.uniform(0.2, 1.0)),
                         (float(rng.uniform(0, 6)), float(rng.uniform(6, 13))), vocab)
                    for k in range(5, len(rally) + 1)
                ]
            )
        sets.append(one)
    report = score_sample_sets(sets, truths, protocol="min_of_sets")
    assert report.score == min(report.sample_losses)
    assert all(report.score <= l for l in report.sample_losses)
    assert report.best_per_rally_agg <= report.min_of_sets + 1e-15
    assert set(report.per_rally) == {r.rally_id for r in truths}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

@pytest.fixture
def gen_setup():
    vocab = small_vocab()
    rally = make_rally([0, 2, 3, 4, 2, 3, 4])
    model = tiny_model([rally], vocab, param_scale=0.4)
    return vocab, rally, model


def _same_strokes(a, b):
    return len(a) == len(b) and all(
        x.round_index == y.round_index
        and x.player is y.player
        and x.type_id == y.type_id
        and x.landing == y.landing
        and np.array_equal(x.type_probs, y.type_probs)
        for x, y in zip(a, b)
    )


def test_generate_deterministic_under_seed(gen_setup):
    vocab, rally, model = gen_setup
    a = sample(model, [rally], [(0, 5, 11)])[0]
    b = sample(model, [rally], [(0, 5, 11)])[0]
    assert _same_strokes(a, b)
    c = sample(model, [rally], [(0, 5, 12)])[0]
    assert any(x.landing != y.landing for x, y in zip(a, c))


def test_generate_never_emits_serves(gen_setup):
    vocab, rally, model = gen_setup
    rng = np.random.default_rng(3)
    serve_ids = set(vocab.serve_ids)
    for trial in range(10):
        for t in model.params.values():
            t.data[:] = rng.normal(0.0, 1.0, size=t.shape)
        for g in sample(model, [rally], [(0, 8, trial)])[0]:
            assert g.type_id not in serve_ids
            assert all(g.type_probs[s] == 0.0 for s in serve_ids)


def test_generate_rounds_and_players_continue_prefix(gen_setup):
    vocab, rally, model = gen_setup
    out = sample(model, [rally], [(0, 4, 0)])[0]
    assert [g.round_index for g in out] == [5, 6, 7, 8]
    assert [g.player for g in out] == [Player.A, Player.B, Player.A, Player.B]


def test_generate_degenerate_gaussian_hits_mean(gen_setup):
    vocab, rally, model = gen_setup
    model.params["area_head_w"].data[:] = 0.0
    model.params["area_head_b"].data[:] = [0.25, -0.4, math.log(1e-9), math.log(1e-9), 0.0]
    out = sample(model, [rally], [(0, 3, 5)])[0]
    expected = denormalize_coord((0.25, -0.4), model.court)
    for g in out:
        assert abs(g.landing[0] - expected[0]) < 1e-6
        assert abs(g.landing[1] - expected[1]) < 1e-6


def test_generate_argument_checks(gen_setup):
    vocab, rally, model = gen_setup
    with pytest.raises(ValueError, match="^horizon must be at least 1$"):  # sample takes the horizons as checked
        generate_sample_sets(model, [rally], 1, 0, horizon=0)
    short = make_rally([0, 2, 3])
    with pytest.raises(ValueError):
        sample(model, [short], [(0, 1, 0)])


def test_generated_values_are_quantized(gen_setup):
    vocab, rally, model = gen_setup
    for g in sample(model, [rally], [(0, 3, 1)])[0]:
        assert g.landing[0] == quantize6(g.landing[0])
        assert all(p == quantize6(p) for p in g.type_probs)
        assert abs(g.type_probs.sum() - 1.0) < 1e-6


@pytest.fixture
def mixed_lengths():
    """Rallies of lengths tau+1 up to tau+17 between three players, and a model that knows two of them."""
    vocab = small_vocab()
    rally_types = [2, 3, 4, 5]
    lengths = [5, 21, 8, 12, 6]
    names = [("ana", "bo"), ("bo", "cy"), ("cy", "ana"), ("ana", "bo"), ("bo", "ana")]
    rallies = [
        make_rally([0] + [rally_types[(i + k) % 4] for k in range(n - 1)], rally_id=f"r{i}", player_a=a, player_b=b)
        for i, (n, (a, b)) in enumerate(zip(lengths, names))
    ]
    model = tiny_model(rallies[:1], vocab, param_scale=0.4, seed=3)  # "cy" maps to the unknown row
    return model, rallies


def _reference_quantize_simplex(probs):
    """One probability vector at a time, through the formatted quantize6."""
    q = np.array([quantize6(p) for p in probs])
    residual = 1.0 - q.sum()
    top = int(np.argmax(q))
    q[top] = quantize6(q[top] + residual)
    return q


def _sample_index(rng, probs):
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum / cum[-1], rng.random(), side="right"), len(probs) - 1))


def _reference_draw(rng, prev, type_probs, mu, log_sigma, rho, serve_ids, court):
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
        player=Player.B if prev.player is Player.A else Player.A,
        shot_type=type_id,
        landing=landing_q,
        player_location=mirror_coord(prev.landing, court),
    )
    generated = GeneratedStroke(
        round_index=stroke.round_index,
        player=stroke.player,
        type_id=type_id,
        landing=landing_q,
        type_probs=_reference_quantize_simplex(probs),
    )
    return stroke, generated


def _reference_suffix(model, rally, horizon, seed):
    """One continuation the slow way: the taped forward over the whole history and a one-row draw per stroke."""
    rng = np.random.default_rng(seed)
    history = list(rally.strokes[:TAU])
    out = []
    for _ in range(horizon):
        ids = [model.player_id(rally.player_a if s.player is Player.A else rally.player_b) for s in history]
        probs, landing = model.forward(stroke_inputs(history, ids, model.court))
        mu, log_sigma, rho = ad.landing_columns(landing.data[-1])
        stroke, generated = _reference_draw(
            rng, history[-1], probs.data[-1], mu, log_sigma, float(rho), list(model.vocab.serve_ids), model.court
        )
        history.append(stroke)
        out.append(generated)
    return out


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_quantize6_array_equals_quantize6_on_finite_floats(values):
    want = np.array([quantize6(v) for v in values])
    assert quantize6_array(np.array(values)).tobytes() == want.tobytes()  # bit for bit, signed zeros included


def test_quantize6_array_keeps_non_finite_values():
    got = quantize6_array(np.array([np.nan, np.inf, -np.inf]))
    assert np.isnan(got[0]) and got[1] == quantize6(np.inf) and got[2] == quantize6(-np.inf)


@given(st.integers(-(10**10), 10**10), st.integers(-4, 4))
def test_quantize6_array_equals_quantize6_near_rounding_ties(k, ulps):
    x = k / 1e6 + 5e-7
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    assert quantize6_array(np.array([x, -x])).tobytes() == np.array([quantize6(x), quantize6(-x)]).tobytes()


@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 10)), elements=st.floats(0.0, 1.0)))
def test_batched_quantize_simplex_rows_equal_the_per_row_reference(raw):
    assume((raw.sum(axis=1) > 0.0).all())
    probs = raw / raw.sum(axis=1, keepdims=True)
    batched = quantize_simplex(probs)
    for got, row in zip(batched, probs):
        assert got.tobytes() == _reference_quantize_simplex(row).tobytes()


def test_lockstep_sample_sets_equal_one_continuation_at_a_time(mixed_lengths):
    model, rallies = mixed_lengths
    seed = 21
    for horizon in (None, 9):
        sets = generate_sample_sets(model, rallies, 6, seed, horizon=horizon)
        assert len(sets) == 6
        for j, one in enumerate(sets):
            for r_idx, rally in enumerate(rallies):
                steps = horizon if horizon is not None else len(rally) - TAU
                stream = np.random.SeedSequence([seed, TAG_EVAL, r_idx, j])
                assert _same_strokes(one[r_idx], sample(model, [rally], [(0, steps, stream)])[0])
                assert _same_strokes(one[r_idx], _reference_suffix(model, rally, steps, stream))
    six = generate_sample_sets(model, rallies, 6, seed)
    two = generate_sample_sets(model, rallies, 2, seed)
    assert all(_same_strokes(a, b) for s6, s2 in zip(six[:2], two) for a, b in zip(s6, s2))


def test_sample_sets_reject_a_rally_without_a_suffix(mixed_lengths):
    """In scoring mode no horizon is passed, so the error names the rally and its strokes, not a horizon."""
    model, rallies = mixed_lengths
    for types in ([0, 2, 3, 4], [0, 2, 3]):
        short = make_rally(types, rally_id="short")
        with pytest.raises(ValueError, match=rf"^rallies too short to predict \(need {TAU + 1} strokes\): \['short'\]$"):
            generate_sample_sets(model, rallies + [short], 2, seed=1)


def test_sample_sets_need_at_least_one_set(mixed_lengths):
    model, rallies = mixed_lengths
    with pytest.raises(ValueError, match="^need at least one sample set, got 0$"):
        generate_sample_sets(model, rallies, 0, seed=1)


# the head weights blown up before a sampling step, and the error text of the per-op checks (see test_training)
SAMPLING_BLOWUPS = {
    "nan_type_head": ([("type_head_w", ..., math.nan)], "linear produced non-finite values"),
    **{
        case: BLOWUPS[case]
        for case in ("infinite_rho_weight", "infinite_log_sigma_weight", "attention_scores", "gate_overflow", "ffn_overflow")
    },
}


@pytest.fixture
def synthesized(vocab):
    rallies = synthesize_dataset(SynthConfig(n_rallies=8, mean_length=6.0, seed=3, vocab=vocab))
    return tiny_model(rallies, vocab), rallies


@pytest.mark.parametrize("step", [1, 3], ids=["first_cached_step", "later_step"])
@pytest.mark.parametrize("case", list(SAMPLING_BLOWUPS))
def test_a_weight_blown_up_while_sampling_names_the_op_that_first_produced_a_non_finite_value(synthesized, case, step):
    model, rallies = synthesized
    blowup, message = SAMPLING_BLOWUPS[case]
    forward = Forecaster.forward
    calls = []

    def blown_up_forward(self, inputs, rng=None, cache=None, first=0):
        calls.append(cache.length)
        if len(calls) == step:
            blow_up(self.params, blowup)
        return forward(self, inputs, rng=rng, cache=cache, first=first)

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(Forecaster, "forward", blown_up_forward)
        with pytest.raises(NumericHealthError) as raised:
            generate_sample_sets(model, rallies, 2, 5)
    assert str(raised.value) == message
    # the per-op checks raised in the step that fed from this cache length; the step mode ran it, then the replay
    fault_at = 0 if step == 1 else 7 if case == "ffn_overflow" else TAU + 1  # the overflow reaches a layer norm at 7
    assert calls[-2:] == [fault_at, fault_at]
    assert calls[:-1] == sorted(set(calls))


def test_a_fault_only_the_step_mode_sees_replays_the_sampling_step_to_the_same_draws(synthesized):
    """A check that fires after the cache took a step's positions: the replay feeds them again from the same length."""
    model, rallies = synthesized
    want = generate_sample_sets(model, rallies, 3, 5)
    forward = Forecaster.forward
    calls = []

    def faulty_forward(self, inputs, rng=None, cache=None, first=0):
        heads = forward(self, inputs, rng=rng, cache=cache, first=first)
        calls.append(1)
        if len(calls) == 3:
            # saturates: only the step mode's input check refuses it
            ad.gate(Tensor([math.inf]), Tensor([1.0]), Tensor([0.0]))
        return heads

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Forecaster, "forward", faulty_forward)
        got = generate_sample_sets(model, rallies, 3, 5)
    assert len(calls) == max(len(r) for r in rallies) - TAU + 1
    assert all(_same_strokes(a, b) for gs, ws in zip(got, want) for a, b in zip(gs, ws))


def test_the_first_sampling_step_encodes_each_rally_prefix_once(synthesized):
    """R rallies times 6 sets: the first forward feeds (R, TAU), then each continuation its horizon - 1 strokes."""
    model, rallies = synthesized
    forward = Forecaster.forward
    fed = []

    def counting_forward(self, inputs, rng=None, cache=None, first=0):
        fed.append(inputs.type_ids.shape)
        return forward(self, inputs, rng=rng, cache=cache, first=first)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Forecaster, "forward", counting_forward)
        generate_sample_sets(model, rallies, 6, 5)
    assert fed[0] == (len(rallies), TAU)
    assert all(n == 1 for _, n in fed[1:])
    horizons = [len(r) - TAU for r in rallies]
    assert sum(b * n for b, n in fed) == len(rallies) * TAU + 6 * sum(h - 1 for h in horizons)


def test_heads_on_the_last_fed_position_write_the_prediction_file_of_heads_on_every_position(tmp_path, synthesized):
    """The sampler reads one position a step, and the rows a forward returns do not depend on the rows it skips."""
    model, rallies = synthesized
    forward = Forecaster.forward

    def every_position(self, inputs, rng=None, cache=None, first=0):
        return tuple(ad.tslice(head, np.s_[:, first:]) for head in forward(self, inputs, rng=rng, cache=cache))

    paths = tmp_path / "last.csv", tmp_path / "every.csv"
    export_predictions(rallies, generate_sample_sets(model, rallies, 6, 5), model.vocab, paths[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Forecaster, "forward", every_position)
        export_predictions(rallies, generate_sample_sets(model, rallies, 6, 5), model.vocab, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

def test_export_import_round_trip_scores_identically(tmp_path, gen_setup):
    vocab, rally, model = gen_setup
    truths = [rally, make_rally([1, 3, 4, 5, 3, 4], rally_id="r9")]
    sets = [
        sample(model, truths, [(i, len(r) - 4, 100 + 10 * j + i) for i, r in enumerate(truths)])
        for j in range(6)
    ]
    path = tmp_path / "preds.csv"
    export_predictions(truths, sets, vocab, path)

    n_rows = sum(1 for _ in open(path)) - 1
    assert n_rows == 6 * sum(len(r) - 4 for r in truths)

    pred = import_predictions(path, vocab)
    assert pred.n_samples == 6
    g = pred.rows[rally.rally_id][1][0]
    assert np.shares_memory(g.type_probs, pred.probs) and pred.rows is pred.rows  # row views, built once
    round_tripped = pred.sample_sets(truths)
    direct = score_sample_sets(sets, truths, protocol="min_of_sets")
    reimported = score_sample_sets(round_tripped, truths, protocol="min_of_sets")
    assert direct.score == reimported.score
    assert direct.sample_losses == reimported.sample_losses


def test_prediction_rows_built_block_by_block_equal_a_whole_column_build():
    rng = np.random.default_rng(4)
    m = 2 * PARSE_BLOCK_LINES + 37  # rows of three blocks, the last one partial
    rally_index = np.sort(rng.integers(0, 5, size=m))
    probs = rng.random((m, 6))
    probs /= probs.sum(axis=1, keepdims=True)
    pred = scoring.PredictionFile.from_columns(
        [f"r{i}" for i in range(5)], rally_index, rng.integers(1, 4, size=m), np.arange(m) % 9 + 5,
        rng.normal(size=(m, 2)), probs,
    )
    want: dict = {}
    for i in range(m):
        ball_round = int(pred.rounds[i])
        g = GeneratedStroke(
            ball_round, Player.A if ball_round % 2 == 1 else Player.B, int(pred.probs[i].argmax()),
            tuple(pred.landings[i].tolist()), pred.probs[i],
        )
        want.setdefault(pred.rally_ids[pred.rally_index[i]], {}).setdefault(int(pred.sample_ids[i]), []).append(g)

    def fields(rows):
        def strokes(suffix):
            return [(g.round_index, g.player, g.type_id, g.landing, g.type_probs.tobytes()) for g in suffix]

        return [(r, [(k, strokes(suffix)) for k, suffix in per_sample.items()]) for r, per_sample in rows.items()]

    assert fields(pred.rows) == fields(want)  # in the same order, too
    assert all(np.shares_memory(g.type_probs, pred.probs) for s in pred.rows.values() for v in s.values() for g in v)


@st.composite
def scored_predictions(draw):
    """(truths, sample sets) with the 6-decimal landings and type rows that generation produces."""
    vocab = small_vocab()
    coord = st.floats(-20.0, 40.0)
    truths = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(5, 8))
        types = [0] + draw(st.lists(st.integers(0, vocab.size - 1), min_size=n - 1, max_size=n - 1))
        landings = [(draw(coord), draw(coord)) for _ in range(n)]
        truths.append(make_rally(types, rally_id=f"r{i}", landings=landings))
    weights = st.lists(st.floats(0.0, 1.0), min_size=vocab.size, max_size=vocab.size).filter(lambda w: sum(w) > 0)
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        one = []
        for rally in truths:
            suffix = []
            for k in range(5, len(rally) + 1):
                w = np.array(draw(weights))
                suffix.append(
                    GeneratedStroke(
                        round_index=k,
                        player=Player.A if k % 2 == 1 else Player.B,
                        type_id=int(np.argmax(w)),
                        landing=tuple(quantize6_array(np.array([draw(coord), draw(coord)]))),
                        type_probs=quantize_simplex((w / w.sum())[None, :])[0],
                    )
                )
            one.append(suffix)
        sets.append(one)
    return vocab, truths, sets


# predict then score, as `rallycast predict` and `rallycast score` run them, in a fresh interpreter
PREDICT_THEN_SCORE = f"""
import sys
from pathlib import Path

from rallycast.court import CourtSpec, ShotTypeVocab
from rallycast.dataset import parse_dataset
from rallycast.network import Forecaster, ModelConfig, build_player_index, init_params
from rallycast.scoring import generate_sample_sets, import_predictions, score_sample_sets

hand_scored = Path({str(FIXTURES / "hand_scored")!r})
vocab, court = ShotTypeVocab.default(), CourtSpec()
truths, _, _ = parse_dataset(hand_scored / "truth.csv", vocab, court, write_rejects=False)
index = build_player_index(truths)
config = ModelConfig(embed_dim=8, n_heads=2, vocab_size=vocab.size, n_players=len(index))
model = Forecaster(init_params(config, 0), config, court, vocab, index)
assert len(generate_sample_sets(model, truths, 2, seed=0)[0]) == len(truths)
pred = import_predictions(hand_scored / "predictions.csv", vocab)
print(score_sample_sets(pred.sample_sets(truths), truths).score)
print("numpy.ma" in sys.modules)
"""


def test_predict_then_score_does_not_import_numpy_ma():
    """np.unique's first call imported numpy.ma (numpy >= 2.3), about 12 ms of every `score` run."""
    out = subprocess.run(
        [sys.executable, "-c", PREDICT_THEN_SCORE], capture_output=True, text=True, cwd=FIXTURES.parent, timeout=300
    )
    assert out.returncode == 0, out.stderr
    score, imported = out.stdout.split()
    assert abs(float(score) - 1.539721) < 1e-6
    assert imported == "False"


def test_an_export_stopped_after_its_first_block_leaves_no_prediction_file(tmp_path, gen_setup, monkeypatch):
    """A partial prediction file would read as damaged; the file appears whole, at the rename, or not at all."""
    vocab, rally, model = gen_setup
    sets = [sample(model, [rally], [(0, len(rally) - 4, 100 + j)]) for j in range(6)]
    path = tmp_path / "preds.csv"
    monkeypatch.setattr(scoring, "PARSE_BLOCK_LINES", 4)  # 18 rows: the export formats them in five blocks
    monkeypatch.setattr(court_module, "PARSE_BLOCK_LINES", 4)  # and the writer writes each block as it comes
    column_stack, seen = np.column_stack, []

    def stop_at_the_second_block(arrays):
        seen.append(sorted(p.name for p in tmp_path.iterdir()))
        if len(seen) == 2:
            raise KeyboardInterrupt
        return column_stack(arrays)

    monkeypatch.setattr(np, "column_stack", stop_at_the_second_block)
    with pytest.raises(KeyboardInterrupt):
        export_predictions([rally], sets, vocab, path)
    assert len(seen[1]) == 1 and seen[1][0].startswith(".preds.csv.")  # the first block went to the file beside path
    assert list(tmp_path.iterdir()) == []


@given(scored_predictions(), st.sampled_from(["min_of_sets", "best_of_k"]))
def test_export_import_score_equals_the_in_memory_score_bit_for_bit(tmp_path_factory, case, protocol):
    vocab, truths, sets = case
    path = tmp_path_factory.mktemp("preds") / "preds.csv"
    export_predictions(truths, sets, vocab, path)
    pred = import_predictions(path, vocab)
    assert pred.n_samples == len(sets)
    direct = score_sample_sets(sets, truths, protocol=protocol)
    reimported = score_sample_sets(pred.sample_sets(truths), truths, protocol=protocol)
    assert reimported == direct
    assert direct == _loop_report(sets, truths, protocol)


def _loop_report(sets, truths, protocol, tau=4):
    """The ScoreReport of [set][rally][stroke] lists one stroke at a time, summed left to right in Python."""
    rally_sums, stroke_losses = [], []
    for one in sets:
        sums, per_set = [], []
        for suffix, rally in zip(one, truths):
            per_stroke = []
            for g, truth in zip(suffix, rally.strokes[tau:]):
                ce = -math.log(max(float(g.type_probs[truth.shot_type]), 1e-12))
                mae = abs(truth.landing[0] - g.landing[0]) + abs(truth.landing[1] - g.landing[1])
                per_stroke.append((g.round_index, ce + mae))
            sums.append(sum(loss for _, loss in per_stroke))
            per_set.append(per_stroke)
        rally_sums.append(sums)
        stroke_losses.append(per_set)
    n = sum(len(r) - tau for r in truths)
    matrix = np.array(rally_sums)
    losses = [float(row.sum() / n) for row in matrix]
    best = matrix.argmin(axis=0)
    round_sum, round_count = {}, {}
    for i, rally in enumerate(truths):
        for ball_round, loss in stroke_losses[best[i]][i]:
            round_sum[ball_round] = round_sum.get(ball_round, 0.0) + loss
            round_count[ball_round] = round_count.get(ball_round, 0) + 1
    best_agg = float(matrix.min(axis=0).sum() / n)
    return scoring.ScoreReport(
        score=min(losses) if protocol == "min_of_sets" else best_agg,
        sample_losses=losses,
        min_of_sets=min(losses),
        best_per_rally_agg=best_agg,
        per_rally={rally.rally_id: float(matrix[best[i], i]) for i, rally in enumerate(truths)},
        per_round={r: round_sum[r] / round_count[r] for r in round_sum},
    )


def test_import_rejects_wrong_header(tmp_path, vocab):
    path = tmp_path / "bad.csv"
    path.write_text("rally_id,sample_id\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}: line 1: prediction header does not match"):
        import_predictions(path, vocab)


# each turns the cells of one prediction row into a damaged row
PREDICTION_ROW_DAMAGE = {
    "sample_id_word": lambda cells: cells[:1] + ["x"] + cells[2:],
    "sample_id_zero": lambda cells: cells[:1] + ["0"] + cells[2:],
    "sample_id_beyond_int64": lambda cells: cells[:1] + [str(2**64)] + cells[2:],
    "sample_id_below_int64": lambda cells: cells[:1] + [str(-(2**64))] + cells[2:],
    "round_fraction": lambda cells: cells[:2] + ["5.5"] + cells[3:],
    "round_beyond_int64": lambda cells: cells[:2] + [str(2**64)] + cells[3:],
    "landing_nan": lambda cells: cells[:3] + ["nan"] + cells[4:],
    "landing_inf": lambda cells: cells[:4] + ["-inf"] + cells[5:],
    "probability_negative": lambda cells: cells[:5] + ["-0.200000"] + cells[6:],
    "probability_word": lambda cells: cells[:-1] + ["x"],
    "probabilities_off_one": lambda cells: cells[:5] + [f"{float(cells[5]) + 0.01:.6f}"] + cells[6:],
    "short_row": lambda cells: cells[:-1],
    "long_row": lambda cells: cells + ["0.000000"],
}


@st.composite
def damaged_prediction_text(draw):
    """(prediction CSV text, parse block size) with damaged rows, a repeated (rally, sample, round), a gap in the
    sample ids, blank and whitespace-only lines, shuffled rows and every line ending."""
    vocab = small_vocab()
    n_samples = draw(st.integers(1, 3))
    rows = []
    for r in range(draw(st.integers(0, 3))):
        for sample_id in range(1, n_samples + 1):
            for ball_round in range(5, 5 + draw(st.integers(1, 4))):
                w = np.array(draw(st.lists(st.integers(0, 3), min_size=vocab.size, max_size=vocab.size).filter(any)))
                probs = quantize_simplex((w / w.sum())[None, :])[0]
                rows.append([f"r{r}", str(sample_id), str(ball_round), "1.500000", "9.250000", *(f"{p:.6f}" for p in probs)])
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))  # a (rally, sample, round) twice
    if rows and draw(st.booleans()):
        gap = draw(st.integers(1, n_samples))  # sample ids from the gap on move up by one
        rows = [cells[:1] + [str(int(cells[1]) + (int(cells[1]) >= gap))] + cells[2:] for cells in rows]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = PREDICTION_ROW_DAMAGE[draw(st.sampled_from(sorted(PREDICTION_ROW_DAMAGE)))](rows[i])
    lines = [",".join(cells) for cells in rows] + draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3))
    lines = draw(st.permutations(lines))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = "".join(line + end for line, end in zip([prediction_header(vocab), *lines], endings))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line ending after the last row
    return vocab, text


def _import_outcome(path, vocab, read=import_predictions):
    """The columns a reader returns, or the text of the ParseError it raises."""
    try:
        pred = read(path, vocab)
    except ParseError as exc:
        return f"ParseError: {exc}"
    columns = (pred.rally_index, pred.sample_ids, pred.rounds, pred.landings, pred.probs)
    return pred.n_samples, pred.rally_ids, [(a.dtype, a.shape, a.tobytes()) for a in columns]


@given(damaged_prediction_text())
def test_prediction_import_does_not_depend_on_the_parse_block_size(tmp_path_factory, case):
    vocab, text = case
    path = tmp_path_factory.mktemp("blocks") / "pred.csv"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for block_lines in (1, 2, 3, 5, PARSE_BLOCK_LINES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(court_module, "PARSE_BLOCK_LINES", block_lines)
            outcomes.append(_import_outcome(path, vocab))
    assert all(outcome == outcomes[-1] for outcome in outcomes)


def _assert_import_matches_the_reference(path, vocab, block_sizes, context=None):
    want = _import_outcome(path, vocab, reference_import_predictions)
    for block_lines in block_sizes:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(court_module, "PARSE_BLOCK_LINES", block_lines)
            assert _import_outcome(path, vocab) == want, (context, block_lines)


@given(damaged_prediction_text())
def test_prediction_import_equals_the_line_by_line_reference(tmp_path_factory, case):
    vocab, text = case
    path = tmp_path_factory.mktemp("blocks") / "pred.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_import_matches_the_reference(path, vocab, (1, 2, 3, 5, PARSE_BLOCK_LINES))


def test_every_ordered_pair_of_prediction_row_damages_raises_as_the_reference_does(tmp_path, vocab):
    """Two faults in one row: the error names the fault that the reference's checks reach first."""
    lines = (FIXTURES / "hand_scored" / "predictions.csv").read_text().splitlines()
    path = tmp_path / "pred.csv"
    for first, second in itertools.product(sorted(PREDICTION_ROW_DAMAGE), repeat=2):
        cells = PREDICTION_ROW_DAMAGE[second](PREDICTION_ROW_DAMAGE[first](lines[7].split(",")))
        path.write_text("\n".join([*lines[:7], ",".join(cells), *lines[8:]]) + "\n", encoding="utf-8")
        _assert_import_matches_the_reference(path, vocab, (1, 5, PARSE_BLOCK_LINES), (first, second))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[:1] + rows, "line 3: rally h0001 sample 1 round 5 repeats line 2"),
        (lambda rows: [r.replace("h0001,6,", "h0001,7,") for r in rows], "line 12: sample id 7 skips sample id 6"),
    ],
    ids=["repeated_row", "sample_id_gap"],
)
def test_a_prediction_file_with_a_grouping_fault_is_opened_once(tmp_path, vocab, edit, message):
    lines = (FIXTURES / "hand_scored" / "predictions.csv").read_text().splitlines()
    path = tmp_path / "pred.csv"
    path.write_text("\n".join([lines[0], *edit(lines[1:])]) + "\n", encoding="utf-8")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "open", counting_open)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}"):
            import_predictions(path, vocab)
    assert opened == [path]


def test_rallies_sharing_a_rally_id_are_refused_before_export_or_scoring(tmp_path, vocab):
    truths = [make_rally([0, 2, 3, 4, 2], rally_id="r1", match_id="m1"), make_rally([0, 2, 3, 4, 2], rally_id="r1", match_id="m2")]
    suffix = [_gen(5, 2, 0.5, (1.0, 8.0), vocab)]
    message = "^rally id r1 is used by match m1 and by match m2"
    with pytest.raises(ValueError, match=message):
        export_predictions(truths, [[suffix, suffix]], vocab, tmp_path / "pred.csv")
    assert not (tmp_path / "pred.csv").exists()
    with pytest.raises(ValueError, match=message):
        prediction_file(vocab, {("r1", 1): suffix}).sample_sets(truths)


def test_nested_streams_are_monotone(gen_setup):
    """Extending the sample streams can only lower best-of-k losses."""
    vocab, rally, model = gen_setup
    truths = [rally]
    seqs = {}

    def sets_for(k):
        out = []
        for j in range(k):
            if j not in seqs:
                seqs[j] = sample(model, [rally], [(0, len(rally) - 4, np.random.SeedSequence([7, 0, j]))])[0]
            out.append([seqs[j]])
        return out

    scores = {}
    for k in (1, 10, 100):
        report = score_sample_sets(sets_for(k), truths, protocol="best_of_k")
        scores[k] = report.score
    assert scores[100] <= scores[10] <= scores[1]
