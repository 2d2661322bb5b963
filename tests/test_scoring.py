import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rallycast import scoring
from rallycast.court import Player, Stroke, denormalize_coord, mirror_coord
from rallycast.scoring import (
    GeneratedStroke,
    evaluate_sample_set,
    export_predictions,
    generate_sample_sets,
    generate_suffix,
    import_predictions,
    quantize6,
    quantize6_array,
    quantize_simplex,
    sample_set_loss,
    score_min6,
    score_sample_sets,
)

from rallycast.seeding import TAG_EVAL

from conftest import make_rally, random_rallies, small_vocab, tiny_model
from metric_reference import reference_min6, reference_sample_set_loss


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
    loss = sample_set_loss([suffix], [truth])
    assert abs(loss - 1.539721) < 1e-6
    expected = ((-math.log(0.5) + 0.3) + (-math.log(0.25) + 0.7)) / 2
    assert abs(loss - expected) < 1e-12


def test_perfect_predictions_score_zero(vocab):
    truth = make_rally([0, 2, 3, 4, 2, 3])
    suffix = [
        _gen(5, truth.strokes[4].shot_type, 1.0, truth.strokes[4].landing, vocab),
        _gen(6, truth.strokes[5].shot_type, 1.0, truth.strokes[5].landing, vocab),
    ]
    assert sample_set_loss([suffix], [truth]) == 0.0


def test_stroke_count_denominator(vocab):
    # per-stroke losses {1.0} and {2.0, 4.0} -> (1+2+4)/3
    r1 = make_rally([0, 2, 3, 4, 2], rally_id="r1", landings=[(1.0, 8.0)] * 5)
    r2 = make_rally([0, 2, 3, 4, 2, 3], rally_id="r2", landings=[(1.0, 8.0)] * 6)
    s1 = [_gen(5, r1.strokes[4].shot_type, 1.0, (2.0, 8.0), vocab)]  # L1 = 1.0
    s2 = [
        _gen(5, r2.strokes[4].shot_type, 1.0, (1.0, 10.0), vocab),  # L1 = 2.0
        _gen(6, r2.strokes[5].shot_type, 1.0, (4.0, 9.0), vocab),  # L1 = 4.0
    ]
    assert abs(sample_set_loss([s1, s2], [r1, r2]) - 7.0 / 3.0) < 1e-12


def test_zero_probability_clamped(vocab):
    truth = make_rally([0, 2, 3, 4, 2])
    suffix = [_gen(5, 3, 1.0, truth.strokes[4].landing, vocab)]  # prob 0 on true type 2
    loss = sample_set_loss([suffix], [truth])
    assert abs(loss - (-math.log(1e-12))) < 1e-9


def test_mismatched_rounds_rejected(vocab):
    truth = make_rally([0, 2, 3, 4, 2, 3])
    suffix = [_gen(5, 2, 1.0, (1.0, 8.0), vocab)]  # missing round 6
    with pytest.raises(ValueError, match="expected"):
        evaluate_sample_set([suffix], [truth])


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
        mine = sample_set_loss(suffixes, truths)
        theirs = reference_sample_set_loss(suffixes, truths)
        assert abs(mine - theirs) < 1e-12


# ---------------------------------------------------------------------------
# min-of-6
# ---------------------------------------------------------------------------

def test_score_min6_examples():
    assert score_min6([3.1, 2.9, 3.0, 3.3, 2.95, 2.9]) == 2.9
    assert score_min6([4.0] * 6) == 4.0


def test_score_min6_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(200):
        values = list(rng.uniform(0, 10, size=6))
        base = score_min6(values)
        perm = list(rng.permutation(values))
        assert score_min6(perm) == base
        assert base == reference_min6(values)
        assert all(base <= v for v in values)


def test_score_min6_arity_and_finiteness():
    with pytest.raises(ValueError):
        score_min6([1.0] * 5)
    with pytest.raises(ValueError):
        score_min6([1.0] * 7)
    with pytest.raises(ValueError):
        score_min6([1.0, 2.0, 3.0, float("nan"), 5.0, 6.0])


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
    assert report.n_strokes == sum(len(r) - 4 for r in truths)


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
    a = generate_suffix(model, rally, horizon=5, seed=11)
    b = generate_suffix(model, rally, horizon=5, seed=11)
    assert _same_strokes(a, b)
    c = generate_suffix(model, rally, horizon=5, seed=12)
    assert any(x.landing != y.landing for x, y in zip(a, c))


def test_generate_never_emits_serves(gen_setup):
    vocab, rally, model = gen_setup
    rng = np.random.default_rng(3)
    serve_ids = set(vocab.serve_ids)
    for trial in range(10):
        for t in model.params.tensors.values():
            t.data[:] = rng.normal(0.0, 1.0, size=t.shape)
        for g in generate_suffix(model, rally, horizon=8, seed=trial):
            assert g.type_id not in serve_ids
            assert all(g.type_probs[s] == 0.0 for s in serve_ids)


def test_generate_rounds_and_players_continue_prefix(gen_setup):
    vocab, rally, model = gen_setup
    out = generate_suffix(model, rally, horizon=4, seed=0)
    assert [g.round_index for g in out] == [5, 6, 7, 8]
    assert [g.player for g in out] == [Player.A, Player.B, Player.A, Player.B]


def test_generate_degenerate_gaussian_hits_mean(gen_setup):
    vocab, rally, model = gen_setup
    model.params["area_head_w"].data[:] = 0.0
    model.params["area_head_b"].data[:] = [0.25, -0.4, math.log(1e-9), math.log(1e-9), 0.0]
    out = generate_suffix(model, rally, horizon=3, seed=5)
    from rallycast.court import denormalize_coord

    expected = denormalize_coord((0.25, -0.4), model.court)
    for g in out:
        assert abs(g.landing[0] - expected[0]) < 1e-6
        assert abs(g.landing[1] - expected[1]) < 1e-6


def test_generate_argument_checks(gen_setup):
    vocab, rally, model = gen_setup
    with pytest.raises(ValueError):
        generate_suffix(model, rally, horizon=0, seed=0)
    short = make_rally([0, 2, 3])
    with pytest.raises(ValueError):
        generate_suffix(model, short, horizon=1, seed=0)


def test_generated_values_are_quantized(gen_setup):
    vocab, rally, model = gen_setup
    for g in generate_suffix(model, rally, horizon=3, seed=1):
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
        type_probs=_reference_quantize_simplex(probs),
    )
    return stroke, generated


def _reference_suffix(model, rally, horizon, seed):
    """One continuation the slow way: the taped forward over the whole history and a one-row draw per stroke."""
    rng = np.random.default_rng(seed)
    history = list(rally.strokes[: model.config.tau])
    out = []
    for _ in range(horizon):
        probs, mu, log_sigma, rho = model.forward_positions(history, (rally.player_a, rally.player_b))
        stroke, generated = _reference_draw(
            rng, history[-1], probs.data[-1], mu.data[-1], log_sigma.data[-1], float(rho.data[-1]),
            list(model.vocab.serve_ids), model.court,
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
    tau = model.config.tau
    seed = 21
    for horizon in (None, 9):
        sets = generate_sample_sets(model, rallies, 6, seed, horizon=horizon)
        assert len(sets) == 6
        for j, one in enumerate(sets):
            for r_idx, rally in enumerate(rallies):
                steps = horizon if horizon is not None else len(rally) - tau
                stream = np.random.SeedSequence([seed, TAG_EVAL, r_idx, j])
                assert _same_strokes(one[r_idx], generate_suffix(model, rally, steps, stream))
                assert _same_strokes(one[r_idx], _reference_suffix(model, rally, steps, stream))
    six = generate_sample_sets(model, rallies, 6, seed)
    two = generate_sample_sets(model, rallies, 2, seed)
    assert all(_same_strokes(a, b) for s6, s2 in zip(six[:2], two) for a, b in zip(s6, s2))


def test_sample_sets_reject_a_rally_without_a_suffix(mixed_lengths):
    model, rallies = mixed_lengths
    with pytest.raises(ValueError, match="horizon"):
        generate_sample_sets(model, rallies + [make_rally([0, 2, 3, 4], rally_id="short")], 2, seed=1)


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

def test_export_import_round_trip_scores_identically(tmp_path, gen_setup):
    vocab, rally, model = gen_setup
    truths = [rally, make_rally([1, 3, 4, 5, 3, 4], rally_id="r9")]
    sets = [
        [generate_suffix(model, r, len(r) - 4, seed=100 + 10 * j + i) for i, r in enumerate(truths)]
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
        n_strokes=n,
    )


def test_import_rejects_wrong_header(tmp_path, vocab):
    path = tmp_path / "bad.csv"
    path.write_text("rally_id,sample_id\n", encoding="utf-8")
    with pytest.raises(ValueError):
        import_predictions(path, vocab)


def test_nested_streams_are_monotone(gen_setup):
    """Extending the sample streams can only lower best-of-k losses."""
    vocab, rally, model = gen_setup
    truths = [rally]
    seqs = {}

    def sets_for(k):
        out = []
        for j in range(k):
            if j not in seqs:
                seqs[j] = generate_suffix(model, rally, len(rally) - 4, seed=np.random.SeedSequence([7, 0, j]))
            out.append([seqs[j]])
        return out

    scores = {}
    for k in (1, 10, 100):
        report = score_sample_sets(sets_for(k), truths, protocol="best_of_k")
        scores[k] = report.score
    assert scores[100] <= scores[10] <= scores[1]
