import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rallycast.analysis import (
    GROUPINGS,
    landing_zone_distribution,
    mean_probability,
    predicted_type_vote,
    round_trend,
    shot_distribution,
)
from rallycast.court import CourtSpec, Player, Rally, Stroke
from rallycast.dataset import SynthConfig, synthesize_dataset
from rallycast.scoring import GeneratedStroke, import_predictions, prediction_header, quantize_simplex

from analysis_reference import (
    reference_mean_probability,
    reference_round_trend,
    reference_shot_distribution,
    reference_type_vote,
    reference_zone_distribution,
)
from conftest import fractions_by_group, make_rally, prediction_file, small_vocab


def _g(vocab, round_index, probs, landing=(3.0, 10.0)):
    probs = np.asarray(probs, dtype=float)
    return GeneratedStroke(
        round_index=round_index,
        player=Player.A if round_index % 2 else Player.B,
        type_id=int(np.argmax(probs)),
        landing=landing,
        type_probs=probs,
    )


# ---------------------------------------------------------------------------
# dataset distributions
# ---------------------------------------------------------------------------

def test_round_one_is_all_service(vocab):
    rallies = [make_rally([vocab.id_of("short service"), 2, 3, 4, 5], rally_id=f"r{i}") for i in range(4)]
    table = shot_distribution(rallies, "ball_round", vocab)
    round1 = [row for row in table.rows if row.key == "1"]
    assert len(round1) == 1
    assert round1[0].type_name == "short service" and round1[0].fraction == 1.0


def test_synthetic_corpus_has_no_serve_mass_after_round_one(vocab):
    rallies = synthesize_dataset(SynthConfig(n_rallies=60, seed=2, vocab=vocab))
    table = shot_distribution(rallies, "ball_round", vocab)
    serve_names = {e.name for e in vocab.entries if e.is_serve}
    for row in table.rows:
        if row.key != "1":
            assert row.type_name not in serve_names


def test_per_player_tables_differ_for_disjoint_styles(vocab):
    """alice and chen favour disjoint rally types, so their most frequent rally types differ."""
    rallies = synthesize_dataset(SynthConfig(n_rallies=100, seed=0, vocab=vocab))
    table = shot_distribution(rallies, "player", vocab)

    def argmax_type(player):
        rows = [r for r in table.rows if r.key == player and not vocab.is_serve(vocab.id_of(r.type_name))]
        return max(rows, key=lambda r: r.count).type_name

    assert argmax_type("alice") != argmax_type("chen")


def test_fractions_sum_to_one_per_group(vocab):
    rallies = synthesize_dataset(SynthConfig(n_rallies=40, seed=7, vocab=vocab))
    for grouping in ("ball_round", "player", "landing_zone", "player_location_zone"):
        table = shot_distribution(rallies, grouping, vocab)
        for key, total in fractions_by_group(table).items():
            assert abs(total - 1.0) < 1e-9, (grouping, key)


def test_every_stroke_counted_once(vocab):
    rallies = synthesize_dataset(SynthConfig(n_rallies=25, seed=1, vocab=vocab))
    table = shot_distribution(rallies, "ball_round", vocab)
    assert sum(row.count for row in table.rows) == sum(len(r) for r in rallies)


def test_unknown_grouping_rejected(vocab):
    with pytest.raises(ValueError):
        shot_distribution([], "color", vocab)


# ---------------------------------------------------------------------------
# voting
# ---------------------------------------------------------------------------

def test_vote_unanimous(vocab):
    probs = np.zeros(vocab.size)
    probs[3] = 0.7
    probs[4] = 0.3
    pred = prediction_file(vocab, {("r1", s): [_g(vocab, 5, probs)] for s in range(1, 7)})
    winners, table = predicted_type_vote(pred, vocab)
    assert len(winners) == 1
    assert winners[0].type_name == vocab.name_of(3) and winners[0].votes == 6
    assert table.rows[0].fraction == 1.0


def test_vote_tie_breaks_by_summed_probability(vocab):
    smash = vocab.id_of("smash")
    net = vocab.id_of("net shot")
    # three samples favor smash, three favor net shot;
    # summed probability: smash 2.9, net shot 2.7
    a = np.zeros(vocab.size)
    a[smash], a[net] = 0.7, 0.26666666666666666
    a[vocab.id_of("drive")] = 1.0 - a[smash] - a[net]
    b = np.zeros(vocab.size)
    b[smash], b[net] = 0.26666666666666666, 0.6333333333333333
    b[vocab.id_of("drive")] = 1.0 - b[smash] - b[net]
    strokes = {("r1", s): [_g(vocab, 5, a if s <= 3 else b)] for s in range(1, 7)}
    pred = prediction_file(vocab, strokes)
    winners, _ = predicted_type_vote(pred, vocab)
    total_smash = 3 * a[smash] + 3 * b[smash]
    total_net = 3 * a[net] + 3 * b[net]
    assert abs(total_smash - 2.9) < 1e-9 and abs(total_net - 2.7) < 1e-9
    assert winners[0].type_name == "smash"


def test_vote_tie_breaks_by_lower_type_id(vocab):
    # dyadic probabilities keep the summed-probability tie exact in floats
    t1, t2 = 3, 5
    a = np.zeros(vocab.size)
    a[t1], a[t2] = 0.75, 0.25
    b = np.zeros(vocab.size)
    b[t1], b[t2] = 0.25, 0.75
    strokes = {("r1", s): [_g(vocab, 5, a if s <= 3 else b)] for s in range(1, 7)}
    winners, _ = predicted_type_vote(prediction_file(vocab, strokes), vocab)
    assert winners[0].type_name == vocab.name_of(t1)  # counts and summed probs equal


def test_vote_aggregate_fractions_sum_to_one(vocab):
    rng = np.random.default_rng(0)
    strokes = {}
    for r in range(5):
        for s in range(1, 7):
            probs = rng.dirichlet(np.ones(vocab.size))
            strokes[(f"r{r}", s)] = [_g(vocab, 5, probs), _g(vocab, 6, rng.dirichlet(np.ones(vocab.size)))]
    _, table = predicted_type_vote(prediction_file(vocab, strokes), vocab)
    assert abs(sum(row.fraction for row in table.rows) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------

def test_zone_histogram_all_center(vocab, court):
    center = (court.width_m / 2, 3 * court.length_m / 4)
    pred = prediction_file(vocab, {("r1", s): [_g(vocab, 5, np.ones(vocab.size) / vocab.size, center)] for s in range(1, 7)})
    hist = landing_zone_distribution(pred, court)
    assert hist.fractions[5] == 1.0
    assert sum(hist.counts.values()) == 6


def test_zone_histogram_all_out(vocab, court):
    out_point = (court.width_m / 2, court.length_m + 2.0)
    pred = prediction_file(vocab, {("r1", 1): [_g(vocab, 5, np.ones(vocab.size) / vocab.size, out_point)]})
    hist = landing_zone_distribution(pred, court)
    assert hist.fractions[10] == 1.0


def test_zone_histogram_uniform_points(vocab, court):
    rng = np.random.default_rng(4)
    n = 30_000
    strokes = [
        _g(vocab, 5, np.ones(vocab.size) / vocab.size,
           (float(rng.uniform(0, court.width_m)), float(rng.uniform(court.length_m / 2, court.length_m))))
        for _ in range(n)
    ]
    pred = prediction_file(vocab, {("r1", 1): strokes})
    # bypass round bookkeeping: histogram only reads landings
    hist = landing_zone_distribution(pred, court)
    for zone in range(1, 10):
        assert abs(hist.fractions[zone] - 1 / 9) < 0.02
    assert hist.fractions[10] == 0.0
    assert abs(sum(hist.fractions.values()) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# round trends
# ---------------------------------------------------------------------------

def test_round_trend_single_prediction(vocab):
    probs = np.zeros(vocab.size)
    probs[2], probs[3] = 0.25, 0.75
    trend = round_trend(prediction_file(vocab, {("r1", 1): [_g(vocab, 5, probs)]}), vocab)
    assert trend.rounds == [5]
    assert np.allclose(trend.matrix[0], probs)


def test_round_trend_rows_sum_to_one(vocab):
    rng = np.random.default_rng(9)
    strokes = {}
    for r in range(4):
        for s in range(1, 7):
            strokes[(f"r{r}", s)] = [
                _g(vocab, k, rng.dirichlet(np.ones(vocab.size))) for k in range(5, 5 + int(rng.integers(1, 4)))
            ]
    trend = round_trend(prediction_file(vocab, strokes), vocab)
    assert np.all(np.abs(trend.matrix.sum(axis=1) - 1.0) < 1e-9)


def test_mean_probability_sums_to_one(vocab):
    rng = np.random.default_rng(2)
    strokes = {
        (f"r{r}", s): [_g(vocab, 5, rng.dirichlet(np.ones(vocab.size)))]
        for r in range(3)
        for s in range(1, 7)
    }
    means = mean_probability(prediction_file(vocab, strokes), vocab)
    assert abs(sum(means.values()) - 1.0) < 1e-9
    assert set(means) == {e.name for e in vocab.entries}


def test_prediction_analyses_of_a_file_without_rows_raise(vocab, court):
    empty = prediction_file(vocab, {})
    for analysis in (
        lambda: landing_zone_distribution(empty, court),
        lambda: round_trend(empty, vocab),
        lambda: mean_probability(empty, vocab),
    ):
        with pytest.raises(ValueError, match="^prediction file has no strokes$"):
            analysis()


def test_analyses_are_pure(vocab):
    rallies = synthesize_dataset(SynthConfig(n_rallies=15, seed=4, vocab=vocab))
    a = shot_distribution(rallies, "landing_zone", vocab)
    b = shot_distribution(rallies, "landing_zone", vocab)
    assert a.rows == b.rows


def test_tables_write_csv(tmp_path, vocab):
    rallies = synthesize_dataset(SynthConfig(n_rallies=10, seed=3, vocab=vocab))
    table = shot_distribution(rallies, "ball_round", vocab)
    path = tmp_path / "t.csv"
    table.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ball_round,type,count,fraction"
    assert len(lines) == 1 + len(table.rows)


# ---------------------------------------------------------------------------
# array analyses against the per-stroke oracles
# ---------------------------------------------------------------------------

@st.composite
def distribution_rallies(draw):
    """Rallies, possibly none, some without strokes, whose player names differ only in case or by a space, and whose
    points lie on zone boundaries, outside the court or in the wrong half (zone 10)."""
    vocab = small_vocab()
    names = st.sampled_from(["ana", "Ana", "bo", "Bo ", "zed", "m1:A", "m1:B"])
    coord = st.one_of(st.floats(-1.0, 15.0), st.sampled_from([0.0, -0.0, 2.0333333333333337, 6.1, 6.7, 8.9333, 13.4]))
    rallies = []
    for i in range(draw(st.integers(0, 5))):
        strokes = tuple(
            Stroke(
                round_index=draw(st.integers(1, 12)),
                player=draw(st.sampled_from(list(Player))),
                shot_type=draw(st.integers(0, vocab.size - 1)),
                landing=(draw(coord), draw(coord)),
                player_location=(draw(coord), draw(coord)),
            )
            for _ in range(draw(st.integers(0, 8)))
        )
        rallies.append(Rally(f"r{i}", "m1", draw(names), draw(names), strokes))
    return vocab, rallies


@given(distribution_rallies())
def test_shot_distribution_equals_the_per_stroke_oracle(case):
    vocab, rallies = case
    court = CourtSpec()
    for group_by in GROUPINGS:
        want = reference_shot_distribution(rallies, group_by, vocab, court)
        assert repr(shot_distribution(rallies, group_by, vocab, court)) == repr(want)


@st.composite
def prediction_lines(draw):
    """Data lines of a valid prediction file in shuffled order.

    Every (rally, sample) has its own first round and suffix length, sample
    ids reach the file out of order, and probability rows come from small
    integer weights, so argmax votes and summed probabilities often tie.
    Zero probabilities are written signed or unsigned.
    """
    vocab = small_vocab()
    coord = st.one_of(st.floats(-1.0, 15.0), st.sampled_from([0.0, 6.1, 6.7, 13.4]))
    n_samples = draw(st.integers(1, 6))
    lines = []
    for r in range(draw(st.integers(1, 4))):
        for sample_id in range(1, n_samples + 1):
            first = draw(st.integers(1, 6))
            for ball_round in range(first, first + draw(st.integers(1, 5))):
                w = np.array(draw(st.lists(st.integers(0, 3), min_size=vocab.size, max_size=vocab.size).filter(any)), dtype=float)
                probs = quantize_simplex((w / w.sum())[None, :])[0]
                cells = [f"r{r}", str(sample_id), str(ball_round), f"{draw(coord):.6f}", f"{draw(coord):.6f}"]
                zero = "-0.000000" if draw(st.booleans()) else "0.000000"  # both parse, to -0.0 and 0.0
                lines.append(",".join(cells + [f"{p:.6f}" if p else zero for p in probs]))
    return vocab, draw(st.permutations(lines))


@given(prediction_lines())
def test_array_analyses_equal_the_per_stroke_oracles(tmp_path_factory, case):
    vocab, lines = case
    path = tmp_path_factory.mktemp("pred") / "pred.csv"
    path.write_text("\n".join([prediction_header(vocab), *lines]) + "\n", encoding="utf-8")
    pred = import_predictions(path, vocab)
    court = CourtSpec()
    first_seen = {}  # rallies, then each rally's samples, in the order lines name them
    for line in lines:
        rally_id, sample_id = line.split(",")[:2]
        first_seen.setdefault(rally_id, {}).setdefault(int(sample_id))
    assert [(r, list(s)) for r, s in pred.rows.items()] == [(r, list(s)) for r, s in first_seen.items()]
    assert all(np.all(np.diff([g.round_index for g in suffix]) > 0) for s in pred.rows.values() for suffix in s.values())

    assert repr(predicted_type_vote(pred, vocab)) == repr(reference_type_vote(pred, vocab))
    assert repr(landing_zone_distribution(pred, court)) == repr(reference_zone_distribution(pred, court))
    trend, want = round_trend(pred, vocab), reference_round_trend(pred, vocab)
    assert repr(trend.rounds) == repr(want.rounds)
    assert [[repr(float(v)) for v in row] for row in trend.matrix] == [[repr(float(v)) for v in row] for row in want.matrix]
    assert repr(mean_probability(pred, vocab)) == repr(reference_mean_probability(pred, vocab))
