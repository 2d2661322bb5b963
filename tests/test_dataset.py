import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rallycast import court as court_module
from rallycast.analysis import GROUPINGS, shot_distribution
from rallycast.court import PARSE_BLOCK_LINES, CourtSpec, Player, Rally, ShotTypeVocab, Stroke, validate_rally
from rallycast.dataset import (
    CSV_HEADER,
    FilterPolicy,
    PLAYERS,
    ParseError,
    SynthConfig,
    filter_training,
    parse_dataset,
    split,
    synthesize_dataset,
    write_dataset,
)

from conftest import make_rally, vocab_from_names
from dataset_reference import reference_parse_dataset
from synth_reference import reference_synthesize_dataset


def _write(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join([CSV_HEADER] + rows) + "\n", encoding="utf-8")
    return path


def _row(match="m1", rally="r1", ball_round=1, player="A", type_name="short service", lx=2.0, ly=8.0, px=3.0, py=3.0):
    return f"{match},{rally},{ball_round},{player},{type_name},{lx},{ly},{px},{py}"


def test_parse_single_rally(tmp_path, vocab):
    rows = [
        _row(ball_round=1, player="A", type_name="short service"),
        _row(ball_round=2, player="B", type_name="net shot"),
        _row(ball_round=3, player="A", type_name="smash"),
        _row(ball_round=4, player="B", type_name="drive"),
        _row(ball_round=5, player="A", type_name="clear"),
        _row(ball_round=6, player="B", type_name="lob"),
    ]
    rallies, meta, rejects = parse_dataset(_write(tmp_path, rows), vocab)
    assert rejects == []
    assert len(rallies) == 1 and len(rallies[0]) == 6
    assert meta.n_matches == 1 and meta.n_rallies == 1 and meta.n_players == 2
    assert meta.rally_length_histogram == {6: 1}
    assert meta.strokes_per_player == {"m1:A": 3, "m1:B": 3}
    assert [s.round_index for s in rallies[0].strokes] == [1, 2, 3, 4, 5, 6]


def test_parse_orders_shuffled_rows(tmp_path, vocab):
    ordered = [
        _row(ball_round=1, player="A", type_name="short service"),
        _row(ball_round=2, player="B", type_name="net shot", lx=1.5),
        _row(ball_round=3, player="A", type_name="smash", lx=4.4),
    ]
    a, _, _ = parse_dataset(_write(tmp_path, ordered, "a.csv"), vocab)
    b, _, _ = parse_dataset(_write(tmp_path, [ordered[2], ordered[0], ordered[1]], "b.csv"), vocab)
    assert a == b


def test_parse_rejects_rally_with_round_gap(tmp_path, vocab):
    rows = [
        _row(ball_round=1),
        _row(ball_round=2, player="B", type_name="net shot"),
        _row(ball_round=4, player="B", type_name="smash"),
    ]
    path = _write(tmp_path, rows)
    rallies, meta, rejects = parse_dataset(path, vocab)
    assert rallies == []
    assert len(rejects) == 3
    assert any("gap at 3" in r.reason for r in rejects)
    report = path.with_name(path.name + ".rejects.csv")
    assert report.exists()
    assert "gap at 3" in report.read_text()


def test_parse_rejects_unknown_type_row(tmp_path, vocab):
    rows = [_row(ball_round=k, player="AB"[(k + 1) % 2], type_name=t) for k, t in
            enumerate(["short service", "net shot", "smash", "drive", "clear", "lob",
                       "net shot", "smash", "drive", "clear", "lob"], start=1)]
    rows.append(_row(rally="r2", ball_round=1, type_name="banana"))
    rallies, _, rejects = parse_dataset(_write(tmp_path, rows), vocab)
    assert len(rallies) == 1
    assert len(rejects) == 1 and "banana" in rejects[0].reason


def test_a_reject_reason_keeps_its_closing_quote(tmp_path, vocab):
    """Quotes were stripped from both ends of each reason, which cut the closing one off these two."""
    rows = [_row(ball_round=k, player="AB"[(k + 1) % 2], type_name="drive") for k in range(1, 21)]
    path = _write(tmp_path, rows + [_row(rally="r2", player="Q"), _row(rally="r3", type_name="banana")])
    _, _, rejects = parse_dataset(path, vocab)
    assert [r.reason for r in rejects] == ["player must be A or B, found 'Q'", "unknown shot type: 'banana'"]
    report = path.with_name(path.name + ".rejects.csv").read_text(encoding="utf-8").splitlines()
    assert [line.rsplit(",", 1)[1] for line in report[1:]] == ["player must be A or B; found 'Q'", "unknown shot type: 'banana'"]


def test_parse_fails_above_malformed_threshold(tmp_path, vocab):
    rows = [_row()] + ["garbage,row"] * 2
    with pytest.raises(ParseError) as err:
        parse_dataset(_write(tmp_path, rows), vocab)
    assert "line 3" in str(err.value)


def test_parse_missing_file(tmp_path, vocab):
    with pytest.raises(FileNotFoundError):
        parse_dataset(tmp_path / "nope.csv", vocab)


def test_parse_write_round_trip_bytes(tmp_path, vocab):
    rallies = synthesize_dataset(SynthConfig(n_rallies=12, seed=5, vocab=vocab))
    path = tmp_path / "corpus.csv"
    write_dataset(rallies, vocab, path)
    original = path.read_bytes()
    parsed, _, rejects = parse_dataset(path, vocab)
    assert rejects == []
    out = tmp_path / "rewritten.csv"
    write_dataset(parsed, vocab, out)
    assert out.read_bytes() == original


# the spellings a float cell may arrive in; write_dataset uses the first
FLOAT_SPELLINGS = (repr, "{:.17g}".format, "{:.16e}".format, "{:+.17g}".format)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def spelled_rallies(draw):
    """(rallies, their dataset CSV text with every float cell spelled one of several ways)."""
    n_types = ShotTypeVocab.default().size
    rallies, rows = [], []
    for i in range(draw(st.integers(1, 4))):
        match_id = draw(st.sampled_from(["m0", "m1", "match 2"]))
        strokes = []
        for k in range(1, draw(st.integers(1, 6)) + 1):
            stroke = Stroke(
                round_index=k,
                player=draw(st.sampled_from(list(Player))),
                shot_type=draw(st.integers(0, n_types - 1)),
                landing=(draw(finite), draw(finite)),
                player_location=(draw(finite), draw(finite)),
            )
            strokes.append(stroke)
            cells = [*stroke.landing, *stroke.player_location]
            spelled = [draw(st.sampled_from(FLOAT_SPELLINGS))(v) for v in cells]
            name = ShotTypeVocab.default().name_of(stroke.shot_type)
            rows.append(",".join([match_id, f"r{i}", str(k), stroke.player.value, name, *spelled]))
        rallies.append(Rally(f"r{i}", match_id, f"{match_id}:A", f"{match_id}:B", tuple(strokes)))
    return rallies, "\n".join([CSV_HEADER, *rows]) + "\n"


@given(spelled_rallies())
def test_parse_then_write_is_byte_stable_on_generated_rallies(tmp_path_factory, case):
    rallies, text = case
    vocab = ShotTypeVocab.default()
    d = tmp_path_factory.mktemp("stable")
    (d / "spelled.csv").write_text(text, encoding="utf-8")
    parsed, _, rejects = parse_dataset(d / "spelled.csv", vocab, write_rejects=False)
    assert rejects == []
    assert parsed == rallies
    write_dataset(parsed, vocab, d / "once.csv")
    write_dataset(rallies, vocab, d / "direct.csv")
    assert (d / "once.csv").read_bytes() == (d / "direct.csv").read_bytes()
    reparsed, _, _ = parse_dataset(d / "once.csv", vocab, write_rejects=False)
    assert reparsed == rallies  # the written floats lose no bit
    assert [hash(r) for r in reparsed] == [hash(r) for r in rallies]
    assert [r.strokes for r in reparsed] == [r.strokes for r in rallies]
    write_dataset(reparsed, vocab, d / "twice.csv")
    assert (d / "twice.csv").read_bytes() == (d / "once.csv").read_bytes()


def _parsed_synthetic(tmp_path, vocab, n_rallies=12, seed=2):
    write_dataset(synthesize_dataset(SynthConfig(n_rallies=n_rallies, vocab=vocab, seed=seed)), vocab, tmp_path / "d.csv")
    return parse_dataset(tmp_path / "d.csv", vocab)[0]


def test_ingest_builds_no_stroke_objects(tmp_path, vocab, monkeypatch):
    """Synthesis, parse, validation, filter, split, the four shot tables and the writer read the columns alone."""
    built = []
    init = Stroke.__init__
    monkeypatch.setattr(Stroke, "__init__", lambda self, *args, **kwargs: built.append(init(self, *args, **kwargs)))
    rallies = _parsed_synthetic(tmp_path, vocab, n_rallies=40)
    assert all(validate_rally(r, vocab, strict_serve=True) == [] for r in rallies)
    kept, _ = filter_training(rallies, FilterPolicy(max_match_total_rounds=None))
    split(kept, 0.8, 0)
    for grouping in GROUPINGS:
        shot_distribution(rallies, grouping, vocab)
    write_dataset(rallies, vocab, tmp_path / "again.csv")
    assert built == []
    assert len(rallies[0].strokes) == len(built) > 0  # the count sees the strokes a view builds


def test_replacing_the_strokes_with_their_first_k_keeps_those_rows(tmp_path, vocab):
    for rally in _parsed_synthetic(tmp_path, vocab):
        for k in (0, 1, len(rally) - 1, len(rally)):
            cut = dataclasses.replace(rally, strokes=rally.strokes[:k])
            assert (cut.rally_id, cut.match_id, cut.player_a, cut.player_b) == (
                rally.rally_id, rally.match_id, rally.player_a, rally.player_b,
            )
            assert len(cut) == k and cut.strokes == rally.strokes[:k]
            for column in ("rounds", "hit_by_a", "type_ids", "landings", "locations"):
                assert np.array_equal(getattr(cut, column), getattr(rally, column)[:k])
            assert (cut == rally) == (k == len(rally))


@pytest.mark.parametrize("column", ["rounds", "hit_by_a", "type_ids", "landings", "locations"])
def test_rally_columns_are_read_only(tmp_path, vocab, column):
    """So a column cannot drift from the strokes view built from it, in a copy or an unpickled rally too."""
    synthesized = synthesize_dataset(SynthConfig(n_rallies=2, vocab=vocab, seed=1))[0]
    for rally in (make_rally([0, 3, 4]), _parsed_synthetic(tmp_path, vocab)[0], synthesized):
        for each in (rally, copy.deepcopy(rally), pickle.loads(pickle.dumps(rally))):
            assert each == rally
            with pytest.raises(ValueError, match="read-only"):
                getattr(each, column)[0] = 1


def test_parse_mirror_even_rounds(tmp_path, vocab):
    court = CourtSpec()
    rows = [
        _row(ball_round=1, lx=2.0, ly=8.0, px=3.0, py=3.0),
        _row(ball_round=2, player="B", type_name="net shot", lx=2.0, ly=5.0, px=3.0, py=10.0),
    ]
    rallies, _, _ = parse_dataset(_write(tmp_path, rows), vocab, court, mirror="even")
    s1, s2 = rallies[0].strokes
    assert s1.landing == (2.0, 8.0)  # odd rounds untouched
    assert s2.landing == (court.width_m - 2.0, court.length_m - 5.0)
    assert s2.player_location == (court.width_m - 3.0, court.length_m - 10.0)


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------

def test_filter_drops_short_rally(vocab):
    short = make_rally([0, 2, 3, 4], rally_id="short")
    ok = make_rally([0, 2, 3, 4, 5], rally_id="ok")
    kept, dropped = filter_training([short, ok], FilterPolicy(max_rally_length=None, max_match_total_rounds=None))
    assert [r.rally_id for r in kept] == ["ok"]
    assert dropped[0].rally.rally_id == "short" and "below minimum" in dropped[0].reason


def test_filter_drops_heavy_match(vocab):
    heavy = [make_rally([0] + [2] * 11, rally_id=f"h{i}", match_id="big") for i in range(10)]  # 120 strokes
    light = make_rally([0, 2, 3, 4, 5], rally_id="l", match_id="small")
    kept, dropped = filter_training(heavy + [light], FilterPolicy(max_match_total_rounds=100))
    assert [r.rally_id for r in kept] == ["l"]
    assert all("total strokes" in d.reason for d in dropped)


def test_filter_partitions_and_is_idempotent(vocab):
    rng = np.random.default_rng(2)
    rallies = []
    for i in range(30):
        n = int(rng.integers(3, 40))
        rallies.append(make_rally([0] + [2] * (n - 1), rally_id=f"r{i}", match_id=f"m{i % 4}"))
    policy = FilterPolicy()
    kept, dropped = filter_training(rallies, policy)
    assert len(kept) + len(dropped) == len(rallies)
    assert {id(r) for r in kept} | {id(d.rally) for d in dropped} == {id(r) for r in rallies}
    kept2, dropped2 = filter_training(kept, policy)
    assert kept2 == kept and dropped2 == []


def test_filter_policy_floor():
    with pytest.raises(ValueError):
        FilterPolicy(min_rally_length=3)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_deterministic_and_partitions(vocab):
    rallies = [make_rally([0, 2, 3, 4, 5], rally_id=f"r{i}") for i in range(10)]
    t1, v1 = split(rallies, 0.8, seed=7)
    t2, v2 = split(rallies, 0.8, seed=7)
    assert t1 == t2 and v1 == v2
    assert len(t1) == 8 and len(v1) == 2
    assert sorted(r.rally_id for r in t1 + v1) == sorted(r.rally_id for r in rallies)
    t3, _ = split(rallies, 0.8, seed=8)
    assert t3 != t1  # different seed shuffles differently


def test_split_single_rally_ceil_rule(vocab, caplog):
    rallies = [make_rally([0, 2, 3, 4, 5])]
    with caplog.at_level("WARNING"):
        train, val = split(rallies, 0.5, seed=1)
    assert len(train) == 1 and val == []
    assert any("validation split is empty" in r.message for r in caplog.records)


def test_split_by_match_keeps_matches_whole(vocab):
    rallies = [make_rally([0, 2, 3, 4, 5], rally_id=f"r{i}", match_id=f"m{i % 3}") for i in range(12)]
    train, val = split(rallies, 0.6, seed=2, by_match=True)
    train_matches = {r.match_id for r in train}
    val_matches = {r.match_id for r in val}
    assert train_matches.isdisjoint(val_matches)
    assert len(train) + len(val) == 12


def test_split_errors(vocab):
    with pytest.raises(ValueError):
        split([], 0.5, seed=0)
    with pytest.raises(ValueError):
        split([make_rally([0, 2, 3, 4, 5])], 1.0, seed=0)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_synthetic_corpus_is_valid_across_seeds(vocab):
    for seed in range(5):
        rallies = synthesize_dataset(SynthConfig(n_rallies=40, seed=seed, vocab=vocab))
        assert len(rallies) == 40
        for rally in rallies:
            assert len(rally) >= 5
            assert validate_rally(rally, vocab, strict_serve=True) == []


def test_synthetic_corpus_deterministic(vocab):
    cfg = SynthConfig(n_rallies=25, seed=9, vocab=vocab)
    a = synthesize_dataset(cfg)
    b = synthesize_dataset(cfg)
    assert a == b


def test_synthetic_disjoint_styles_differ(vocab):
    """alice and chen favour disjoint rally types; their rally-type laws are 0.69 apart in total variation."""
    rallies = synthesize_dataset(SynthConfig(n_rallies=500, seed=4, vocab=vocab))
    hist = {name: np.zeros(vocab.size) for name in PLAYERS}
    for r in rallies:
        for s in r.strokes:
            if s.round_index == 1:
                continue
            hist[r.player_a if s.player is Player.A else r.player_b][s.shot_type] += 1
    p = hist["alice"] / hist["alice"].sum()
    q = hist["chen"] / hist["chen"].sum()
    assert set(np.argsort(p)[-2:]).isdisjoint(np.argsort(q)[-2:])
    assert 0.5 * np.abs(p - q).sum() > 0.5  # total-variation distance


def _assert_same_corpus(got, want):
    """Bit for bit, column by column, with the same heads and dtypes."""
    assert [(r.rally_id, r.match_id, r.player_a, r.player_b) for r in got] == [
        (r.rally_id, r.match_id, r.player_a, r.player_b) for r in want
    ]
    for name in ("rounds", "hit_by_a", "type_ids", "landings", "locations"):
        a, b = (np.concatenate([getattr(r, name) for r in rallies]) for rallies in (got, want))
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("seed", [0, 1, 7, 20230709])
@pytest.mark.parametrize(("n_rallies", "mean_length"), [(1, 5.0), (5, 5.0), (37, 7.0), (13, 12.0), (40, 40.0)])
def test_synthesizer_equals_the_stroke_by_stroke_reference(vocab, seed, n_rallies, mean_length):
    config = SynthConfig(n_rallies=n_rallies, mean_length=mean_length, seed=seed, vocab=vocab)
    _assert_same_corpus(synthesize_dataset(config), reference_synthesize_dataset(config))


# vocabularies other than the default: services not first, one rally type, and twelve types with three services
OTHER_VOCABS = {
    "services_not_first": (
        ["drive", "clear", "long service", "smash", "short service", "lob", "drop"], ["long service", "short service"],
    ),
    "single_rally_type": (["long service", "short service", "clear"], ["long service", "short service"]),
    "twelve_types": ([f"t{i}" for i in range(12)], ["t1", "t4", "t8"]),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(OTHER_VOCABS))
def test_synthesizer_equals_the_reference_on_other_vocabularies(name, seed):
    vocab = vocab_from_names(*OTHER_VOCABS[name])
    config = SynthConfig(n_rallies=40, mean_length=9.5, seed=seed, vocab=vocab)
    rallies = synthesize_dataset(config)
    _assert_same_corpus(rallies, reference_synthesize_dataset(config))
    assert all(validate_rally(rally, vocab, strict_serve=True) == [] for rally in rallies)


def test_synthetic_lengths_geometric_floor(vocab):
    rallies = synthesize_dataset(SynthConfig(n_rallies=300, mean_length=6.0, seed=1, vocab=vocab))
    lengths = np.array([len(r) for r in rallies])
    assert lengths.min() >= 5
    assert abs(lengths.mean() - 6.0) < 0.75


# ---------------------------------------------------------------------------
# the block parser against the line-by-line oracle
# ---------------------------------------------------------------------------

# each damage breaks one row in the way _parse_block words one reject reason,
# or spells a cell in a form int or float still accepts
ROW_DAMAGE = {
    "eight_columns": lambda cells: cells[:8],
    "ten_columns": lambda cells: cells + ["1.0"],
    "player_c": lambda cells: cells[:3] + ["C"] + cells[4:],
    "player_spaced": lambda cells: cells[:3] + [" " + cells[3]] + cells[4:],
    "round_word": lambda cells: cells[:2] + ["x"] + cells[3:],
    "round_empty": lambda cells: cells[:2] + [""] + cells[3:],
    "round_zero": lambda cells: cells[:2] + ["0"] + cells[3:],
    "round_negative": lambda cells: cells[:2] + ["-2"] + cells[3:],
    "round_spaced": lambda cells: cells[:2] + [" " + cells[2]] + cells[3:],
    "round_underscored": lambda cells: cells[:2] + ["1_0"] + cells[3:],
    "round_beyond_int64": lambda cells: cells[:2] + [str(2**64 + int(cells[2]))] + cells[3:],
    "round_below_int64": lambda cells: cells[:2] + [str(-(2**64))] + cells[3:],
    "type_unknown": lambda cells: cells[:4] + ["banana"] + cells[5:],
    "coord_nan": lambda cells: cells[:5] + ["nan"] + cells[6:],
    "coord_inf": lambda cells: cells[:8] + ["-inf"],
    "coord_word": lambda cells: cells[:6] + ["x"] + cells[7:],
    "coord_underscored": lambda cells: cells[:7] + ["1_0"] + cells[8:],
    "coord_spaced": lambda cells: cells[:5] + [" 2.5 "] + cells[6:],
}
TYPE_SPELLINGS = (str, str.upper, str.title, str.swapcase)
COORD_CELLS = st.sampled_from(["0.0", "-0.0", "3.05", "6.1", "13.4", "1e-3", "2.5000000000000004", "7"])


@st.composite
def damaged_dataset_text(draw):
    """(dataset CSV text, mirror, parse block size) with damaged rows, rallies broken by gapped or repeated rounds,
    blank and whitespace-only lines, shuffled rows and every line ending."""
    vocab = ShotTypeVocab.default()
    # a clean rally whose rows keep a few damaged ones below the 10% limit, or none, so that it is reached too
    pad = range(1, draw(st.sampled_from([0, 15, 40])) + 1)
    rows = [["pad", "p0", str(k), "AB"[(k + 1) % 2], "drive", "1.0", "9.5", "3.0", "2.0"] for k in pad]
    for _ in range(draw(st.integers(0, 6))):
        match_id = draw(st.sampled_from(["m0", "m1", "match 2"]))
        rally_id = draw(st.sampled_from(["r0", "r1", "r2"]))  # a rally id may recur in another match
        rounds = list(range(1, draw(st.integers(1, 6)) + 1))
        if draw(st.booleans()):
            rounds[draw(st.integers(0, len(rounds) - 1))] = draw(st.integers(1, len(rounds) + 1))  # a gap or a repeat
        for k in rounds:
            name = draw(st.sampled_from(TYPE_SPELLINGS))(vocab.name_of(draw(st.integers(0, vocab.size - 1))))
            rows.append([match_id, rally_id, str(k), "AB"[(k + 1) % 2], name, *(draw(COORD_CELLS) for _ in range(4))])
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = ROW_DAMAGE[draw(st.sampled_from(sorted(ROW_DAMAGE)))](rows[i])
    rows = [",".join(cells) for cells in rows] + [""] * draw(st.integers(0, 2))
    rows += draw(st.sampled_from([[], [" "], ["\t"], [" , "]]))  # whitespace-only lines are rows, and malformed
    rows = draw(st.permutations(rows))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows) + 1, max_size=len(rows) + 1))
    text = "".join(line + end for line, end in zip([CSV_HEADER, *rows], endings))
    if rows and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line ending after the last row
    return text, draw(st.sampled_from(["none", "odd", "even"])), draw(st.sampled_from([1, 2, 3, 5, PARSE_BLOCK_LINES]))


def _parse_outcome(parse, path, vocab, mirror):
    """What a parse returns, or the ParseError it raises, with the bytes of the reject report it writes."""
    report = path.with_name(path.name + ".rejects.csv")
    report.unlink(missing_ok=True)
    try:
        result = repr(parse(path, vocab, CourtSpec(), mirror=mirror))
    except ParseError as exc:
        result = f"ParseError: {exc}"
    return result, report.read_bytes() if report.exists() else None


def _assert_parse_matches_the_oracle(path, mirror, block_lines):
    vocab = ShotTypeVocab.default()
    want = _parse_outcome(reference_parse_dataset, path, vocab, mirror)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(court_module, "PARSE_BLOCK_LINES", block_lines)
        got = _parse_outcome(parse_dataset, path, vocab, mirror)
    assert got == want


@given(damaged_dataset_text())
def test_block_parse_equals_the_line_by_line_oracle(tmp_path_factory, case):
    text, mirror, block_lines = case
    path = tmp_path_factory.mktemp("blocks") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_parse_matches_the_oracle(path, mirror, block_lines)


@pytest.mark.parametrize("damage", sorted(ROW_DAMAGE))
def test_each_row_damage_is_rejected_as_the_oracle_rejects_it(tmp_path, vocab, damage):
    rallies = synthesize_dataset(SynthConfig(n_rallies=4, seed=1, vocab=vocab))
    path = tmp_path / "data.csv"
    write_dataset(rallies, vocab, path)
    lines = path.read_text().splitlines()
    lines[7] = ",".join(ROW_DAMAGE[damage](lines[7].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_parse_matches_the_oracle(path, "odd", 5)


def test_every_ordered_pair_of_row_damages_is_rejected_as_the_oracle_rejects_it(tmp_path, vocab):
    """Two faults in one row: its reject reason is the fault that the oracle's checks reach first."""
    rallies = synthesize_dataset(SynthConfig(n_rallies=4, seed=1, vocab=vocab))
    path = tmp_path / "data.csv"
    write_dataset(rallies, vocab, path)
    lines = path.read_text().splitlines()
    for first, second in itertools.product(sorted(ROW_DAMAGE), repeat=2):
        try:
            cells = ROW_DAMAGE[second](ROW_DAMAGE[first](lines[7].split(",")))
        except ValueError:  # the second damage reads a round that the first one spoiled
            continue
        path.write_text("\n".join([*lines[:7], ",".join(cells), *lines[8:]]) + "\n", encoding="utf-8")
        want = _parse_outcome(reference_parse_dataset, path, vocab, "odd")
        for block_lines in (1, 5, PARSE_BLOCK_LINES):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(court_module, "PARSE_BLOCK_LINES", block_lines)
                assert _parse_outcome(parse_dataset, path, vocab, "odd") == want, (first, second, block_lines)


def test_a_round_beyond_int64_rejects_only_its_own_row(tmp_path, vocab):
    """Such a round was held clipped, which broke its whole rally; now it is a damaged cell like any other."""
    types = ["short service", "net shot", "smash", "drive", "clear"]
    rows = [
        _row(rally=rally, ball_round=k, player="AB"[(k + 1) % 2], type_name=name)
        for rally in ("r1", "r2", "r3", "r4")
        for k, name in enumerate(types, start=1)
    ]
    rows[2:2] = [_row(rally="r1", ball_round=2**64 + 3, type_name="smash")]
    rows[9:9] = [_row(rally="r2", ball_round=-(2**64), type_name="smash")]
    path = _write(tmp_path, rows)
    _assert_parse_matches_the_oracle(path, "none", 4)
    rallies, _, rejects = parse_dataset(path, vocab, write_rejects=False)
    assert [r.rally_id for r in rallies] == ["r1", "r2", "r3", "r4"]
    assert [(r.line_number, r.reason) for r in rejects] == [
        (4, f"ball_round {2**64 + 3} does not fit in 64 bits"),
        (11, f"ball_round {-(2**64)} does not fit in 64 bits"),
    ]


def test_damaged_rows_on_both_sides_of_a_parse_block_boundary_match_the_oracle(tmp_path, vocab):
    path = tmp_path / "data.csv"
    write_dataset(synthesize_dataset(SynthConfig(n_rallies=700, seed=3, vocab=vocab)), vocab, path)
    lines = path.read_text().splitlines()  # lines[k] is line k + 1; the first block ends at line PARSE_BLOCK_LINES + 1
    assert len(lines) > PARSE_BLOCK_LINES + 2
    lines[PARSE_BLOCK_LINES] = ",".join(ROW_DAMAGE["player_c"](lines[PARSE_BLOCK_LINES].split(",")))
    lines[PARSE_BLOCK_LINES + 1] += ",extra"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    got = _parse_outcome(parse_dataset, path, vocab, "none")
    assert got == _parse_outcome(reference_parse_dataset, path, vocab, "none")
    _, _, rejects = parse_dataset(path, vocab, write_rejects=False)
    assert [r.line_number for r in rejects[:2]] == [PARSE_BLOCK_LINES + 1, PARSE_BLOCK_LINES + 2]


def _damage_every(path, stride, vocab):
    """A 700-rally corpus with every ROW_DAMAGE in turn on each stride-th row, on adjacent rows and on the first two."""
    write_dataset(synthesize_dataset(SynthConfig(n_rallies=700, seed=3, vocab=vocab)), vocab, path)
    lines = path.read_text().splitlines()  # lines[k] is line k + 1
    damages = itertools.cycle(sorted(ROW_DAMAGE))
    for k in sorted({1, 2, 600, 601, 602, *range(5, len(lines), stride)}):
        lines[k] = ",".join(ROW_DAMAGE[next(damages)](lines[k].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("block_lines", [1, 5, PARSE_BLOCK_LINES])
def test_scattered_damaged_rows_are_rejected_as_the_oracle_rejects_them(tmp_path, vocab, block_lines):
    path = tmp_path / "data.csv"
    _damage_every(path, 41, vocab)
    want = _parse_outcome(reference_parse_dataset, path, vocab, "none")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(court_module, "PARSE_BLOCK_LINES", block_lines)
        assert _parse_outcome(parse_dataset, path, vocab, "none") == want


def test_parse_names_the_first_malformed_rows_above_the_threshold(tmp_path, vocab):
    path = _write(tmp_path, [_row(), "garbage,row", _row(ball_round=2, player="B", type_name="kiwi")])
    message = (
        f"{path}: 2/3 rows malformed (limit 10%): line 3 (expected 9 columns, found 2), "
        "line 4 (unknown shot type: 'kiwi')"
    )
    with pytest.raises(ParseError) as err:
        parse_dataset(path, vocab)
    assert str(err.value) == message

