import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rallycast.court import (
    CourtSpec,
    Player,
    ShotType,
    ShotTypeVocab,
    Stroke,
    ZONE_OUT,
    coord_to_zone,
    coord_to_zones,
    denormalize_coord,
    mirror_coord,
    normalize_coord,
    validate_rally,
)

from analysis_reference import reference_coord_to_zone
from conftest import make_rally

REQUIRED_TYPE_NAMES = ["long service", "short service", "net shot", "smash", "drive", "defensive shot"]


def test_default_vocab_contents(vocab):
    assert [e.type_id for e in vocab.entries] == list(range(vocab.size))
    for name in REQUIRED_TYPE_NAMES:
        vocab.id_of(name)
    serves = [e.name for e in vocab.entries if e.is_serve]
    assert sorted(serves) == ["long service", "short service"]
    assert vocab.size == 10


def test_vocab_lookup_case_insensitive(vocab):
    assert vocab.id_of("SMASH") == vocab.id_of("smash")
    with pytest.raises(KeyError):
        vocab.id_of("banana")


def test_vocab_rejects_bad_ids_and_duplicate_names():
    with pytest.raises(ValueError):
        ShotTypeVocab((ShotType(0, "a", True), ShotType(2, "b", False)))
    with pytest.raises(ValueError):
        ShotTypeVocab((ShotType(0, "a", True), ShotType(1, "A", False)))


def test_validate_rally_accepts_valid(vocab):
    rally = make_rally([vocab.id_of("short service"), 3, 4])
    assert validate_rally(rally, vocab, strict_serve=True) == []


def test_validate_rally_flags_broken_alternation(vocab):
    rally = make_rally([0, 3, 4])
    bad = Stroke(2, Player.A, 3, (2.0, 8.0), (3.0, 3.0))
    rally = type(rally)(
        rally_id=rally.rally_id,
        match_id=rally.match_id,
        player_a=rally.player_a,
        player_b=rally.player_b,
        strokes=(rally.strokes[0], bad, rally.strokes[2]),
    )
    violations = validate_rally(rally, vocab)
    assert len(violations) == 1
    assert violations[0].stroke_index == 2
    assert violations[0].rule == "alternation"


def test_validate_rally_strict_serve_after_open(vocab):
    rally = make_rally([vocab.id_of("short service"), 3, vocab.id_of("long service")])
    violations = validate_rally(rally, vocab, strict_serve=True)
    assert [(v.stroke_index, v.rule) for v in violations] == [(3, "serve_after_open")]
    assert validate_rally(rally, vocab, strict_serve=False) == []


def test_validate_rally_round_index_and_nonfinite(vocab):
    strokes = (
        Stroke(1, Player.A, 0, (2.0, 8.0), (3.0, 3.0)),
        Stroke(3, Player.B, 3, (2.0, float("nan")), (3.0, 3.0)),
    )
    rally = make_rally([0])
    rally = type(rally)("r", "m", "a", "b", strokes)
    rules = {v.rule for v in validate_rally(rally, vocab)}
    assert "round_index" in rules
    assert "nonfinite" in rules


def test_alternation_property(vocab):
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        pattern = [Player.A if rng.random() < 0.5 else Player.B for _ in range(n)]
        strokes = tuple(
            Stroke(k + 1, p, 3 if k else 0, (2.0, 8.0), (3.0, 3.0)) for k, p in enumerate(pattern)
        )
        rally = make_rally([0])
        rally = type(rally)("r", "m", "a", "b", strokes)
        ok = all(p is (Player.A if k % 2 == 0 else Player.B) for k, p in enumerate(pattern))
        has_alt_violation = any(v.rule == "alternation" for v in validate_rally(rally, vocab))
        assert has_alt_violation == (not ok)


# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------

def test_zone_center_is_five(court):
    center = (court.width_m / 2, 3 * court.length_m / 4)
    assert coord_to_zone(center, court, Player.B) == 5
    assert coord_to_zone((court.width_m / 2, court.length_m / 4), court, Player.A) == 5


def test_zone_out_of_bounds(court):
    assert coord_to_zone((3.0, court.length_m + 1.0), court, Player.B) == ZONE_OUT
    assert coord_to_zone((3.0, 1.0), court, Player.B) == ZONE_OUT  # other half
    assert coord_to_zone((-0.1, 10.0), court, Player.B) == ZONE_OUT
    with pytest.raises(ValueError):
        coord_to_zone((float("inf"), 1.0), court, Player.B)


def _centroids(court, side):
    """Enumerate the 9 cell centroids from the declared grid boundaries."""
    w, l = court.width_m, court.length_m
    half = l / 2
    points = []
    for row in range(3):
        depth = l / 12 + row * (l / 6)
        for col in range(3):
            left = w / 6 + col * (w / 3)
            if side is Player.B:
                points.append((w - left, half + depth))
            else:
                points.append((left, half - depth))
    return points


@pytest.mark.parametrize("side", [Player.A, Player.B])
def test_zone_centroids_enumerate_one_to_nine(court, side):
    for i, p in enumerate(_centroids(court, side)):
        assert coord_to_zone(p, court, side) == i + 1


def test_zone_boundary_ties_go_to_lower_id():
    # exact thirds avoid float noise on the boundaries
    court = CourtSpec(width_m=6.0, length_m=12.0)
    # depth exactly l/6, receiver-left exactly w/3 -> row 0, col 0 -> zone 1
    assert coord_to_zone((4.0, 8.0), court, Player.B) == 1
    assert coord_to_zone((4.0 - 1e-9, 8.0), court, Player.B) == 2  # just past the column boundary
    assert coord_to_zone((4.0, 8.0 + 1e-9), court, Player.B) == 4  # just past the row boundary
    # net line and baseline belong to the half
    assert coord_to_zone((3.0, 6.0), court, Player.B) == 2
    assert coord_to_zone((3.0, 12.0), court, Player.B) == 8


def test_zone_partition_property(court):
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, court.width_m, size=10_000)
    ys = rng.uniform(court.length_m / 2, court.length_m, size=10_000)
    zones = np.array([coord_to_zone((x, y), court, Player.B) for x, y in zip(xs, ys)])
    assert zones.min() >= 1 and zones.max() <= 9


@given(
    st.floats(-2.0, 8.0, allow_nan=False),
    st.floats(-2.0, 16.0, allow_nan=False),
    st.sampled_from([Player.A, Player.B]),
)
def test_zones_partition_the_court(x, y, side):
    """Zones 1..9 are exactly the receiver's half, each point in the cell its id names."""
    court = CourtSpec()
    w, l = court.width_m, court.length_m
    half = l / 2
    zone = coord_to_zone((x, y), court, side)
    in_half = 0.0 <= x <= w and (half <= y <= l if side is Player.B else 0.0 <= y <= half)
    assert 1 <= zone <= 10
    assert (zone != ZONE_OUT) == in_half
    if in_half:
        depth, left = (y - half, w - x) if side is Player.B else (half - y, x)
        row, col = divmod(zone - 1, 3)
        # a cell holds its far edges; a point on a grid line takes the lower id
        for value, index, edges in ((depth, row, (0.0, l / 6, l / 3, half)), (left, col, (0.0, w / 3, 2 * w / 3, w))):
            assert (value > edges[index] or index == 0) and value <= edges[index + 1]


@given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False))
def test_mirror_coord_is_an_involution(x, y):
    court = CourtSpec()
    back = mirror_coord(mirror_coord((x, y), court), court)
    # exact up to the rounding of the two subtractions
    for got, want in zip(back, (x, y)):
        assert abs(got - want) <= 2 * math.ulp(max(abs(want), court.length_m))


@given(st.integers(0, 6_100_000), st.integers(0, 13_400_000))
def test_mirror_coord_twice_keeps_a_six_decimal_point(kx, ky):
    """Prediction-file coordinates survive two mirrorings bit for bit at 6 decimals."""
    from rallycast.scoring import quantize6

    court = CourtSpec()
    p = (quantize6(kx / 1e6), quantize6(ky / 1e6))
    back = mirror_coord(mirror_coord(p, court), court)
    assert (quantize6(back[0]), quantize6(back[1])) == p


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_reference_points(court):
    assert normalize_coord((court.mean_x, court.mean_y), court) == (0.0, 0.0)
    nx, ny = normalize_coord((court.mean_x + court.std_x, court.mean_y), court)
    assert math.isclose(nx, 1.0, abs_tol=1e-15) and ny == 0.0


def test_normalize_round_trip(court):
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = (float(rng.uniform(-5, 15)), float(rng.uniform(-5, 25)))
        q = denormalize_coord(normalize_coord(p, court), court)
        assert abs(q[0] - p[0]) < 1e-12 and abs(q[1] - p[1]) < 1e-12


def test_zero_std_rejected():
    with pytest.raises(ValueError):
        CourtSpec(std_x=0.0)


def test_vocab_file_round_trip(tmp_path, vocab):
    from rallycast.court import load_vocab, save_vocab

    path = tmp_path / "vocab.csv"
    save_vocab(vocab, path)
    assert load_vocab(path) == vocab
    with pytest.raises(FileNotFoundError):
        load_vocab(tmp_path / "missing.csv")


def _zone_lines(court):
    """Every row and column boundary of both half-courts, and the lines just either side of each."""
    w, l = court.width_m, court.length_m
    half = l / 2
    xs = [0.0, w / 3, 2 * w / 3, w, w - w / 3, w - 2 * w / 3]
    ys = [0.0, half, l, half + l / 6, half + l / 3, half - l / 6, half - l / 3]
    return [n for v in xs + ys for n in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


@given(
    st.sampled_from([CourtSpec(), CourtSpec(width_m=6.0, length_m=12.0)]),
    st.lists(st.tuples(st.floats(-2.0, 16.0), st.floats(-2.0, 16.0)), max_size=30),
    st.lists(st.tuples(st.integers(0, 38), st.integers(0, 38)), max_size=30),
    st.sampled_from([Player.A, Player.B]),
)
def test_array_zones_equal_the_per_point_reference(court, free, on_lines, side):
    """Random points and points on exact row and column boundaries, ties included."""
    lines = _zone_lines(court)
    assert len(lines) == 39
    points = free + [(lines[i], lines[j]) for i, j in on_lines]
    want = [reference_coord_to_zone(p, court, side) for p in points]
    assert coord_to_zones(np.array(points).reshape(-1, 2), court, side).tolist() == want
    assert [coord_to_zone(p, court, side) for p in points] == want


def test_array_zones_reject_a_non_finite_point(court):
    with pytest.raises(ValueError, match=r"non-finite landing coordinate: \(nan, 10.0\)"):
        coord_to_zones(np.array([[3.0, 10.0], [math.nan, 10.0], [math.inf, 1.0]]), court, Player.B)
