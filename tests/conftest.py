from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from rallycast.court import CourtSpec, Player, Rally, ShotType, ShotTypeVocab, Stroke
from rallycast.network import Forecaster, ModelConfig, build_player_index, init_params
from rallycast.scoring import PredictionFile

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# property tests draw the same examples on every run, with no wall-clock deadline and no example database
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def vocab():
    return ShotTypeVocab.default()


@pytest.fixture
def court():
    return CourtSpec()


def vocab_from_names(names, serve_names):
    """A vocabulary of the names in order, ids 0.., with the serve names (matched case-insensitively) as serves."""
    serves = {s.casefold() for s in serve_names}
    return ShotTypeVocab(tuple(ShotType(i, n, n.casefold() in serves) for i, n in enumerate(names)))


def small_vocab(n_types=6):
    names = ["long service", "short service", "net shot", "smash", "drive", "defensive shot"][:n_types]
    return vocab_from_names(names, ["long service", "short service"][: max(1, min(2, n_types))])


def fractions_by_group(table):
    """{group key: sum of its rows' fractions} of a DistributionTable."""
    sums = defaultdict(float)
    for row in table.rows:
        sums[row.key] += row.fraction
    return dict(sums)


def make_rally(
    types,
    rally_id="r0",
    match_id="m0",
    player_a="ana",
    player_b="bo",
    landings=None,
    locations=None,
):
    """Build a structurally valid rally: alternation from A, rounds 1..n."""
    strokes = []
    for k, type_id in enumerate(types, start=1):
        landing = landings[k - 1] if landings else (2.0 + 0.1 * k, 8.0 + 0.2 * k)
        location = locations[k - 1] if locations else (3.0, 3.0 + 0.05 * k)
        strokes.append(
            Stroke(
                round_index=k,
                player=Player.A if k % 2 == 1 else Player.B,
                shot_type=type_id,
                landing=landing,
                player_location=location,
            )
        )
    return Rally(rally_id=rally_id, match_id=match_id, player_a=player_a, player_b=player_b, strokes=tuple(strokes))


def random_rallies(rng, n_rallies, vocab, min_len=5, max_len=9):
    """Valid random rallies for scorer fixtures (serve first, no serves after)."""
    serve_ids = list(vocab.serve_ids)
    rally_ids = []
    rallies = []
    for i in range(n_rallies):
        length = int(rng.integers(min_len, max_len + 1))
        types = [serve_ids[int(rng.integers(len(serve_ids)))]]
        non_serve = [t for t in range(vocab.size) if t not in serve_ids]
        types += [non_serve[int(rng.integers(len(non_serve)))] for _ in range(length - 1)]
        landings = [(float(rng.uniform(0, 6.1)), float(rng.uniform(6.7, 13.4))) for _ in range(length)]
        rallies.append(make_rally(types, rally_id=f"r{i:03d}", match_id=f"m{i % 3}", landings=landings))
        rally_ids.append(f"r{i:03d}")
    return rallies


def tiny_model(
    rallies,
    vocab,
    seed=0,
    embed_dim=4,
    n_heads=2,
    dropout_rate=0.0,
    embedding_mode="modified",
    param_scale=None,
):
    """Small Forecaster wired to the given rallies' players."""
    index = build_player_index(rallies)
    config = ModelConfig(
        embed_dim=embed_dim,
        n_heads=n_heads,
        n_layers=1,
        dropout_rate=dropout_rate,
        vocab_size=vocab.size,
        n_players=len(index),
        embedding_mode=embedding_mode,
    )
    params = init_params(config, seed)
    if param_scale is not None:
        rng = np.random.default_rng(seed + 1)
        for t in params.values():
            t.data[:] = rng.normal(0.0, param_scale, size=t.shape)
    return Forecaster(params, config, CourtSpec(), vocab, index)


def zero_params(params):
    """Set every learnable array of a params dict to zero, in place."""
    for t in params.values():
        t.data[:] = 0.0


def prediction_file(vocab, strokes_by_rally_sample):
    """A PredictionFile of {(rally_id, sample_id): [GeneratedStroke, ...]}, rows in the dict's order."""
    rally_ids = list(dict.fromkeys(rally_id for rally_id, _ in strokes_by_rally_sample))
    rows = [(rally_ids.index(r), s, g) for (r, s), strokes in strokes_by_rally_sample.items() for g in strokes]
    return PredictionFile.from_columns(
        rally_ids,
        [r for r, _, _ in rows],
        [s for _, s, _ in rows],
        [g.round_index for _, _, g in rows],
        np.array([g.landing for _, _, g in rows], dtype=float).reshape(len(rows), 2),
        np.array([g.type_probs for _, _, g in rows], dtype=float).reshape(len(rows), vocab.size),
    )
