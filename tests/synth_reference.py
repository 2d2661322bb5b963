"""Stroke-by-stroke reimplementation of dataset.synthesize_dataset.

The synthesizer as it was before its arithmetic moved to arrays: each stroke
builds its weights, draws its shot type from a fresh CDF and computes its
landing and location from its own normals. It reads the random stream in the
same order (per rally one geometric draw; per stroke one uniform, then two
normals for the landing and two for the location), so a corpus from
synthesize_dataset must equal this one bit for bit, column by column. The
players' table is built here type by type, as dataset.player_table was before
it moved to arrays.
"""

import numpy as np

from rallycast.court import CourtSpec, Rally
from rallycast.dataset import PLAYERS, TAU
from rallycast.seeding import TAG_SYNTH, rng_from_key


def _sample_categorical(rng: np.random.Generator, weights: np.ndarray) -> int:
    total = weights.sum()
    if total <= 0:
        raise ValueError("categorical weights sum to zero")
    cum = np.cumsum(weights / total)
    return int(min(np.searchsorted(cum, rng.random(), side="right"), len(weights) - 1))


def reference_player_table(vocab):
    """The (4, V) preferences, (4, V, 2) landing means and (2, 2) landing covariance of the four players."""
    v = vocab.size
    non_serve = [i for i in range(v) if not vocab.is_serve(i)]
    if not non_serve:
        raise ValueError("vocabulary needs at least one rally (non-service) type")
    w, l = CourtSpec.width_m, CourtSpec.length_m
    preferences = np.zeros((len(PLAYERS), v))
    means = np.zeros((len(PLAYERS), v, 2))
    for k in range(len(PLAYERS)):
        for s in vocab.serve_ids:
            preferences[k, s] = 0.5 if (s + k) % 2 == 0 else 0.1
        for rank, idx in enumerate(non_serve):
            preferences[k, idx] = 3.0 if (rank + k) % len(non_serve) < 2 else 0.3
        for t in range(v):
            frac = (t + 1) / (v + 1)
            means[k, t] = (w * (0.25 + 0.5 * ((t + 2 * k) % 3) / 2.0), l / 2 + l * 0.42 * frac + 0.3)
    return preferences, means, np.diag([0.35**2, 0.55**2])


def reference_synthesize_dataset(config) -> list[Rally]:
    vocab = config.vocab
    court = CourtSpec()
    preferences, means, cov = reference_player_table(vocab)
    chol = np.linalg.cholesky(cov)
    names = list(PLAYERS)
    pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    serve_ids = np.array(vocab.serve_ids)
    non_serve_mask = np.ones(vocab.size, dtype=bool)
    non_serve_mask[serve_ids] = False

    rng = rng_from_key(config.seed, TAG_SYNTH, 0)
    excess_mean = config.mean_length - TAU
    p_geometric = 1.0 / max(excess_mean, 1.0)
    location_max = np.array([court.width_m - 0.05, court.length_m / 2 - 0.05])  # the hitter stays in the low-y half

    heads, lengths, types, landings, locations = [], [], [], [], []
    for idx in range(config.n_rallies):
        pair = pairs[idx % len(pairs)]
        server = pair[idx // len(pairs) % 2]
        receiver = pair[0] if server == pair[1] else pair[1]
        heads.append((f"r{idx:04d}", f"{pair[0]}--{pair[1]}", server, receiver))
        length = TAU + int(rng.geometric(p_geometric))
        lengths.append(length)
        for k in range(1, length + 1):
            hitter = server if k % 2 == 1 else receiver
            p = names.index(hitter)
            if k == 1:
                weights = np.where(non_serve_mask, 0.0, preferences[p])
            else:
                weights = np.where(non_serve_mask, preferences[p], 0.0)
            shot = _sample_categorical(rng, weights)
            types.append(shot)
            landings.append(means[p, shot] + chol @ rng.standard_normal(2))
            location = np.array([court.width_m / 2, court.length_m / 4]) + rng.standard_normal(2) * (1.0, 1.3)
            locations.append(np.clip(location, 0.05, location_max))
    stops = np.cumsum(lengths)
    rounds = np.arange(1, stops[-1] + 1) - np.repeat(stops - lengths, lengths)
    columns = (rounds, rounds % 2 == 1, np.array(types, dtype=np.int64), np.array(landings), np.array(locations))
    return Rally.from_columns(heads, zip((stops - lengths).tolist(), stops.tolist()), columns)
