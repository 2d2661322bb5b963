"""Stroke-by-stroke reimplementation of dataset.synthesize_dataset.

The synthesizer as it was before its arithmetic moved to arrays: each stroke
builds its weights, draws its shot type from a fresh CDF and computes its
landing and location from its own normals. It reads the random stream in the
same order (per rally one geometric draw; per stroke one uniform, then two
normals for the landing and two for the location), so a corpus from
synthesize_dataset must equal this one bit for bit, column by column. Style
validation beyond shapes and covariances is left to the real synthesizer.
"""

import numpy as np

from rallycast.court import CourtSpec, Rally
from rallycast.dataset import TAU, default_player_styles
from rallycast.seeding import TAG_SYNTH, rng_from_key


def _sample_categorical(rng: np.random.Generator, weights: np.ndarray) -> int:
    total = weights.sum()
    if total <= 0:
        raise ValueError("categorical weights sum to zero")
    cum = np.cumsum(weights / total)
    return int(min(np.searchsorted(cum, rng.random(), side="right"), len(weights) - 1))


def reference_synthesize_dataset(config) -> list[Rally]:
    vocab = config.vocab
    court = CourtSpec()
    styles = config.player_styles or default_player_styles(vocab)
    if len(styles) < 2:
        raise ValueError("need at least two player styles")
    for name, style in styles.items():
        if style.preferences.shape != (vocab.size,):
            raise ValueError(f"style {name}: preferences must have length {vocab.size}")
        if style.landing_mean.shape != (vocab.size, 2) or style.landing_cov.shape != (vocab.size, 2, 2):
            raise ValueError(f"style {name}: landing kernel shapes do not match the vocabulary")

    names = list(styles)
    pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    serve_ids = np.array(vocab.serve_ids)
    non_serve_mask = np.ones(vocab.size, dtype=bool)
    non_serve_mask[serve_ids] = False

    # validate covariances once, and keep cholesky factors for sampling
    chol: dict[str, np.ndarray] = {}
    for name, style in styles.items():
        factors = np.zeros_like(style.landing_cov)
        for t in range(vocab.size):
            try:
                factors[t] = np.linalg.cholesky(style.landing_cov[t])
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"style {name}: degenerate covariance for type {t}") from exc
        chol[name] = factors

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
            style = styles[hitter]
            if k == 1:
                weights = np.where(non_serve_mask, 0.0, style.preferences)
                if weights.sum() <= 0:
                    weights = np.where(non_serve_mask, 0.0, 1.0)
            else:
                weights = np.where(non_serve_mask, style.preferences, 0.0)
            shot = _sample_categorical(rng, weights)
            types.append(shot)
            landings.append(style.landing_mean[shot] + chol[hitter][shot] @ rng.standard_normal(2))
            location = np.array([court.width_m / 2, court.length_m / 4]) + rng.standard_normal(2) * (1.0, 1.3)
            locations.append(np.clip(location, 0.05, location_max))
    stops = np.cumsum(lengths)
    rounds = np.arange(1, stops[-1] + 1) - np.repeat(stops - lengths, lengths)
    columns = (rounds, rounds % 2 == 1, np.array(types, dtype=np.int64), np.array(landings), np.array(locations))
    return Rally.from_columns(heads, zip((stops - lengths).tolist(), stops.tolist()), columns)
