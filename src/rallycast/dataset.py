"""Rally dataset ingestion, filtering, splitting, and synthesis.

Dataset CSV contract (UTF-8, header row, comma separated):

    match_id,rally_id,ball_round,player,type,landing_x,landing_y,player_location_x,player_location_y

player is A or B (A serves), type is a vocabulary name matched
case-insensitively, coordinates are decimal meters. Coordinates are expected
in the canonical per-stroke frame (hitter in the low-y half); recordings in a
fixed court frame can be canonicalized with the mirror option, which reflects
the listed round parity through the court center.

The CSV has no player-name columns, so parsed rallies carry match-scoped
identities "<match_id>:A" / "<match_id>:B". The synthesizer keeps one match
per player pair so those identities stay meaningful.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .court import (
    CourtSpec,
    ParseError,
    Rally,
    ShotTypeVocab,
    int_column,
    read_csv,
    run_starts,
    strip_line_ending,
    write_csv,
)
from .seeding import TAG_SYNTH, rng_from_key

log = logging.getLogger(__name__)

TAU = 4

CSV_HEADER = "match_id,rally_id,ball_round,player,type,landing_x,landing_y,player_location_x,player_location_y"

# share of row-level malformed rows above which parsing aborts
MALFORMED_ROW_LIMIT = 0.10


@dataclass(frozen=True)
class DatasetMeta:
    n_matches: int
    n_rallies: int
    n_players: int
    strokes_per_player: dict[str, int]
    rally_length_histogram: dict[int, int]


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    fields: tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class FilterPolicy:
    """Training-set filter thresholds; None disables a rule."""

    max_rally_length: int | None = 35
    max_match_total_rounds: int | None = 300
    min_rally_length: int = TAU + 1

    def __post_init__(self) -> None:
        if self.min_rally_length < TAU + 1:
            raise ValueError(f"min_rally_length must be at least {TAU + 1}")
        for name in ("max_rally_length", "max_match_total_rounds"):
            value = getattr(self, name)
            if value is not None and value < self.min_rally_length:  # it would drop every rally
                raise ValueError(f"{name} must be at least min_rally_length {self.min_rally_length}, got {value}")


@dataclass(frozen=True)
class DroppedRally:
    rally: Rally
    reason: str


def _meta_from(match_ids: list[str], lengths: np.ndarray, is_b: np.ndarray) -> DatasetMeta:
    """The DatasetMeta of parsed rallies, given each one's match and length and, stroke by stroke, whether B hit it."""
    matches: dict[str, int] = {}
    match_of = np.array([matches.setdefault(match_id, len(matches)) for match_id in match_ids], dtype=np.int64)
    per_player = np.bincount(np.repeat(match_of, lengths) * 2 + is_b, minlength=2 * len(matches))
    names = [f"{match_id}:{side}" for match_id in matches for side in "AB"]
    histogram = np.bincount(lengths).tolist()
    return DatasetMeta(
        n_matches=len(matches),
        n_rallies=len(match_ids),
        n_players=len(names),
        strokes_per_player=dict(sorted((name, c) for name, c in zip(names, per_player.tolist()) if c)),
        rally_length_histogram={length: c for length, c in enumerate(histogram) if c},
    )


# The columns of a run of rows: line numbers, codes of "match_id,rally_id",
# ball rounds, whether player is B, type ids and (n, 4) coordinates.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _parse_block(cells: list[str], numbers: np.ndarray, vocab: ShotTypeVocab, keys: dict[str, int]) -> Columns:
    """The columns of a block's cells, 9 per row; raises ValueError or KeyError at the first check that fails.

    The checks run in this order, so a one-line block raises its row's reject
    reason. keys maps each "match_id,rally_id" to its code, in first-seen
    order; a block that passes adds its new ones. (Strings, unlike tuples,
    add no work for the garbage collector.)
    """
    n = len(numbers)
    players, type_names = cells[3::9], cells[4::9]
    if set(players) - {"A", "B"}:
        raise ValueError(f"player must be A or B, found {next(p for p in players if p not in ('A', 'B'))!r}")
    rounds = int_column(cells[2::9], "ball_round")
    if (rounds < 1).any():
        raise ValueError(f"ball_round must be >= 1, found {rounds[np.argmax(rounds < 1)]}")
    ids = {name: vocab.id_of(name) for name in set(type_names)}  # KeyError for unknown names
    columns = chain(cells[5::9], cells[6::9], cells[7::9], cells[8::9])
    coords = np.fromiter(map(float, columns), dtype=np.float64, count=4 * n).reshape(4, n).T
    if not np.isfinite(coords).all():
        raise ValueError("non-finite coordinate")
    rallies = list(map(",".join, zip(cells[0::9], cells[1::9])))
    for key in dict.fromkeys(rallies):
        keys.setdefault(key, len(keys))
    return (
        numbers,
        np.fromiter(map(keys.__getitem__, rallies), dtype=np.int64, count=n),
        rounds,
        np.fromiter(map("B".__eq__, players), dtype=bool, count=n),
        np.fromiter(map(ids.__getitem__, type_names), dtype=np.int64, count=n),
        coords,
    )


def parse_dataset(
    path: str | Path,
    vocab: ShotTypeVocab | None = None,
    court: CourtSpec | None = None,
    mirror: str = "none",
    write_rejects: bool = True,
) -> tuple[list[Rally], DatasetMeta, list[RejectedRow]]:
    """Parse a dataset CSV into rallies grouped by (match_id, rally_id).

    Malformed rows and structurally broken rallies land in the reject report
    (also written next to the input as <name>.rejects.csv) instead of
    aborting; only a row-level malformed share above 10% is a hard failure.

    Lines are parsed in blocks of arrays (court.read_csv), so every reject is
    worded by _parse_block, and rows are grouped into rallies by one sort.
    """
    path = Path(path)
    if mirror not in ("none", "odd", "even"):
        raise ValueError(f"mirror must be none, odd, or even, got {mirror!r}")
    vocab = vocab or ShotTypeVocab.default()
    court = court or CourtSpec()

    rejects: list[RejectedRow] = []
    keys: dict[str, int] = {}
    numbers, codes, rounds, is_b, types, coords = read_csv(
        path, "dataset", CSV_HEADER, strip_line_ending,
        lambda cells, numbers: _parse_block(cells, numbers, vocab, keys),
        lambda number, line, exc: rejects.append(RejectedRow(number, tuple(line.split(",")), exc.args[0])),
    )
    n_malformed = len(rejects)
    n_rows = len(numbers) + n_malformed
    if n_rows and n_malformed / n_rows > MALFORMED_ROW_LIMIT:
        sample = ", ".join(f"line {r.line_number} ({r.reason})" for r in rejects[:20])
        raise ParseError(path, f"{n_malformed}/{n_rows} rows malformed (limit {MALFORMED_ROW_LIMIT:.0%}): {sample}")

    if mirror != "none":
        flip = (rounds % 2 == 1) == (mirror == "odd")
        np.subtract([court.width_m, court.length_m] * 2, coords, out=coords, where=flip[:, None])

    # each rally's rows by round, then file order; codes run in first-seen order, so rally g is code g
    order = np.lexsort((numbers, rounds, codes))
    sorted_codes, sorted_rounds = codes[order], rounds[order]
    starts = np.flatnonzero(run_starts(sorted_codes))
    sizes = np.diff(np.append(starts, len(order)))
    position = np.arange(1, len(order) + 1) - np.repeat(starts, sizes)
    wrong = np.flatnonzero(sorted_rounds != position)
    match_ids, rally_ids = [key.partition(",")[0] for key in keys], [key.partition(",")[2] for key in keys]
    broken = np.zeros(len(keys), dtype=bool)
    for i in wrong[run_starts(sorted_codes[wrong])].tolist():  # the first row out of place in each broken rally
        code, k, got = int(sorted_codes[i]), int(position[i]), int(sorted_rounds[i])
        broken[code] = True
        problem = f"round_index gap at {k}" if got > k else f"duplicate round_index {got}"
        rows = order[starts[code] : starts[code] + sizes[code]]
        reason = f"rally {match_ids[code]}/{rally_ids[code]}: {problem}"
        rejects.extend(RejectedRow(n, ("",) * 9, reason) for n in numbers[rows].tolist())
    kept = ~broken
    kept_rows = order[np.repeat(kept, sizes)]
    match_ids = list(compress(match_ids, kept))
    meta = _meta_from(match_ids, sizes[kept], is_b[kept_rows])

    # each kept rally holds views of its rows in the sorted columns; zipped heads leave no tuple per rally alive
    sides = [f"{match_id}:A" for match_id in match_ids], [f"{match_id}:B" for match_id in match_ids]
    bounds = zip(starts[kept].tolist(), (starts + sizes)[kept].tolist())
    columns = (sorted_rounds, ~is_b[order], types[order], coords[order, :2], coords[order, 2:])
    rallies = Rally.from_columns(zip(compress(rally_ids, kept), match_ids, *sides), bounds, columns)

    if rejects and write_rejects:
        lines = []
        for r in sorted(rejects, key=lambda x: x.line_number):
            fields = list(r.fields)[:9] + [""] * max(0, 9 - len(r.fields))
            lines.append(",".join(fields + [r.reason.replace(",", ";")]))
        write_csv(path.with_name(path.name + ".rejects.csv"), CSV_HEADER + ",reason", lines)
    return rallies, meta, rejects


def write_dataset(rallies: Sequence[Rally], vocab: ShotTypeVocab, path: str | Path) -> None:
    """Write rallies in the dataset CSV contract, formatting each rally's columns.

    Floats use Python repr (shortest round-trip form), so parse followed by
    write reproduces a canonical file byte for byte.
    """
    names = [e.name for e in vocab.entries]
    lines = (
        f"{r.match_id},{r.rally_id},{k},{'A' if a else 'B'},{names[t]},{lx!r},{ly!r},{px!r},{py!r}"
        for r in rallies
        for k, a, t, (lx, ly), (px, py) in zip(
            r.rounds.tolist(), r.hit_by_a.tolist(), r.type_ids.tolist(), r.landings.tolist(), r.locations.tolist()
        )
    )
    write_csv(path, CSV_HEADER, lines)


def filter_training(
    rallies: Sequence[Rally], policy: FilterPolicy
) -> tuple[list[Rally], list[DroppedRally]]:
    """Apply the training-set filter; kept plus dropped partitions the input."""
    kept: list[Rally] = []
    dropped: list[DroppedRally] = []

    match_totals: Counter[str] = Counter()
    for r in rallies:
        match_totals[r.match_id] += len(r)
    heavy = {
        m
        for m, total in match_totals.items()
        if policy.max_match_total_rounds is not None and total > policy.max_match_total_rounds
    }

    for r in rallies:
        if r.match_id in heavy:
            dropped.append(
                DroppedRally(r, f"match {r.match_id} has {match_totals[r.match_id]} total strokes")
            )
        elif len(r) < policy.min_rally_length:
            dropped.append(DroppedRally(r, f"rally length {len(r)} below minimum {policy.min_rally_length}"))
        elif policy.max_rally_length is not None and len(r) > policy.max_rally_length:
            dropped.append(DroppedRally(r, f"rally length {len(r)} above maximum {policy.max_rally_length}"))
        else:
            kept.append(r)
    return kept, dropped


def split(
    rallies: Sequence[Rally], train_fraction: float, seed: int, by_match: bool = False
) -> tuple[list[Rally], list[Rally]]:
    """Deterministic train/validation split; train size is the ceil share."""
    if not rallies:
        raise ValueError("cannot split an empty rally list")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = rng_from_key(seed, TAG_SYNTH, 1)
    n_train = math.ceil(train_fraction * len(rallies) - 1e-12)

    if by_match:
        matches = sorted({r.match_id for r in rallies})
        order = [matches[i] for i in rng.permutation(len(matches))]
        train: list[Rally] = []
        train_matches: set[str] = set()
        for m in order:
            if len(train) >= n_train:
                break
            train_matches.add(m)
            train.extend(r for r in rallies if r.match_id == m)
        val = [r for r in rallies if r.match_id not in train_matches]
    else:
        perm = rng.permutation(len(rallies))
        train = [rallies[i] for i in perm[:n_train]]
        val = [rallies[i] for i in perm[n_train:]]
    if not val:
        log.warning("validation split is empty (%d rallies, fraction %.3f)", len(rallies), train_fraction)
    return train, val


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    n_rallies: int
    mean_length: float = 7.0
    vocab: ShotTypeVocab = field(default_factory=ShotTypeVocab.default)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rallies < 1:
            raise ValueError("n_rallies must be positive")
        if not math.isfinite(self.mean_length) or self.mean_length < TAU + 1:
            raise ValueError(f"mean_length must be finite and at least {TAU + 1}, got {self.mean_length}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


# the synthetic cast; every pair of them plays one match
PLAYERS = ("alice", "bruno", "chen", "dara")


def player_table(vocab: ShotTypeVocab) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The players' (4, V) shot preferences, (4, V, 2) landing means in meters and shared (2, 2) landing covariance.

    Player k prefers the services whose id has k's parity, and two rally
    types, rotated by k so that per-player histograms differ.
    """
    is_serve = np.array([e.is_serve for e in vocab.entries])
    k, t = np.arange(len(PLAYERS))[:, None], np.arange(vocab.size)
    serve_preferences = np.where((t + k) % 2 == 0, 0.5, 0.1)
    rally_preferences = np.where((np.cumsum(~is_serve) - 1 + k) % (~is_serve).sum() < 2, 3.0, 0.3)
    preferences = np.where(is_serve, serve_preferences, rally_preferences)
    w, l = CourtSpec.width_m, CourtSpec.length_m
    across = w * (0.25 + 0.5 * ((t + 2 * k) % 3) / 2.0)
    deep = l / 2 + l * 0.42 * ((t + 1) / (vocab.size + 1)) + 0.3
    means = np.stack(np.broadcast_arrays(across, deep), axis=-1)
    return preferences, means, np.diag([0.35**2, 0.55**2])


def synthesize_dataset(config: SynthConfig) -> list[Rally]:
    """Generate valid rallies with planted serve and per-player structure.

    Every rally opens with a service type, services never recur, players
    alternate from the server, and stroke counts are geometric around
    mean_length with a floor of five. Deterministic under the seed. The
    players and their shot preferences and landing kernels are player_table's.

    The seeded stream is read in one fixed order: per rally, one geometric
    draw for its length; then per stroke, one uniform for the shot type and
    four normals, two for the landing and two for the hitter's location.
    Changing that order changes every synthesized corpus. Only the draws run
    stroke by stroke; the shot CDFs, landings and locations are computed
    afterwards over whole columns.
    """
    vocab = config.vocab
    court = CourtSpec()
    preferences, means, cov = player_table(vocab)
    is_serve = np.array([e.is_serve for e in vocab.entries])
    # (4, 2, V): each player's opening-stroke and rally-stroke weights, then CDFs
    weights = np.stack([np.where(is_serve, preferences, 0.0), np.where(is_serve, 0.0, preferences)], axis=1)
    cdfs = np.cumsum(weights / weights.sum(axis=2, keepdims=True), axis=2)
    chol = np.linalg.cholesky(cov)
    pairs = list(combinations(PLAYERS, 2))

    rng = rng_from_key(config.seed, TAG_SYNTH, 0)
    excess_mean = config.mean_length - TAU
    p_geometric = 1.0 / max(excess_mean, 1.0)
    heads, draws = [], []
    for idx in range(config.n_rallies):
        pair = pairs[idx % len(pairs)]
        server = pair[idx // len(pairs) % 2]
        receiver = pair[0] if server == pair[1] else pair[1]
        heads.append((f"r{idx:04d}", f"{pair[0]}--{pair[1]}", server, receiver))
        rally = np.empty((TAU + int(rng.geometric(p_geometric)), 5))  # per stroke: the uniform, then four normals
        for stroke in rally:
            stroke[0] = rng.random()
            rng.standard_normal(out=stroke[1:])
        draws.append(rally)

    lengths = np.array([len(rally) for rally in draws])
    draws = np.concatenate(draws)
    stops = np.cumsum(lengths)
    rounds = np.arange(1, stops[-1] + 1) - np.repeat(stops - lengths, lengths)
    hit_by_a = rounds % 2 == 1
    servers, receivers = (np.array([PLAYERS.index(head[i]) for head in heads]) for i in (2, 3))
    hitters = np.where(hit_by_a, np.repeat(servers, lengths), np.repeat(receivers, lengths))
    # each stroke's searchsorted(cdf, uniform, side="right"): the count of its CDF's entries at or below the uniform
    stroke_cdfs = cdfs[hitters, (rounds > 1).astype(np.int64)]
    types = np.minimum((stroke_cdfs <= draws[:, :1]).sum(axis=1), vocab.size - 1)
    landings = means[hitters, types] + draws[:, 1:3] @ chol.T
    location_max = np.array([court.width_m - 0.05, court.length_m / 2 - 0.05])  # the hitter stays in the low-y half
    locations = np.array([court.width_m / 2, court.length_m / 4]) + draws[:, 3:] * (1.0, 1.3)
    np.clip(locations, 0.05, location_max, out=locations)
    columns = (rounds, hit_by_a, types, landings, locations)
    return Rally.from_columns(heads, zip((stops - lengths).tolist(), stops.tolist()), columns)
