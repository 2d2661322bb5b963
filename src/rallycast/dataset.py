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
from pathlib import Path
from typing import Sequence

import numpy as np

from .court import CourtSpec, Player, Rally, ShotTypeVocab, Stroke, mirror_coord
from .seeding import TAG_SYNTH, rng_from_key

log = logging.getLogger(__name__)

TAU = 4

CSV_HEADER = "match_id,rally_id,ball_round,player,type,landing_x,landing_y,player_location_x,player_location_y"

# share of row-level malformed rows above which parsing aborts
MALFORMED_ROW_LIMIT = 0.10


class ParseError(RuntimeError):
    """Raised when a dataset, checkpoint or prediction file is too damaged to use."""


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


@dataclass(frozen=True)
class DroppedRally:
    rally: Rally
    reason: str


def _meta_from(rallies: Sequence[Rally]) -> DatasetMeta:
    per_player: Counter[str] = Counter()
    lengths: Counter[int] = Counter()
    for r in rallies:
        lengths[len(r)] += 1
        for s in r.strokes:
            per_player[r.name_of(s.player)] += 1
    players = {name for r in rallies for name in (r.player_a, r.player_b)}
    return DatasetMeta(
        n_matches=len({r.match_id for r in rallies}),
        n_rallies=len(rallies),
        n_players=len(players),
        strokes_per_player=dict(sorted(per_player.items())),
        rally_length_histogram=dict(sorted(lengths.items())),
    )


def _parse_row(
    fields: list[str], vocab: ShotTypeVocab, court: CourtSpec, mirror: str
) -> tuple[str, str, Stroke]:
    if len(fields) != 9:
        raise ValueError(f"expected 9 columns, found {len(fields)}")
    match_id, rally_id, round_s, player_s, type_name = fields[:5]
    if player_s not in ("A", "B"):
        raise ValueError(f"player must be A or B, found {player_s!r}")
    round_index = int(round_s)
    if round_index < 1:
        raise ValueError(f"ball_round must be >= 1, found {round_index}")
    type_id = vocab.id_of(type_name)  # KeyError for unknown names
    coords = [float(v) for v in fields[5:]]
    if not all(math.isfinite(c) for c in coords):
        raise ValueError("non-finite coordinate")
    landing = (coords[0], coords[1])
    location = (coords[2], coords[3])
    if mirror != "none":
        flip_odd = mirror == "odd"
        if (round_index % 2 == 1) == flip_odd:
            landing = mirror_coord(landing, court)
            location = mirror_coord(location, court)
    stroke = Stroke(
        round_index=round_index,
        player=Player(player_s),
        shot_type=type_id,
        landing=landing,
        player_location=location,
    )
    return match_id, rally_id, stroke


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
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    if mirror not in ("none", "odd", "even"):
        raise ValueError(f"mirror must be none, odd, or even, got {mirror!r}")
    vocab = vocab or ShotTypeVocab.default()
    court = court or CourtSpec()

    rejects: list[RejectedRow] = []
    groups: dict[tuple[str, str], list[tuple[int, Stroke]]] = {}
    n_rows = 0
    n_malformed = 0
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ParseError(f"unexpected header in {path}: {header!r}")
        for line_number, line in enumerate(fh, start=2):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            n_rows += 1
            fields = line.split(",")
            try:
                match_id, rally_id, stroke = _parse_row(fields, vocab, court, mirror)
            except (ValueError, KeyError) as exc:
                n_malformed += 1
                reason = str(exc).strip("'\"")
                rejects.append(RejectedRow(line_number, tuple(fields), reason))
                continue
            groups.setdefault((match_id, rally_id), []).append((line_number, stroke))

    if n_rows and n_malformed / n_rows > MALFORMED_ROW_LIMIT:
        sample = ", ".join(f"line {r.line_number} ({r.reason})" for r in rejects[:20])
        raise ParseError(
            f"{n_malformed}/{n_rows} rows malformed in {path} (limit {MALFORMED_ROW_LIMIT:.0%}): {sample}"
        )

    rallies: list[Rally] = []
    for (match_id, rally_id), rows in groups.items():
        rows.sort(key=lambda item: item[1].round_index)
        rounds = [s.round_index for _, s in rows]
        problem = None
        for k, got in enumerate(rounds, start=1):
            if got != k:
                problem = f"round_index gap at {k}" if got > k else f"duplicate round_index {got}"
                break
        if problem is not None:
            for line_number, _ in rows:
                rejects.append(RejectedRow(line_number, ("",) * 9, f"rally {match_id}/{rally_id}: {problem}"))
            continue
        rallies.append(
            Rally(
                rally_id=rally_id,
                match_id=match_id,
                player_a=f"{match_id}:A",
                player_b=f"{match_id}:B",
                strokes=tuple(s for _, s in rows),
            )
        )

    if rejects and write_rejects:
        _write_rejects(path, rejects)
    return rallies, _meta_from(rallies), rejects


def _write_rejects(source: Path, rejects: list[RejectedRow]) -> None:
    out = source.with_name(source.name + ".rejects.csv")
    lines = [CSV_HEADER + ",reason"]
    for r in sorted(rejects, key=lambda x: x.line_number):
        fields = list(r.fields)[:9] + [""] * max(0, 9 - len(r.fields))
        lines.append(",".join(fields + [r.reason.replace(",", ";")]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _format_float(v: float) -> str:
    return repr(float(v))


def write_dataset(rallies: Sequence[Rally], vocab: ShotTypeVocab, path: str | Path) -> None:
    """Write rallies in the dataset CSV contract.

    Floats use Python repr (shortest round-trip form), so parse followed by
    write reproduces a canonical file byte for byte.
    """
    lines = [CSV_HEADER]
    for r in rallies:
        for s in r.strokes:
            lines.append(
                ",".join(
                    (
                        r.match_id,
                        r.rally_id,
                        str(s.round_index),
                        s.player.value,
                        vocab.name_of(s.shot_type),
                        _format_float(s.landing[0]),
                        _format_float(s.landing[1]),
                        _format_float(s.player_location[0]),
                        _format_float(s.player_location[1]),
                    )
                )
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
class PlayerStyle:
    """Categorical shot preference plus one landing Gaussian per type."""

    preferences: np.ndarray  # (V,), nonnegative, normalized on use
    landing_mean: np.ndarray  # (V, 2) meters, canonical frame
    landing_cov: np.ndarray  # (V, 2, 2) SPD


@dataclass(frozen=True)
class SynthConfig:
    n_rallies: int
    mean_length: float = 7.0
    vocab: ShotTypeVocab = field(default_factory=ShotTypeVocab.default)
    player_styles: dict[str, PlayerStyle] | None = None
    court: CourtSpec = field(default_factory=CourtSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rallies < 1:
            raise ValueError("n_rallies must be positive")
        if self.mean_length < TAU + 1:
            raise ValueError(f"mean_length must be at least {TAU + 1}")


def default_player_styles(
    vocab: ShotTypeVocab, names: Sequence[str] = ("alice", "bruno", "chen", "dara"), court: CourtSpec | None = None
) -> dict[str, PlayerStyle]:
    """Deterministic, visibly distinct styles for synthetic corpora."""
    court = court or CourtSpec()
    v = vocab.size
    non_serve = [i for i in range(v) if not vocab.is_serve(i)]
    w, l = court.width_m, court.length_m
    styles: dict[str, PlayerStyle] = {}
    for k, name in enumerate(names):
        prefs = np.full(v, 0.05)
        for s in vocab.serve_ids:
            prefs[s] = 0.5 if (s + k) % 2 == 0 else 0.1
        # rotate which non-serve types dominate so per-player histograms differ
        for rank, idx in enumerate(non_serve):
            prefs[idx] = 3.0 if (rank + k) % len(non_serve) < 2 else 0.3
        means = np.zeros((v, 2))
        covs = np.zeros((v, 2, 2))
        for t in range(v):
            frac = (t + 1) / (v + 1)
            means[t] = (
                w * (0.25 + 0.5 * ((t + 2 * k) % 3) / 2.0),
                l / 2 + l * 0.42 * frac + 0.3,
            )
            covs[t] = np.diag([0.35**2, 0.55**2])
        styles[name] = PlayerStyle(prefs, means, covs)
    return styles


def _sample_categorical(rng: np.random.Generator, weights: np.ndarray) -> int:
    total = weights.sum()
    if total <= 0:
        raise ValueError("categorical weights sum to zero")
    cum = np.cumsum(weights / total)
    return int(min(np.searchsorted(cum, rng.random(), side="right"), len(weights) - 1))


def synthesize_dataset(config: SynthConfig) -> list[Rally]:
    """Generate valid rallies with planted serve and player-style structure.

    Every rally opens with a service type, services never recur, players
    alternate from the server, and stroke counts are geometric around
    mean_length with a floor of five. Deterministic under the seed.
    """
    vocab = config.vocab
    court = config.court
    styles = config.player_styles or default_player_styles(vocab, court=court)
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

    rallies: list[Rally] = []
    for idx in range(config.n_rallies):
        pair = pairs[idx % len(pairs)]
        server = pair[idx // len(pairs) % 2]
        receiver = pair[0] if server == pair[1] else pair[1]
        match_id = f"{pair[0]}--{pair[1]}"
        length = TAU + int(rng.geometric(p_geometric))

        strokes = []
        for k in range(1, length + 1):
            side = Player.A if k % 2 == 1 else Player.B
            hitter = server if side is Player.A else receiver
            style = styles[hitter]
            if k == 1:
                weights = np.where(non_serve_mask, 0.0, style.preferences)
                if weights.sum() <= 0:
                    weights = np.where(non_serve_mask, 0.0, 1.0)
            else:
                weights = np.where(non_serve_mask, style.preferences, 0.0)
            shot = _sample_categorical(rng, weights)
            landing = style.landing_mean[shot] + chol[hitter][shot] @ rng.standard_normal(2)
            location = np.array([court.width_m / 2, court.length_m / 4]) + rng.standard_normal(2) * (1.0, 1.3)
            location[0] = float(np.clip(location[0], 0.05, court.width_m - 0.05))
            location[1] = float(np.clip(location[1], 0.05, court.length_m / 2 - 0.05))
            strokes.append(
                Stroke(
                    round_index=k,
                    player=side,
                    shot_type=shot,
                    landing=(float(landing[0]), float(landing[1])),
                    player_location=(float(location[0]), float(location[1])),
                )
            )
        rallies.append(
            Rally(
                rally_id=f"r{idx:04d}",
                match_id=match_id,
                player_a=server,
                player_b=receiver,
                strokes=tuple(strokes),
            )
        )
    return rallies
