"""Court geometry, shot-type vocabulary, and rally/stroke domain types.

All coordinates are meters in a per-stroke canonical frame: the origin sits at
one corner of the court, x runs across the 6.1 m width, y runs along the
13.4 m length, and every stroke is oriented so the shuttle travels toward
increasing y. The hitter therefore occupies the low-y half at hit time and
the receiver the high-y half. Data recorded in a fixed frame can be
canonicalized on ingest (see dataset.parse_dataset's mirror option).
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

DEFAULT_WIDTH_M = 6.1
DEFAULT_LENGTH_M = 13.4

N_ZONES = 10
ZONE_OUT = 10  # any point outside the chosen half-court

# Zone ids 1..9 tile the receiver half-court as a 3x3 grid from the
# receiver's perspective: rows run near-net to baseline, columns left to
# right, zone = 3 * row + col + 1. Boundary ties resolve to the lower id.
ZoneId = int


class ParseError(RuntimeError):
    """Raised when a dataset, vocabulary, checkpoint or prediction file is too damaged to use."""


@contextmanager
def utf8_line_errors(path: Path) -> Iterator[None]:
    """Turn a UnicodeDecodeError while reading path as text into a ParseError naming the line of the first bad byte."""
    try:
        yield
    except UnicodeDecodeError:
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")  # the text reader decodes in chunks, so find the byte's offset in the whole file
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"{path}: line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8") from exc
        raise


class Player(str, Enum):
    """Rally-local side label; A is the server of the rally."""

    A = "A"
    B = "B"

    @property
    def opponent(self) -> "Player":
        return Player.B if self is Player.A else Player.A


@dataclass(frozen=True)
class ShotType:
    type_id: int
    name: str
    is_serve: bool


_DEFAULT_TYPES: tuple[tuple[str, bool], ...] = (
    ("long service", True),
    ("short service", True),
    ("net shot", False),
    ("smash", False),
    ("drive", False),
    ("defensive shot", False),
    ("clear", False),
    ("drop", False),
    ("push", False),
    ("lob", False),
)


@dataclass(frozen=True)
class ShotTypeVocab:
    """Ordered shot-type vocabulary with contiguous ids 0..V-1."""

    entries: tuple[ShotType, ...]

    def __post_init__(self) -> None:
        ids = [e.type_id for e in self.entries]
        if ids != list(range(len(self.entries))):
            raise ValueError("type_ids must be contiguous 0..V-1 in order")
        names = [e.name.casefold() for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("shot type names must be unique")
        if not any(e.is_serve for e in self.entries):
            raise ValueError("vocabulary needs at least one service type")

    @classmethod
    def default(cls) -> "ShotTypeVocab":
        return cls(tuple(ShotType(i, name, serve) for i, (name, serve) in enumerate(_DEFAULT_TYPES)))

    @classmethod
    def from_names(cls, names: Iterable[str], serve_names: Iterable[str]) -> "ShotTypeVocab":
        serves = {s.casefold() for s in serve_names}
        return cls(tuple(ShotType(i, n, n.casefold() in serves) for i, n in enumerate(names)))

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def serve_ids(self) -> tuple[int, ...]:
        return tuple(e.type_id for e in self.entries if e.is_serve)

    def name_of(self, type_id: int) -> str:
        return self.entries[type_id].name

    def id_of(self, name: str) -> int:
        key = name.casefold()
        for e in self.entries:
            if e.name.casefold() == key:
                return e.type_id
        raise KeyError(f"unknown shot type: {name!r}")

    def is_serve(self, type_id: int) -> bool:
        return self.entries[type_id].is_serve


VOCAB_COLUMNS = ("type_id", "name", "is_serve")


def load_vocab(path: str | Path) -> ShotTypeVocab:
    """Read a vocabulary CSV with header type_id,name,is_serve."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"vocabulary file not found: {path}")
    entries = []
    with open(path, newline="", encoding="utf-8") as fh, utf8_line_errors(path):
        reader = csv.DictReader(fh)
        missing = [c for c in VOCAB_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ParseError(
                f"{path}: line 1: missing column {', '.join(missing)}; the header must be {','.join(VOCAB_COLUMNS)}"
            )
        for row in reader:
            if None in row.values():
                raise ParseError(f"{path}: line {reader.line_num}: expected {len(VOCAB_COLUMNS)} cells")
            try:
                type_id = int(row["type_id"])
            except ValueError:
                raise ParseError(f"{path}: line {reader.line_num}: type_id {row['type_id']!r} is not an integer") from None
            entries.append(ShotType(type_id, row["name"], row["is_serve"].strip().lower() in ("1", "true", "yes")))
    entries.sort(key=lambda e: e.type_id)
    return ShotTypeVocab(tuple(entries))


def save_vocab(vocab: ShotTypeVocab, path: str | Path) -> None:
    lines = [",".join(VOCAB_COLUMNS)]
    for e in vocab.entries:
        lines.append(f"{e.type_id},{e.name},{'true' if e.is_serve else 'false'}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CourtSpec:
    """Court dimensions and the affine coordinate normalization.

    The default normalization maps the court onto [-1, 1] in both axes.
    """

    width_m: float = DEFAULT_WIDTH_M
    length_m: float = DEFAULT_LENGTH_M
    mean_x: float = DEFAULT_WIDTH_M / 2
    mean_y: float = DEFAULT_LENGTH_M / 2
    std_x: float = DEFAULT_WIDTH_M / 2
    std_y: float = DEFAULT_LENGTH_M / 2

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.length_m <= 0:
            raise ValueError("court dimensions must be positive")
        if self.std_x <= 0 or self.std_y <= 0:
            raise ValueError("normalization stds must be positive")


def normalize_coord(p: tuple[float, float], court: CourtSpec) -> tuple[float, float]:
    return (p[0] - court.mean_x) / court.std_x, (p[1] - court.mean_y) / court.std_y


def denormalize_coord(p: tuple[float, float], court: CourtSpec) -> tuple[float, float]:
    return p[0] * court.std_x + court.mean_x, p[1] * court.std_y + court.mean_y


def mirror_coord(p: tuple[float, float], court: CourtSpec) -> tuple[float, float]:
    """Reflect a point through the court center (flips which half it is in)."""
    return court.width_m - p[0], court.length_m - p[1]


def coord_to_zone(landing: tuple[float, float], court: CourtSpec, receiver_side: Player) -> ZoneId:
    """Map a landing point to one of 10 zones on the receiver's half-court.

    Side A occupies the low-y half, side B the high-y half. Zones 1..9 are a
    3x3 grid oriented from the receiver's point of view (row 0 nearest the
    net, column 0 on the receiver's left); zone 10 is anything outside the
    receiver's half, including the far half and out-of-court points. This is
    the one-point case of coord_to_zones.
    """
    x, y = landing
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite landing coordinate: {landing!r}")
    return int(coord_to_zones(np.array([[x, y]], dtype=np.float64), court, receiver_side)[0])


def coord_to_zones(points: np.ndarray, court: CourtSpec, receiver_side: Player) -> np.ndarray:
    """coord_to_zone of every row of an (n, 2) array of points, as an (n,) int array."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        x, y = points[np.argmin(finite)].tolist()
        raise ValueError(f"non-finite landing coordinate: {(x, y)!r}")
    x, y = points[:, 0], points[:, 1]
    w, l = court.width_m, court.length_m
    half = l / 2
    if receiver_side is Player.B:
        inside = (0.0 <= x) & (x <= w) & (half <= y) & (y <= l)
        depth = y - half  # distance past the net
        left = w - x  # receiver faces -y, so their left is the +x sideline
    else:
        inside = (0.0 <= x) & (x <= w) & (0.0 <= y) & (y <= half)
        depth = half - y
        left = x
    # a point on a row or column boundary takes the lower zone id
    row = (depth > l / 6).astype(np.int64) + (depth > l / 3)
    col = (left > w / 3).astype(np.int64) + (left > 2 * w / 3)
    return np.where(inside, 3 * row + col + 1, ZONE_OUT)


@dataclass(frozen=True)
class Stroke:
    """One hit: shot type, shuttle landing point, and the hitter's position."""

    round_index: int
    player: Player
    shot_type: int
    landing: tuple[float, float]
    player_location: tuple[float, float]


@dataclass(frozen=True)
class Rally:
    """Ordered stroke sequence between two named players; player_a serves."""

    rally_id: str
    match_id: str
    player_a: str
    player_b: str
    strokes: tuple[Stroke, ...]

    def __len__(self) -> int:
        return len(self.strokes)

    def name_of(self, side: Player) -> str:
        return self.player_a if side is Player.A else self.player_b


@dataclass(frozen=True)
class Violation:
    """One broken rally invariant; stroke_index is 1-based (0 = rally level)."""

    stroke_index: int
    rule: str
    detail: str


def validate_rally(rally: Rally, vocab: ShotTypeVocab, strict_serve: bool = False) -> list[Violation]:
    """Check rally structure; returns an empty list iff all invariants hold."""
    out: list[Violation] = []
    if not rally.strokes:
        return [Violation(0, "empty", "rally has no strokes")]
    for k, s in enumerate(rally.strokes, start=1):
        if s.round_index != k:
            out.append(Violation(k, "round_index", f"expected round {k}, found {s.round_index}"))
        expected = Player.A if k % 2 == 1 else Player.B
        if s.player is not expected:
            out.append(Violation(k, "alternation", f"expected player {expected.value}, found {s.player.value}"))
        for label, (x, y) in (("landing", s.landing), ("player_location", s.player_location)):
            if not (math.isfinite(x) and math.isfinite(y)):
                out.append(Violation(k, "nonfinite", f"{label} has a non-finite coordinate"))
        if not 0 <= s.shot_type < vocab.size:
            out.append(Violation(k, "unknown_type", f"type_id {s.shot_type} outside vocabulary"))
            continue
        if strict_serve:
            if k == 1 and not vocab.is_serve(s.shot_type):
                out.append(Violation(k, "serve_first", f"rally opens with non-service type {vocab.name_of(s.shot_type)!r}"))
            if k > 1 and vocab.is_serve(s.shot_type):
                out.append(Violation(k, "serve_after_open", f"service type {vocab.name_of(s.shot_type)!r} at round {k}"))
    return out
