"""Court geometry, shot-type vocabulary, and rally/stroke domain types.

All coordinates are meters in a per-stroke canonical frame: the origin sits at
one corner of the court, x runs across the 6.1 m width, y runs along the
13.4 m length, and every stroke is oriented so the shuttle travels toward
increasing y. The hitter therefore occupies the low-y half at hit time and
the receiver the high-y half. Data recorded in a fixed frame can be
canonicalized on ingest (see dataset.parse_dataset's mirror option).

A Rally holds its strokes as read-only column arrays, one row per stroke;
Rally.strokes is a tuple-of-Stroke view of them, built on first use. A
parsed or synthesized rally holds views of its corpus's columns and builds
no Stroke until asked.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

# Zone ids 1..9 tile the receiver half-court as a 3x3 grid from the
# receiver's perspective: rows run near-net to baseline, columns left to
# right, zone = 3 * row + col + 1. Boundary ties resolve to the lower id.
N_ZONES = 10
ZONE_OUT = 10  # any point outside the chosen half-court


class ParseError(Exception):
    """A dataset, vocabulary, checkpoint or prediction file too damaged to use, named with the line if known."""

    def __init__(self, path: str | Path, message: str, line: int | None = None):
        super().__init__(f"{path}: {message}" if line is None else f"{path}: line {line}: {message}")


# File lines parsed and checked, or rows formatted, as one block. At 4096 a
# block's joined text and cell list (about 0.4 and 0.3 MB for a dataset
# file) left the allocator holding more memory: ingest-score's peak RSS rose
# by up to 3 MB on some seeds. At 1024 it did not, and parsing was as fast.
PARSE_BLOCK_LINES = 1024


def read_csv(
    path: Path,
    kind: str,
    header: str,
    strip: Callable[[str], str],
    parse: Callable[[list[str], np.ndarray], tuple[np.ndarray, ...]],
    reject: Callable[[int, str, Exception], None] | None = None,
) -> tuple[np.ndarray, ...]:
    """The columns of a CSV file with this header: parse's columns of each block of lines, concatenated.

    After the header, lines are read PARSE_BLOCK_LINES at a time and blank
    ones (after strip) skipped; parse gets a block's cells and line numbers.
    A block with a line of the wrong column count, or that parse refuses with
    ValueError or KeyError, is parsed again one line at a time, and reject
    gets each failing line's number, text and error; without reject, the
    first failing line raises ParseError. A byte that is not UTF-8 raises
    ParseError naming its line, after the lines read before it are parsed,
    so a bad row among them is reported first. A UTF-8 byte-order mark
    before the header is skipped.
    """
    if not path.exists():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    width = header.count(",") + 1
    blocks = [parse([], np.zeros(0, dtype=np.int64))]  # columns even for a file without rows

    def cells(lines: list[str]) -> list[str]:
        if set(map(str.count, lines, repeat(","))) - {width - 1}:
            found = next(line.count(",") for line in lines if line.count(",") != width - 1) + 1
            raise ValueError(f"expected {width} columns, found {found}")
        return ",".join(lines).split(",") if lines else []

    def add(block: list[str], first_line: int) -> None:
        lines = list(filter(None, block))
        numbers = np.flatnonzero(np.fromiter(map(bool, block), dtype=bool, count=len(block))) + first_line
        try:
            blocks.append(parse(cells(lines), numbers))
        except (ValueError, KeyError):
            for i, line in enumerate(lines):
                try:
                    blocks.append(parse(cells([line]), numbers[i : i + 1]))
                except (ValueError, KeyError) as exc:
                    if reject is None:
                        raise ParseError(path, exc.args[0], int(numbers[i])) from exc
                    reject(int(numbers[i]), line, exc)

    block, first_line = [], 2
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            found = fh.readline().strip()
            if found != header:
                raise ParseError(path, f"{kind} header does not match {header!r}: {found!r}", 1)
            for line in fh:
                block.append(strip(line))
                if len(block) == PARSE_BLOCK_LINES:
                    add(block, first_line)
                    block, first_line = [], first_line + len(block)
        except UnicodeDecodeError:
            add(block, first_line)
            raw = path.read_bytes()
            try:
                raw.decode("utf-8")  # the text reader decodes in chunks, so find the byte's offset in the whole file
            except UnicodeDecodeError as exc:
                head = raw[: exc.start]  # lines end as the reader splits them: "\n", "\r\n" or a lone "\r"
                line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
                raise ParseError(path, f"byte 0x{raw[exc.start]:02x} is not UTF-8", line) from exc
            raise
        add(block, first_line)
    return tuple(np.concatenate(column) for column in zip(*blocks))


def write_file(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a new file beside path, then rename it over path, so no reader sees a partial file.

    On any exception the new file is removed. Its exclusive create lets the umask set its mode.
    """
    path = Path(path)
    check_output(path)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temp, "xb") as fh:
            fh.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def check_output(path: Path) -> None:
    """Raise write_file's OSError for path: it exists and is not a regular file, or its directory is missing."""
    if path.exists() and not path.is_file():
        raise FileExistsError(f"output path exists and is not a regular file: {path}")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"output directory not found: {path.parent}")


def write_csv(path: str | Path, header: str, lines: Iterable[str]) -> None:
    """Write the header and lines through write_file as UTF-8, each ended by "\\n", PARSE_BLOCK_LINES lines a chunk."""
    rows = chain([header], lines)
    blocks = iter(lambda: list(islice(rows, PARSE_BLOCK_LINES)), [])
    write_file(path, (("\n".join(block) + "\n").encode("utf-8") for block in blocks))


def strip_line_ending(line: str) -> str:
    """A line without its ending: "\\n", "\\r\\n" or "\\r"."""
    return line.rstrip("\n").rstrip("\r")


def int_column(cells: list[str], name: str) -> np.ndarray:
    """int() of each cell as int64; a value beyond int64 raises ValueError naming the column."""
    try:
        return np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    except OverflowError:
        value = next(v for v in map(int, cells) if not -(2**63) <= v < 2**63)
        raise ValueError(f"{name} {value} does not fit in 64 bits") from None


def boolean(raw: str) -> bool:
    """The one reading of a true/false word, for settings and vocabulary files alike."""
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """True at the first row and at every row whose keys differ from the row before's."""
    new = np.ones(len(keys[0]), dtype=bool)
    new[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return new


class Player(str, Enum):
    """Rally-local side label; A is the server of the rally."""

    A = "A"
    B = "B"


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
        by_name = {e.name.casefold(): e.type_id for e in self.entries}
        if len(by_name) != len(self.entries):
            raise ValueError("shot type names must be unique")
        object.__setattr__(self, "_id_by_name", by_name)  # built once, for id_of
        if not any(e.is_serve for e in self.entries):
            raise ValueError("vocabulary needs at least one service type")
        if all(e.is_serve for e in self.entries):  # the sampler masks services out after the opening stroke
            raise ValueError("vocabulary needs at least one rally (non-service) type")

    @classmethod
    def default(cls) -> "ShotTypeVocab":
        return cls(tuple(ShotType(i, name, serve) for i, (name, serve) in enumerate(_DEFAULT_TYPES)))

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def serve_ids(self) -> tuple[int, ...]:
        return tuple(e.type_id for e in self.entries if e.is_serve)

    def name_of(self, type_id: int) -> str:
        return self.entries[type_id].name

    def id_of(self, name: str) -> int:
        """The id of a name, matched case-insensitively; KeyError for a name not in the vocabulary."""
        try:
            return self._id_by_name[name.casefold()]
        except KeyError:
            raise KeyError(f"unknown shot type: {name!r}") from None

    def is_serve(self, type_id: int) -> bool:
        return self.entries[type_id].is_serve


def load_vocab(path: str | Path) -> ShotTypeVocab:
    """Read a vocabulary CSV through read_csv: header type_id,name,is_serve, no quoting, names kept as they are.

    A damaged line, or a file that ShotTypeVocab rejects, raises ParseError
    naming the file.
    """
    path = Path(path)

    def parse(cells: list[str], numbers: np.ndarray) -> tuple[np.ndarray, ...]:
        serves = np.fromiter(map(boolean, cells[2::3]), dtype=bool, count=len(numbers))
        return int_column(cells[0::3], "type_id"), np.array(cells[1::3], dtype=object), serves

    ids, names, serves = read_csv(path, "vocabulary", "type_id,name,is_serve", strip_line_ending, parse)
    entries = sorted(map(ShotType, ids.tolist(), names.tolist(), serves.tolist()), key=lambda e: e.type_id)
    try:
        return ShotTypeVocab(tuple(entries))
    except ValueError as exc:
        raise ParseError(path, str(exc)) from None


@dataclass(frozen=True)
class CourtSpec:
    """The badminton court, whose size is fixed; coordinates normalize by it (see center)."""

    width_m: ClassVar[float] = 6.1
    length_m: ClassVar[float] = 13.4

    @property
    def center(self) -> tuple[float, float]:
        """The court's center, which is also its half-extent: normalization maps the court onto [-1, 1]."""
        return self.width_m / 2, self.length_m / 2

    def normalize(self, meters: np.ndarray) -> np.ndarray:
        """(..., 2) points in meters, mapped so that the court spans [-1, 1] on each axis."""
        center = np.array(self.center)
        return (meters - center) / center

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        """(..., 2) normalized points back in meters; the inverse of normalize."""
        center = np.array(self.center)
        return z * center + center


def coord_to_zones(points: np.ndarray, court: CourtSpec, receiver_side: Player) -> np.ndarray:
    """The zone of every row of an (n, 2) array of landing points, as an (n,) int array.

    Side A occupies the low-y half, side B the high-y half. Zones 1..9 tile
    the receiver's half (row 0 nearest the net, column 0 on the receiver's
    left); zone 10 is anything outside it, including the far half and
    out-of-court points.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
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


@dataclass(frozen=True, init=False, eq=False, slots=True)
class Rally:
    """Ordered stroke sequence between two named players; player_a serves.

    Row k-1 of the read-only columns is stroke k: rounds, hit_by_a and
    type_ids are (n,), landings and locations (n, 2) in meters. Rallies
    compare by their names and columns.
    """

    rally_id: str
    match_id: str
    player_a: str
    player_b: str
    strokes: tuple[Stroke, ...]  # a field, so that dataclasses.replace(rally, strokes=...) passes it on
    rounds: np.ndarray = field(init=False, repr=False)
    hit_by_a: np.ndarray = field(init=False, repr=False)
    type_ids: np.ndarray = field(init=False, repr=False)
    landings: np.ndarray = field(init=False, repr=False)
    locations: np.ndarray = field(init=False, repr=False)

    def __init__(self, rally_id: str, match_id: str, player_a: str, player_b: str, strokes: Iterable[Stroke]):
        strokes = tuple(strokes)
        columns = (
            np.array([s.round_index for s in strokes], dtype=np.int64),
            np.array([s.player is Player.A for s in strokes], dtype=bool),
            np.array([s.shot_type for s in strokes], dtype=np.int64),
            np.array([s.landing for s in strokes], dtype=np.float64).reshape(-1, 2),
            np.array([s.player_location for s in strokes], dtype=np.float64).reshape(-1, 2),
        )
        for column in columns:
            column.flags.writeable = False
        for name, value in zip(_FIELDS + ("strokes",), (rally_id, match_id, player_a, player_b, *columns, strokes)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_columns(
        cls, heads: Iterable[tuple[str, str, str, str]], bounds: Iterable[tuple[int, int]], columns: Sequence[np.ndarray]
    ) -> list["Rally"]:
        """A rally per (rally_id, match_id, player_a, player_b) head and (start, stop) bound, holding views of those rows."""
        for column in columns:
            column.flags.writeable = False  # so that no rally's columns can drift from its strokes
        rallies = []
        for head, (start, stop) in zip(heads, bounds):
            rally = cls.__new__(cls)
            for name, value in zip(_FIELDS, (*head, *(column[start:stop] for column in columns))):
                object.__setattr__(rally, name, value)
            rallies.append(rally)
        return rallies

    def __getattr__(self, name: str) -> tuple[Stroke, ...]:
        """The strokes, built from the columns on first use: a rally from from_columns leaves that slot unset."""
        if name != "strokes":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        sides = [Player.A if a else Player.B for a in self.hit_by_a.tolist()]
        landings, locations = map(tuple, self.landings.tolist()), map(tuple, self.locations.tolist())
        strokes = tuple(map(Stroke, self.rounds.tolist(), sides, self.type_ids.tolist(), landings, locations))
        object.__setattr__(self, "strokes", strokes)
        return strokes

    def __reduce__(self):  # a copy or an unpickled rally is rebuilt from its strokes, so its columns are read-only too
        return Rally, (self.rally_id, self.match_id, self.player_a, self.player_b, self.strokes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rally):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _FIELDS[:4]) and all(
            np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True) for f in _FIELDS[4:]
        )

    def __hash__(self) -> int:
        return hash((self.rally_id, self.match_id, self.player_a, self.player_b, len(self)))

    def __len__(self) -> int:
        return len(self.rounds)


_FIELDS = ("rally_id", "match_id", "player_a", "player_b", "rounds", "hit_by_a", "type_ids", "landings", "locations")


@dataclass(frozen=True)
class Violation:
    """One broken rally invariant at a 1-based stroke_index."""

    stroke_index: int
    rule: str
    detail: str


def validate_rally(rally: Rally, vocab: ShotTypeVocab, strict_serve: bool = False) -> list[Violation]:
    """The rally's breaks of side alternation and, with strict_serve, of service placement; empty iff none.

    Rounds, sides, type ids and coordinates are checked where a dataset is
    read (dataset.parse_dataset), so a parsed or synthesized rally has them right.
    """
    out: list[Violation] = []
    for k, (hit_by_a, shot_type) in enumerate(zip(rally.hit_by_a.tolist(), rally.type_ids.tolist()), start=1):
        if hit_by_a != (k % 2 == 1):
            expected, found = ("B", "A") if hit_by_a else ("A", "B")
            out.append(Violation(k, "alternation", f"expected player {expected}, found {found}"))
        if strict_serve and vocab.is_serve(shot_type) != (k == 1):
            name = vocab.name_of(shot_type)
            if k == 1:
                out.append(Violation(k, "serve_first", f"rally opens with non-service type {name!r}"))
            else:
                out.append(Violation(k, "serve_after_open", f"service type {name!r} at round {k}"))
    return out
