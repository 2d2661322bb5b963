"""Line-by-line reimplementation of dataset.parse_dataset.

Deliberately naive (one row at a time: split, convert, check, build a
Stroke; a dict of per-rally row lists sorted by round in Python; only the
result types come from rallycast) so it can serve as an oracle for the
block parser. Rejects, their reasons and their order, the DatasetMeta and
the bytes of <input>.rejects.csv must all match.
"""

import math
from collections import Counter
from pathlib import Path

from rallycast.court import ParseError, Player, Rally, Stroke
from rallycast.dataset import CSV_HEADER, DatasetMeta, RejectedRow

MALFORMED_ROW_LIMIT = 0.10


def _type_id(vocab, name):
    key = name.casefold()
    for e in vocab.entries:
        if e.name.casefold() == key:
            return e.type_id
    raise KeyError(f"unknown shot type: {name!r}")


def _parse_row(fields, vocab, court, mirror):
    if len(fields) != 9:
        raise ValueError(f"expected 9 columns, found {len(fields)}")
    match_id, rally_id, round_s, player_s, type_name = fields[:5]
    if player_s not in ("A", "B"):
        raise ValueError(f"player must be A or B, found {player_s!r}")
    round_index = int(round_s)
    if not -(2**63) <= round_index < 2**63:
        raise ValueError(f"ball_round {round_index} does not fit in 64 bits")
    if round_index < 1:
        raise ValueError(f"ball_round must be >= 1, found {round_index}")
    type_id = _type_id(vocab, type_name)
    coords = [float(v) for v in fields[5:]]
    if not all(math.isfinite(c) for c in coords):
        raise ValueError("non-finite coordinate")
    landing = (coords[0], coords[1])
    location = (coords[2], coords[3])
    if mirror != "none" and (round_index % 2 == 1) == (mirror == "odd"):
        landing = (court.width_m - landing[0], court.length_m - landing[1])
        location = (court.width_m - location[0], court.length_m - location[1])
    return match_id, rally_id, Stroke(round_index, Player(player_s), type_id, landing, location)


def _meta_from(rallies):
    per_player = Counter()
    lengths = Counter()
    for r in rallies:
        lengths[len(r)] += 1
        for s in r.strokes:
            per_player[r.player_a if s.player is Player.A else r.player_b] += 1
    players = {name for r in rallies for name in (r.player_a, r.player_b)}
    return DatasetMeta(
        n_matches=len({r.match_id for r in rallies}),
        n_rallies=len(rallies),
        n_players=len(players),
        strokes_per_player=dict(sorted(per_player.items())),
        rally_length_histogram=dict(sorted(lengths.items())),
    )


def _write_rejects(source, rejects):
    out = source.with_name(source.name + ".rejects.csv")
    lines = [CSV_HEADER + ",reason"]
    for r in sorted(rejects, key=lambda x: x.line_number):
        fields = list(r.fields)[:9] + [""] * max(0, 9 - len(r.fields))
        lines.append(",".join(fields + [r.reason.replace(",", ";")]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_parse_dataset(path, vocab, court, mirror="none", write_rejects=True):
    path = Path(path)
    rejects = []
    groups = {}
    n_rows = 0
    n_malformed = 0
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ParseError(path, f"dataset header does not match {CSV_HEADER!r}: {header!r}", 1)
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
                rejects.append(RejectedRow(line_number, tuple(fields), exc.args[0]))
                continue
            groups.setdefault((match_id, rally_id), []).append((line_number, stroke))

    if n_rows and n_malformed / n_rows > MALFORMED_ROW_LIMIT:
        sample = ", ".join(f"line {r.line_number} ({r.reason})" for r in rejects[:20])
        raise ParseError(path, f"{n_malformed}/{n_rows} rows malformed (limit {MALFORMED_ROW_LIMIT:.0%}): {sample}")

    rallies = []
    for (match_id, rally_id), rows in groups.items():
        rows.sort(key=lambda item: item[1].round_index)
        problem = None
        for k, (_, s) in enumerate(rows, start=1):
            if s.round_index != k:
                problem = f"round_index gap at {k}" if s.round_index > k else f"duplicate round_index {s.round_index}"
                break
        if problem is not None:
            for line_number, _ in rows:
                rejects.append(RejectedRow(line_number, ("",) * 9, f"rally {match_id}/{rally_id}: {problem}"))
            continue
        strokes = tuple(s for _, s in rows)
        rallies.append(Rally(rally_id, match_id, f"{match_id}:A", f"{match_id}:B", strokes))

    if rejects and write_rejects:
        _write_rejects(path, rejects)
    return rallies, _meta_from(rallies), rejects
