"""Line-by-line reimplementation of scoring.import_predictions.

Deliberately naive (one row at a time: split, convert, check, then Python
dicts for the sample-id gap, the repeated (rally, sample, round) and the
row order; only the result type comes from rallycast) so it can serve as
an oracle for the block parser. The columns, or the ParseError text, must
match.
"""

import math
from pathlib import Path

import numpy as np

from rallycast.court import ParseError
from rallycast.scoring import PROB_SUM_TOL, PredictionFile, prediction_header


def _int64(cell, name):
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{name} {value} does not fit in 64 bits")
    return value


def _check_row(cells, columns, path, line_number):
    """(sample id, round, landing, probabilities) of one row's cells; raises ParseError naming the line."""
    if len(cells) != len(columns):
        raise ParseError(path, f"expected {len(columns)} columns, found {len(cells)}", line_number)
    try:
        sample_id, ball_round = _int64(cells[1], "sample id"), _int64(cells[2], "ball round")
        landing = (float(cells[3]), float(cells[4]))
        values = [float(c) for c in cells[5:]]
    except ValueError as exc:
        raise ParseError(path, str(exc), line_number) from exc
    if not (math.isfinite(landing[0]) and math.isfinite(landing[1])):
        raise ParseError(path, f"landing ({cells[3]}, {cells[4]}) is not finite", line_number)
    for col, p in enumerate(values, start=5):
        if not 0.0 <= p <= 1.0:  # NaN fails too
            raise ParseError(path, f"{columns[col]} = {cells[col]} is not in [0, 1]", line_number)
    total = np.array(values).sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ParseError(path, f"probabilities sum to {total:.8f}", line_number)
    if sample_id < 1:
        raise ParseError(path, f"sample id {sample_id} is below 1", line_number)
    return sample_id, ball_round, landing, values


def reference_import_predictions(path, vocab):
    path = Path(path)
    rows = []  # (line number, rally id, sample id, round, landing, probabilities) in file order
    with open(path, newline="", encoding="utf-8") as fh:
        header, expected = fh.readline().strip(), prediction_header(vocab)
        if header != expected:
            raise ParseError(path, f"prediction header does not match {expected!r}: {header!r}", 1)
        columns = header.split(",")
        for line_number, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            rows.append((line_number, cells[0], *_check_row(cells, columns, path, line_number)))

    first_line = {}  # sample id -> the first line that has it
    for line_number, _, sample_id, *_ in rows:
        first_line.setdefault(sample_id, line_number)
    ids = sorted(first_line)
    if ids and ids[-1] != len(ids):
        gap = next(i for i, sample_id in enumerate(ids, start=1) if sample_id != i)
        line_number, sample_id = min((line, sid) for sid, line in first_line.items() if sid > gap)
        raise ParseError(path, f"sample id {sample_id} skips sample id {gap}; ids must run 1..k", line_number)
    seen = {}
    for line_number, rally_id, sample_id, ball_round, _, _ in rows:
        key = (rally_id, sample_id, ball_round)
        if key in seen:
            raise ParseError(
                path, f"rally {rally_id} sample {sample_id} round {ball_round} repeats line {seen[key]}", line_number
            )
        seen[key] = line_number

    # rally by rally in first-seen order, each rally's samples in first-seen order, each sample's rows by round
    rally_ids = list(dict.fromkeys(row[1] for row in rows))
    samples = {}  # (rally id, sample id) -> its rows
    for row in rows:
        samples.setdefault((row[1], row[2]), []).append(row)
    ordered = []
    for rally_id in rally_ids:
        for (r, _), sample_rows in samples.items():
            if r == rally_id:
                ordered.extend(sorted(sample_rows, key=lambda row: row[3]))
    return PredictionFile(
        max(ids, default=0),
        rally_ids,
        np.array([rally_ids.index(row[1]) for row in ordered], dtype=np.int64),
        np.array([row[2] for row in ordered], dtype=np.int64),
        np.array([row[3] for row in ordered], dtype=np.int64),
        np.array([row[4] for row in ordered], dtype=np.float64).reshape(len(ordered), 2),
        np.array([row[5] for row in ordered], dtype=np.float64).reshape(len(ordered), vocab.size),
    )
