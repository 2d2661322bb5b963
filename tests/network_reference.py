"""Per-stroke reimplementations of the network's inputs and the court's coordinate frame.

Deliberately naive (one Stroke and one coordinate tuple at a time) so they
can serve as oracles for Forecaster.rally_inputs, which reads a rally's
columns, and for CourtSpec.normalize / denormalize, which map whole arrays.
"""

import numpy as np

from rallycast.court import Player
from rallycast.network import StrokeInputs


def normalize_coord(p, court):
    cx, cy = court.width_m / 2, court.length_m / 2
    return (p[0] - cx) / cx, (p[1] - cy) / cy


def denormalize_coord(p, court):
    cx, cy = court.width_m / 2, court.length_m / 2
    return p[0] * cx + cx, p[1] * cy + cy


def mirror_coord(p, court):
    """Reflect a point through the court center (flips which half it is in)."""
    return court.width_m - p[0], court.length_m - p[1]


def stroke_inputs(strokes, player_ids, court):
    """Arrays of one stroke sequence; player_ids gives each stroke's row of the player table."""
    if not strokes:
        raise ValueError("a history needs at least one stroke")
    ids = np.asarray(player_ids, dtype=np.int64)
    if ids.shape != (len(strokes),):
        raise ValueError("player_ids must align with strokes")
    return StrokeInputs(
        type_ids=np.array([s.shot_type for s in strokes], dtype=np.int64),
        player_ids=ids,
        hit_by_a=np.array([s.player is Player.A for s in strokes], dtype=bool),
        landings=np.array([normalize_coord(s.landing, court) for s in strokes]),
        locations=np.array([normalize_coord(s.player_location, court) for s in strokes]),
    )


def rally_stroke_inputs(model, rally, n):
    """The oracle's inputs of the rally's first n strokes, each hitter looked up in the model's player index."""
    strokes = rally.strokes[:n]
    ids = [model.player_id(rally.player_a if s.player is Player.A else rally.player_b) for s in strokes]
    return stroke_inputs(strokes, ids, model.court)
