"""Stroke forecasting for turn-based racket rallies."""

__version__ = "0.1.0"

from .court import CourtSpec, Player, Rally, ShotTypeVocab, Stroke, coord_to_zone, validate_rally
from .dataset import FilterPolicy, SynthConfig, filter_training, parse_dataset, split, synthesize_dataset, write_dataset
from .network import Forecaster, ModelConfig, forward_teacher_forced, init_params
from .scoring import GeneratedStroke, generate_suffix, sample_set_loss, score_min6
from .training import TrainConfig, eval_best_of_k, step_loss, train

__all__ = [
    "CourtSpec",
    "FilterPolicy",
    "Forecaster",
    "GeneratedStroke",
    "ModelConfig",
    "Player",
    "Rally",
    "ShotTypeVocab",
    "Stroke",
    "SynthConfig",
    "TrainConfig",
    "coord_to_zone",
    "eval_best_of_k",
    "filter_training",
    "forward_teacher_forced",
    "generate_suffix",
    "init_params",
    "parse_dataset",
    "sample_set_loss",
    "score_min6",
    "split",
    "step_loss",
    "synthesize_dataset",
    "train",
    "validate_rally",
    "write_dataset",
]
