"""Stroke forecasting for turn-based racket rallies."""

__version__ = "0.1.0"
