"""Optimization: the paper's Adam, at a fixed learning rate, and early
stopping."""

from .optimizer import Optimizer
from .adam import Adam
from .early_stopping import EarlyStopping

__all__ = ["Optimizer", "Adam", "EarlyStopping"]
