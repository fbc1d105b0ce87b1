"""Early stopping — the paper's convergence criterion for prolongation
phases of multigrid training ("trained until the loss plateaus").
"""

from __future__ import annotations

import math

__all__ = ["EarlyStopping"]


class EarlyStopping:
    """Stop when the monitored loss fails to improve for ``patience`` epochs.

    Parameters
    ----------
    patience:
        Number of consecutive non-improving epochs tolerated.
    min_delta:
        Relative improvement below which an epoch counts as non-improving.
    min_epochs:
        Never stop before this many observations.
    """

    def __init__(self, patience: int = 10, min_delta: float = 1e-3,
                 min_epochs: int = 0) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.min_epochs = min_epochs
        self.best = math.inf
        self.best_epoch = -1
        self.count = 0
        self.epoch = 0
        self.stopped = False

    def update(self, loss: float) -> bool:
        """Record one epoch's loss; return True when training should stop."""
        self.epoch += 1
        threshold = self.best * (1.0 - self.min_delta) if math.isfinite(self.best) else math.inf
        if loss < threshold:
            self.best = loss
            self.best_epoch = self.epoch
            self.count = 0
        else:
            self.count += 1
        if self.epoch >= self.min_epochs and self.count >= self.patience:
            self.stopped = True
        return self.stopped
