"""Limit-state models that only the tests use."""

import numpy as np

from rareevent.models import LimitStateModel


class ConstantModel(LimitStateModel):
    """G identically equal to a constant, on any number of levels."""

    def __init__(self, value: float, n: int = 2, max_level: int = 1):
        super().__init__((n,) * max_level, cost_dim=1)
        self.value = float(value)

    def _evaluate_batch(self, xis, level):
        return np.full(xis.shape[0], self.value)
