"""Limit-state abstraction shared by all estimators, plus analytic test models.

Failure is the event G <= 0 throughout; `is_failure` is the single predicate
every indicator call site goes through, and `mesh_size` the one level rule.
Both PDE models expand their random field in the paper's KL_TRUNCATION = 150
modes, from which `checked_level_dims` takes their per-level dimensions.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

import numpy as np
from scipy import special

from .errors import ModelEvaluationError

KL_TRUNCATION = 150


def _mode_product(xis: np.ndarray, modes_t: np.ndarray) -> np.ndarray:
    """xis @ modes_t[:n] for an (m, n) batch in whole blocks of 16 rows, zero-padded.

    Only the last partial block is copied: OpenBLAS rounds edge rows apart, and
    with C-ordered modes a row then has the same bits in any batch.
    """
    m, n = xis.shape
    full = m - m % 16
    out = np.empty((full + 16 * (full < m), modes_t.shape[1]))
    tail = np.zeros((len(out) - full, n))
    tail[:m - full] = xis[full:]
    np.matmul(xis[:full], modes_t[:n], out=out[:full])
    np.matmul(tail, modes_t[:n], out=out[full:])
    return out


def mesh_size(level: int) -> float:
    """h_l = 2^(-l-1): an evaluation at level l costs (h_L / h_l)^cost_dim finest solves."""
    return 2.0 ** (-(level + 1))


def checked_level_dims(level_dims, max_level: int, default) -> tuple[int, ...]:
    """KL dimensions per level, `default[:max_level]` when `level_dims` is None.

    There must be at least one level and one dimension per level, the finest
    at most KL_TRUNCATION; `LimitStateModel` checks that they do not decrease.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    dims = tuple(int(d) for d in (default[:int(max_level)] if level_dims is None else level_dims))
    if len(dims) != max_level:
        raise ValueError("need one dimension per level")
    if dims[-1] > KL_TRUNCATION:
        raise ValueError("finest level dimension exceeds KL truncation")
    return dims


def is_failure(g):
    """Failure indicator for limit-state values (G <= 0, boundary included)."""
    return np.asarray(g) <= 0.0


class EvalCounter:
    """Thread-safe per-level tally of limit-state evaluations."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[int, int] = {}

    def add(self, level: int, count: int = 1) -> None:
        if count < 0:
            raise ValueError("counts only increase")
        with self._lock:
            self._counts[level] = self._counts.get(level, 0) + count

    def counts(self) -> dict[int, int]:
        with self._lock:
            return dict(self._counts)

    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def since(self, before: dict[int, int]) -> dict[int, int]:
        """Per-level counts added after `before` was taken by `counts()`."""
        now = self.counts()
        return {lvl: now[lvl] - before.get(lvl, 0) for lvl in sorted(now)}


class LimitStateModel(ABC):
    """A hierarchy of limit-state approximations G_l on growing input spaces.

    A model passes its per-level input dimensions (non-decreasing, the last
    the full input dimension) and its cost dimension to this constructor and
    implements only `_evaluate_batch`.  Evaluations are tallied in `counter`
    at the level they were requested.

    The batch contract: values are finite, or the call raises
    `ModelEvaluationError` and tallies nothing (in 1D, 1/a overflows where a
    underflows, and a NaN input stays NaN).  A row's value is the same bits in
    any batch.  So `evaluate_distinct`, which solves only a batch's distinct
    rows and scatters their values back, returns exactly `evaluate_batch`'s.
    """

    mesh_size = staticmethod(mesh_size)

    def __init__(self, level_dims, cost_dim: int):
        dims = tuple(int(d) for d in level_dims)
        if not dims or dims[0] < 1:
            raise ValueError("need at least one level, of dimension >= 1")
        if any(d2 < d1 for d1, d2 in zip(dims, dims[1:])):
            raise ValueError("level dimensions must be non-decreasing")
        self.level_dims = dims
        self.max_level = len(dims)
        self.cost_dim = int(cost_dim)
        self.counter = EvalCounter()

    def dim(self, level: int) -> int:
        if not (1 <= level <= self.max_level):
            raise ValueError(f"level {level} outside 1..{self.max_level}")
        return self.level_dims[level - 1]

    @abstractmethod
    def _evaluate_batch(self, xis: np.ndarray, level: int) -> np.ndarray:
        """Limit-state values of an (m, dim(level)) batch, one per row."""

    def _tallied(self, xis, level: int, tally_level: int) -> np.ndarray:
        """Checked values of a batch at `level`, tallied at `tally_level`."""
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        if xis.shape[-1] != self.dim(level):
            raise ValueError(f"level {level} expects dimension {self.dim(level)}, "
                             f"got {xis.shape[-1]}")
        out = self._evaluate_batch(xis, level)
        if not np.all(np.isfinite(out)):
            raise ModelEvaluationError(f"non-finite limit-state value at level {level}")
        self.counter.add(tally_level, xis.shape[0])
        return out

    def evaluate(self, xi, level: int) -> float:
        """One evaluation: a batch of one."""
        return float(self.evaluate_batch(np.asarray(xi, dtype=float)[None], level)[0])

    def evaluate_batch(self, xis, level: int) -> np.ndarray:
        """Evaluate a (m, n_level) batch; counts m evaluations at `level`."""
        return self._tallied(xis, level, level)

    def evaluate_distinct(self, xis, level: int) -> np.ndarray:
        """`evaluate_batch` of the bytewise-distinct rows, scattered back to all m.

        Rows compare as 8-byte words, so 0.0 and -0.0 stay apart.  They are
        keyed on their last word, which an extension draws afresh, and on the
        whole row only when two unequal rows share it.
        """
        xis = np.ascontiguousarray(np.atleast_2d(xis), dtype=float)
        words = xis.view(np.uint64)
        _, first, inverse = np.unique(words[:, -1], return_index=True, return_inverse=True)
        if not np.array_equal(words[first[inverse]], words):
            rows = words.view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]
            _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        if len(first) == len(xis):
            return self.evaluate_batch(xis, level)
        return self.evaluate_batch(xis[first], level)[inverse]


class LinearLsfModel(LimitStateModel):
    """G(u) = beta - u_1: single level, exact failure probability Phi(-beta)."""

    def __init__(self, beta: float, n: int):
        super().__init__((n,), cost_dim=1)
        self.beta = float(beta)
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")

    def exact_probability(self) -> float:
        return float(special.ndtr(-self.beta))

    def _evaluate_batch(self, xis, level):
        return self.beta - xis[:, 0]


class ConstantModel(LimitStateModel):
    """G identically equal to a constant, on any number of levels."""

    def __init__(self, value: float, n: int = 2, max_level: int = 1):
        super().__init__((n,) * max_level, cost_dim=1)
        self.value = float(value)

    def _evaluate_batch(self, xis, level):
        return np.full(xis.shape[0], self.value)


class PinnedLevelModel(LimitStateModel):
    """Single-level view of one discretization level of a multilevel model.

    Evaluations are forwarded (and tallied) at the pinned level of the base
    model, so cost accounting stays comparable across single- and multi-level
    runs.
    """

    def __init__(self, base: LimitStateModel, level: int):
        super().__init__((base.dim(level),), base.cost_dim)
        self.base = base
        self.level = int(level)
        self.counter = base.counter

    def _evaluate_batch(self, xis, level):
        return self.base._evaluate_batch(xis, self.level)

    def evaluate_batch(self, xis, level: int = 1) -> np.ndarray:
        """Tallied at the pinned level of the base model, not at level 1."""
        return self._tallied(xis, level, self.level)


def mc_estimate(model: LimitStateModel, level: int, n_samples: int,
                rng: np.random.Generator) -> float:
    """Plain Monte Carlo failure fraction at one discretization level."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    dim = model.dim(level)
    failures = 0
    chunk = 20000  # bound memory for large sample counts
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        u = rng.standard_normal((m, dim))
        g = model.evaluate_batch(u, level)
        failures += int(np.count_nonzero(is_failure(g)))
        remaining -= m
    return failures / n_samples
