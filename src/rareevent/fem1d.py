"""Linear FEM for the 1D stochastic diffusion problem and its limit state.

-(a v')' = 1 on [0,1] with v(0) = 0 and a zero-flux condition at x = 1.
The coefficient is sampled at element midpoints, which keeps the nodal
solution exact for constant coefficients and is the cheapest stable rule when
coarse meshes under-resolve the short correlation length.

The linear FEM solve is done in closed form.  Summing the stiffness rows from
node k to the free end leaves one equation per element: the discrete flux
a_e (v_{e+1} - v_e) / h equals the load to the element's right, 1 - x_mid,e.
So the nodal values are a cumulative sum of h (1 - x_mid,e) / a_e, which is
also the exact solution for the elementwise-constant coefficient;
`solve_diffusion_1d` returns them.

The limit state reads only v(1) = sum_e h (1 - x_mid,e) / a_e, and
1/a_e = exp(-mu - sqrt(zeta2) (Theta sqrt(nu) xi)_e) for the log-normal field,
where mu, zeta2 = lognormal_params(MEAN_A, STD_A) and (Theta, nu) is the
standard field's KL basis.  `_level_form` folds the mean, the field scale and
the division into two per-level constants, the scaled modes
S = -sqrt(zeta2) Theta sqrt(nu) and the weights w = h (1 - x_mid) exp(-mu), so
v(1) = exp(xi S^T) w.  A batch runs in chunks of _CHUNK_ROWS rows, whole 16-row
blocks, each one padded mode product, one in-place `exp` on its real rows and
one GEMV on the padded block, so a row has the same bits in any batch and the
table of a level-8 call takes at most 4 MB, whatever its batch size.

The problem is the paper's: a log-normal coefficient with mean MEAN_A = 1 and
standard deviation STD_A = 0.1, exponential covariance with correlation length
CORR_LENGTH = 0.01 in KL_TRUNCATION = 150 KL modes, and failure once v(1)
exceeds THRESHOLD = 0.535.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelEvaluationError
from .models import KL_TRUNCATION, LimitStateModel, _mode_product, checked_level_dims
from .randomfield import kl_basis_1d, lognormal_params

DEFAULT_LEVEL_DIMS = (10, 20, 40, 80, 150, 150, 150, 150)
THRESHOLD = 0.535
CORR_LENGTH = 0.01
MEAN_A, STD_A = 1.0, 0.1

# Rows per `_evaluate_batch` chunk.  At 256 rows (1 MB at level 8) no freed block
# raises glibc's trim threshold above the estimators' multi-MB temporaries, and a
# 1D MLSIS repetition faults about 25,000 pages instead of 400 (+6% time).
_CHUNK_ROWS = 1024


def solve_diffusion_1d(a, h: float) -> np.ndarray:
    """Nodal FEM solution for one coefficient sample.

    `a` is either a callable evaluated at element midpoints or an array of
    midpoint values (one per element).  Returns all 1/h + 1 nodal values,
    including the pinned v(0) = 0.
    """
    m = round(1.0 / h)
    if abs(m * h - 1.0) > 1e-12:
        raise ValueError("1/h must be an integer")
    x_mid = (np.arange(m) + 0.5) * h
    a_mid = np.asarray(a(x_mid) if callable(a) else a, dtype=float)
    if a_mid.shape != (m,):
        raise ValueError(f"expected {m} element coefficients, got {a_mid.shape}")
    if not np.all(a_mid > 0):
        raise ModelEvaluationError("coefficient field must be positive")
    return np.concatenate([[0.0], np.cumsum(h * (1.0 - x_mid) / a_mid)])


class Diffusion1dModel(LimitStateModel):
    """Endpoint-exceedance limit state THRESHOLD - v(1) for the 1D diffusion problem.

    Level l uses the mesh of width `mesh_size(l)` and, by default, the KL dims
    of DEFAULT_LEVEL_DIMS; where a underflows, v(1) is not finite and is rejected.
    """

    threshold = THRESHOLD

    def __init__(self, max_level: int = len(DEFAULT_LEVEL_DIMS), level_dims=None):
        super().__init__(checked_level_dims(level_dims, max_level, DEFAULT_LEVEL_DIMS),
                         cost_dim=1)
        self.basis = kl_basis_1d(CORR_LENGTH, KL_TRUNCATION)
        # (scaled modes S_l^T, weights w_l) per level, see the module docstring
        self._level_forms: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _level_form(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        if level not in self._level_forms:
            h = self.mesh_size(level)
            m = round(1.0 / h)
            x_mid = (np.arange(m) + 0.5) * h
            theta = self.basis.eigenfunction_matrix(x_mid)
            mu, zeta2 = lognormal_params(MEAN_A, STD_A)
            scale = -np.sqrt(zeta2) * np.sqrt(self.basis.eigenvalues)
            weights = h * (1.0 - x_mid) * np.exp(-mu)
            self._level_forms[level] = (np.ascontiguousarray((theta * scale).T), weights)
        return self._level_forms[level]

    def _evaluate_batch(self, xis, level):
        modes_t, weights = self._level_form(level)
        g = np.empty(len(xis))
        for start in range(0, len(xis), _CHUNK_ROWS):
            part = xis[start:start + _CHUNK_ROWS]
            z = _mode_product(part, modes_t)
            np.exp(z[:len(part)], out=z[:len(part)])  # exp(mu) / a; the padding stays 0
            g[start:start + len(part)] = self.threshold - (z @ weights)[:len(part)]
        return g
