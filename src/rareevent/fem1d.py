"""Linear FEM for the 1D stochastic diffusion problem and its limit state.

-(a v')' = 1 on [0,1] with v(0) = 0 and a zero-flux condition at x = 1.
The coefficient is sampled at element midpoints, which keeps the nodal
solution exact for constant coefficients and is the cheapest stable rule when
coarse meshes under-resolve the short correlation length.

The linear FEM solve is done in closed form.  Summing the stiffness rows from
node k to the free end leaves one equation per element: the discrete flux
a_e (v_{e+1} - v_e) / h equals the load to the element's right, 1 - x_mid,e.
So the nodal values are a cumulative sum of h (1 - x_mid,e) / a_e, which is
also the exact solution for the elementwise-constant coefficient.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelEvaluationError
from .models import LimitStateModel
from .randomfield import KlBasis, kl_basis_1d, lognormal_params

DEFAULT_LEVEL_DIMS = (10, 20, 40, 80, 150, 150, 150, 150)


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
    sol = _solve_from_midpoint_values(a_mid[None, :], h)
    return np.concatenate([[0.0], sol[0]])


def _solve_from_midpoint_values(a_mid: np.ndarray, h: float) -> np.ndarray:
    """Batch solve; a_mid is (batch, m), returns interior nodes (batch, m)."""
    if np.any(a_mid <= 0):
        raise ModelEvaluationError("coefficient field must be positive")
    x_mid = (np.arange(a_mid.shape[1]) + 0.5) * h
    return np.cumsum(h * (1.0 - x_mid) / a_mid, axis=1)


class Diffusion1dModel(LimitStateModel):
    """Endpoint-exceedance limit state 0.535 - v(1) for the 1D diffusion problem.

    Mesh sizes are h_l = 2^(-l-1) for levels 1..max_level; the log-normal
    coefficient field uses the correlation-length-0.01 KL basis and the
    level-dependent truncation dims by default.
    """

    def __init__(self, threshold: float = 0.535, corr_length: float = 0.01,
                 mean_a: float = 1.0, std_a: float = 0.1, truncation: int = 150,
                 max_level: int = 8, level_dims=None, basis: KlBasis | None = None):
        super().__init__()
        self.threshold = float(threshold)
        self.max_level = int(max_level)
        self.cost_dim = 1
        if basis is None:
            mu, zeta2 = lognormal_params(mean_a, std_a)
            basis = kl_basis_1d(corr_length, truncation, mean=mu, variance=zeta2)
        self.basis = basis
        if level_dims is None:
            level_dims = DEFAULT_LEVEL_DIMS[: self.max_level]
        self.level_dims = tuple(int(d) for d in level_dims)
        if len(self.level_dims) != self.max_level:
            raise ValueError("need one dimension per level")
        if any(d2 < d1 for d1, d2 in zip(self.level_dims, self.level_dims[1:])):
            raise ValueError("level dimensions must be non-decreasing")
        if self.level_dims[-1] > basis.truncation:
            raise ValueError("finest level dimension exceeds KL truncation")
        # sqrt(nu_m) theta_m at element midpoints, cached per level
        self._mode_matrices: dict[int, np.ndarray] = {}

    @classmethod
    def fixed_dimension(cls, **kwargs) -> "Diffusion1dModel":
        max_level = kwargs.get("max_level", 8)
        truncation = kwargs.get("truncation", 150)
        return cls(level_dims=(truncation,) * max_level, **kwargs)

    def mesh_size(self, level: int) -> float:
        return 2.0 ** (-(level + 1))

    def dim(self, level: int) -> int:
        return self.level_dims[level - 1]

    def _modes(self, level: int) -> np.ndarray:
        if level not in self._mode_matrices:
            h = self.mesh_size(level)
            m = round(1.0 / h)
            x_mid = (np.arange(m) + 0.5) * h
            theta = self.basis.eigenfunction_matrix(x_mid, self.basis.truncation)
            self._mode_matrices[level] = theta * np.sqrt(self.basis.eigenvalues)[None, :]
        return self._mode_matrices[level]

    def _coefficient(self, xis: np.ndarray, level: int) -> np.ndarray:
        modes = self._modes(level)[:, : xis.shape[1]]
        z = self.basis.mean + np.sqrt(self.basis.variance) * (xis @ modes.T)
        return np.exp(z)

    def _evaluate_batch(self, xis, level):
        a_mid = self._coefficient(xis, level)
        sol = _solve_from_midpoint_values(a_mid, self.mesh_size(level))
        return self.threshold - sol[:, -1]
