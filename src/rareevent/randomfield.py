"""Truncated Karhunen-Loeve bases for exponential-covariance Gaussian fields.

The 1D eigenpairs of the kernel exp(-|x-y|/corr_length) on [0,1] are the
classical closed-form cosine/sine families obtained by mapping the domain to
[-1/2, 1/2].  The 2D kernel exp(-||x-y||_1/corr_length) separates across
coordinates, so its eigenpairs are tensor products of the 1D ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._roots import _brent

_HALF = 0.5  # half-length of [0,1] mapped onto [-1/2, 1/2]


def lognormal_params(mean_a: float, std_a: float) -> tuple[float, float]:
    """Gaussian (mu, zeta^2) giving a log-normal field the target mean/std."""
    if not (mean_a > 0) or not (std_a > 0):
        raise ValueError("mean and standard deviation must be positive")
    zeta2 = np.log((std_a * std_a + mean_a * mean_a) / (mean_a * mean_a))
    mu = np.log(mean_a) - 0.5 * zeta2
    return float(mu), float(zeta2)


def _kl_roots_1d(c: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Transcendental frequencies of both families, merged by eigenvalue.

    Even family: c = w tan(w/2), one root per branch (2k pi, (2k+1) pi).
    Odd family:  w = -c tan(w/2), one root per branch ((2k-1) pi, 2k pi).
    Returns (omegas, is_even) for the `count` largest eigenvalues; since the
    eigenvalue 2c/(w^2+c^2) decreases in w, that means the smallest roots.
    `_brent` finds each root inside its branch, eps away from the poles.
    """
    eps = 1e-9
    even_f = lambda w: c - w * np.tan(w * _HALF)
    odd_f = lambda w: w + c * np.tan(w * _HALF)
    tol = dict(xtol=1e-13, rtol=4 * np.finfo(float).eps, maxiter=200)
    per_family = count // 2 + 2
    even_roots = [
        _brent(even_f, 2 * k * np.pi + eps, (2 * k + 1) * np.pi - eps, **tol)
        for k in range(per_family)
    ]
    odd_roots = [
        _brent(odd_f, (2 * k - 1) * np.pi + eps, 2 * k * np.pi - eps, **tol)
        for k in range(1, per_family + 1)
    ]
    omegas = np.array(even_roots + odd_roots)
    is_even = np.array([True] * len(even_roots) + [False] * len(odd_roots))
    order = np.argsort(omegas)
    return omegas[order][:count], is_even[order][:count]


@dataclass(frozen=True)
class KlBasis:
    """Ordered KL eigenpairs of the standard Gaussian field; models apply mean and scale."""

    domain_dim: int
    eigenvalues: np.ndarray
    _omegas: np.ndarray = field(repr=False)
    _is_even: np.ndarray = field(repr=False)
    _norms: np.ndarray = field(repr=False)
    # 2D bases index tensor products of the 1D eigenpairs
    _pair_idx: np.ndarray | None = field(default=None, repr=False)

    @property
    def truncation(self) -> int:
        return self.eigenvalues.shape[0]

    def eigenfunction_matrix(self, points, count: int | None = None) -> np.ndarray:
        """theta_m(x) for the first `count` modes at each point; (npts, count)."""
        m = self.truncation if count is None else int(count)
        if m > self.truncation:
            raise ValueError(f"requested {m} modes but basis holds {self.truncation}")
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if self.domain_dim == 1:
            if np.any(pts < 0) or np.any(pts > 1):
                raise ValueError("points must lie in [0, 1]")
            return self._theta_1d(pts, np.arange(m))
        pts = np.atleast_2d(pts)
        if pts.shape[1] != 2:
            raise ValueError("2D basis expects points of shape (npts, 2)")
        if np.any(pts < 0) or np.any(pts > 1):
            raise ValueError("points must lie in [0, 1]^2")
        # a mesh's points share few coordinates: take cos/sin once per distinct one
        idx = self._pair_idx[:m]
        xs, ix = np.unique(pts[:, 0], return_inverse=True)
        ys, iy = np.unique(pts[:, 1], return_inverse=True)
        return self._theta_1d(xs, idx[:, 0])[ix] * self._theta_1d(ys, idx[:, 1])[iy]

    def _theta_1d(self, x: np.ndarray, mode_idx: np.ndarray) -> np.ndarray:
        shifted = x[:, None] - _HALF
        phase = self._omegas[mode_idx][None, :] * shifted
        vals = np.where(self._is_even[mode_idx][None, :], np.cos(phase), np.sin(phase))
        return vals / self._norms[mode_idx][None, :]


def kl_basis_1d(corr_length: float, truncation: int) -> KlBasis:
    """KL basis of exp(-|x-y|/corr_length) on [0,1], largest `truncation` modes."""
    if corr_length <= 0:
        raise ValueError("correlation length must be positive")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    c = 1.0 / corr_length
    omegas, is_even = _kl_roots_1d(c, truncation)
    eigenvalues = 2.0 * c / (omegas**2 + c * c)
    half_sin = np.sin(omegas) / (2.0 * omegas)  # sin(2 w a) / (2 w) with a = 1/2
    norms = np.sqrt(np.where(is_even, _HALF + half_sin, _HALF - half_sin))
    return KlBasis(
        domain_dim=1,
        eigenvalues=eigenvalues,
        _omegas=omegas,
        _is_even=is_even,
        _norms=norms,
    )


def kl_basis_2d(corr_length: float, truncation: int) -> KlBasis:
    """Tensor-product KL basis of exp(-||x-y||_1/corr_length) on [0,1]^2.

    The `truncation` largest products nu_i * nu_j are kept; ties are broken
    lexicographically by (i, j) so the ordering is deterministic.
    """
    base = kl_basis_1d(corr_length, truncation)
    nu1 = base.eigenvalues
    products = nu1[:, None] * nu1[None, :]
    ii, jj = np.meshgrid(np.arange(truncation), np.arange(truncation), indexing="ij")
    flat = np.stack([products.ravel(), ii.ravel(), jj.ravel()], axis=1)
    # sort by descending eigenvalue, then ascending (i, j)
    order = np.lexsort((flat[:, 2], flat[:, 1], -flat[:, 0]))
    top = flat[order[:truncation]]
    return KlBasis(
        domain_dim=2,
        eigenvalues=top[:, 0].copy(),
        _omegas=base._omegas,
        _is_even=base._is_even,
        _norms=base._norms,
        _pair_idx=top[:, 1:].astype(int),
    )
