"""Standard-normal utilities and the von Mises-Fisher / Nakagami proposal family.

The vMFN family factorizes a point u in R^n into radius r = ||u|| and
direction a = u / r.  Directions follow a von Mises-Fisher law on the unit
sphere, radii an independent Nakagami law.  All densities here are expressed
with respect to Lebesgue measure on R^n (the polar Jacobian r^(n-1) is folded
in), so density ratios can be used directly in Metropolis-Hastings acceptance
probabilities together with the standard-normal prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateWeightsError, NonconvergenceError

S_SHAPE_MIN = 0.5
S_SHAPE_MAX = 1e6
CHI_MAX = 0.95
# Wood's envelope accepts about two thirds of its draws or more at every kappa
# and dimension, so a draw still pending after this many rounds (chance below
# 1e-45) means the acceptance test is broken, not unlucky.
VMF_REJECTION_ROUNDS = 100


def std_normal_log_cdf(x):
    """log Phi(x), stable far into the lower tail.

    Accepts scalars or arrays; raises ValueError on non-finite input.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("std_normal_log_cdf requires finite input")
    out = special.log_ndtr(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def std_normal_log_pdf(u):
    """log phi_n(u) for a vector, or row-wise for a matrix of samples."""
    arr = np.asarray(u, dtype=float)
    axis = -1 if arr.ndim > 0 else None
    n = arr.shape[-1] if arr.ndim > 0 else 1
    return -0.5 * np.sum(arr * arr, axis=axis) - 0.5 * n * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class VmfnParams:
    """Fitted vMFN parameters: mean direction, concentration, shape, spread."""

    nu: np.ndarray
    kappa: float
    s: float
    gamma: float

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "nu", nu)
        if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
            raise ValueError("mean direction nu must be a unit vector")
        if not (0.0 <= self.kappa < np.inf):
            raise ValueError("concentration kappa must be finite and >= 0")
        if not (self.s >= S_SHAPE_MIN):
            raise ValueError(f"shape s must be >= {S_SHAPE_MIN}")
        if not (self.gamma > 0.0):
            raise ValueError("spread gamma must be > 0")

    @property
    def dim(self) -> int:
        return self.nu.shape[0]


def _log_bessel_iv(order: float, x: float) -> float:
    """log I_order(x) without overflow (scaled Bessel) or underflow (series).

    scipy's exponentially scaled ive handles large arguments; it underflows to
    zero when x is tiny relative to a large order, where the ascending series
    (x/2)^v / Gamma(v+1) * sum_k (x^2/4)^k / (k! (v+1)_k) converges in a few
    terms.
    """
    if x < 0:
        raise ValueError("Bessel argument must be nonnegative")
    if x == 0.0:
        return 0.0 if order == 0 else -np.inf
    scaled = special.ive(order, x)
    if scaled > 0 and np.isfinite(scaled):
        return float(np.log(scaled) + x)
    t = 0.25 * x * x
    term, total = 1.0, 1.0
    k = 0
    while term > 1e-18 * total and k < 500:
        k += 1
        term *= t / (k * (order + k))
        total += term
    return order * np.log(0.5 * x) - float(special.gammaln(order + 1.0)) + np.log(total)


def _log_sphere_area(n: int) -> float:
    # surface area of the unit sphere S^{n-1}
    return np.log(2.0) + 0.5 * n * np.log(np.pi) - float(special.gammaln(0.5 * n))


def vmf_log_normalizer(n: int, kappa: float) -> float:
    """log of the vMF normalizing constant kappa^(n/2-1) / ((2 pi)^(n/2) I_(n/2-1)(kappa))."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if kappa == 0.0:
        return -_log_sphere_area(n)
    v = 0.5 * n - 1.0
    return v * np.log(kappa) - 0.5 * n * np.log(2.0 * np.pi) - _log_bessel_iv(v, kappa)


def _sample_vmf_cosines(kappa: float, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `size` cosines W = nu . a via Wood's beta-envelope rejection scheme."""
    d = n - 1
    b = d / (np.sqrt(4.0 * kappa * kappa + d * d) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + d * np.log(1.0 - x0 * x0)
    out = np.empty(size)
    filled = rounds = 0
    while filled < size:
        if rounds == VMF_REJECTION_ROUNDS:
            raise NonconvergenceError(
                f"vMF cosine sampler left {size - filled} of {size} draws rejected "
                f"after {rounds} rounds (kappa={kappa}, n={n})")
        rounds += 1
        m = size - filled
        z = rng.beta(0.5 * d, 0.5 * d, size=m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        accept = kappa * w + d * np.log1p(-x0 * w) - c >= np.log(rng.uniform(size=m))
        n_acc = int(np.count_nonzero(accept))
        out[filled:filled + n_acc] = w[accept]
        filled += n_acc
    return out


def _sample_scaled_vmf(nu: np.ndarray, kappa: float, r, rng: np.random.Generator,
                       out: np.ndarray) -> np.ndarray:
    """Write rows r * a, a ~ vMF(nu, kappa), into out, built in place from the
    normals z as r w nu + r sqrt(1 - w^2) z_perp / |z_perp|; return the
    cosines w = nu . a.

    z_perp = z - (z . nu) nu is formed explicitly: |z|^2 - (z . nu)^2 cancels.
    Wood's sampler needs no case of its own at kappa = 0: it accepts every
    draw there, and w = 1 - 2 Beta(d/2, d/2) is the cosine of a uniform direction.
    """
    m, n = out.shape
    if n == 1:
        # S^0 = {-1, +1}
        p_plus = 1.0 / (1.0 + np.exp(-2.0 * kappa * nu[0]))
        sign = np.where(rng.uniform(size=m) < p_plus, 1.0, -1.0)
        np.multiply(sign[:, None], np.reshape(r, (-1, 1)), out=out)
        return sign * nu[0]
    w = _sample_vmf_cosines(kappa, n, m, rng)
    rng.standard_normal(out=out)
    out -= np.multiply.outer(out @ nu, nu)
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    norms[norms == 0.0] = 1.0
    out *= (r * np.sqrt(np.clip(1.0 - w * w, 0.0, None)) / norms)[:, None]
    out += np.multiply.outer(r * w, nu)
    return w


def nakagami_log_density(r, s: float, gamma: float):
    """log density of the Nakagami radius law; -inf for r <= 0."""
    if not (s >= S_SHAPE_MIN):
        raise ValueError(f"shape s must be >= {S_SHAPE_MIN}")
    if not (gamma > 0):
        raise ValueError("spread gamma must be > 0")
    r_arr = np.asarray(r, dtype=float)
    const = np.log(2.0) + s * (np.log(s) - np.log(gamma)) - float(special.gammaln(s))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            r_arr > 0,
            const + (2.0 * s - 1.0) * np.log(np.where(r_arr > 0, r_arr, 1.0))
            - s * r_arr * r_arr / gamma,
            -np.inf,
        )
    return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out


def sample_nakagami(s: float, gamma: float, rng: np.random.Generator, size: int | None = None):
    """Draw radii with R^2 ~ Gamma(shape=s, scale=gamma/s)."""
    if not (s >= S_SHAPE_MIN):
        raise ValueError(f"shape s must be >= {S_SHAPE_MIN}")
    if not (gamma > 0):
        raise ValueError("spread gamma must be > 0")
    return np.sqrt(rng.gamma(shape=s, scale=gamma / s, size=size))


def vmfn_log_density_polar(r, w, params: VmfnParams) -> np.ndarray:
    """log vMFN density at the points of radius r and cosine w = nu . u / r.

    The one formula behind `vmfn_log_density`: Nakagami radius density, vMF
    direction density and the polar Jacobian r^(n-1).  A sampler that knows
    the radius and cosine of its draws scores them here in O(len(r));
    r = 0 has density zero.
    """
    ok = r > 0
    if not ok.all():
        out = np.full(r.shape, -np.inf)
        out[ok] = vmfn_log_density_polar(r[ok], w[ok], params)
        return out
    n = params.dim
    return (nakagami_log_density(r, params.s, params.gamma)
            + vmf_log_normalizer(n, params.kappa)
            + params.kappa * w
            - (n - 1) * np.log(r))


def vmfn_log_density(u, params: VmfnParams):
    """log density of the vMFN law on R^n (Lebesgue reference measure); -inf at u = 0."""
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    mat = u[None, :] if single else u
    if mat.shape[1] != params.dim:
        raise ValueError("dimension mismatch between u and params")
    r = np.sqrt(np.einsum("ij,ij->i", mat, mat))
    with np.errstate(divide="ignore", invalid="ignore"):   # r = 0 rows are not read
        w = (mat @ params.nu) / r
    out = vmfn_log_density_polar(r, w, params)
    return float(out[0]) if single else out


def draw_vmfn(params: VmfnParams, rng: np.random.Generator, out: np.ndarray):
    """Draw len(out) points u = r * a into the C-ordered rows of out.

    Returns their radii r and cosines w = nu . a, the polar coordinates
    `vmfn_log_density_polar` scores them by.
    """
    if out.shape[1] != params.dim:
        raise ValueError("dimension mismatch between out and params")
    r = sample_nakagami(params.s, params.gamma, rng, size=out.shape[0])
    w = _sample_scaled_vmf(params.nu, params.kappa, r, rng, out)
    return r, w


def sample_vmfn(params: VmfnParams, n: int, rng: np.random.Generator, size: int | None = None):
    """Draw u = r * a with independent Nakagami radius and vMF direction."""
    u = np.empty((1 if size is None else int(size), n))
    draw_vmfn(params, rng, u)
    return u[0] if size is None else u


def fit_vmfn(samples, weights) -> VmfnParams:
    """Weighted moment-matching fit of the vMFN parameters.

    The mean direction is the weighted resultant; the concentration uses the
    resultant-length approximation with chi capped at 0.95; the Nakagami
    spread/shape come from the weighted second and fourth radial moments.
    Zero-weight samples are ignored entirely.
    """
    u = np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    if u.ndim != 2 or u.shape[0] < 2:
        raise ValueError("need at least 2 samples of shape (N, n)")
    if w.shape != (u.shape[0],):
        raise ValueError("weights must be one per sample")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    active = w > 0
    if not active.all():
        u, w = u[active], w[active]
    w_sum = float(w.sum())
    if not (w_sum > 0) or not np.isfinite(w_sum):
        raise DegenerateWeightsError("total fitting weight is zero")
    r2 = np.einsum("ij,ij->i", u, u)
    r = np.sqrt(r2)
    if np.any(r == 0):
        raise ValueError("samples must be nonzero to define directions")
    n = u.shape[1]

    resultant = (w / r) @ u
    res_norm = float(np.linalg.norm(resultant))
    if res_norm > 0:
        nu = resultant / res_norm
    else:
        # perfectly balanced directions: any unit vector, kappa will be ~0
        nu = np.zeros(n)
        nu[0] = 1.0
    chi = min(res_norm / w_sum, CHI_MAX)
    kappa = (chi * n - chi**3) / (1.0 - chi * chi)

    gamma = float(w @ r2 / w_sum)
    nu4 = float(w @ (r2 * r2) / w_sum)
    excess = nu4 - gamma * gamma
    if excess <= 0:
        s = S_SHAPE_MAX
    else:
        s = min(max(gamma * gamma / excess, S_SHAPE_MIN), S_SHAPE_MAX)
    return VmfnParams(nu=nu, kappa=float(kappa), s=float(s), gamma=gamma)
