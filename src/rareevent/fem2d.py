"""Darcy flow cell on uniform triangles: RT0 velocity, particle tracking, travel-time LSF.

The unit square is meshed with m x m cells of size h, each cut along the
SW-NE diagonal.  The discretisation is the lowest-order Raviart-Thomas mixed
method (one normal-flux DOF per edge, piecewise-constant pressure) with
pressure 1 on the west boundary, 0 on the east and no flow through the
horizontal boundaries.

Its velocity is divergence-free, and on the simply connected square such an
RT0 field is exactly curl psi for a continuous piecewise-linear stream
function psi (the discrete de Rham complex).  So the same discrete field is
computed from an SPD P1 problem instead of the indefinite saddle point: psi
is 0 on the bottom row, the top row shares one value (the total flux), the
stiffness has coefficient 1/a per triangle and the load is one on the top
value.  Edge fluxes are psi differences, so the divergence and the no-flow
fluxes vanish by construction, and the pressures follow exactly from the
flux rows of the mixed system.  Numbering the vertex rows bottom to top, top
value last, keeps the matrix banded for LAPACK's banded Cholesky, with m + 1
superdiagonals: the P1 coupling across each triangle's SW-NE diagonal is
zero, so the band is the 5-point stencil's, whose farthest neighbours (the
vertex above, and the top value from the first vertex below it) sit m + 1
rows away.  Those
solves run with OpenBLAS set to one thread for the whole process, and the
caller's thread counts come back when they end: threading only slows the
small level-2 BLAS calls the banded Cholesky makes, and the bits are the same.

The flow cell is the paper's: the log-permeability is a standard Gaussian
field with exponential covariance of correlation length CORR_LENGTH = 0.5 in
KL_TRUNCATION = 150 KL modes, and particles are released at START = (0, 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpbsv

from ._blas import single_blas_thread
from .errors import ModelEvaluationError, NonconvergenceError, StagnationError
from .models import KL_TRUNCATION, LimitStateModel, checked_level_dims
from .randomfield import kl_basis_2d

DEFAULT_LEVEL_DIMS_2D = (10, 20, 40, 80, 150, 150)
CORR_LENGTH = 0.5
START = (0.0, 0.5)

# Tracker step cap per mesh cell.  Every Euler step moves the particle h/2,
# and an exit path crosses each of the 2 m^2 triangles at most once, so it
# needs fewer than 6 m^2 steps.
STEPS_PER_CELL = 16

# Triangle values (samples x triangles) one `travel_time` call holds at once.
_CHUNK_VALUES = 1 << 20


@dataclass(frozen=True)
class FlowMesh:
    """Uniform triangulation of the unit square with RT0 edge bookkeeping.

    Triangle 2 (j m + i) is the lower and 2 (j m + i) + 1 the upper half of
    cell (i, j); `offsets` holds, per half, the centroid minus the vertex
    opposite each local edge.
    """

    h: float
    m: int                      # cells per side
    n_edges: int
    tri_edges: np.ndarray       # (n_tri, 3) edge ids
    tri_signs: np.ndarray       # (n_tri, 3) +-1: global normal vs outward normal
    offsets: np.ndarray         # (2, 3, 2) centroid minus opposite vertex, lower/upper
    centroids: np.ndarray       # (n_tri, 2)

    @property
    def n_tri(self) -> int:
        return 2 * self.m * self.m

    @property
    def area(self) -> float:
        return 0.5 * self.h * self.h

    def locate(self, points):
        """Triangles containing the (..., 2) points; ties on the diagonal go to the lower triangle."""
        s = np.asarray(points) / self.h
        ij = np.minimum(np.maximum(s.astype(int), 0), self.m - 1)
        frac = s - ij                                      # position within the cell
        return ij @ (2, 2 * self.m) + (frac[..., 1] > frac[..., 0])  # 2 (j m + i) + upper


@lru_cache(maxsize=None)
def build_mesh(m: int) -> FlowMesh:
    h = 1.0 / m
    n_h = m * (m + 1)           # horizontal edges H(i,j): j*m + i
    n_v = (m + 1) * m           # vertical edges V(i,j): n_h + j*(m+1) + i
    n_d = m * m                 # diagonal edges D(i,j): n_h + n_v + j*m + i

    jj, ii = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    i = ii.ravel()
    j = jj.ravel()
    eh = j * m + i
    ev = n_h + j * (m + 1) + i
    ed = n_h + n_v + j * m + i
    tri_edges = np.empty((m * m, 2, 3), dtype=int)
    # lower triangle (i,j)-(i+1,j)-(i+1,j+1): edges H(i,j), V(i+1,j), D(i,j)
    tri_edges[:, 0] = np.stack([eh, ev + 1, ed], axis=-1)
    # upper triangle (i,j)-(i+1,j+1)-(i,j+1): edges D(i,j), H(i,j+1), V(i,j)
    tri_edges[:, 1] = np.stack([ed, eh + m, ev], axis=-1)
    tri_signs = np.broadcast_to(np.array([[-1, 1, -1], [1, 1, -1]]), tri_edges.shape)

    corner = h * np.stack([i, j], axis=-1)
    centroids = np.stack([corner + [2 * h / 3, h / 3], corner + [h / 3, 2 * h / 3]], axis=1)
    # opposite vertices: lower C, A, B = (h,h), (0,0), (h,0); upper C, A, B = (0,h), (0,0), (h,h)
    opposite = h * np.array([[[1, 1], [0, 0], [1, 0]], [[0, 1], [0, 0], [1, 1]]])
    offsets = centroids[0][:, None, :] - opposite
    return FlowMesh(
        h=h, m=m, n_edges=n_h + n_v + n_d,
        tri_edges=tri_edges.reshape(-1, 3), tri_signs=tri_signs.reshape(-1, 3).copy(),
        offsets=offsets, centroids=centroids.reshape(-1, 2),
    )


class _StreamFunctionSolver:
    """Banded SPD stream-function system of one mesh; only 1/a changes per sample."""

    def __init__(self, mesh: FlowMesh):
        m = mesh.m
        self.mesh = mesh
        self.n = m * m                  # (m - 1) rows of m + 1 vertices, plus the top row
        self.kd = m + 1                 # superdiagonals: the vertex above is m + 1 rows on
        dof = np.empty((m + 1, m + 1), dtype=int)                  # [j, i]
        dof[0] = -1                                                # psi = 0, eliminated
        dof[1:m] = np.arange((m - 1) * (m + 1)).reshape(m - 1, m + 1)
        dof[m] = self.n - 1
        jj, ii = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        lower = np.stack([dof[jj, ii], dof[jj, ii + 1], dof[jj + 1, ii + 1]], axis=-1)
        upper = np.stack([dof[jj, ii], dof[jj + 1, ii + 1], dof[jj + 1, ii]], axis=-1)
        tri_dof = np.stack([lower, upper], axis=2).reshape(-1, 3)  # triangle order
        # P1 stiffness of the lower (a, b, c) and upper (a, c, d) halves, unit
        # coefficient; the right angle is at b and d respectively, so the SW-NE
        # coupling a-c, m + 2 rows apart in the interior, is zero in both
        k_loc = np.tile(0.5 * np.array([[[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
                                        [[1, 0, -1], [0, 1, -1], [-1, -1, 2]]]), (m * m, 1, 1))
        rows = tri_dof[:, :, None].repeat(3, axis=2)
        cols = tri_dof[:, None, :].repeat(3, axis=1)
        # upper band of the symmetric matrix without the zero a-c couplings,
        # which would fall outside it; two top-row vertices of one triangle
        # both land on the top value's diagonal
        keep = (rows >= 0) & (rows <= cols) & (k_loc != 0)
        # band entry (r, c) sits at [kd + r - c, c] of the (kd + 1, n) Fortran
        # array LAPACK reads, i.e. at c (kd + 1) + kd + r - c of its memory
        self._band_index = (cols * (self.kd + 1) + self.kd + rows - cols)[keep]
        self._band_tri = np.nonzero(keep)[0]
        self._band_stiffness = k_loc[keep]

    def stream_functions(self, a_batch: np.ndarray) -> np.ndarray:
        """Vertex values psi[s, j, i] for a (samples, n_tri) batch of permeabilities.

        The solves run with every loaded OpenBLAS on one thread, a setting of
        the whole process that holds for the loop and is then restored: below
        32 superdiagonals LAPACK's banded Cholesky makes two tiny level-2 BLAS
        calls per column, and a second thread only adds a wake-up to each.
        """
        if np.any(a_batch <= 0) or not np.all(np.isfinite(a_batch)):
            raise ModelEvaluationError("permeability must be positive and finite")
        m = self.mesh.m
        sols = np.zeros((a_batch.shape[0], self.n))
        sols[:, -1] = 1.0                       # the load: one on the top value
        size = self.n * (self.kd + 1)
        with single_blas_thread():
            for a, sol in zip(a_batch, sols):
                weights = self._band_stiffness / a[self._band_tri]
                band = np.bincount(self._band_index, weights=weights, minlength=size)
                # a contiguous row with overwrite_b: the solution replaces the load in place
                info = dpbsv(band.reshape(self.n, self.kd + 1).T, sol,
                             overwrite_ab=1, overwrite_b=1)[2]
                if info != 0:  # pragma: no cover - SPD for every positive finite field
                    raise ModelEvaluationError(f"banded Cholesky failed (info={info})")
        psi = np.zeros((a_batch.shape[0], m + 1, m + 1))
        psi[:, 1:m] = sols[:, :-1].reshape(-1, m - 1, m + 1)
        psi[:, m] = sols[:, -1:]
        return psi

    def velocities(self, psi: np.ndarray) -> np.ndarray:
        """Constant per-triangle velocities curl psi, shape (samples, n_tri, 2)."""
        h = self.mesh.h
        a, b = psi[:, :-1, :-1], psi[:, :-1, 1:]       # vertices (i, j), (i+1, j)
        c, d = psi[:, 1:, 1:], psi[:, 1:, :-1]         # vertices (i+1, j+1), (i, j+1)
        # lower (a, b, c): psi_y = (c - b)/h, psi_x = (b - a)/h; upper (a, c, d):
        # psi_y = (d - a)/h, psi_x = (c - d)/h; velocity (psi_y, -psi_x)
        u = np.empty(a.shape + (2, 2))                 # (samples, j, i, half, xy)
        u[..., 0, 0] = (c - b) / h
        u[..., 0, 1] = (a - b) / h
        u[..., 1, 0] = (d - a) / h
        u[..., 1, 1] = (d - c) / h
        return u.reshape(psi.shape[0], -1, 2)

    def solve(self, a_tri: np.ndarray) -> "DiscreteVelocity":
        mesh = self.mesh
        m = mesh.m
        psi = self.stream_functions(a_tri[None])
        u = self.velocities(psi)[0]
        psi = psi[0]
        fluxes = np.concatenate([
            -(psi[:, 1:] - psi[:, :-1]).ravel(),       # H(i,j): normal (0, 1)
            (psi[1:] - psi[:-1]).ravel(),              # V(i,j): normal (1, 0)
            (psi[1:, 1:] - psi[:-1, :-1]).ravel(),     # D(i,j): normal (1, -1)/sqrt 2
        ])
        # flux rows of the mixed system: (M(a) u)_e - sum_T sign_Te p_T is 1 on
        # a west edge and 0 elsewhere.  u is constant per triangle, so the RT0
        # mass product of triangle T with basis function e is
        # sign_Te (u_T . offset_e) / (2 a_T).
        offsets = np.tile(mesh.offsets, (m * m, 1, 1))
        mass_u = mesh.tri_signs * np.einsum("tc,tec->te", u, offsets) / (2.0 * a_tri[:, None])
        mass_u = np.bincount(mesh.tri_edges.ravel(), weights=mass_u.ravel(),
                             minlength=mesh.n_edges)
        n_h = m * (m + 1)
        vertical = mass_u[n_h:2 * n_h].reshape(m, m + 1)[:, :m]
        diagonal = mass_u[2 * n_h:].reshape(m, m)
        # along a cell row, V(0,j), D(0,j), V(1,j), ... give upper(0,j), lower(0,j), upper(1,j), ...
        along = 1.0 - np.cumsum(np.stack([vertical, diagonal], axis=-1).reshape(m, 2 * m), axis=1)
        pressures = along.reshape(m, m, 2)[:, :, ::-1].ravel()
        return DiscreteVelocity(mesh=mesh, fluxes=fluxes, pressures=pressures)


@dataclass
class DiscreteVelocity:
    """RT0 velocity field: per-edge normal fluxes plus per-triangle pressures."""

    mesh: FlowMesh
    fluxes: np.ndarray
    pressures: np.ndarray

    def _signed(self) -> np.ndarray:
        return self.fluxes[self.mesh.tri_edges] * self.mesh.tri_signs

    def velocity_at(self, point) -> np.ndarray:
        point = np.array([float(point[0]), float(point[1])])
        mesh = self.mesh
        tri = mesh.locate(point)
        rel = point - mesh.centroids[tri] + mesh.offsets[tri % 2]
        return (self._signed()[tri] @ rel) / (2.0 * mesh.area)

    def triangle_velocities(self) -> np.ndarray:
        """Velocity at each centroid, shape (n_tri, 2); the whole field if divergence-free."""
        mesh = self.mesh
        offsets = np.tile(mesh.offsets, (mesh.m * mesh.m, 1, 1))
        return np.einsum("te,tec->tc", self._signed(), offsets) / (2.0 * mesh.area)

    def divergence(self) -> np.ndarray:
        """Constant per-triangle divergence (net outflux over area)."""
        return self._signed().sum(axis=1) / self.mesh.area

    def boundary_flux(self, side: str) -> float:
        """Net outward flux across the 'west' or 'east' boundary."""
        m = self.mesh.m
        n_h = m * (m + 1)
        if side == "west":
            ids = [n_h + j * (m + 1) + 0 for j in range(m)]
            orient = -1.0  # outward normal (-1, 0) vs global (1, 0)
        elif side == "east":
            ids = [n_h + j * (m + 1) + m for j in range(m)]
            orient = 1.0
        else:
            raise ValueError("side must be 'west' or 'east'")
        return float(orient * self.fluxes[ids].sum())


def solve_darcy_rt0(a, h: float) -> DiscreteVelocity:
    """Solve the mixed Darcy problem for one permeability sample.

    `a` is a callable on (n, 2) points or an array of per-triangle values at
    centroids.
    """
    m = round(1.0 / h)
    if abs(m * h - 1.0) > 1e-12:
        raise ValueError("1/h must be an integer")
    mesh = build_mesh(m)
    a_tri = np.asarray(a(mesh.centroids) if callable(a) else a, dtype=float)
    if a_tri.shape != (mesh.n_tri,):
        raise ValueError(f"expected {mesh.n_tri} triangle values, got {a_tri.shape}")
    return _StreamFunctionSolver(mesh).solve(a_tri)


def trace_particle(vel, start, h: float, max_steps: int | None = None):
    """Forward-Euler travel times from `start` to the first boundary crossing.

    `vel` is a `DiscreteVelocity`, for which the time is returned as a float,
    or a (samples, n_tri, 2) batch of per-triangle velocities, for which all
    particles advance in lockstep and an array of times is returned.  The
    velocity is read as one constant vector per triangle (the centroid value
    of a `DiscreteVelocity`), which is the whole field when it is
    divergence-free, as every flow-cell solution is.

    Step size is h / (2 ||q||); the final step is clipped to the exact exit
    point.  A crossing requires a strictly outward velocity component through
    the face, so a start on the boundary (or a path grazing a no-flow
    boundary tangentially) keeps moving instead of terminating at time zero.
    A particle still inside after `max_steps` steps (default STEPS_PER_CELL
    per mesh cell) raises NonconvergenceError; a zero velocity on any path
    raises StagnationError.
    """
    x0 = float(start[0])
    y0 = float(start[1])
    if not (0.0 <= x0 <= 1.0 and 0.0 <= y0 <= 1.0):
        raise ValueError("start point must lie in the closed unit square")
    single = isinstance(vel, DiscreteVelocity)
    u = vel.triangle_velocities()[None] if single else np.asarray(vel, dtype=float)
    m = math.isqrt(u.shape[1] // 2) if u.ndim == 3 else 0
    if u.ndim != 3 or u.shape[2] != 2 or m == 0 or 2 * m * m != u.shape[1]:
        raise ValueError("expected per-triangle velocities of shape (samples, 2 m^2, 2)")
    mesh = build_mesh(m)
    if max_steps is None:
        max_steps = STEPS_PER_CELL * m * m

    flat = u.reshape(-1, 2)                  # row s, triangle t at s n_tri + t
    times = np.empty(u.shape[0])
    moving = np.arange(u.shape[0])
    first = moving * u.shape[1]              # each moving particle's first row of `flat`
    p = np.tile([x0, y0], (moving.size, 1))  # positions, one row per moving particle
    time = np.zeros(moving.size)
    half_h = 0.5 * h                         # the distance of every step
    # a zero velocity makes an infinite step and NaN positions, which fail the
    # test for staying inside, so it is caught with the exits
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_steps):
            q = flat[first + mesh.locate(p)]
            speed = np.hypot(q[:, 0], q[:, 1])
            dt = half_h / speed
            new = p + dt[:, None] * q
            if 0.0 < new.min() and new.max() < 1.0:    # no particle reaches a face
                p = new
                time += dt
                continue
            if not speed.all():
                k = np.flatnonzero(speed == 0.0)[0]
                raise StagnationError(f"zero velocity at ({p[k, 0]:.6g}, {p[k, 1]:.6g})")
            # fraction of the step to the exit face, inf on an axis not crossed;
            # the face is 1 where `high` holds and 0 otherwise
            high = (q > 0) & (new >= 1.0)
            hit = high | ((q < 0) & (new <= 0.0))
            s = np.where(hit, (high - p) / (dt[:, None] * q), np.inf).min(axis=1)
            out = np.isfinite(s)
            times[moving[out]] = time[out] + np.minimum(np.maximum(s[out], 0.0), 1.0) * dt[out]
            stay = ~out
            moving, first, p, time = moving[stay], first[stay], new[stay], time[stay] + dt[stay]
            if moving.size == 0:
                return float(times[0]) if single else times
    raise NonconvergenceError(f"particle did not exit within {max_steps} steps")


class FlowCellModel(LimitStateModel):
    """Travel-time limit state tau - tau0 (0 < tau0 < inf) for the 2D Darcy flow cell."""

    start = START

    def __init__(self, tau0: float = 0.03, max_level: int = len(DEFAULT_LEVEL_DIMS_2D),
                 level_dims=None):
        if not (0 < tau0 < np.inf):
            raise ValueError("travel-time threshold must be positive and finite")
        super().__init__(checked_level_dims(level_dims, max_level, DEFAULT_LEVEL_DIMS_2D),
                         cost_dim=2)
        self.tau0 = float(tau0)
        self.basis = kl_basis_2d(CORR_LENGTH, KL_TRUNCATION)
        self._level_forms: dict[int, tuple[_StreamFunctionSolver, np.ndarray]] = {}

    def _level_form(self, level: int) -> tuple[_StreamFunctionSolver, np.ndarray]:
        if level not in self._level_forms:
            mesh = build_mesh(round(1.0 / self.mesh_size(level)))
            theta = self.basis.eigenfunction_matrix(mesh.centroids, self.basis.truncation)
            self._level_forms[level] = (_StreamFunctionSolver(mesh),
                                        theta * np.sqrt(self.basis.eigenvalues)[None, :])
        return self._level_forms[level]

    def permeability(self, xi, level: int) -> np.ndarray:
        """Per-triangle log-normal permeability for one coefficient vector."""
        xi = np.asarray(xi, dtype=float)
        return np.exp(self._level_form(level)[1][:, : xi.shape[0]] @ xi)

    def travel_time(self, xis, level: int) -> np.ndarray:
        """Travel times for an (m, n) batch of coefficient vectors, one per row.

        The permeabilities take one mat-vec per row: a batched mat-mul rounds
        differently from a mat-vec, and a sample's value must not depend on
        the batch it arrives in.
        """
        solver, modes = self._level_form(level)
        xis = np.asarray(xis, dtype=float)
        modes = modes[:, : xis.shape[1]]
        a = np.empty((xis.shape[0], modes.shape[0]))
        for xi, row in zip(xis, a):
            np.matmul(modes, xi, out=row)
        np.exp(a, out=a)
        u = solver.velocities(solver.stream_functions(a))
        return trace_particle(u, self.start, self.mesh_size(level))

    def _evaluate_batch(self, xis, level):
        chunk = max(1, _CHUNK_VALUES // self._level_form(level)[0].mesh.n_tri)
        times = np.empty(len(xis))
        for k in range(0, len(xis), chunk):
            times[k:k + chunk] = self.travel_time(xis[k:k + chunk], level)
        return times - self.tau0
