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
subdiagonals: the P1 coupling across each triangle's SW-NE diagonal is
zero, so the band is the 5-point stencil's, whose farthest neighbours (the
vertex above, and the top value from the first vertex below it) sit m + 1
rows away; it is stored lower, which LAPACK factors at unit stride.  Those
solves run with OpenBLAS set to one thread for the whole process, and the
caller's thread counts come back when they end: threading only slows the
small level-2 BLAS calls the banded Cholesky makes, and the bits are the same.
The LAPACK solver is imported at the first solve, so importing the package
or running another model never loads scipy.linalg.

Particles are tracked by forward Euler in one of two regimes that do the
same IEEE operations per particle, so a travel time has the same bits in
either.  A large batch runs in lockstep: each step is one pass of about 20
numpy calls over the particles still inside, reading curl psi only on the
triangles they cross, and costs about 17 us whatever the batch.  A small
one walks one particle at a time: numpy tables every triangle's step once,
at about 25 ns a triangle, and a float loop then takes a step in about
0.4 us.  The walk is the cheaper while its rows' steps and tables cost less
than the lockstep's fixed price per step: up to about 20 rows at m = 16 and
10 at m = 64, so batches of at most 16 rows and 512 rows x m walk.

The flow cell is the paper's: the log-permeability is a standard Gaussian
field with exponential covariance of correlation length CORR_LENGTH = 0.5 in
KL_TRUNCATION = 150 KL modes, and particles are released at START = (0, 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._blas import single_blas_thread
from .errors import ModelEvaluationError, NonconvergenceError, StagnationError
from .models import KL_TRUNCATION, LimitStateModel, _mode_product, checked_level_dims
from .randomfield import kl_basis_2d

DEFAULT_LEVEL_DIMS_2D = (10, 20, 40, 80, 150, 150)
CORR_LENGTH = 0.5
START = (0.0, 0.5)

# Tracker step cap per mesh cell.  Every Euler step moves the particle h/2,
# and an exit path crosses each of the 2 m^2 triangles at most once, so it
# needs fewer than 6 m^2 steps.
STEPS_PER_CELL = 16

# Largest batch that `trace_particle` tracks one particle at a time: at most
# _WALK_MAX_ROWS samples and _WALK_MAX_CELLS samples x m (cells per side), so
# 16 rows up to level 4 (m = 32), 8 at level 5 and 4 at level 6.  A lockstep
# step costs 14-17 us of numpy calls whatever the batch; a walk step costs
# about 0.4 us per particle, plus tables over the particle's 2 m^2 triangles
# (about 25 ns each) and 5 us for its exit.  Timed on one BLAS thread of a
# 2-vCPU Intel Xeon host, the walk is the faster up to about 17, 20, 22, 14,
# 10 and 5 rows at m = 4, 8, 16, 32, 64 and 128.
_WALK_MAX_ROWS = 16
_WALK_MAX_CELLS = 512

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
    curl_vertices: np.ndarray   # (n_tri, 2, 2) vertex pairs whose psi differences are h curl psi

    @property
    def n_tri(self) -> int:
        return 2 * self.m * self.m

    @property
    def area(self) -> float:
        return 0.5 * self.h * self.h


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
    # vertex (i, j) is psi entry j (m + 1) + i; the pairs of `curl`'s differences are
    # lower (c - b, a - b) and upper (d - a, d - c), with b, c, d at a + 1, m + 2, m + 1
    # from a = (i, j)
    corner = ((m + 1) * j + i)[:, None, None, None]
    curl_vertices = corner + [[[m + 2, 1], [0, 1]], [[m + 1, 0], [m + 1, m + 2]]]
    return FlowMesh(
        h=h, m=m, n_edges=n_h + n_v + n_d,
        tri_edges=tri_edges.reshape(-1, 3), tri_signs=tri_signs.reshape(-1, 3).copy(),
        offsets=offsets, centroids=centroids.reshape(-1, 2),
        curl_vertices=curl_vertices.reshape(-1, 2, 2),
    )


class _StreamFunctionSolver:
    """Banded SPD stream-function system of one mesh; only 1/a changes per sample."""

    def __init__(self, mesh: FlowMesh):
        m = mesh.m
        self.mesh = mesh
        self.n = m * m                  # (m - 1) rows of m + 1 vertices, plus the top row
        self.kd = m + 1                 # subdiagonals: the vertex above is m + 1 rows on
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
        # lower band of the symmetric matrix without the zero a-c couplings,
        # which would fall outside it; two top-row vertices of one triangle
        # both land on the top value's diagonal
        keep = (cols >= 0) & (rows >= cols) & (k_loc != 0)
        # band entry (r, c) sits at [r - c, c] of the (kd + 1, n) Fortran
        # array LAPACK reads, i.e. at c (kd + 1) + r - c of its memory
        self._band_index = (cols * (self.kd + 1) + rows - cols)[keep]
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
        from scipy.linalg.lapack import dpbsv  # loaded at the first solve, not at import
        with single_blas_thread():
            for a, sol in zip(a_batch, sols):
                weights = self._band_stiffness / a[self._band_tri]
                band = np.bincount(self._band_index, weights=weights, minlength=size)
                # a contiguous row with overwrite_b: the solution replaces the load in place
                info = dpbsv(band.reshape(self.n, self.kd + 1).T, sol, lower=1,
                             overwrite_ab=1, overwrite_b=1)[2]
                if info != 0:  # pragma: no cover - SPD for every positive finite field
                    raise ModelEvaluationError(f"banded Cholesky failed (info={info})")
        psi = np.zeros((a_batch.shape[0], m + 1, m + 1))
        psi[:, 1:m] = sols[:, :-1].reshape(-1, m - 1, m + 1)
        psi[:, m] = sols[:, -1:]
        return psi

    def solve(self, a_tri: np.ndarray) -> "DiscreteVelocity":
        mesh = self.mesh
        m = mesh.m
        psi = self.stream_functions(a_tri[None])
        u = curl(psi, mesh.h)[0]
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

    def triangle_velocities(self) -> np.ndarray:
        """Velocity at each centroid, shape (n_tri, 2); the whole field if divergence-free."""
        mesh = self.mesh
        offsets = np.tile(mesh.offsets, (mesh.m * mesh.m, 1, 1))
        return np.einsum("te,tec->tc", self._signed(), offsets) / (2.0 * mesh.area)

    def divergence(self) -> np.ndarray:
        """Constant per-triangle divergence (net outflux over area)."""
        return self._signed().sum(axis=1) / self.mesh.area


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


def curl(psi: np.ndarray, h: float) -> np.ndarray:
    """Constant per-triangle velocities curl psi, shape (samples, n_tri, 2), of
    stream functions psi[s, j, i] on cells of size h."""
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


@dataclass(frozen=True)
class StreamFunctionBatch:
    """Vertex stream functions psi[s, j, i] of a batch, whose velocities are curl psi."""

    psi: np.ndarray


def trace_particle(vel, start, h: float, max_steps: int | None = None):
    """Forward-Euler travel times from `start` to the first boundary crossing.

    `vel` is a `DiscreteVelocity`, for which the time is returned as a float,
    or a batch, for which an array of times is returned: (samples, n_tri, 2)
    per-triangle velocities, or a `StreamFunctionBatch`, whose velocities are
    curl psi.  The velocity is read as one constant vector per triangle (the
    centroid value of a `DiscreteVelocity`), which is the whole field when it
    is divergence-free, as every flow-cell solution is.

    Step size is h / (2 ||q||), where h must be the field's mesh size 1/m;
    the final step is clipped to the exact exit point.  A crossing requires a
    strictly outward velocity component through the face, so a start on the
    boundary (or a path grazing a no-flow boundary tangentially) keeps moving
    instead of terminating at time zero.
    A particle still inside after `max_steps` steps (default STEPS_PER_CELL
    per mesh cell) raises NonconvergenceError, a zero velocity on any path
    StagnationError and a non-finite one ModelEvaluationError; of several, the
    one met at the earliest step is raised.

    A batch of at most _WALK_MAX_ROWS samples and _WALK_MAX_CELLS samples x m
    is walked one particle at a time (`_walk`), a larger one runs in lockstep
    (`_lockstep`).  A lockstep step costs about 17 us of numpy calls whatever
    the batch, a walk step about 0.4 us per particle after tables of every
    triangle's step, so a small call walks.  Both do the same IEEE operations
    per particle, so the times and the error raised do not depend on the path.
    """
    x0 = float(start[0])
    y0 = float(start[1])
    if not (0.0 <= x0 <= 1.0 and 0.0 <= y0 <= 1.0):
        raise ValueError("start point must lie in the closed unit square")
    single = isinstance(vel, DiscreteVelocity)
    stream = isinstance(vel, StreamFunctionBatch)
    if stream:
        psi = np.asarray(vel.psi, dtype=float)
        m = psi.shape[2] - 1 if psi.ndim == 3 else 0
        if m < 1 or psi.shape[1] != m + 1:
            raise ValueError("expected stream functions of shape (samples, m + 1, m + 1)")
        n_samples, rows = psi.shape[0], (m + 1) ** 2
        flat = psi.reshape(-1)               # sample s, vertex (i, j) at s rows + j (m + 1) + i

        def velocity(first, tri):
            v = flat[first[:, None, None] + mesh.curl_vertices[tri]]
            return (v[..., 0] - v[..., 1]) / mesh.h
    else:
        u = vel.triangle_velocities()[None] if single else np.asarray(vel, dtype=float)
        m = math.isqrt(u.shape[1] // 2) if u.ndim == 3 else 0
        if u.ndim != 3 or u.shape[2] != 2 or m == 0 or 2 * m * m != u.shape[1]:
            raise ValueError("expected per-triangle velocities of shape (samples, 2 m^2, 2)")
        n_samples, rows = u.shape[:2]
        flat = u.reshape(-1, 2)              # row s, triangle t at s n_tri + t

        def velocity(first, tri):
            return flat[first + tri]
    if not abs(h * m - 1.0) <= 1e-12:
        raise ValueError(f"mesh size h={h} does not match the field's {m} x {m} mesh")
    mesh = build_mesh(m)
    if max_steps is None:
        max_steps = STEPS_PER_CELL * m * m
    # a zero or non-finite velocity makes an infinite or NaN step and NaN
    # positions, which fail the test for staying inside, so it is caught with
    # the exits
    with np.errstate(divide="ignore", invalid="ignore"):
        if n_samples <= min(_WALK_MAX_ROWS, _WALK_MAX_CELLS // m):
            times = _walk(curl(psi, mesh.h) if stream else u, x0, y0, mesh, 0.5 * h, max_steps)
        else:
            times = _lockstep(velocity, rows * np.arange(n_samples), x0, y0, mesh, 0.5 * h,
                              max_steps)
    return float(times[0]) if single else times


def _lockstep(velocity, first, x0, y0, mesh: FlowMesh, half_h: float, max_steps: int):
    """Travel times of all particles advanced together, one numpy pass per step.

    `velocity(first, tri)` reads the velocities on triangles `tri` of the
    particles whose rows start at entries `first` of the flat field.
    """
    times = np.empty(first.size)
    moving = np.arange(first.size)
    p = np.tile([x0, y0], (moving.size, 1))  # positions, one row per moving particle
    time = np.zeros(moving.size)
    weights = np.array([2, 2 * mesh.m])      # cell (i, j) holds triangles 2 (j m + i) + upper
    for _ in range(max_steps):
        s = p / mesh.h
        ij = np.minimum(s.astype(int), mesh.m - 1)     # positions are never negative
        frac = s - ij                                  # position within the cell
        q = velocity(first, ij @ weights + (frac[:, 1] > frac[:, 0]))
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
        finite = np.isfinite(q).all(axis=1)
        if not finite.all():
            k = np.flatnonzero(~finite)[0]
            raise ModelEvaluationError(f"non-finite velocity at ({p[k, 0]:.6g}, {p[k, 1]:.6g})")
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
            return times
    raise NonconvergenceError(f"particle did not exit within {max_steps} steps")


def _walk(q, x0, y0, mesh: FlowMesh, half_h: float, max_steps: int):
    """Travel times of the (samples, n_tri, 2) velocities `q`, one particle at a time.

    numpy builds each triangle's step (dx, dy) and duration dt with the
    lockstep's operations, and a float loop does its locate, step and bound
    test, so every time keeps the lockstep's bits.  The exit branch divides
    with numpy scalars, which give inf or NaN at a zero step as the lockstep
    does.  A failing particle's error is kept, and the lockstep's is raised:
    the earliest step's, stagnation before a non-finite velocity, then the
    lowest row's.
    """
    n_samples, n_tri = q.shape[:2]
    m, h = mesh.m, mesh.h
    last = m - 1
    dt = half_h / np.hypot(q[..., 0], q[..., 1])
    step = dt[..., None] * q
    # memoryviews index as Python floats without copying the tables
    qs, steps, dts = (memoryview(a.reshape(-1)) for a in (q, step, dt))
    times = np.empty(n_samples)
    failures = []                            # (step index, kind, row, error)
    for r in range(n_samples):
        x, y, time = x0, y0, 0.0
        base = r * n_tri
        for k in range(max_steps):
            sx = x / h
            sy = y / h
            i = int(sx)
            j = int(sy)
            if i > last:
                i = last
            if j > last:
                j = last
            t = base + 2 * (j * m + i) + (sy - j > sx - i)
            nx = x + steps[2 * t]
            ny = y + steps[2 * t + 1]
            if 0.0 < nx < 1.0 and 0.0 < ny < 1.0:
                x, y = nx, ny
                time += dts[t]
                continue
            qx, qy = qs[2 * t], qs[2 * t + 1]
            if qx == 0.0 and qy == 0.0:
                failures.append((k, 0, r, StagnationError(f"zero velocity at ({x:.6g}, {y:.6g})")))
                break
            if not (math.isfinite(qx) and math.isfinite(qy)):
                failures.append((k, 1, r, ModelEvaluationError(
                    f"non-finite velocity at ({x:.6g}, {y:.6g})")))
                break
            s = np.minimum(_face_fraction(x, qx, nx, steps[2 * t]),
                           _face_fraction(y, qy, ny, steps[2 * t + 1]))
            if np.isfinite(s):
                times[r] = time + np.minimum(np.maximum(s, 0.0), 1.0) * dts[t]
                break
            x, y = nx, ny
            time += dts[t]
        else:
            failures.append((max_steps, 2, r, NonconvergenceError(
                f"particle did not exit within {max_steps} steps")))
    if failures:
        raise min(failures, key=lambda f: f[:3])[3]
    return times


def _face_fraction(p, q, new, step):
    """The lockstep's fraction of a step to the face it crosses on one axis, inf if none."""
    if q > 0.0 and new >= 1.0:
        return np.divide(1.0 - p, step)
    if q < 0.0 and new <= 0.0:
        return np.divide(0.0 - p, step)
    return math.inf


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
            theta *= np.sqrt(self.basis.eigenvalues)
            self._level_forms[level] = (_StreamFunctionSolver(mesh), np.ascontiguousarray(theta.T))
        return self._level_forms[level]

    def permeability(self, xi, level: int) -> np.ndarray:
        """Per-triangle log-normal permeability for one coefficient vector."""
        xi = np.asarray(xi, dtype=float)
        return np.exp(_mode_product(xi[None], self._level_form(level)[1])[0])

    def travel_time(self, xis, level: int) -> np.ndarray:
        """Travel times for an (m, n) batch of coefficient vectors, one per row."""
        solver, modes_t = self._level_form(level)
        a = _mode_product(np.asarray(xis, dtype=float), modes_t)[: len(xis)]
        np.exp(a, out=a)
        psi = StreamFunctionBatch(solver.stream_functions(a))
        return trace_particle(psi, self.start, self.mesh_size(level))

    def _evaluate_batch(self, xis, level):
        chunk = max(1, _CHUNK_VALUES // self._level_form(level)[0].mesh.n_tri)
        times = np.empty(len(xis))
        for k in range(0, len(xis), chunk):
            times[k:k + chunk] = self.travel_time(xis[k:k + chunk], level)
        return times - self.tau0
