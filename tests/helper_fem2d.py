"""Flow-cell quantities that only the tests use."""

import numpy as np

from rareevent.fem2d import DiscreteVelocity, FlowMesh


def n_edges(mesh: FlowMesh) -> int:
    """Horizontal, vertical and diagonal edges: m (m + 1) + (m + 1) m + m^2."""
    return 3 * mesh.m * mesh.m + 2 * mesh.m


def rt0_pressures(vel: DiscreteVelocity, a_tri) -> np.ndarray:
    """Per-triangle pressures of an RT0 field, in triangle order, from its
    velocities and the per-triangle permeability `a_tri` it was solved with.

    The flux rows of the mixed system read (M(a) u)_e - sum_T sign_Te p_T = 1
    on a west edge and 0 elsewhere.  u is constant per triangle, so the RT0
    mass product of triangle T with basis function e is
    sign_Te (u_T . offset_e) / (2 a_T).  Along a cell row the rows of V(0,j),
    D(0,j), V(1,j), ... then give the pressures of upper(0,j), lower(0,j),
    upper(1,j), ... by a running sum from the west boundary's 1.
    """
    mesh = vel.mesh
    m = mesh.m
    u = vel.triangle_velocities()
    # per half of a cell, the centroid minus the vertex opposite each local edge:
    # lower C, A, B = (h,h), (0,0), (h,0); upper C, A, B = (0,h), (0,0), (h,h)
    opposite = mesh.h * np.array([[[1, 1], [0, 0], [1, 0]], [[0, 1], [0, 0], [1, 1]]])
    offsets = np.tile(mesh.centroids[:2, None, :] - opposite, (m * m, 1, 1))
    a_tri = np.asarray(a_tri, dtype=float)
    mass_u = mesh.tri_signs * np.einsum("tc,tec->te", u, offsets) / (2.0 * a_tri[:, None])
    mass_u = np.bincount(mesh.tri_edges.ravel(), weights=mass_u.ravel(), minlength=n_edges(mesh))
    n_h = m * (m + 1)
    vertical = mass_u[n_h:2 * n_h].reshape(m, m + 1)[:, :m]
    diagonal = mass_u[2 * n_h:].reshape(m, m)
    along = 1.0 - np.cumsum(np.stack([vertical, diagonal], axis=-1).reshape(m, 2 * m), axis=1)
    return along.reshape(m, m, 2)[:, :, ::-1].ravel()
