"""Regression tests for the stream-function flow-cell solver, its one-thread
BLAS scope and the lockstep tracker.

`data/fem2d_rt0_golden.json` holds travel times and every `stride`-th
triangle pressure for five fixed coefficient vectors on levels 1-4, computed
by the mixed RT0 saddle-point solver (SuperLU) that this package used up to
commit bd27f02.  The stream-function solve computes the same discrete field,
so the values agree at roundoff.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpbsv

from rareevent import _blas, fem2d
from rareevent.errors import ModelEvaluationError, NonconvergenceError, StagnationError
from rareevent.fem2d import FlowCellModel, build_mesh, trace_particle

GOLDEN = json.loads((Path(__file__).parent / "data" / "fem2d_rt0_golden.json").read_text())


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_matches_saddle_point_golden_values(level):
    model = FlowCellModel()
    ref = GOLDEN["levels"][str(level)]
    xis = np.array(GOLDEN["xi"])[:, : model.dim(level)]
    solver = model._assembler(level)
    for xi, tau_ref, p_ref in zip(xis, ref["travel_time"], ref["pressures"]):
        vel = solver.solve(model.permeability(xi, level))
        tau = trace_particle(vel, model.start, model.mesh_size(level))
        assert abs(tau / tau_ref - 1.0) <= 1e-10
        p = vel.pressures[:: ref["stride"]]
        assert np.max(np.abs(p - p_ref)) <= 1e-10 * np.max(np.abs(p_ref))
    assert np.allclose(model.travel_time(xis, level), ref["travel_time"], rtol=1e-10, atol=0)


def _dense_p1_stiffness(m, a):
    """The stream-function matrix assembled densely, one triangle after another.

    Vertex (i, j) is unknown (j - 1)(m + 1) + i on rows 1 .. m - 1; the bottom
    row is eliminated and the whole top row is the last unknown.
    """
    n = m * m
    dof = {(i, j): -1 if j == 0 else n - 1 if j == m else (j - 1) * (m + 1) + i
           for i in range(m + 1) for j in range(m + 1)}
    triangles = []
    for j in range(m):
        for i in range(m):
            triangles += [[(i, j), (i + 1, j), (i + 1, j + 1)], [(i, j), (i + 1, j + 1), (i, j + 1)]]
    dense = np.zeros((n, n))
    for t, tri in enumerate(triangles):
        (x0, y0), (x1, y1), (x2, y2) = np.array(tri, dtype=float) / m
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        grad = np.array([[y1 - y2, x2 - x1], [y2 - y0, x0 - x2], [y0 - y1, x1 - x0]]) / (2 * area)
        k = area * grad @ grad.T / a[t]
        ids = np.array([dof[v] for v in tri])
        r, c = np.meshgrid(ids, ids, indexing="ij")
        inside = (r >= 0) & (c >= 0)
        np.add.at(dense, (r[inside], c[inside]), k[inside])
    return dense


@pytest.mark.parametrize("level", [1, 2, 3])
def test_band_is_the_p1_stiffness(level, rng):
    model = FlowCellModel()
    solver = model._assembler(level)
    m, n, kd = solver.mesh.m, solver.n, solver.kd
    assert kd == m + 1
    a = np.exp(rng.standard_normal(solver.mesh.n_tri))
    band = np.bincount(solver._band_index, weights=solver._band_stiffness / a[solver._band_tri],
                       minlength=n * (kd + 1)).reshape(n, kd + 1).T
    r, c = np.triu_indices(n)
    r, c = r[c - r <= kd], c[c - r <= kd]
    upper = np.zeros((n, n))
    upper[r, c] = band[kd + r - c, c]
    assert np.array_equal(upper + np.triu(upper, 1).T, _dense_p1_stiffness(m, a))


def test_lockstep_times_equal_single_particle_times(rng):
    # random level-3 fields after the uniform fields (1, 0) and (1, 1), whose
    # particles leave through the east face on step 32 and the top on step 23
    model = FlowCellModel()
    solver = model._assembler(3)
    h = model.mesh_size(3)
    xis = rng.standard_normal((6, model.dim(3))) * np.linspace(0.5, 2.0, 6)[:, None]
    a = np.array([model.permeability(xi, 3) for xi in xis])
    u = np.concatenate([np.empty((2, solver.mesh.n_tri, 2)),
                        solver.velocities(solver.stream_functions(a))])
    u[0], u[1] = [1.0, 0.0], [1.0, 1.0]
    times = trace_particle(u, model.start, h)
    for k in range(len(u)):
        assert np.array_equal(trace_particle(u[k:k + 1], model.start, h), times[k:k + 1])
    trace_particle(u[1:2], model.start, h, max_steps=23)
    with pytest.raises(NonconvergenceError):
        trace_particle(u[:1], model.start, h, max_steps=31)


@pytest.mark.parametrize("level", [2, 3])
def test_evaluate_batch_equals_single_evaluations(level, rng, monkeypatch):
    model = FlowCellModel()
    n_tri = model._assembler(level).mesh.n_tri
    monkeypatch.setattr(fem2d, "_CHUNK_VALUES", 3 * n_tri)   # chunks of three samples
    xis = rng.standard_normal((7, model.dim(level)))
    batch = model.evaluate_batch(xis, level)
    single = np.array([model.evaluate(x, level) for x in xis])
    assert np.array_equal(batch, single)


def test_zero_field_in_batch_stagnates():
    model = FlowCellModel()
    solver = model._assembler(2)
    u = solver.velocities(solver.stream_functions(np.ones((2, solver.mesh.n_tri))))
    assert np.allclose(trace_particle(u, model.start, solver.mesh.h), 1.0, atol=1e-12)
    u[1] = 0.0
    with pytest.raises(StagnationError):
        trace_particle(u, model.start, solver.mesh.h)


def test_default_step_cap_scales_with_mesh():
    # a field converging on y = 1/2 from both sides traps the particle; the
    # cap ends the walk after STEPS_PER_CELL m^2 steps
    mesh = build_mesh(8)
    uy = np.where(mesh.centroids[:, 1] < 0.5, 1.0, -1.0)
    u = np.stack([np.zeros_like(uy), uy], axis=-1)[None]
    with pytest.raises(NonconvergenceError, match=f"within {fem2d.STEPS_PER_CELL * 64} steps"):
        trace_particle(u, (0.3, 0.5), mesh.h)


def test_nonpositive_permeability_rejected_in_batch():
    model = FlowCellModel()
    solver = model._assembler(1)
    a = np.ones((3, solver.mesh.n_tri))
    a[2, 5] = 0.0
    with pytest.raises(ModelEvaluationError):
        solver.stream_functions(a)


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads, so a one-thread scope shows on any host."""
    saved = _blas.blas_threads()
    if not saved:
        pytest.skip("no OpenBLAS found in /proc/self/maps")
    _blas.set_blas_threads(2)
    yield [2] * len(saved)
    for (_, set_threads), n in zip(_blas._libraries(), saved):
        set_threads(n)


def _recording_dpbsv(monkeypatch, seen, fail=False):
    real = fem2d.dpbsv

    def recording(*args, **kwargs):
        seen.append(_blas.blas_threads())
        if fail:
            raise RuntimeError("injected solver failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(fem2d, "dpbsv", recording)


def test_banded_solves_run_on_one_blas_thread_and_restore(two_blas_threads, rng, monkeypatch):
    model = FlowCellModel()
    xis = rng.standard_normal((4, model.dim(3)))
    seen = []
    _recording_dpbsv(monkeypatch, seen)
    model.evaluate_batch(xis, 3)
    assert seen == [[1] * len(two_blas_threads)] * len(xis)
    assert _blas.blas_threads() == two_blas_threads


def test_blas_threads_restored_when_a_solve_raises(two_blas_threads, rng, monkeypatch):
    model = FlowCellModel()
    seen = []
    _recording_dpbsv(monkeypatch, seen, fail=True)
    with pytest.raises(RuntimeError, match="injected"):
        model.evaluate_batch(rng.standard_normal((2, model.dim(3))), 3)
    assert seen == [[1] * len(two_blas_threads)]
    assert _blas.blas_threads() == two_blas_threads


@pytest.mark.parametrize("level", [3, 4])
def test_one_thread_solve_matches_two_thread_solve_bit_for_bit(level, two_blas_threads, rng):
    model = FlowCellModel()
    solver = model._assembler(level)
    m, n, kd = solver.mesh.m, solver.n, solver.kd
    for xi in rng.standard_normal((3, model.dim(level))):
        a = model.permeability(xi, level)
        band = np.bincount(solver._band_index, weights=solver._band_stiffness / a[solver._band_tri],
                           minlength=n * (kd + 1))
        load = np.zeros(n)
        load[-1] = 1.0
        assert _blas.blas_threads() == two_blas_threads
        _, sol, info = dpbsv(band.reshape(n, kd + 1).T, load)
        assert info == 0
        psi = solver.stream_functions(a[None])[0]
        assert np.array_equal(psi[1:m].ravel(), sol[:-1])
        assert np.all(psi[m] == sol[-1])
