"""Regression tests for the stream-function flow-cell solver and the lockstep tracker.

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

from rareevent import fem2d
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
