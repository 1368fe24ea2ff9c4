import numpy as np
import pytest

from rareevent.errors import ModelEvaluationError, NonconvergenceError, StagnationError
from rareevent.fem2d import (
    DiscreteVelocity,
    FlowCellModel,
    build_mesh,
    solve_darcy_rt0,
    trace_particle,
)


def uniform_vertical_flow(mesh):
    """Synthetic RT0 coefficients of the exact field q = (0, 1)."""
    m, h = mesh.m, mesh.h
    fluxes = np.zeros(mesh.n_edges)
    n_h = m * (m + 1)
    for j in range(m + 1):
        for i in range(m):
            fluxes[j * m + i] = h            # horizontal edges, normal (0,1)
    for j in range(m):
        for i in range(m):
            fluxes[n_h + (m + 1) * m + j * m + i] = -h   # diagonals, normal (1,-1)/sqrt2
    return DiscreteVelocity(mesh=mesh, fluxes=fluxes, pressures=np.zeros(mesh.n_tri))


def tilings(u):
    """A (1, n_tri, 2) field as 1 row, which is walked, and as 40, which run in lockstep."""
    return [np.repeat(u, rows, axis=0) for rows in (1, 40)]


def east_and_west_fluxes(vel):
    """Fluxes in +x through the east and the west face, summed over their edges."""
    m = vel.mesh.m
    west = m * (m + 1) + (m + 1) * np.arange(m)      # vertical edges V(0, j)
    return vel.fluxes[west + m].sum(), vel.fluxes[west].sum()


class TestDarcySolver:
    def test_uniform_permeability_exact_flow(self):
        vel = solve_darcy_rt0(lambda p: np.ones(len(p)), 1 / 8)
        # divergence-free, so RT0 is constant per triangle: the whole field
        assert np.allclose(vel.triangle_velocities(), [1.0, 0.0], atol=1e-10)
        assert np.allclose(vel.pressures, 1 - vel.mesh.centroids[:, 0], atol=1e-10)

    def test_constant_scaling(self):
        vel = solve_darcy_rt0(lambda p: 3.0 * np.ones(len(p)), 1 / 8)
        assert np.allclose(vel.triangle_velocities(), [3.0, 0.0], atol=1e-9)

    def test_mass_conservation_random_field(self, rng):
        mesh = build_mesh(8)
        a = np.exp(rng.standard_normal(mesh.n_tri))
        vel = solve_darcy_rt0(a, 1 / 8)
        east, west = east_and_west_fluxes(vel)
        assert abs(east - west) < 1e-10

    def test_divergence_free_every_solve(self, rng):
        mesh = build_mesh(8)
        for _ in range(5):
            a = np.exp(rng.standard_normal(mesh.n_tri))
            vel = solve_darcy_rt0(a, 1 / 8)
            assert np.max(np.abs(vel.divergence())) < 1e-10

    def test_layered_medium_harmonic_mean_flux(self, rng):
        # permeability constant per cell column: the exact velocity is
        # uniform with q_x = 1 / int(1/a) dx, the harmonic mean
        m = 16
        mesh = build_mesh(m)
        column_a = np.exp(0.8 * rng.standard_normal(m))
        col = np.minimum((mesh.centroids[:, 0] * m).astype(int), m - 1)
        vel = solve_darcy_rt0(column_a[col], 1.0 / m)
        q_exact = 1.0 / np.mean(1.0 / column_a)
        assert np.allclose(vel.triangle_velocities(), [q_exact, 0.0], atol=1e-9)
        assert east_and_west_fluxes(vel)[0] == pytest.approx(q_exact, abs=1e-9)

    def test_no_flow_edges_exactly_zero(self, rng):
        mesh = build_mesh(4)
        a = np.exp(rng.standard_normal(mesh.n_tri))
        vel = solve_darcy_rt0(a, 1 / 4)
        m = mesh.m
        bottom = [j * m + i for j in (0,) for i in range(m)]
        top = [m * m + i for i in range(m)]
        assert np.all(vel.fluxes[bottom] == 0)
        assert np.all(vel.fluxes[top] == 0)


class TestParticleTracking:
    # the unit-permeability field (1, 0), turned to leave through each face;
    # the last start lies on the no-flow bottom face and moves along it
    @pytest.mark.parametrize("turn, start, tau_exact", [
        ([[1, 0], [0, 1]], (0.0, 0.5), 1.0),       # east
        ([[-1, 0], [0, 1]], (1.0, 0.5), 1.0),      # west
        ([[0, 1], [-1, 0]], (0.3, 0.25), 0.75),    # north
        ([[0, -1], [1, 0]], (0.7, 0.6), 0.6),      # south
        ([[1, 0], [0, 1]], (0.25, 0.0), 0.75),     # east, tangential start
    ], ids=["east", "west", "north", "south", "tangential"])
    def test_unit_flow_travel_time(self, turn, start, tau_exact):
        for h in (1 / 4, 1 / 16):
            vel = solve_darcy_rt0(lambda p: np.ones(len(p)), h)
            u = vel.triangle_velocities() @ np.array(turn, dtype=float)
            tau = trace_particle(u[None], start, h)
            assert tau.shape == (1,) and abs(tau[0] - tau_exact) < 1e-12
            for field in tilings(u[None]):
                assert np.array_equal(trace_particle(field, start, h), np.full(len(field), tau[0]))
            if turn == [[1, 0], [0, 1]]:
                assert trace_particle(vel, start, h) == tau[0]

    def test_step_landing_on_a_face_exits_there(self):
        # the step from the upper half of an east cell ends on the east face,
        # where the cell's lower half would carry the particle back west
        mesh = build_mesh(4)
        u = np.zeros((1, mesh.n_tri, 2))
        u[0, 0::2] = [-1.0, 0.0]
        u[0, 1::2] = [1.0, 0.0]
        for field in tilings(u):
            assert np.array_equal(trace_particle(field, (0.875, 0.7), mesh.h),
                                  np.full(len(field), 0.125))

    def test_scaling(self):
        vel = solve_darcy_rt0(lambda p: 2.0 * np.ones(len(p)), 1 / 8)
        assert trace_particle(vel, (0.0, 0.5), 1 / 8) == pytest.approx(0.5, abs=1e-12)

    def test_vertical_synthetic_field(self):
        mesh = build_mesh(8)
        vel = uniform_vertical_flow(mesh)
        assert np.allclose(vel.triangle_velocities(), [0.0, 1.0], atol=1e-12)
        tau = trace_particle(vel, (0.0, 0.5), mesh.h)
        assert tau == pytest.approx(0.5, abs=1e-12)

    def test_travel_time_scales_inversely_with_field(self, rng):
        model = FlowCellModel()
        xi = rng.standard_normal(40)
        a = model.permeability(xi, 3)
        asm = model._level_form(3)[0]
        t1 = trace_particle(asm.solve(a), model.start, model.mesh_size(3))
        t3 = trace_particle(asm.solve(3.0 * a), model.start, model.mesh_size(3))
        assert t3 == pytest.approx(t1 / 3.0, rel=1e-9)

    def test_stagnation_detected(self):
        mesh = build_mesh(4)
        vel = DiscreteVelocity(mesh=mesh, fluxes=np.zeros(mesh.n_edges),
                               pressures=np.zeros(mesh.n_tri))
        for field in [vel] + tilings(vel.triangle_velocities()[None]):
            with pytest.raises(StagnationError, match=r"zero velocity at \(0.5, 0.5\)"):
                trace_particle(field, (0.5, 0.5), mesh.h)

    def test_nonfinite_velocity_raises_an_evaluation_error(self):
        # a NaN or infinite velocity on the path is an evaluation error, not a
        # walk to the step cap
        mesh = build_mesh(16)
        for bad in (np.nan, np.inf, -np.inf):
            u = np.ones((1, mesh.n_tri, 2))
            u[0, 200:260] = bad
            for field in tilings(u):
                with pytest.raises(ModelEvaluationError, match=r"non-finite velocity at \(0, 0.5"):
                    trace_particle(field, (0.0, 0.5), mesh.h)
            u[0, 200:260, 1] = 1.0                       # one component is enough
            for field in tilings(u):
                with pytest.raises(ModelEvaluationError, match="non-finite velocity"):
                    trace_particle(field, (0.0, 0.5), mesh.h)

    @pytest.mark.parametrize("h", [1 / 8, 1 / 32, 2.0, 1 / 16 + 1e-9])
    def test_mesh_size_must_match_the_field(self, h):
        vel = solve_darcy_rt0(lambda p: np.ones(len(p)), 1 / 16)
        for field in [vel] + tilings(vel.triangle_velocities()[None]):
            with pytest.raises(ValueError, match="mesh size"):
                trace_particle(field, (0.0, 0.5), h)

    def test_step_cap_enforced(self):
        vel = solve_darcy_rt0(lambda p: np.ones(len(p)), 1 / 8)
        for field in [vel] + tilings(vel.triangle_velocities()[None]):
            with pytest.raises(NonconvergenceError, match="within 3 steps"):
                trace_particle(field, (0.0, 0.5), 1 / 8, max_steps=3)


class TestFlowCellModel:
    def test_zero_coefficients_time_one(self):
        model = FlowCellModel()
        for level in (1, 3):
            g = model.evaluate_batch(np.zeros((1, model.dim(level))), level)[0]
            assert g == pytest.approx(0.97, abs=1e-10)

    def test_small_fields_stay_safe(self, rng):
        # failure needs path-average speed > 33; tiny fields cannot reach it
        model = FlowCellModel()
        for _ in range(100):
            xi = rng.standard_normal(20)
            xi *= 0.1 / np.linalg.norm(xi)
            assert model.evaluate_batch(xi[None], 2)[0] > 0

    def test_level_dims(self):
        model = FlowCellModel()
        assert [model.dim(l) for l in range(1, 7)] == [10, 20, 40, 80, 150, 150]
        assert model.mesh_size(6) == 1 / 128

    def test_mesh_triangle_count(self):
        assert build_mesh(16).n_tri == 2 * 16 * 16

    def test_counter_and_batch(self, rng):
        model = FlowCellModel()
        xis = rng.standard_normal((3, 10))
        g = model.evaluate_batch(xis, 1)
        assert g.shape == (3,)
        assert model.counter.counts() == {1: 3}

    @pytest.mark.parametrize("level", range(1, 6))
    def test_permeability_is_its_batch_row(self, rng, level, monkeypatch):
        # the permeabilities `travel_time` hands to the solver, stopped before
        # the solve, against one coefficient vector at a time; level 6 would
        # only add its slow mode build, and tests/test_models.py splits its rows
        class Handed(Exception):
            pass

        def hand_over(a):
            raise Handed(a.copy())

        model = FlowCellModel()
        monkeypatch.setattr(model._level_form(level)[0], "stream_functions", hand_over)
        xis = rng.standard_normal((21, model.dim(level)))
        with pytest.raises(Handed) as handed:
            model.travel_time(xis, level)
        batch = handed.value.args[0]
        assert batch.shape == (21, model._level_form(level)[0].mesh.n_tri)
        assert all(np.array_equal(model.permeability(xi, level), row)
                   for xi, row in zip(xis, batch))

    @pytest.mark.parametrize("tau0", [0.0, -1.0, np.nan, np.inf])
    def test_threshold_must_be_positive_and_finite(self, tau0):
        with pytest.raises(ValueError, match="must be positive"):
            FlowCellModel(tau0=tau0)
