import numpy as np
import pytest

from rareevent.errors import NonconvergenceError, StagnationError
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


class TestDarcySolver:
    def test_uniform_permeability_exact_flow(self):
        vel = solve_darcy_rt0(lambda p: np.ones(len(p)), 1 / 8)
        mesh = vel.mesh
        for point in [(0.13, 0.7), (0.51, 0.49), (0.9, 0.05)]:
            assert np.allclose(vel.velocity_at(point), [1.0, 0.0], atol=1e-10)
        assert np.allclose(vel.pressures, 1 - mesh.centroids[:, 0], atol=1e-10)

    def test_constant_scaling(self):
        vel = solve_darcy_rt0(lambda p: 3.0 * np.ones(len(p)), 1 / 8)
        assert np.allclose(vel.velocity_at((0.4, 0.6)), [3.0, 0.0], atol=1e-9)

    def test_mass_conservation_random_field(self, rng):
        mesh = build_mesh(8)
        a = np.exp(rng.standard_normal(mesh.n_tri))
        vel = solve_darcy_rt0(a, 1 / 8)
        assert abs(vel.boundary_flux("east") - (-vel.boundary_flux("west"))) < 1e-10

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
        for point in [(0.21, 0.33), (0.72, 0.9)]:
            assert np.allclose(vel.velocity_at(point), [q_exact, 0.0], atol=1e-9)
        assert vel.boundary_flux("east") == pytest.approx(q_exact, abs=1e-9)

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
            if turn == [[1, 0], [0, 1]]:
                assert trace_particle(vel, start, h) == tau[0]

    def test_step_landing_on_a_face_exits_there(self):
        # the step from the upper half of an east cell ends on the east face,
        # where the cell's lower half would carry the particle back west
        mesh = build_mesh(4)
        u = np.zeros((1, mesh.n_tri, 2))
        u[0, 0::2] = [-1.0, 0.0]
        u[0, 1::2] = [1.0, 0.0]
        assert trace_particle(u, (0.875, 0.7), mesh.h) == [0.125]

    def test_scaling(self):
        vel = solve_darcy_rt0(lambda p: 2.0 * np.ones(len(p)), 1 / 8)
        assert trace_particle(vel, (0.0, 0.5), 1 / 8) == pytest.approx(0.5, abs=1e-12)

    def test_vertical_synthetic_field(self):
        mesh = build_mesh(8)
        vel = uniform_vertical_flow(mesh)
        assert np.allclose(vel.velocity_at((0.3, 0.2)), [0.0, 1.0], atol=1e-12)
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
        with pytest.raises(StagnationError):
            trace_particle(vel, (0.5, 0.5), mesh.h)

    def test_step_cap_enforced(self):
        vel = solve_darcy_rt0(lambda p: np.ones(len(p)), 1 / 8)
        with pytest.raises(NonconvergenceError):
            trace_particle(vel, (0.0, 0.5), 1 / 8, max_steps=3)


class TestFlowCellModel:
    def test_zero_coefficients_time_one(self):
        model = FlowCellModel()
        for level in (1, 3):
            g = model.evaluate(np.zeros(model.dim(level)), level)
            assert g == pytest.approx(0.97, abs=1e-10)

    def test_small_fields_stay_safe(self, rng):
        # failure needs path-average speed > 33; tiny fields cannot reach it
        model = FlowCellModel()
        for _ in range(100):
            xi = rng.standard_normal(20)
            xi *= 0.1 / np.linalg.norm(xi)
            assert model.evaluate(xi, 2) > 0

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

    @pytest.mark.parametrize("tau0", [0.0, -1.0, np.nan, np.inf])
    def test_threshold_must_be_positive_and_finite(self, tau0):
        with pytest.raises(ValueError, match="must be positive"):
            FlowCellModel(tau0=tau0)
