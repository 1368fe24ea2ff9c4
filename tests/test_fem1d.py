import numpy as np
import pytest
from scipy.linalg import solve_banded

from rareevent import _blas
from rareevent.errors import ModelEvaluationError
from rareevent.fem1d import Diffusion1dModel, solve_diffusion_1d
from rareevent.randomfield import lognormal_params


def midpoint_coefficients(model, xis, level):
    """a = exp(Z) at the element midpoints, straight from the KL basis."""
    h = model.mesh_size(level)
    x_mid = (np.arange(round(1 / h)) + 0.5) * h
    mu, zeta2 = lognormal_params(1.0, 0.1)
    n = xis.shape[1]
    theta = model.basis.eigenfunction_matrix(x_mid)[:, :n]
    sqrt_nu = np.sqrt(model.basis.eigenvalues[:n])
    return np.array([np.exp(mu + np.sqrt(zeta2) * (theta @ (sqrt_nu * xi))) for xi in xis])


class TestSolver:
    def test_unit_coefficient_nodally_exact(self):
        # -v'' = 1, v(0)=0, v'(1)=0 has v(x) = x - x^2/2
        for h in (1 / 4, 1 / 32, 1 / 512):
            sol = solve_diffusion_1d(lambda x: np.ones_like(x), h)
            nodes = np.linspace(0, 1, round(1 / h) + 1)
            assert np.allclose(sol, nodes - nodes**2 / 2, atol=1e-12)

    def test_constant_coefficient_scaling(self):
        sol = solve_diffusion_1d(lambda x: 2.5 * np.ones_like(x), 1 / 64)
        assert sol[-1] == pytest.approx(0.5 / 2.5, abs=1e-12)

    def test_elementwise_constant_coefficient_exact(self, rng):
        # for per-element constant a the exact nodal values have closed form:
        # v(x_i) = sum_j int_{x_{j-1}}^{x_j} (1 - t) / a_j dt, flux a v' = 1 - x
        m = 32
        h = 1.0 / m
        a_vals = np.exp(0.7 * rng.standard_normal(m))
        sol = solve_diffusion_1d(a_vals, h)
        edges = np.linspace(0, 1, m + 1)
        seg = (edges[:-1] - edges[1:]) * (0.5 * (edges[:-1] + edges[1:]) - 1.0)
        exact = np.concatenate([[0.0], np.cumsum(seg / a_vals)])
        assert np.allclose(sol, exact, atol=1e-12)

    @pytest.mark.parametrize("level", range(1, 9))
    def test_matches_banded_stiffness_solve(self, rng, level):
        # independent reference: assemble the midpoint-coefficient stiffness
        # matrix and load, and solve the tridiagonal system with LAPACK
        model = Diffusion1dModel()
        h = model.mesh_size(level)
        m = round(1 / h)
        for a in midpoint_coefficients(model, rng.standard_normal((3, model.dim(level))), level):
            bands = np.zeros((3, m))
            bands[0, 1:] = -a[1:] / h
            bands[1, :-1] = (a[:-1] + a[1:]) / h
            bands[1, -1] = a[-1] / h
            bands[2, :-1] = -a[1:] / h
            load = np.full(m, h)
            load[-1] = 0.5 * h
            reference = solve_banded((1, 1), bands, load)
            sol = solve_diffusion_1d(a, h)
            assert sol[0] == 0.0
            assert np.all(np.abs(sol[1:] - reference) <= 1e-11 * np.abs(reference))

    def test_solution_monotone_nonnegative(self, rng):
        a_vals = np.exp(0.5 * rng.standard_normal(64))
        sol = solve_diffusion_1d(a_vals, 1 / 64)
        assert np.all(sol >= 0)
        assert np.all(np.diff(sol) >= 0)  # flux 1-x stays nonnegative

    def test_flux_consistency(self):
        mu, zeta2 = lognormal_params(1.0, 0.1)
        a0 = np.exp(mu)
        h = 1 / 128
        sol = solve_diffusion_1d(a0 * np.ones(128), h)
        x_mid = (np.arange(128) + 0.5) * h
        flux = a0 * np.diff(sol) / h
        assert np.max(np.abs(flux - (1 - x_mid))) < 2 * h

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ModelEvaluationError):
            solve_diffusion_1d(np.zeros(8), 1 / 8)

    def test_non_integer_mesh_rejected(self):
        with pytest.raises(ValueError):
            solve_diffusion_1d(np.ones(3), 0.3)


class TestDiffusionModel:
    def test_zero_coefficients_match_composition_oracle(self):
        # a = exp(mu_Z) constant, so G = 0.535 - 0.5 / exp(mu_Z) at any level
        mu, _ = lognormal_params(1.0, 0.1)
        expected = 0.535 - 0.5 / np.exp(mu)
        model = Diffusion1dModel()
        for level in (1, 4, 8):
            g = model.evaluate_batch(np.zeros((1, model.dim(level))), level)[0]
            assert g == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.03251, abs=5e-6)

    def test_mesh_sizes_follow_level_rule(self):
        model = Diffusion1dModel()
        assert [model.mesh_size(l) for l in (1, 8)] == [1 / 4, 1 / 512]

    def test_level_dims_default_and_fixed(self):
        model = Diffusion1dModel()
        assert [model.dim(l) for l in range(1, 9)] == [10, 20, 40, 80, 150, 150, 150, 150]
        fixed = Diffusion1dModel(level_dims=(150,) * 8)
        assert [fixed.dim(l) for l in range(1, 9)] == [150] * 8

    def test_richardson_convergence_order(self, rng):
        # one fixed smooth field: endpoint error shrinks ~4x per refinement
        xi = np.zeros(150)
        xi[:10] = 0.4 * rng.standard_normal(10)
        model = Diffusion1dModel(level_dims=(150,) * 8)
        v = {}
        for level in (5, 6, 7, 8):
            v[level] = 0.535 - model.evaluate_batch(xi[None], level)[0]
        d1 = abs(v[6] - v[5])
        d2 = abs(v[7] - v[6])
        d3 = abs(v[8] - v[7])
        assert 2.5 < d1 / d2 < 6.0
        assert 2.5 < d2 / d3 < 6.0

    def test_batch_matches_scalar(self, rng):
        model = Diffusion1dModel()
        xis = rng.standard_normal((4, 40))
        batch = model.evaluate_batch(xis, 3)
        singles = [Diffusion1dModel().evaluate_batch(xi[None], 3)[0] for xi in xis]
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("level", range(1, 9))
    def test_limit_state_matches_nodal_solve(self, rng, level):
        # the GEMM/exp/GEMV endpoint against the nodal cumsum of an
        # independently built coefficient; only the summation order differs
        model = Diffusion1dModel()
        h = model.mesh_size(level)
        xis = rng.standard_normal((3, model.dim(level)))
        reference = [model.threshold - solve_diffusion_1d(a, h)[-1]
                     for a in midpoint_coefficients(model, xis, level)]
        np.testing.assert_allclose(model.evaluate_batch(xis, level), reference,
                                   rtol=1e-12, atol=0)

    def test_nonfinite_limit_state_rejected(self):
        model = Diffusion1dModel()
        with pytest.raises(ModelEvaluationError):
            model.evaluate_batch(np.full((1, 150), np.nan), 8)
        # a underflows to 0 on part of the mesh
        with pytest.raises(ModelEvaluationError), np.errstate(over="ignore"):
            model.evaluate_batch(np.full((1, 150), -1e3), 8)
        # a is tiny but positive everywhere: a valid, very negative G
        assert np.isfinite(model.evaluate_batch(np.full((1, 150), 1e3), 8)[0])

    def test_same_bits_on_one_and_two_blas_threads(self, two_blas_threads, rng):
        # the level-8 GEMM and GEMV of a 2000-row batch, threaded or not
        model = Diffusion1dModel()
        xis = rng.standard_normal((2000, model.dim(8)))
        two = model._evaluate_batch(xis, 8)
        assert _blas.blas_threads() == two_blas_threads
        with _blas.single_blas_thread():
            one = model._evaluate_batch(xis, 8)
        assert np.array_equal(one, two)

    def test_counter_tracks_levels(self, rng):
        model = Diffusion1dModel()
        model.evaluate_batch(rng.standard_normal((7, 10)), 1)
        model.evaluate_batch(rng.standard_normal((1, 150)), 8)
        assert model.counter.counts() == {1: 7, 8: 1}
