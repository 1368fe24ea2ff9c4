import numpy as np
import pytest

from rareevent.fem2d import CORR_LENGTH, build_mesh
from rareevent.models import mesh_size
from rareevent.randomfield import (
    kl_basis_1d,
    kl_basis_2d,
    lognormal_params,
)


def gauss_legendre_nodes(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped from [-1,1] to [0,1]


class TestLognormalParams:
    def test_unit_mean_small_std(self):
        mu, zeta2 = lognormal_params(1.0, 0.1)
        assert zeta2 == pytest.approx(np.log(1.01), rel=1e-12)
        assert mu == pytest.approx(-zeta2 / 2, rel=1e-12)

    def test_deterministic_limit(self):
        mu, zeta2 = lognormal_params(1.0, 1e-9)
        assert zeta2 == pytest.approx(0.0, abs=1e-15)
        assert mu == pytest.approx(0.0, abs=1e-15)

    def test_equal_mean_and_std(self):
        mu, zeta2 = lognormal_params(2.0, 2.0)
        assert zeta2 == pytest.approx(np.log(2.0))
        assert mu == pytest.approx(np.log(2.0) - np.log(2.0) / 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lognormal_params(0.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_params(1.0, -1.0)


class TestKl1d:
    def test_trace_converges_to_domain_length(self):
        partial = [kl_basis_1d(0.01, m).eigenvalues.sum() for m in (50, 150, 500, 3000)]
        assert all(b > a for a, b in zip(partial, partial[1:]))
        assert partial[-1] == pytest.approx(1.0, abs=0.01)
        assert all(p <= 1.0 + 1e-9 for p in partial)

    def test_captures_87_percent_at_150_modes(self):
        basis = kl_basis_1d(0.01, 150)
        assert basis.eigenvalues.sum() == pytest.approx(0.87, abs=0.02)

    def test_eigenvalues_sorted_positive(self):
        basis = kl_basis_1d(0.3, 40)
        assert np.all(basis.eigenvalues > 0)
        assert np.all(np.diff(basis.eigenvalues) <= 0)

    def test_orthonormality_by_quadrature(self):
        basis = kl_basis_1d(0.01, 25)
        x, w = gauss_legendre_nodes(2048)
        theta = basis.eigenfunction_matrix(x, 20)
        gram = (theta * w[:, None]).T @ theta
        assert np.max(np.abs(gram - np.eye(20))) < 1e-6

    def test_large_mode_count_roots_found(self):
        basis = kl_basis_1d(0.05, 2000)
        assert basis.eigenvalues.shape == (2000,)


class TestKl2d:
    def test_trace_bound(self):
        # sum over all 50x50 tensor products cannot exceed the unit area
        base = kl_basis_1d(0.5, 50)
        total = np.sum(np.outer(base.eigenvalues, base.eigenvalues))
        assert total <= 1.0 + 1e-9

    def test_top_eigenvalue_is_square_of_1d(self):
        basis2 = kl_basis_2d(0.5, 10)
        basis1 = kl_basis_1d(0.5, 1)
        assert basis2.eigenvalues[0] == pytest.approx(basis1.eigenvalues[0] ** 2, rel=1e-12)

    def test_ordering_deterministic(self):
        a = kl_basis_2d(0.5, 150)
        b = kl_basis_2d(0.5, 150)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a._pair_idx, b._pair_idx)
        assert np.all(np.diff(a.eigenvalues) <= 0)

    def test_orthonormality_tensor_quadrature(self):
        basis = kl_basis_2d(0.5, 10)
        x, w = gauss_legendre_nodes(256)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        theta = basis.eigenfunction_matrix(pts, 10)
        weights = np.outer(w, w).ravel()
        gram = (theta * weights[:, None]).T @ theta
        assert np.max(np.abs(gram - np.eye(10))) < 1e-6


    @pytest.mark.parametrize("level", range(1, 7))
    def test_flow_cell_modes_equal_the_per_point_product(self, level):
        # the modes are built from each distinct centroid coordinate once
        basis = kl_basis_2d(CORR_LENGTH, 150)
        pts = build_mesh(round(1 / mesh_size(level))).centroids
        idx = basis._pair_idx
        per_point = basis._theta_1d(pts[:, 0], idx[:, 0]) * basis._theta_1d(pts[:, 1], idx[:, 1])
        assert np.array_equal(basis.eigenfunction_matrix(pts), per_point)


class TestEvaluateLogField:
    """The log field mu + zeta Theta sqrt(nu) xi, evaluated from the basis as a model does."""

    def test_pointwise_variance_matches_mercer_sum(self, rng):
        mu, zeta2 = lognormal_params(1.0, 0.1)
        basis = kl_basis_1d(0.01, 150)
        theta = basis.eigenfunction_matrix(np.array([0.5]), 150)[0]
        exact = zeta2 * np.sum(basis.eigenvalues * theta**2)
        draws = rng.standard_normal((100_000, 150))
        vals = mu + np.sqrt(zeta2) * (draws @ (np.sqrt(basis.eigenvalues) * theta))
        assert vals.var() == pytest.approx(exact, rel=0.03)
        # the truncation keeps roughly 87% of the full variance at x=0.5
        assert exact / zeta2 == pytest.approx(0.87, abs=0.04)

    def test_prefix_consistency_across_level_dims(self):
        # a level with fewer dims reads the leading modes of the full basis
        basis = kl_basis_1d(0.01, 150)
        x = np.linspace(0, 1, 13)
        assert np.array_equal(basis.eigenfunction_matrix(x, 40),
                              basis.eigenfunction_matrix(x)[:, :40])

    def test_out_of_domain_rejected(self):
        basis = kl_basis_1d(0.1, 5)
        for points in ([1.5], [-0.1, 0.5]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                basis.eigenfunction_matrix(points)

    def test_truncation_exceeded_rejected(self):
        basis = kl_basis_1d(0.1, 5)
        with pytest.raises(ValueError, match="requested 6 modes"):
            basis.eigenfunction_matrix([0.5], 6)
