import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from rareevent.distributions import (
    VMF_REJECTION_ROUNDS,
    VmfnParams,
    _log_bessel_iv,
    _sample_scaled_vmf,
    _sample_vmf_cosines,
    fit_vmfn,
    nakagami_log_density,
    sample_nakagami,
    sample_vmfn,
    std_normal_log_cdf,
    vmf_log_normalizer,
    vmfn_log_density,
)
from rareevent.errors import DegenerateWeightsError, NonconvergenceError


def _reference_sample_vmf(nu, kappa, n, rng, m):
    """The vMF draw built the long way: unit tangent, then renormalisation."""
    w = _sample_vmf_cosines(kappa, n, m, rng)
    z = rng.standard_normal((m, n))
    z -= (z @ nu)[:, None] * nu[None, :]
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    tangent = z / norms
    a = w[:, None] * nu[None, :] + np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] * tangent
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def vmf_directions(nu, kappa, rng, size):
    """`size` unit directions from vMF(nu, kappa), drawn as the vMFN sampler draws them."""
    out = np.empty((size, len(nu)))
    _sample_scaled_vmf(nu, kappa, 1.0, rng, out)
    return out


def _reference_sample_vmfn(params, n, rng, m):
    r = sample_nakagami(params.s, params.gamma, rng, size=m)
    return r[:, None] * _reference_sample_vmf(params.nu, params.kappa, n, rng, m)


def _reference_fit_vmfn(u, w):
    """Two-pass fit: copy the active rows, build unit directions, then moments."""
    active = w > 0
    w_sum = w[active].sum()
    u, w = u[active], w[active]
    r = np.linalg.norm(u, axis=1)
    resultant = w @ (u / r[:, None])
    res_norm = np.linalg.norm(resultant)
    chi = min(res_norm / w_sum, 0.95)
    n = u.shape[1]
    kappa = (chi * n - chi**3) / (1.0 - chi * chi)
    gamma = w @ (r * r) / w_sum
    nu4 = w @ (r**4) / w_sum
    s = min(max(gamma * gamma / (nu4 - gamma * gamma), 0.5), 1e6)
    return resultant / res_norm, kappa, s, gamma


class _RejectingGenerator:
    """Beta draws of 0 (cosine 1) and uniforms of 1: every cosine is rejected."""

    def __init__(self):
        self.rounds = 0

    def beta(self, a, b, size):
        self.rounds += 1
        return np.zeros(size)

    def uniform(self, size):
        return np.ones(size)


class TestStdNormalLogCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_log_cdf(0.0) == pytest.approx(np.log(0.5), abs=1e-15)

    def test_deep_tail_matches_mills_ratio(self):
        # oracle: log Phi(x) ~ -x^2/2 - log(-x sqrt(2 pi)) for x << 0
        x = -40.0
        oracle = -0.5 * x * x - np.log(-x * np.sqrt(2 * np.pi))
        value = std_normal_log_cdf(x)
        assert np.isfinite(value)
        assert value == pytest.approx(oracle, abs=1e-3)
        assert std_normal_log_cdf(-41.0) < value < std_normal_log_cdf(-39.0)

    def test_upper_tail_complement(self):
        # exp(log Phi(5)) = 1 - Phi(-5)
        assert abs(np.exp(std_normal_log_cdf(5.0)) - 1.0) < 3e-7

    def test_no_underflow_far_out(self):
        assert np.isfinite(std_normal_log_cdf(-1e8))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_log_cdf(np.nan)
        with pytest.raises(ValueError):
            std_normal_log_cdf(np.inf)


class TestSampleStdNormal:
    def test_norm_matches_chi_mean(self, rng):
        n = 150
        draws = rng.standard_normal((10_000, n))
        # exact chi-distribution mean: sqrt(2) Gamma((n+1)/2) / Gamma(n/2)
        chi_mean = np.sqrt(2) * np.exp(
            special.gammaln((n + 1) / 2) - special.gammaln(n / 2)
        )
        observed = np.linalg.norm(draws, axis=1).mean()
        assert observed == pytest.approx(chi_mean, rel=0.02)


class TestVmfDensity:
    def test_uniform_on_sphere_at_zero_kappa(self):
        assert vmf_log_normalizer(3, 0.0) == pytest.approx(np.log(1.0 / (4 * np.pi)), abs=1e-12)

    def test_mode_at_mean_direction(self):
        nu = np.array([0.6, 0.75])
        nu = nu / np.linalg.norm(nu)
        angles = np.linspace(0, 2 * np.pi, 721)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        vals = vmf_log_normalizer(2, 11.0) + 11.0 * (dirs @ nu)
        best = dirs[int(np.argmax(vals))]
        assert best @ nu > np.cos(np.radians(1.0))

    def test_normalizes_on_circle(self):
        nu = np.array([1.0, 0.0])
        angles = np.linspace(0, 2 * np.pi, 20_001)[:-1]
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        vals = np.exp(vmf_log_normalizer(2, 5.0) + 5.0 * (dirs @ nu))
        integral = vals.mean() * 2 * np.pi
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            vmf_log_normalizer(2, -1.0)

    def test_log_bessel_series_where_scaled_bessel_underflows(self):
        # ive(74, 1e-3) underflows to 0, so the ascending series takes over;
        # its first two terms already hold to roundoff
        v, x = 74.0, 1e-3
        assert special.ive(v, x) == 0.0
        expected = (v * np.log(x / 2) - special.gammaln(v + 1)
                    + np.log(1 + x * x / (4 * (v + 1))))
        assert _log_bessel_iv(v, x) == pytest.approx(expected, rel=1e-12)

    def test_large_kappa_large_dimension_finite(self):
        n = 150
        nu = np.zeros(n)
        nu[0] = 1.0
        assert np.isfinite(vmf_log_normalizer(n, 1500.0) + 1500.0 * (nu @ nu))


class TestSampleVmf:
    def test_uniform_at_zero_kappa(self, rng):
        a = vmf_directions(np.array([0.0, 0.0, 1.0]), 0.0, rng, 100_000)
        assert np.linalg.norm(a.mean(axis=0)) < 0.02

    def test_concentrated_mean_direction(self, rng):
        nu = np.array([0.0, 0.0, 1.0])
        a = vmf_directions(nu, 50.0, rng, 10_000)
        mean_dir = a.mean(axis=0)
        mean_dir /= np.linalg.norm(mean_dir)
        assert mean_dir @ nu > np.cos(np.radians(1.0))

    def test_one_dimensional_sphere(self, rng):
        # S^0 = {-1, +1}: P(+1) proportional to exp(kappa nu)
        a = vmf_directions(np.array([1.0]), 2.0, rng, 20_000)
        p_plus = 1.0 / (1.0 + np.exp(-4.0))
        assert np.mean(a == 1.0) == pytest.approx(p_plus, abs=0.01)

    def test_rejection_rounds_capped(self):
        gen = _RejectingGenerator()
        with pytest.raises(NonconvergenceError):
            vmf_directions(np.eye(3)[0], 5.0, gen, 4)
        assert gen.rounds == VMF_REJECTION_ROUNDS

    @pytest.mark.parametrize("n", [2, 3, 5, 20, 150])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 50.0, 500.0])
    def test_matches_reference_construction(self, n, kappa):
        nu = np.random.default_rng([5, n]).standard_normal(n)
        nu /= np.linalg.norm(nu)
        gen, ref_gen = np.random.default_rng([6, n]), np.random.default_rng([6, n])
        a = vmf_directions(nu, kappa, gen, 400)
        ref = _reference_sample_vmf(nu, kappa, n, ref_gen, 400)
        assert np.max(np.abs(a - ref)) <= 1e-12
        assert gen.random() == ref_gen.random()

    def test_angles_match_density(self, rng):
        # chi-square of binned angles against the analytic vMF law
        nu = np.array([1.0, 0.0])
        kappa = 11.0
        a = vmf_directions(nu, kappa, rng, 100_000)
        theta = np.arctan2(a[:, 1], a[:, 0])
        edges = np.linspace(-np.pi, np.pi, 37)
        observed, _ = np.histogram(theta, bins=edges)

        def density(t):
            return np.exp(vmf_log_normalizer(2, kappa) + kappa * (nu @ [np.cos(t), np.sin(t)]))

        expected = np.array([
            integrate.quad(density, lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:])
        ])
        expected *= observed.sum()
        keep = expected > 5
        stat = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        pvalue = stats.chi2.sf(stat, keep.sum() - 1)
        assert pvalue > 0.01


class TestNakagami:
    def test_rayleigh_reduction(self):
        # s=1: f(r) = 2 r / gamma * exp(-r^2/gamma)
        assert nakagami_log_density(1.0, 1.0, 1.0) == pytest.approx(np.log(2.0) - 1.0)

    def test_mode_formula(self):
        s, gamma = 12.0, 8.0
        grid = np.linspace(1e-3, 6.0, 200_001)
        vals = nakagami_log_density(grid, s, gamma)
        mode_numeric = grid[int(np.argmax(vals))]
        mode_formula = np.sqrt(gamma * (2 * s - 1) / (2 * s))
        assert mode_numeric == pytest.approx(mode_formula, rel=1e-3)
        assert mode_formula == pytest.approx(2.768, abs=5e-3)

    def test_normalizes(self):
        val, _ = integrate.quad(lambda r: np.exp(nakagami_log_density(r, 2.0, 3.0)), 0, 20)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_radius_gives_zero_density(self):
        assert nakagami_log_density(0.0, 2.0, 3.0) == -np.inf
        assert nakagami_log_density(-1.0, 2.0, 3.0) == -np.inf

    def test_sampling_moments(self, rng):
        r = sample_nakagami(2.0, 3.0, rng, size=100_000)
        assert (r**2).mean() == pytest.approx(3.0, rel=0.01)
        r = sample_nakagami(12.0, 8.0, rng, size=100_000)
        fourth = (r**4).mean()
        assert fourth == pytest.approx(8.0**2 * (1 + 1 / 12.0), rel=0.02)

    def test_boundary_shape_accepted(self, rng):
        sample_nakagami(0.5, 1.0, rng)
        with pytest.raises(ValueError):
            sample_nakagami(0.49, 1.0, rng)


class TestVmfnDensity:
    def test_zero_point_has_zero_density(self):
        params = VmfnParams(nu=np.array([1.0, 0.0]), kappa=2.0, s=2.0, gamma=1.0)
        assert vmfn_log_density(np.zeros(2), params) == -np.inf

    def test_rotation_about_mean_direction_invariant(self):
        nu = np.array([0.0, 0.0, 1.0])
        params = VmfnParams(nu=nu, kappa=3.0, s=2.0, gamma=2.0)
        u = np.array([0.3, 0.4, 1.2])
        angle = 1.1  # rotation about the z axis fixes nu
        rot = np.array([
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert vmfn_log_density(rot @ u, params) == pytest.approx(
            vmfn_log_density(u, params), rel=1e-12
        )

    @pytest.mark.parametrize("kappa,s,gamma", [
        (5.0, 2.0, 3.0),
        (0.0, 1.0, 1.0),
        (11.0, 12.0, 8.0),
    ])
    def test_integrates_to_one_2d(self, kappa, s, gamma):
        params = VmfnParams(nu=np.array([0.6, 0.8]), kappa=kappa, s=s, gamma=gamma)
        grid = np.linspace(-8, 8, 401)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        vals = np.exp(vmfn_log_density(pts, params))
        h = grid[1] - grid[0]
        assert vals.sum() * h * h == pytest.approx(1.0, abs=1e-2)

    def test_density_ratios_match_kde(self, rng):
        params = VmfnParams(nu=np.array([1.0, 0.0]), kappa=4.0, s=3.0, gamma=4.0)
        draws = sample_vmfn(params, 2, rng, size=1_000_000)
        kde = stats.gaussian_kde(draws.T, bw_method=0.05)
        u1 = np.array([2.0, 0.3])
        u2 = np.array([1.2, -0.8])
        ours = np.exp(vmfn_log_density(u1, params) - vmfn_log_density(u2, params))
        empirical = kde(u1[:, None])[0] / kde(u2[:, None])[0]
        assert ours == pytest.approx(empirical, rel=0.10)

    def test_self_proposal_accepts_with_probability_one(self, rng):
        # detailed-balance smoke test: independence MH with target == proposal
        params = VmfnParams(nu=np.array([0.0, 1.0, 0.0]), kappa=7.0, s=3.0, gamma=2.0)
        u0 = sample_vmfn(params, 3, rng, size=500)
        u1 = sample_vmfn(params, 3, rng, size=500)
        log_alpha = (
            vmfn_log_density(u1, params) - vmfn_log_density(u0, params)
            + vmfn_log_density(u0, params) - vmfn_log_density(u1, params)
        )
        assert np.max(np.abs(log_alpha)) < 1e-10


class TestSampleVmfn:
    def test_radius_marginal_is_nakagami(self, rng):
        params = VmfnParams(nu=np.array([1.0, 0.0, 0.0]), kappa=3.0, s=4.0, gamma=2.0)
        u = sample_vmfn(params, 3, rng, size=100_000)
        r = np.linalg.norm(u, axis=1)
        # R^2 ~ Gamma(shape=s, scale=gamma/s)
        result = stats.kstest(r**2, stats.gamma(a=4.0, scale=0.5).cdf)
        assert result.pvalue > 0.01

    def test_direction_marginal_mean(self, rng):
        nu = np.array([0.0, 1.0, 0.0])
        params = VmfnParams(nu=nu, kappa=20.0, s=4.0, gamma=2.0)
        u = sample_vmfn(params, 3, rng, size=50_000)
        dirs = u / np.linalg.norm(u, axis=1, keepdims=True)
        mean_dir = dirs.mean(axis=0)
        mean_dir /= np.linalg.norm(mean_dir)
        assert mean_dir @ nu > np.cos(np.radians(1.5))

    @pytest.mark.parametrize("n", [2, 3, 5, 20, 150])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 50.0, 500.0])
    def test_matches_reference_construction(self, n, kappa):
        nu = np.random.default_rng([7, n]).standard_normal(n)
        params = VmfnParams(nu=nu / np.linalg.norm(nu), kappa=kappa, s=2.0, gamma=float(n))
        gen, ref_gen = np.random.default_rng([8, n]), np.random.default_rng([8, n])
        u = sample_vmfn(params, n, gen, size=400)
        ref = _reference_sample_vmfn(params, n, ref_gen, 400)
        r = np.linalg.norm(ref, axis=1)
        assert np.max(np.abs(u - ref) / r[:, None]) <= 1e-12
        assert gen.random() == ref_gen.random()

    def test_deterministic_given_seed(self):
        params = VmfnParams(nu=np.array([1.0, 0.0]), kappa=2.0, s=1.0, gamma=1.0)
        a = sample_vmfn(params, 2, np.random.default_rng(3), size=5)
        b = sample_vmfn(params, 2, np.random.default_rng(3), size=5)
        assert np.array_equal(a, b)


class TestFitVmfn:
    def test_concentration_cap(self):
        # all directions identical: chi capped at 0.95
        samples = np.tile([2.0, 0.0], (10, 1)) * np.linspace(0.5, 2, 10)[:, None]
        fitted = fit_vmfn(samples, np.ones(10))
        expected_kappa = (0.95 * 2 - 0.95**3) / (1 - 0.95**2)
        assert fitted.nu == pytest.approx([1.0, 0.0])
        assert fitted.kappa == pytest.approx(expected_kappa, rel=1e-12)
        assert expected_kappa == pytest.approx(10.6936, abs=1e-4)

    def test_radial_moments(self):
        samples = np.array([[1.0, 0.0], [0.0, 3.0]])
        fitted = fit_vmfn(samples, np.ones(2))
        assert fitted.gamma == pytest.approx(5.0)
        # nu4 = 41, s = 25 / 16
        assert fitted.s == pytest.approx(25.0 / 16.0)

    def test_round_trip(self, rng):
        n = 4
        nu = np.zeros(n)
        nu[0] = 1.0
        params = VmfnParams(nu=nu, kappa=20.0, s=4.0, gamma=2.0)
        draws = sample_vmfn(params, n, rng, size=100_000)
        fitted = fit_vmfn(draws, np.ones(draws.shape[0]))
        assert fitted.nu @ nu > np.cos(np.radians(2.0))
        assert fitted.kappa == pytest.approx(20.0, rel=0.05)
        assert fitted.s == pytest.approx(4.0, rel=0.03)
        assert fitted.gamma == pytest.approx(2.0, rel=0.03)

    def test_zero_weights_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            fit_vmfn(np.eye(2), np.zeros(2))

    def test_identical_radii_clamp_shape(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        fitted = fit_vmfn(samples, np.ones(3))
        assert fitted.s == 1e6

    def test_balanced_directions_give_uniform_directions(self):
        # the weighted resultant vanishes: any mean direction, zero concentration
        samples = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        fitted = fit_vmfn(samples, np.ones(4))
        assert np.array_equal(fitted.nu, [1.0, 0.0])
        assert fitted.kappa == 0.0

    def test_zero_weight_samples_ignored(self):
        samples = np.array([[1.0, 0.0], [0.0, 2.0], [37.0, 0.0]])
        weights = np.array([1.0, 1.0, 0.0])
        fitted = fit_vmfn(samples, weights)
        reference = fit_vmfn(samples[:2], weights[:2])
        assert fitted.gamma == reference.gamma and fitted.kappa == reference.kappa

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_weight_scale_invariance(self, scale):
        rng = np.random.default_rng(99)
        samples = rng.standard_normal((50, 3))
        weights = rng.uniform(0.1, 2.0, size=50)
        a = fit_vmfn(samples, weights)
        b = fit_vmfn(samples, weights * scale)
        assert a.kappa == pytest.approx(b.kappa, rel=1e-12)
        assert a.s == pytest.approx(b.s, rel=1e-12)
        assert a.gamma == pytest.approx(b.gamma, rel=1e-12)
        assert np.allclose(a.nu, b.nu, rtol=1e-12)

    @pytest.mark.parametrize("zero_weights", [False, True])
    def test_matches_two_pass_fit(self, zero_weights):
        rng = np.random.default_rng([9, int(zero_weights)])
        samples = rng.standard_normal((2000, 150)) + 0.3 * np.eye(150)[0]
        weights = rng.uniform(0.0, 1.0, size=2000)
        if zero_weights:
            weights[rng.uniform(size=2000) < 0.3] = 0.0
        fitted = fit_vmfn(samples, weights)
        nu, kappa, s, gamma = _reference_fit_vmfn(samples, weights)
        assert np.linalg.norm(fitted.nu - nu) <= 1e-13
        assert fitted.kappa == pytest.approx(kappa, rel=1e-13)
        assert fitted.s == pytest.approx(s, rel=1e-13)
        assert fitted.gamma == pytest.approx(gamma, rel=1e-13)

    def test_chi_never_exceeds_cap(self, rng):
        # the capped chi bounds the fitted concentration for any input
        for _ in range(20):
            samples = rng.standard_normal((30, 5)) + 5 * np.eye(5)[0]
            fitted = fit_vmfn(samples, rng.uniform(0, 1, size=30))
            n = 5
            kappa_cap = (0.95 * n - 0.95**3) / (1 - 0.95**2)
            assert fitted.kappa <= kappa_cap + 1e-12


class TestVmfnParamsValidation:
    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            VmfnParams(nu=np.array([1.0, 1.0]), kappa=1.0, s=1.0, gamma=1.0)

    def test_requires_valid_shape_and_spread(self):
        nu = np.array([1.0, 0.0])
        for kappa in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                VmfnParams(nu=nu, kappa=kappa, s=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            VmfnParams(nu=nu, kappa=1.0, s=0.2, gamma=1.0)
        with pytest.raises(ValueError):
            VmfnParams(nu=nu, kappa=1.0, s=1.0, gamma=0.0)
