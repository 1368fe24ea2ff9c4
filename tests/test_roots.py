"""`_brent` is scipy's brentq step for step, and importing the package leaves
scipy.optimize (and the scipy.sparse it pulls in) unloaded, and scipy.linalg
too until the first flow-cell solve.

Every comparison runs both solvers on the same function and bracket and
asserts the same root in `float.hex` after the same number of calls of f.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import rareevent
from rareevent import mlsis, randomfield, sis
from rareevent._roots import _brent
from rareevent.mlsis import solve_beta
from rareevent.randomfield import kl_basis_1d
from rareevent.sis import solve_sigma

SCIPY_RTOL = 4 * np.finfo(float).eps


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def _outcome(solver, f, a, b, **tol):
    """(root or exception type, calls of f) of one solver run."""
    counted = _counted(f)
    try:
        return float(solver(counted, a, b, **tol)).hex(), counted.calls
    except (ValueError, RuntimeError) as err:
        return type(err).__name__, counted.calls


def assert_same_as_brentq(f, a, b, xtol, rtol=SCIPY_RTOL, maxiter=100):
    tol = dict(xtol=xtol, rtol=rtol, maxiter=maxiter)
    ours = _outcome(_brent, f, a, b, **tol)
    assert ours == _outcome(brentq, f, a, b, **tol)
    return ours


class Recorder:
    """Stands in for a module's `_brent`: checks each call against brentq, then solves."""

    def __init__(self):
        self.calls = []

    def __call__(self, f, a, b, xtol, rtol=SCIPY_RTOL, maxiter=100):
        self.calls.append(assert_same_as_brentq(f, a, b, xtol, rtol, maxiter))
        return _brent(f, a, b, xtol, rtol, maxiter)


@pytest.fixture
def recorder(monkeypatch):
    rec = Recorder()
    for module in (sis, mlsis, randomfield):
        monkeypatch.setattr(module, "_brent", rec)
    return rec


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sigma_prev", [np.inf, 3.0, 0.4])
@pytest.mark.parametrize("delta_target", [0.5, 1.5])
def test_solve_sigma_roots_match_brentq(recorder, seed, sigma_prev, delta_target):
    g = np.random.default_rng([31, seed]).normal(1.5, 1.0, 500)
    solve_sigma(g, sigma_prev, delta_target)
    assert len(recorder.calls) == 1
    assert recorder.calls[0][1] > 2


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("beta_prev", [0.0, 0.3, 0.9])
def test_solve_beta_roots_match_brentq(recorder, seed, beta_prev):
    rng = np.random.default_rng([32, seed])
    g_coarse = rng.normal(1.0, 1.0, 500)
    g_fine = g_coarse + rng.normal(0.5, 2.0, 500)
    solve_beta(g_coarse, g_fine, 0.5, beta_prev, 0.5)
    assert len(recorder.calls) == 1


def test_cov_with_infinite_values_matches_brentq():
    # solve_sigma's COV function, reading inf where every weight underflows
    g = np.random.default_rng(33).uniform(1e147, 2e147, 300)

    def f(t):
        log_w = sis.std_normal_log_cdf(-g / np.exp(t))
        try:
            return sis.cov_from_log_weights(log_w) - 1.0
        except sis.DegenerateWeightsError:
            return np.inf

    a, b = np.log(sis.SIGMA_MIN), np.log(1e150)
    assert f(a) == np.inf and f(b) < 0
    root, calls = assert_same_as_brentq(f, a, b, 1e-10)
    assert math.isfinite(f(float.fromhex(root))) and calls > 2


def test_kl_roots_of_the_1d_basis_match_brentq(recorder):
    basis = kl_basis_1d(0.01, 150)
    assert basis.truncation == 150
    # per family count // 2 + 2 branches, one root each
    assert len(recorder.calls) == 2 * (150 // 2 + 2)


monotone = st.tuples(
    st.floats(0.0, 1e3), st.floats(0.0, 1e3), st.floats(1e-3, 1e3), st.floats(0.0, 1e3),
).filter(lambda p: p[0] + p[1] + p[3] > 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(coef=monotone, root=st.floats(-10.0, 10.0), left=st.floats(1e-6, 20.0),
       right=st.floats(1e-6, 20.0), flip=st.booleans(), sign=st.sampled_from([1.0, -1.0]),
       xtol=st.floats(1e-14, 1e-2))
def test_monotone_functions_match_brentq(coef, root, left, right, flip, sign, xtol):
    lin, sat, rate, cube = coef

    def f(x):
        d = x - root
        return sign * (lin * d + sat * math.tanh(rate * d) + cube * d ** 3)

    a, b = root - left, root + right
    if flip:
        a, b = b, a
    assert_same_as_brentq(f, a, b, xtol)


@pytest.mark.parametrize("shape", [lambda d: math.tanh(50 * d),
                                   lambda d: max(-1.0, min(1.0, 30 * d))], ids=["tanh", "clip"])
def test_zero_divisor_steps_match_brentq(shape):
    # at this scale an extrapolation divisor underflows to 0: C's step is then
    # inf or NaN, which bisects, where Python's division raises
    assert_same_as_brentq(lambda x: 1e-300 * shape(x - 0.35), -1.0, 4.75, 1e-12)


def test_same_sign_bracket_raises():
    assert _outcome(_brent, lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12) == ("ValueError", 2)
    assert_same_as_brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)


def test_nan_value_raises():
    f = lambda x: math.nan if 0.15 < x < 0.25 else x ** 3 - 0.2   # noqa: E731
    # the first secant step lands on 0.2
    assert assert_same_as_brentq(f, 0.0, 1.0, 1e-12) == ("ValueError", 3)
    with pytest.raises(ValueError, match="NaN"):
        _brent(f, 0.0, 1.0, 1e-12)


def test_exhausted_maxiter_raises():
    f = lambda x: x ** 3 - 0.2    # noqa: E731
    assert assert_same_as_brentq(f, 0.0, 1.0, 1e-14, maxiter=3) == ("RuntimeError", 5)
    with pytest.raises(RuntimeError, match="3 iterations"):
        _brent(f, 0.0, 1.0, 1e-14, maxiter=3)


def test_root_at_a_bracket_end_is_returned_after_two_calls():
    assert assert_same_as_brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == ((1.0).hex(), 2)
    assert assert_same_as_brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == ((3.0).hex(), 2)


def test_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(rareevent.__file__).parents[1]))
    code = ("import sys, rareevent; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=str(Path(rareevent.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, check=True).stdout.split()


def test_scipy_linalg_loads_at_the_first_flow_cell_solve():
    out = _fresh_interpreter("""
        import sys
        import numpy as np
        from rareevent import Diffusion1dModel, FlowCellModel, make_kernel, mlsis_estimate
        rng = np.random.default_rng(3)
        mlsis_estimate(Diffusion1dModel(max_level=2), 2, 200, 0.5, make_kernel("vmfn"), 0.1, rng)
        print("scipy.linalg" in sys.modules)
        model = FlowCellModel(tau0=0.2)
        model.evaluate_batch(rng.standard_normal((2, model.dim(1))), 1)
        print("scipy.linalg" in sys.modules)
    """)
    assert out == ["False", "True"]


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_blas_libraries_cached_at_import_cover_scipy_linalg():
    # `_blas._libraries()` is filled once; the deferred LAPACK import must map
    # no OpenBLAS that the package's import had not already mapped
    out = _fresh_interpreter("""
        from rareevent import _blas

        def mapped():
            with open("/proc/self/maps", encoding="utf-8") as fh:
                return sorted({line.split()[-1] for line in fh if "openblas" in line})

        cached, at_import = len(_blas._libraries()), mapped()
        import scipy.linalg.lapack
        _blas._libraries.cache_clear()
        print(mapped() == at_import, cached == len(_blas._libraries()), cached > 0)
    """)
    assert out == ["True", "True", "True"]
