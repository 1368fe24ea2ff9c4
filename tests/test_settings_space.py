"""Every setting that `ExperimentConfig.validate` accepts ends in a finite
estimate or an error row, at toy size, for every model, method and kernel.

The `@example` is an MLSIS flow-cell run whose first tempering factor
underflows to 0 and whose first bridging factor overflows, so its estimate
would read 0 * inf = nan in an `ok` row.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rareevent import harness
from rareevent.harness import KERNELS, METHODS, MODELS, ExperimentConfig, run_single

SETTINGS = st.builds(
    ExperimentConfig,
    model=st.sampled_from(MODELS),
    method=st.sampled_from(METHODS),
    n=st.one_of(st.sampled_from([20, 40, 60]), st.integers(1, 60)),
    levels=st.integers(1, 3),
    delta_target=st.sampled_from([0.1, 0.5, 1.0, 10.0]),
    kernel=st.sampled_from(sorted(KERNELS)),
    c=st.sampled_from([0.5, 0.1, 0.2, 1.0, 0.3]),
    p0=st.sampled_from([0.1, 0.2, 0.5, 0.25]),
    n_b=st.integers(0, 2),
    level_dims=st.sampled_from(["ldd", "fixed"]),
    ns_frac=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 1000),
    beta=st.sampled_from([1.0, 3.5]),
    tau0=st.sampled_from([0.03, 0.2, 1.0]),
    stable_timing=st.just(True),
)


@given(config=SETTINGS)
@example(config=ExperimentConfig(
    model="flowcell2d", method="mlsis", n=20, levels=3, delta_target=10.0, kernel="acs",
    c=0.5, n_b=1, level_dims="fixed", ns_frac=0.9, tau0=0.2, seed=866, stable_timing=True))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_accepted_setting_ends_in_a_finite_estimate_or_an_error_row(config):
    try:
        config.validate()
    except ValueError:
        return
    traces = []
    estimator = harness._METHODS[config.method]

    def recording(model, cfg, rng):
        estimate, trace = estimator(model, cfg, rng)
        traces.append(trace)
        return estimate, trace

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setitem(harness._METHODS, config.method, recording)
        record = run_single(config, 0)
    if not record.ok:
        assert record.status.startswith("error:")
        return
    assert np.isfinite(record.estimate) and record.estimate >= 0
    spent = sum(record.eval_counts.values())
    (trace,) = traces
    if trace is None:                        # crude Monte Carlo
        assert spent == config.n
    else:
        assert trace.product() == record.estimate
        assert config.n + sum(step.n_evals for step in trace.steps) == spent
