"""Rare-event failure probability estimation for PDE-based limit states.

Estimators: crude Monte Carlo, sequential importance sampling (SIS) with
adaptive tempering, multilevel SIS with adaptive bridging across
discretization levels, and (multilevel) subset simulation baselines.  MCMC
moves use either adaptive conditional sampling or an independence sampler
with an adaptively fitted von Mises-Fisher/Nakagami proposal.
"""

from .distributions import (
    VmfnParams,
    fit_vmfn,
    nakagami_log_density,
    sample_nakagami,
    sample_vmf,
    sample_vmfn,
    std_normal_log_cdf,
    vmf_log_density,
    vmfn_log_density,
)
from .errors import (
    DegenerateWeightsError,
    FailedTemperingError,
    ModelEvaluationError,
    NonconvergenceError,
    RareEventError,
    StagnationError,
)
from .fem1d import Diffusion1dModel, solve_diffusion_1d
from .fem2d import FlowCellModel, solve_darcy_rt0, trace_particle
from .harness import (
    ExperimentConfig,
    RunRecord,
    cost_units,
    rel_rmse,
    run_experiment,
    summarize,
    write_csv,
)
from .mcmc import (
    AcsKernel,
    VmfnIndependentKernel,
    cov_of_weights,
    extend_dimension,
    make_kernel,
    resample_multinomial,
)
from .mlsis import bridge_level, mlsis_estimate, peek_level_update, solve_beta
from .models import (
    ConstantModel,
    EvalCounter,
    LimitStateModel,
    LinearLsfModel,
    mc_estimate,
)
from .randomfield import KlBasis, kl_basis_1d, kl_basis_2d, lognormal_params
from .sis import SampleEnsemble, sis_estimate, solve_sigma, stopping_cov, tempering_step
from .subset import mlsus_estimate, sus_estimate

__version__ = "0.1.0"
