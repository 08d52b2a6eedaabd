"""Jamming-aided covert communication design toolkit.

Covertness metrics and bounds, power/rate allocation for quasi-static
channels, pilot/power allocation for fast-varying channels, a Monte-Carlo
detection oracle that checks the covertness claims empirically, and a
figure-sweep experiment runner with CSV/audit tooling.
"""

from .covertness import (
    eta,
    kl_divergence,
    pinsker_budget,
    solve_chi_star,
    tv_exact_n,
    tv_limit,
    tv_upper_bound,
    zeta,
)
from .detection import covertness_audit, simulate_detection
from .experiments import (
    ExperimentSpec,
    audit_run,
    default_spec,
    list_defaults,
    load_spec,
    run_experiment,
)
from .fast_varying import (
    FvSolveResult,
    ao_solve,
    chi_given_tau,
    ergodic_sum_rate,
    es_solve,
    tau_given_chi,
)
from .quasi_static import (
    QsSolveResult,
    closed_form_solve,
    effective_rate,
    poa_solve,
    sca_solve,
    single_receiver_gamma,
)
from .scenario import (
    FastVaryingParams,
    QuasiStaticParams,
    ScenarioConfig,
    ScenarioInstance,
    derive_fast_varying,
    derive_quasi_static,
    path_loss,
    sample_scenario,
)

__all__ = [
    "ExperimentSpec",
    "FastVaryingParams",
    "FvSolveResult",
    "QsSolveResult",
    "QuasiStaticParams",
    "ScenarioConfig",
    "ScenarioInstance",
    "ao_solve",
    "audit_run",
    "chi_given_tau",
    "closed_form_solve",
    "covertness_audit",
    "default_spec",
    "derive_fast_varying",
    "derive_quasi_static",
    "effective_rate",
    "ergodic_sum_rate",
    "es_solve",
    "eta",
    "kl_divergence",
    "list_defaults",
    "load_spec",
    "path_loss",
    "pinsker_budget",
    "poa_solve",
    "run_experiment",
    "sample_scenario",
    "sca_solve",
    "simulate_detection",
    "single_receiver_gamma",
    "solve_chi_star",
    "tau_given_chi",
    "tv_exact_n",
    "tv_limit",
    "tv_upper_bound",
    "zeta",
]

__version__ = "0.1.0"
