"""ccfmlab: analysis and simulation toolkit for delayed car-following platoons.

The package splits along the natural workflow:

* :mod:`ccfmlab.model`     -- configuration, equilibrium gains, the vector field;
* :mod:`ccfmlab.spectral`  -- regime classification and dominant characteristic roots;
* :mod:`ccfmlab.rates`     -- decay rates from the dominant root, and the optimal delay;
* :mod:`ccfmlab.integrate` -- method-of-steps simulation and trajectory metrics;
* :mod:`ccfmlab.hopf`      -- center-manifold normal form at the critical gain;
* :mod:`ccfmlab.cli`       -- the ``ccfm`` command-line front end.
"""

from .errors import (
    CcfmError,
    DomainBreakdownError,
    InvalidConfigError,
    NegativeVelocityBaseError,
    NumericalError,
    RootSolveError,
    UnstableRegimeError,
)
from .hopf import HopfReport, critical_eigendata, hopf_report, predicted_amplitude
from .integrate import (
    SimConfig,
    Trajectory,
    amplitude_envelope,
    settling_time,
    simulate,
    write_trajectory_csv,
)
from .model import (
    EquilibriumCoefficients,
    LeaderProfile,
    PlatoonConfig,
    PlatoonState,
    VehicleParams,
    beta_star,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .rates import optimal_delay, peak_rate, rate_curve, rate_of_convergence
from .spectral import (
    CharacteristicRoot,
    Regime,
    StabilityVerdict,
    classify_pair,
    classify_platoon,
    critical_delay,
    critical_gain,
    dominant_root,
    hopf_point,
    no_delay_spectrum,
    small_delay_condition,
    stability_region_margin,
    transversality,
)

__version__ = "0.1.0"

__all__ = [
    "CcfmError",
    "CharacteristicRoot",
    "DomainBreakdownError",
    "EquilibriumCoefficients",
    "HopfReport",
    "InvalidConfigError",
    "LeaderProfile",
    "NegativeVelocityBaseError",
    "NumericalError",
    "PlatoonConfig",
    "PlatoonState",
    "Regime",
    "RootSolveError",
    "SimConfig",
    "StabilityVerdict",
    "Trajectory",
    "UnstableRegimeError",
    "VehicleParams",
    "amplitude_envelope",
    "beta_star",
    "classify_pair",
    "classify_platoon",
    "config_from_dict",
    "config_to_dict",
    "critical_delay",
    "critical_eigendata",
    "critical_gain",
    "dominant_root",
    "hopf_point",
    "hopf_report",
    "load_config",
    "no_delay_spectrum",
    "optimal_delay",
    "peak_rate",
    "predicted_amplitude",
    "rate_curve",
    "rate_of_convergence",
    "settling_time",
    "simulate",
    "small_delay_condition",
    "stability_region_margin",
    "transversality",
    "write_trajectory_csv",
]
