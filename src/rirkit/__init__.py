"""Robust instability radius toolkit for discrete-time SISO LTI systems.

Computes the exact robust instability radius of single-peak unstable
plants, synthesizes the minimum-norm stable perturbation that marginally
stabilizes them, and ships two worked applications: sampled-data magnetic
levitation and the FitzHugh-Nagumo neural oscillator.
"""

from .casestudies import (
    EoSearchResult,
    FHNModel,
    FixedPoint,
    MaglevBound,
    MaglevParams,
    Trajectory,
    fhn_fixed_point,
    fhn_inv_norm_sweep,
    fhn_linearize,
    fhn_perturbation,
    fhn_search_eo,
    fhn_simulate,
    h_shaper,
    highpass,
    maglev_upper_bound,
    maglev_zoh,
)
from .errors import (
    DegenerateCrossingError,
    ImproperTransferError,
    NotInGClassError,
    PoleOnCircleError,
    PreconditionError,
    RirkitError,
    SynthesisVerificationError,
    ZeroOnCircleError,
)
from .nyquist import (
    ContourSpec,
    CrossingReport,
    StabilityVerdict,
    closed_loop_poles,
    crossing_counts,
    extended_nyquist_check,
    marginal_verdict,
)
from .polycore import Polynomial, RootSet, from_roots, poly_roots
from .rir import (
    AllPassSpec,
    RealPoleDominanceWitness,
    RIRVerdict,
    allpass_phase_match,
    exact_rir_analyze,
    gain_phase_integral,
    allpass_pcr_bound_check,
    construct_real_pole_dominator,
    minimum_phase_pcr_bound_check,
    pcr_max_search,
    rho_threshold,
    synth_allpass_spec,
    synth_marginal_perturbation,
)
from .transfer import (
    ClassTag,
    DerivativeSample,
    RationalTF,
    classify,
    evaluate,
    linf_norm,
    logderiv,
    pip_check,
    unstable_pole_count,
)

__version__ = "0.1.0"
