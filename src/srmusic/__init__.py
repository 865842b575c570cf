"""Super-resolution of point sources on the torus with single-snapshot MUSIC.

Subpackages cover the support model (clumped point sets), Fourier/Vandermonde
and Hankel matrices, conditioning bounds and scaling fits, the MUSIC estimator
with its perturbation analysis, Gaussian noise concentration, and a config
driven Monte Carlo harness with a CLI front end.
"""

__version__ = "0.1.0"

from srmusic.torus import (
    SupportSet,
    ClumpSpec,
    ClumpPartition,
    torus_distance,
    min_separation,
    super_resolution_factor,
    generate_clumps,
    validate_clumps,
    check_beta_condition,
)
from srmusic.fourier import (
    HankelSvd,
    vandermonde,
    hankel,
    svd_split,
    sigma_min,
    spectral_norm,
)
from srmusic.bounds import (
    ClumpBoundTerms,
    ScalingFit,
    lower_bound_value,
    fit_clump_constants,
    fit_scaling_exponent,
    upper_bound_witness,
)
from srmusic.music import (
    ImagingGrid,
    MusicEstimate,
    PerturbationReport,
    UnderdeterminedPeaksError,
    noise_correlation,
    music_estimate,
    correlation_sup_diff,
    wedin_bound,
    match_supports,
    save_measurements,
    load_measurements,
)
from srmusic.noise import (
    NoiseSpec,
    ConcentrationReport,
    draw_noise,
    sample_noise,
    concentration_constant,
    expectation_bound,
    tail_bound,
    noise_threshold,
    estimate_concentration,
)
from srmusic.harness import (
    AmplitudeModel,
    ExperimentConfig,
    ExperimentRecord,
    PhaseTransitionSummary,
    run_experiment,
    phase_transition_summary,
    save_records,
)
