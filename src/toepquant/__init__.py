"""Quantized Toeplitz covariance estimation.

Estimate a symmetric Toeplitz covariance matrix from dithered, quantized
observations restricted to a sparse ruler, evaluate the theoretical rate
constants that govern the estimator, and reproduce the accompanying
benchmark experiments at desk scale.
"""

from ._seeding import STREAM_VERSION
from .bounds import (
    BoundsReport,
    big_k,
    evaluate_bounds,
    kappa,
    lambda_diag,
    script_k,
    script_l,
    script_l_prime,
    threshold_zeta,
    vsc_predict,
)
from .estimators import (
    Correction,
    banded_estimate,
    quantized_estimate,
    relative_error,
    ruler_estimate,
    threshold_estimate,
)
from .experiments import (
    Arm,
    ExperimentConfig,
    ResultRow,
    emit_plot_script,
    fit_loglog_slope,
    run_experiment,
    simulate_estimate,
)
from .quantization import (
    Dither,
    QuantizationTrace,
    QuantizerConfig,
    draw_dither,
    quantize_vector,
)
from .rulers import (
    Ruler,
    coverage_coefficient,
    full_ruler,
    is_ruler,
    phi_bound,
    ruler_alpha,
)
from .sampling import (
    GenSpec,
    SampleBatch,
    gen_banded,
    gen_toeplitz_vandermonde,
    observe,
    sample_gaussian,
    toeplitz_from_modes,
)
from .toeplitz import (
    SymToeplitz,
    fro_norm,
    max_norm,
    op_norm,
    principal_submatrix,
    sup_l,
    toep,
)

__version__ = "0.1.0"
