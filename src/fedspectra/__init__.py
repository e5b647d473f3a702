"""Deterministic federated-averaging simulator with convergence-theory checks.

Two over-parameterized regression models (a deep linear network and a
two-layer ReLU network) trained by synchronous federated averaging under
partial participation, plus the Gram-matrix spectra, contraction bounds, and
executable inequality checks that explain why the training loss contracts.
"""

from .analysis import (
    BoundSeries,
    CheckReport,
    FirstOrderReport,
    GramSpectrum,
    bound_series,
    check_drift,
    check_gram_floor,
    check_init_spectra,
    check_local_descent,
    check_local_deviation,
    check_local_drift,
    check_ntk_trace,
    drift_radius_deep_linear,
    drift_radius_two_layer,
    first_order_scaling,
    gram_H_infinity,
    gram_P0,
    gram_P0_lambda_min,
    lambda_min_floor,
    make_report,
    predict_first_order,
    sigma_min_nonzero,
    spectrum,
)
from .data import (
    Dataset,
    IdxFormatError,
    load_idx,
    partition_iid,
    partition_noniid,
    preprocess_unit_norm,
    relu_targets,
    save_idx,
    synth_linear_dataset,
)
from .federation import (
    DivergenceError,
    FederationConfig,
    RoundSnapshot,
    RoundTrace,
    RunResult,
    global_loss,
    run_fedavg,
    sample_participants,
)
from .models import (
    DeepLinearParams,
    LabeledBatch,
    TwoLayerParams,
    grad_two_layer,
    grads_deep_linear,
    init_deep_linear,
    init_two_layer,
    loss_of,
    square_loss,
    vec_residual,
)
from .rng import stream

__version__ = "0.1.0"
