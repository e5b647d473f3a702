"""Deterministic federated-averaging simulator with convergence-theory checks.

Two over-parameterized regression models (a deep linear network and a
two-layer ReLU network) trained by synchronous federated averaging under
partial participation, plus the Gram-matrix spectra, contraction bounds, and
executable inequality checks that explain why the training loss contracts.
"""

from .analysis import (
    BoundSeries,
    FirstOrderReport,
    GramSpectrum,
    bound_series,
    gram_H_infinity,
    gram_P0,
    gram_P0_lambda_min,
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
from .verify import CheckReport, make_report

__version__ = "0.1.0"
