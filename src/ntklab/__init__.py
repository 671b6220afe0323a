"""Numerical laboratory for mean-field signal propagation and the neural
tangent kernel of fully-connected networks."""

__version__ = "0.1.0"

from .activations import ActivationKind, dphi, phi
from .meanfield import (
    InitHyper,
    MeanFieldTrace,
    Phase,
    PhaseLabel,
    classify_phase,
    edge_of_chaos_sigma_w_sq,
    run_trace,
    run_traces,
    variance_fixed_point,
)
from .ntk_theory import (
    KappaPair,
    NngpMatrix,
    ThetaStar,
    TrainedVariance,
    VariancePrediction,
    build_theta_star,
    compute_kappas,
    condition_ratio,
    nngp_matrix,
    predict_variance,
    spd_solve,
    theta_star_matrix,
    trained_output_variance,
)
from .finite_net import (
    Mlp,
    TrainConfig,
    TrainLog,
    forward,
    forward_batch,
    init,
    layer_widths,
    train_full_batch,
)
from .empirical_ntk import (
    DriftStat,
    KernelMatrix,
    VarianceRatioStat,
    empirical_kernel,
    init_variance_ratio,
    self_kernel,
    training_drift,
)
from .data_io import (
    Dataset,
    RecordStore,
    RunRecord,
    load_mnist_subset,
    synthetic_dataset,
)
