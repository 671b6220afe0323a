"""Numerical laboratory for mean-field signal propagation and the neural
tangent kernel of fully-connected networks."""

__version__ = "0.1.0"

from .activations import ActivationKind, dphi, phi
from .meanfield import (
    DepthSums,
    InitHyper,
    Phase,
    PhaseLabel,
    classify_phase,
    depth_sums,
    edge_of_chaos_sigma_w_sq,
    variance_fixed_point,
)
from .ntk_theory import (
    NngpMatrix,
    ThetaStar,
    TrainedVariance,
    VariancePrediction,
    condition_ratio,
    nngp_matrix,
    predict_variance,
    sample_kernels,
    spd_solve,
    theta_star_matrix,
    trained_output_variance,
)
from .finite_net import (
    Mlp,
    TrainConfig,
    TrainLog,
    forward_batch,
    init,
    layer_widths,
    train_full_batch,
)
from .empirical_ntk import (
    DriftStat,
    VarianceRatioStat,
    empirical_kernel,
    init_variance_ratio,
    training_drift,
)
from .data_io import (
    Dataset,
    RecordStore,
    RunRecord,
    load_mnist_subset,
    synthetic_dataset,
)
