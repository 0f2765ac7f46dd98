"""Desk-scale federated-learning simulator.

Local Superior Soups (soup-style regularized local training) plus
FedAvg/FedProx baselines over tiny hand-backprop classifiers, with
non-IID partitioners, convergence-theory calculators, and loss-landscape
diagnostics.
"""

from .analysis import (
    BvclDiagnostics,
    TheoryParams,
    bvcl_diagnostics,
    convergence_bound,
    ensemble_variance_split,
    estimate_sigma,
    estimate_zeta,
    hessian_top_eig,
    lr_choice,
    max_local_steps,
)
from .config import ExperimentConfig, parse_config, serialize_config
from .data import (
    Dataset,
    FeatureTransform,
    PartitionPlan,
    dirichlet_partition,
    feature_shift_partition,
    gen_blobs,
    load_idx,
    split_dataset,
)
from .experiment import ExperimentResult, run_experiment
from .federation import (
    ClientState,
    RoundRecord,
    derive_seed,
    run_round,
    warmup_pretrain,
    write_rounds_csv,
)
from .local_training import (
    LocalConfig,
    LocalTrace,
    affinity_loss,
    diversity_loss,
    fedprox_local_train,
    interpolate,
    lss_local_train,
    lss_regularized_grad,
    sample_interp_coeffs,
)
from .model import MlpSpec, accuracy, init_params, loss_and_grad
from .params import (
    ParamVector,
    axpy,
    l2_distance,
    load_checkpoint,
    save_checkpoint,
    weighted_average,
)

__version__ = "0.1.0"
