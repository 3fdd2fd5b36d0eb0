"""Desk-scale federated averaging with quantization-robust client training."""

from .data import (Batch, Dataset, FederatedDataset, dirichlet_partition,
                   gen_synthetic)
from .errors import (AggregationError, ConfigError, DegenerateTensorError,
                     DivergedError, FedQuantError, NumericError, ShapeError,
                     UsageError)
from .evaluation import BitConfig, EvalReport, quantize_for_eval, sweep
from .federation import (FedConfig, ServerState, TrainingHistory, aggregate,
                         init_state, load_checkpoint, run, sample_clients,
                         save_checkpoint, server_step, step_round)
from .mlp import ParamSet, QuantPlan, backward, forward, init_params
from .quantize import (QuantSpec, StepTable, estimate_range_mse, make_spec,
                       pseudo_quantize, quantize, rescale_step, ste_backward)
from .rng import Purpose, RngStream
from .strategies import (ClientTask, ClientUpdate, StepTables, StrategyConfig,
                         calibrate_steps, local_train, resolve_bits)
from .theory import (BoundInputs, BoundReport, check_conditions, compute_bound,
                     empirical_bound_check, empirical_noise_bound, r_value)

__version__ = "0.1.0"
