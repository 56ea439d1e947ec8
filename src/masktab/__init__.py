"""masktab: masked multi-task learning for partially observed tabular responses.

A numpy library (plus a small CLI) covering the full workflow: synthetic data
generation with planted effects, the preprocessing pipeline, a dense
multi-head network trained with masked MSE/BCE losses, autoencoder transfer
learning, per-response evaluation, and grouped permutation variable
importance.
"""

import logging

__version__ = "0.2.0"

# a library's records reach only the handlers its application configures;
# without one, Python's last-resort handler would print warnings on stderr
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .data_model import (  # noqa: F401
    FeatureSchema,
    RawMeta,
    RawTable,
    SchemaEntry,
    SplitAssignment,
    TabularDataset,
    load_dataset,
    load_raw_table,
    save_dataset,
    save_raw_table,
    validate,
)
from .masked_loss import EPSILON, MaskedBatch, combined_loss, masked_bce, masked_mse  # noqa: F401
from .metrics import (  # noqa: F401
    EvalReport,
    auc_rank,
    classification_metrics,
    evaluate_predictions,
    regression_metrics,
    winner_ranking,
)
from .nn_core import (  # noqa: F401
    AdamState,
    DenseLayer,
    LayerSpec,
    NetworkParams,
    adam_step,
    backward,
    forward,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from .preprocess import (  # noqa: F401
    PreprocessConfig,
    PreprocessReport,
    encode_and_normalise,
    encode_day_of_year,
    preprocess_raw,
    relative_humidity,
    split_blocks,
    transform_responses,
)
from .synthgen import PlantedEffect, SynthConfig, generate, oracle_importance  # noqa: F401
from .trainer import (  # noqa: F401
    AEConfig,
    TrainConfig,
    TrainHistory,
    finetune,
    predict,
    pretrain_autoencoder,
    pretrain_encoder,
    train_baseline,
    train_model,
)
from .vimp import (  # noqa: F401
    ImportanceEntry,
    ImportanceReport,
    grouped_variable_groups,
    importance_report,
    per_column_groups,
    permutation_importance,
    rank_importance,
)
