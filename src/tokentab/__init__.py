"""In-context tabular classification with per-feature tokenization.

A transformer backbone predicts unlabelled query rows from labelled
support rows in one forward pass. The input layer tokenizes every feature:
numerical values scale a frozen weight row, categorical values look up a
shared token table and add a per-column identifier regularized toward
orthogonality. Everything runs on a small float64 autodiff engine.
"""

from .autodiff import (
    ComputationTape,
    DimensionError,
    NumericError,
    Tensor,
    aggregate_tokens,
    linear_forward,
    softmax_cross_entropy,
)
from .checkpoint import Checkpoint, load_checkpoint, rebuild_model, save_checkpoint
from .data import (
    EncodedDataset,
    NormalizationStats,
    ParseError,
    RawDataset,
    encode,
    fit_schema,
    load_csv,
    split_train_test,
)
from .gradcheck import component_checks, grad_check
from .metrics import UndefinedMetricError, accuracy, roc_auc_ovo
from .model import (
    EncoderLayer,
    InContextClassifier,
    ModelConfig,
    SupportQueryBatch,
    encoder_forward,
)
from .optim import Adam
from .prior import (
    PriorConfig,
    SyntheticTask,
    build_pretraining_model,
    episode_from_task,
    evaluate_fresh_tasks,
    pretrain,
    sample_task,
)
from .tokenizer import (
    CategoricalTokenTable,
    Column,
    FeatureSchema,
    FeatureTokenizer,
    SchemaError,
    category_gram_matrix,
    identifier_gram_matrix,
    map_category,
    mean_abs_off_diagonal,
    orthogonal_loss,
)
from .training import (
    FinetuneConfig,
    RepetitionReport,
    TrainLog,
    average_train_logs,
    build_finetune_model,
    finetune,
    full_support_episode,
    run_protocol,
    sample_episode,
    total_loss,
)

__version__ = "0.1.0"
