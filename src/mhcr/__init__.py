"""Multi-view hypergraph contrastive recommender.

Three embedding views (user-item graph, item-item modality graphs, and a
learnable hypergraph), BPR plus two contrastive objectives with manually
backpropagated gradients, and a full-ranking top-K evaluation harness with
cold-start slicing.
"""

from .dataio import (
    InteractionDataset,
    ModalityFeatures,
    SyntheticConfig,
    generate_synthetic,
    load_interactions,
    split_dataset,
)
from .errors import ConfigError, DataError, MhcrError, NumericError, ParseError, ShapeError
from .evaluation import EvalReport, evaluate
from .training import ModelParameters, TrainConfig, evaluate_params, fit

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "EvalReport",
    "InteractionDataset",
    "MhcrError",
    "ModalityFeatures",
    "ModelParameters",
    "NumericError",
    "ParseError",
    "ShapeError",
    "SyntheticConfig",
    "TrainConfig",
    "evaluate",
    "evaluate_params",
    "fit",
    "generate_synthetic",
    "load_interactions",
    "split_dataset",
]
