"""Adversarial disruption of toy two-stage generative models.

A self-contained research harness: a small reverse-mode autodiff engine, a
deterministic zoo of encoder/generator toys, latent- and image-space
disruption attacks with several gradient ensembling rules, surrogate
image-quality metrics, and a CLI that runs the full evaluation protocol
reproducibly on a desk machine.
"""

__version__ = "0.1.0"

from .attacks import AttackConfig, build_gradient_provider, run_attack
from .autodiff import Tape, Tensor, recording
from .config import (
    DatasetSpec,
    ExperimentConfig,
    MetricThresholds,
    ModelSpec,
    example_config,
    load_config,
    parse_config,
)
from .dataset import generate_dataset, load_dataset_from_directory, read_pnm, write_pnm
from .ensembles import (
    EnsembleStrategy,
    PerModelGradient,
    aggregate,
    aggregate_gradient_ensemble,
    aggregate_hmm,
    aggregate_loss_ensemble,
    aggregate_normalized,
)
from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    InvariantError,
    LineageError,
    ShapeError,
)
from .harness import EvaluationReport, emit_reports, run_experiment
from .metrics import (
    SurrogateEmbedder,
    aggregate_dsr,
    classify_success,
    id_distance,
    l2_image,
    pca_project_latents,
    perceptual_distance,
    separation_statistic,
)
from .objectives import ImageAttackObjective, LatentAttackObjective
from .zoo import ModelDims, TwoStageModel, build_model, sample_attribute_set

__all__ = [
    "AttackConfig",
    "ConfigError",
    "DatasetSpec",
    "DegenerateEmbeddingError",
    "EnsembleStrategy",
    "EvaluationReport",
    "ExperimentConfig",
    "ImageAttackObjective",
    "InvariantError",
    "LatentAttackObjective",
    "LineageError",
    "MetricThresholds",
    "ModelDims",
    "ModelSpec",
    "PerModelGradient",
    "ShapeError",
    "SurrogateEmbedder",
    "Tape",
    "Tensor",
    "TwoStageModel",
    "aggregate",
    "aggregate_dsr",
    "aggregate_gradient_ensemble",
    "aggregate_hmm",
    "aggregate_loss_ensemble",
    "aggregate_normalized",
    "build_gradient_provider",
    "build_model",
    "classify_success",
    "emit_reports",
    "example_config",
    "generate_dataset",
    "id_distance",
    "l2_image",
    "load_config",
    "load_dataset_from_directory",
    "parse_config",
    "pca_project_latents",
    "perceptual_distance",
    "read_pnm",
    "recording",
    "run_attack",
    "run_experiment",
    "sample_attribute_set",
    "separation_statistic",
    "write_pnm",
]

