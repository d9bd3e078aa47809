"""Confounder-aware meme classification pipeline.

Synthetic corpus generation, perceptual-hash clustering, confounder tuple
detection, label-propagation rules, and an equal-weight stacking ensemble
over simulated base models.
"""

__version__ = "0.1.0"

from .clustering import (ClusterAssignment, CorpusStats, cluster_images,
                         cluster_texts, corpus_stats, normalize_text)
from .dataset import (DatasetComposition, GeneratorNoise, MemeRecord,
                      read_manifest, read_pgm, write_manifest, write_pgm)
from .ensemble import (StackedPrediction, read_predictions, stack_equal_weight,
                       write_predictions)
from .errors import ConfigError, DataFormatError, StageError
from .generator import GeneratedDataset, generate_dataset, image_hashes
from .metrics import EvaluationReport, accuracy, auroc, evaluate
from .phash import hamming, phash
from .rules import (PredictionSet, PseudoLabelSet, apply_rule1, apply_rule2,
                    merge_pseudo_labels, rule1_pseudo_labels)
from .simulator import SimulatorConfig, population, simulate_predictions
from .tuples import (Other, ThreeTuple, TupleStats, TwoTuple, UnimodalHate,
                     detect_tuples, tuple_stats)

__all__ = [
    "__version__",
    "ClusterAssignment", "CorpusStats", "cluster_images", "cluster_texts",
    "corpus_stats", "normalize_text",
    "DatasetComposition", "GeneratorNoise", "MemeRecord", "read_manifest",
    "read_pgm", "write_manifest", "write_pgm",
    "StackedPrediction", "read_predictions", "stack_equal_weight",
    "write_predictions",
    "ConfigError", "DataFormatError", "StageError",
    "GeneratedDataset", "generate_dataset", "image_hashes",
    "EvaluationReport", "accuracy", "auroc", "evaluate",
    "hamming", "phash",
    "PredictionSet", "PseudoLabelSet", "apply_rule1", "apply_rule2",
    "merge_pseudo_labels", "rule1_pseudo_labels",
    "SimulatorConfig", "population", "simulate_predictions",
    "Other", "ThreeTuple", "TupleStats", "TwoTuple", "UnimodalHate",
    "detect_tuples", "tuple_stats",
]
