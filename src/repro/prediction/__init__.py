"""Execution-time and queue-time prediction (Section VI-C of the paper).

* :mod:`repro.prediction.features` — the feature vector of Section VI-C:
  batch size, shots, depth, width, gate operations, memory slots, machine
  qubits.
* :mod:`repro.prediction.runtime_model` — the product-of-linear-terms model
  ``prod(a_i + b_i * x_i)`` fitted with ``scipy.optimize.curve_fit``, the
  70/30 train/test split, and the per-machine Pearson correlations of
  Fig. 15 / per-job traces of Fig. 16.  scipy is imported on the first
  fit, so importing this package loads none.
* :mod:`repro.prediction.queue_model` — a queue-wait estimator implementing
  the paper's recommendation that queue-time prediction is worth pursuing.
"""

from repro.prediction.features import (
    FEATURE_NAMES,
    CUMULATIVE_FEATURE_SETS,
    feature_matrix,
    feature_vector,
)
from repro.prediction.runtime_model import (
    ProductLinearModel,
    MachinePredictionResult,
    RuntimePredictionStudy,
    train_test_split,
)
from repro.prediction.evaluation import (
    PredictionErrorReport,
    evaluate_study,
    mean_absolute_error,
    mean_absolute_percentage_error,
    root_mean_squared_error,
)
from repro.prediction.queue_model import QueueTimePredictor, QueuePrediction

__all__ = [
    "FEATURE_NAMES",
    "CUMULATIVE_FEATURE_SETS",
    "feature_matrix",
    "feature_vector",
    "ProductLinearModel",
    "MachinePredictionResult",
    "RuntimePredictionStudy",
    "train_test_split",
    "QueueTimePredictor",
    "QueuePrediction",
    "PredictionErrorReport",
    "evaluate_study",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "root_mean_squared_error",
]
