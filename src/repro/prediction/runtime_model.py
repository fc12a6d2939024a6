"""The product-of-linear-terms runtime predictor (Section VI-C).

The model is exactly the paper's: ``runtime = prod_i (a_i + b_i * x_i)``
over the selected features, fitted per machine with
``scipy.optimize.curve_fit`` on a 70/30 train/test split, and evaluated by
the Pearson correlation between predicted and actual runtimes on the test
split (Fig. 15).  Fig. 16's per-job predicted-vs-actual traces come from the
same fitted models.

``scipy`` is imported by the first :meth:`ProductLinearModel.fit`, not with
this module: ``import repro`` and the commands that never fit a model
(``figures``, ``run-scenarios``) load no scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import pearson_correlation
from repro.core.exceptions import PredictionError
from repro.core.rng import RandomSource
from repro.prediction.features import (
    CUMULATIVE_FEATURE_SETS,
    FEATURE_NAMES,
    feature_matrix,
)
from repro.workloads.trace import TraceDataset


def train_test_split(trace: TraceDataset, train_fraction: float = 0.7,
                     seed: int = 3) -> Tuple[TraceDataset, TraceDataset]:
    """Random 70/30 split of a trace into train and test subsets."""
    if not 0 < train_fraction < 1:
        raise PredictionError("train_fraction must be in (0, 1)")
    size = len(trace)
    if size < 4:
        raise PredictionError("need at least 4 records to split")
    rng = RandomSource(seed, name="train_test_split")
    indices = list(range(size))
    rng.shuffle(indices)
    cut = max(1, int(round(train_fraction * size)))
    cut = min(cut, size - 1)
    train_idx = set(indices[:cut])
    train = trace.take(sorted(train_idx))
    test = trace.take(sorted(set(indices) - train_idx))
    return train, test


class ProductLinearModel:
    """``prod_i (a_i + b_i * x_i)`` fitted with non-linear least squares."""

    def __init__(self, features: Sequence[str] = FEATURE_NAMES):
        unknown = [f for f in features if f not in FEATURE_NAMES]
        if unknown:
            raise PredictionError(f"unknown features: {unknown}")
        if not features:
            raise PredictionError("the model needs at least one feature")
        self.features: Tuple[str, ...] = tuple(features)
        self._parameters: Optional[np.ndarray] = None
        self._scales: Optional[np.ndarray] = None

    # -- model function ---------------------------------------------------------------

    @staticmethod
    def _product(x: np.ndarray, *params: float) -> np.ndarray:
        num_features = x.shape[1]
        result = np.ones(x.shape[0], dtype=float)
        for index in range(num_features):
            a = params[2 * index]
            b = params[2 * index + 1]
            result = result * (a + b * x[:, index])
        return result

    # -- fitting -----------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray, max_evaluations: int = 20000
            ) -> "ProductLinearModel":
        from scipy.optimize import curve_fit

        if x.ndim != 2 or x.shape[1] != len(self.features):
            raise PredictionError(
                f"feature matrix must have {len(self.features)} columns"
            )
        if x.shape[0] != y.shape[0]:
            raise PredictionError("X and y must have the same number of rows")
        if x.shape[0] < 2 * len(self.features):
            raise PredictionError(
                "not enough samples to fit the model "
                f"({x.shape[0]} rows for {len(self.features)} features)"
            )
        # Normalise features to keep curve_fit well conditioned.
        scales = np.maximum(np.abs(x).max(axis=0), 1e-9)
        x_scaled = x / scales
        mean_y = max(float(np.mean(y)), 1e-9)
        initial = []
        for _ in self.features:
            initial.extend([mean_y ** (1.0 / len(self.features)), 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                parameters, _ = curve_fit(
                    self._product, x_scaled, y, p0=initial,
                    maxfev=max_evaluations,
                )
            except RuntimeError as exc:
                raise PredictionError(f"curve_fit failed to converge: {exc}") from exc
        self._parameters = np.asarray(parameters, dtype=float)
        self._scales = scales
        return self

    @property
    def is_fitted(self) -> bool:
        return self._parameters is not None

    @property
    def parameters(self) -> np.ndarray:
        if self._parameters is None:
            raise PredictionError("model is not fitted")
        return np.array(self._parameters)

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._parameters is None or self._scales is None:
            raise PredictionError("model is not fitted")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != len(self.features):
            raise PredictionError(
                f"feature matrix must have {len(self.features)} columns"
            )
        predictions = self._product(x / self._scales, *self._parameters)
        return np.maximum(predictions, 0.0)


@dataclass
class MachinePredictionResult:
    """Per-machine outcome of the prediction study (one Fig. 15 bar group)."""

    machine: str
    num_jobs: int
    correlations: Dict[str, float] = field(default_factory=dict)
    test_actual_minutes: List[float] = field(default_factory=list)
    test_predicted_minutes: List[float] = field(default_factory=list)

    @property
    def best_correlation(self) -> float:
        if not self.correlations:
            return 0.0
        return max(self.correlations.values())

    @property
    def full_model_correlation(self) -> float:
        """Correlation of the model using every feature (last Fig. 15 bar)."""
        if not self.correlations:
            return 0.0
        label = _feature_set_label(CUMULATIVE_FEATURE_SETS[-1])
        return self.correlations.get(label, self.best_correlation)


def _feature_set_label(features: Sequence[str]) -> str:
    """Fig. 15 legend label for a cumulative feature set."""
    pretty = {
        "batch_size": "Batch",
        "shots": "+Shots",
        "depth": "+Depth",
        "width": "+Width",
        "gate_ops": "+GateOps",
        "memory_slots": "+MemSlots",
        "machine_qubits": "+Qubits",
    }
    return pretty[features[-1]] if len(features) > 1 else pretty[features[0]]


class RuntimePredictionStudy:
    """Runs the full Fig. 15 / Fig. 16 study over a trace."""

    def __init__(self, min_jobs_per_machine: int = 40, train_fraction: float = 0.7,
                 seed: int = 3):
        self.min_jobs_per_machine = min_jobs_per_machine
        self.train_fraction = train_fraction
        self.seed = seed

    def run(self, trace: TraceDataset,
            feature_sets: Sequence[Sequence[str]] = CUMULATIVE_FEATURE_SETS
            ) -> Dict[str, MachinePredictionResult]:
        """Fit and evaluate per-machine models for each cumulative feature set."""
        results: Dict[str, MachinePredictionResult] = {}
        for machine, subset in trace.group_by_machine().items():
            completed = subset.completed()
            if len(completed) < self.min_jobs_per_machine:
                continue
            result = MachinePredictionResult(machine=machine, num_jobs=len(completed))
            train, test = train_test_split(completed, self.train_fraction, self.seed)
            for features in feature_sets:
                label = _feature_set_label(features)
                try:
                    x_train, y_train = feature_matrix(train, features)
                    x_test, y_test = feature_matrix(test, features)
                    model = ProductLinearModel(features).fit(x_train, y_train)
                    predicted = model.predict(x_test)
                    correlation = pearson_correlation(predicted, y_test)
                except PredictionError:
                    continue
                result.correlations[label] = correlation
                if features == tuple(feature_sets[-1]) or list(features) == list(
                        feature_sets[-1]):
                    result.test_actual_minutes = [float(v) for v in y_test]
                    result.test_predicted_minutes = [float(v) for v in predicted]
            if result.correlations:
                results[machine] = result
        if not results:
            raise PredictionError(
                "no machine had enough jobs for the prediction study"
            )
        return results
