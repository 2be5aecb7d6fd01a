"""Sequential forward feature selection (Whitney 1971), §III-C(5).

Not every column of a feature group correlates with failure (the paper
calls out *Available Spare Threshold* as dead weight). Starting from an
empty set, the selector greedily adds the feature whose inclusion most
improves the cross-validated score, stopping when no candidate improves
it by more than a tolerance.

Each selection round evaluates every remaining candidate column
independently — an embarrassingly parallel inner loop that fans out over
:class:`repro.parallel.ParallelExecutor` when ``n_jobs > 1``. The CV
folds are computed once up front and shared with the workers alongside
the feature matrix, so the whole selection costs one fork instead of
O(candidates × folds) dataset pickles.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.ml.base import BaseClassifier, clone
from repro.ml.binning import get_binned
from repro.ml.metrics import accuracy, false_positive_rate, true_positive_rate
from repro.ml.model_selection import mean_defined_score
from repro.obs import inc_counter, observe_histogram, trace_span
from repro.parallel import ParallelExecutor, SharedPayload, share


def youden_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """TPR - FPR: the balanced objective MFPA's selection optimizes.

    Accuracy is useless under heavy class imbalance; Youden's J rewards
    catching failures and penalizes false alarms symmetrically. On a
    single-class fold (no positives, or no negatives) the score is
    undefined and NaN is returned so aggregation can *skip* the fold —
    zeroing it instead would drag a good feature's mean toward 0 and
    stall forward selection on sparse-failure data.
    """
    tpr = true_positive_rate(y_true, y_pred)
    fpr = false_positive_rate(y_true, y_pred)
    if np.isnan(tpr) or np.isnan(fpr):
        return float("nan")
    return tpr - fpr


def _score_candidate(
    data: SharedPayload,
    estimator: BaseClassifier,
    columns: list[int],
    scoring: Callable[[np.ndarray, np.ndarray], float],
) -> float:
    """Cross-validated mean score of one candidate column subset."""
    started = time.perf_counter()
    with trace_span("selection.score_candidate"):
        X, y, folds, fold_binned = data.get()
        X_candidate = X[:, columns]
        scores = []
        for fold, (train_indices, validation_indices) in enumerate(folds):
            model = clone(estimator)
            if fold_binned is not None:
                # Column-subset view of the fold's shared binned dataset:
                # candidate evaluation never re-bins anything.
                model.fit(
                    X_candidate[train_indices],
                    y[train_indices],
                    binned=fold_binned[fold].column_view(columns),
                )
            else:
                model.fit(X_candidate[train_indices], y[train_indices])
            predictions = model.predict(X_candidate[validation_indices])
            scores.append(float(scoring(y[validation_indices], predictions)))
    observe_histogram("selection_candidate_seconds", time.perf_counter() - started)
    return mean_defined_score(scores)


class SequentialForwardSelector:
    """Greedy forward selection over feature columns.

    Parameters
    ----------
    estimator:
        Prototype model, cloned for every candidate evaluation.
    splitter:
        CV splitter (typically the MFPA time-series CV).
    scoring:
        ``scoring(y_true, y_pred) -> float``, higher is better. Folds
        scoring NaN (undefined, e.g. :func:`youden_score` without
        positives) are skipped in the per-candidate mean.
    max_features:
        Optional cap on the selected subset size.
    tolerance:
        Minimum score improvement to accept another feature.
    n_jobs:
        Worker processes for the per-round candidate evaluations; any
        value selects the same features in the same order.
    """

    def __init__(
        self,
        estimator: BaseClassifier,
        splitter,
        scoring: Callable[[np.ndarray, np.ndarray], float] = accuracy,
        max_features: int | None = None,
        tolerance: float = 1e-4,
        n_jobs: int = 1,
    ):
        if max_features is not None and max_features < 1:
            raise ValueError("max_features must be at least 1")
        self.estimator = estimator
        self.splitter = splitter
        self.scoring = scoring
        self.max_features = max_features
        self.tolerance = tolerance
        self.n_jobs = n_jobs

    def select(self, X: np.ndarray, y: np.ndarray) -> list[int]:
        """Return the selected column indices, in selection order.

        Also records the score trajectory in ``self.history_`` as
        ``[(added_column, score_after_adding), ...]`` — the data behind
        the paper's Fig 17 improvement curve.
        """
        X = np.asarray(X)
        y = np.asarray(y)
        n_features = X.shape[1]
        remaining = list(range(n_features))
        selected: list[int] = []
        best_score = -np.inf
        self.history_: list[tuple[int, float]] = []

        # The fold geometry depends only on the row count (and days), not
        # on which columns a candidate uses — compute it once.
        folds = list(self.splitter.split(X, y))
        executor = ParallelExecutor(self.n_jobs)

        # With a hist estimator, bin each train fold once up front; every
        # candidate subset in every round is a column view of these.
        if getattr(self.estimator, "split_algorithm", "exact") == "hist":
            fold_binned = tuple(get_binned(X, train) for train, _ in folds)
        else:
            fold_binned = None

        limit = self.max_features or n_features
        # One pool for every round, forked after the data is shared.
        with share((X, y, folds, fold_binned)) as data, executor:
            while remaining and len(selected) < limit:
                inc_counter("mfpa_selection_rounds_total")
                inc_counter("mfpa_selection_candidate_fits_total", len(remaining))
                with trace_span("selection.round"):
                    candidate_scores = executor.starmap(
                        _score_candidate,
                        [
                            (data, self.estimator, selected + [feature], self.scoring)
                            for feature in remaining
                        ],
                    )
                round_best_score = -np.inf
                round_best_feature = None
                for feature, mean_score in zip(remaining, candidate_scores):
                    if mean_score > round_best_score:
                        round_best_score = mean_score
                        round_best_feature = feature
                if round_best_feature is None:
                    break
                if round_best_score <= best_score + self.tolerance and selected:
                    break
                selected.append(round_best_feature)
                remaining.remove(round_best_feature)
                best_score = round_best_score
                self.history_.append((round_best_feature, round_best_score))
        self.selected_ = selected
        self.best_score_ = best_score
        return selected
