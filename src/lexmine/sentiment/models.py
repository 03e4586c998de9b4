"""Naive Bayes and logistic regression over sparse count features.

Both classifiers are written out in full so their internals can be checked
directly: NB posteriors against closed-form smoothed-count arithmetic, and
the LR gradient against finite differences of the loss. LR needs only
numpy: its sparse products are weighted `np.bincount` sums over coordinate
arrays. Prediction ties break toward the negative (majority) class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DivergenceError, InputError
from .bpe import FeatureVector

POSITIVE = "positive"
NEGATIVE = "negative"
LABELS = (NEGATIVE, POSITIVE)


def _check_labels(labels) -> None:
    seen = set(labels)
    bad = seen - set(LABELS)
    if bad:
        raise InputError(f"unknown labels: {sorted(bad)}")
    if len(seen) < 2:
        raise InputError("training data must contain both classes")


# -- naive Bayes -------------------------------------------------------------

@dataclass
class NbModel:
    alpha: float
    class_log_prior: dict[str, float]
    feature_log_lik: dict[str, dict[str, float]]   # class -> feature -> log P
    unseen_log_lik: dict[str, float]               # class -> log P of in-vocab unseen
    vocabulary: set[str]


def nb_train(data: list[tuple[FeatureVector, str]], alpha: float = 1.0) -> NbModel:
    """Multinomial naive Bayes with additive smoothing."""
    if not 0 < alpha < math.inf:
        raise InputError(f"smoothing alpha must be finite and > 0, got {alpha}")
    if not data:
        raise InputError("training data is empty")
    _check_labels(label for _, label in data)

    class_docs = {label: 0 for label in LABELS}
    class_feature_counts = {label: {} for label in LABELS}
    class_totals = {label: 0 for label in LABELS}
    vocabulary: set[str] = set()
    for features, label in data:
        class_docs[label] += 1
        counts = class_feature_counts[label]
        for feature, count in features.items():
            vocabulary.add(feature)
            counts[feature] = counts.get(feature, 0) + count
            class_totals[label] += count

    n_docs = len(data)
    v = len(vocabulary)
    log_prior = {label: math.log(class_docs[label] / n_docs) for label in LABELS}
    log_lik = {}
    unseen = {}
    for label in LABELS:
        denom = class_totals[label] + alpha * v
        log_lik[label] = {
            feature: math.log((count + alpha) / denom)
            for feature, count in class_feature_counts[label].items()
        }
        unseen[label] = math.log(alpha / denom)
    return NbModel(alpha, log_prior, log_lik, unseen, vocabulary)


def nb_log_posteriors(model: NbModel, features: FeatureVector) -> dict[str, float]:
    """Unnormalized per-class log scores; out-of-vocabulary features ignored."""
    scores = {}
    for label in LABELS:
        score = model.class_log_prior[label]
        per_class = model.feature_log_lik[label]
        for feature, count in features.items():
            if feature not in model.vocabulary:
                continue
            score += count * per_class.get(feature, model.unseen_log_lik[label])
        scores[label] = score
    return scores


def nb_predict(model: NbModel, features: FeatureVector) -> str:
    scores = nb_log_posteriors(model, features)
    return POSITIVE if scores[POSITIVE] > scores[NEGATIVE] else NEGATIVE


# -- logistic regression -----------------------------------------------------

@dataclass(frozen=True)
class LrConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    l2_strength: float = 0.0

    def __post_init__(self):
        # written so that NaN fails each check: every comparison with NaN is False
        if not self.learning_rate > 0:
            raise InputError(f"learning rate must be > 0, got {self.learning_rate}")
        if not self.epochs >= 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if not self.l2_strength >= 0:
            raise InputError(f"l2_strength must be >= 0, got {self.l2_strength}")


@dataclass
class LrModel:
    weights: dict[str, float]
    bias: float
    config: LrConfig


@np.errstate(over="ignore")
def _logistic(scores: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-s). For s below about -709, e^-s overflows to inf and the
    result is 0, the correct limit, so numpy's overflow warning is silenced."""
    return 1.0 / (1.0 + np.exp(-scores))


class _LrProblem:
    """Dataset as coordinate arrays over a fixed (sorted) feature order.

    `rows`, `cols` and `vals` hold one entry per feature of each row: rows
    in data order, each row's features in sorted order, as in a canonical
    CSR matrix. The products with a weight or residual vector are weighted
    bincounts over these arrays, so every sum adds its terms in that order.
    """

    def __init__(self, data: list[tuple[FeatureVector, str]]):
        _check_labels(label for _, label in data)
        self.feature_ids = sorted({f for features, _ in data for f in features})
        index = {f: i for i, f in enumerate(self.feature_ids)}
        rows, cols, vals = [], [], []
        for row, (features, _) in enumerate(data):
            for feature, count in sorted(features.items()):
                rows.append(row)
                cols.append(index[feature])
                vals.append(float(count))
        self.rows = np.array(rows, dtype=np.intp)
        self.cols = np.array(cols, dtype=np.intp)
        self.vals = np.array(vals, dtype=np.float64)
        self.y = np.array([1.0 if label == POSITIVE else 0.0 for _, label in data])

    def vectorize(self, weights: dict[str, float]) -> np.ndarray:
        return np.array([weights.get(f, 0.0) for f in self.feature_ids])

    def scores(self, w: np.ndarray, bias: float) -> np.ndarray:
        """x @ w + bias, one score per row."""
        return np.bincount(self.rows, weights=self.vals * w[self.cols],
                           minlength=len(self.y)) + bias

    def loss(self, w: np.ndarray, scores: np.ndarray, l2: float) -> float:
        margins = scores * (2.0 * self.y - 1.0)
        data_term = float(np.mean(np.logaddexp(0.0, -margins)))
        return data_term + 0.5 * l2 * float(w @ w)

    def gradient(self, w: np.ndarray, scores: np.ndarray, l2: float) -> tuple[np.ndarray, float]:
        residual = (_logistic(scores) - self.y) / len(self.y)
        xtr = np.bincount(self.cols, weights=self.vals * residual[self.rows],
                          minlength=len(self.feature_ids))
        return xtr + l2 * w, float(residual.sum())


def lr_loss(weights: dict[str, float], bias: float,
            data: list[tuple[FeatureVector, str]], l2_strength: float = 0.0) -> float:
    problem = _LrProblem(data)
    w = problem.vectorize(weights)
    return problem.loss(w, problem.scores(w, bias), l2_strength)


def lr_gradient(weights: dict[str, float], bias: float,
                data: list[tuple[FeatureVector, str]], l2_strength: float = 0.0
                ) -> tuple[dict[str, float], float]:
    problem = _LrProblem(data)
    w = problem.vectorize(weights)
    grad_w, grad_b = problem.gradient(w, problem.scores(w, bias), l2_strength)
    return dict(zip(problem.feature_ids, grad_w.tolist())), grad_b


# an overflow ends in a non-finite loss, which is reported as divergence
@np.errstate(over="ignore", invalid="ignore")
def _lr_descend(problem: _LrProblem, config: LrConfig,
                checkpoints: set[int]) -> dict[int, tuple[np.ndarray, float]]:
    w = np.zeros(len(problem.feature_ids))
    bias = 0.0
    scores = problem.scores(w, bias)
    snapshots = {}
    last = max(checkpoints)
    for epoch in range(1, last + 1):
        # each step's scores serve its loss check and the next step's gradient
        grad_w, grad_b = problem.gradient(w, scores, config.l2_strength)
        w = w - config.learning_rate * grad_w
        bias = bias - config.learning_rate * grad_b
        scores = problem.scores(w, bias)
        loss = problem.loss(w, scores, config.l2_strength)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        if epoch in checkpoints:
            snapshots[epoch] = (w.copy(), bias)
    return snapshots


def lr_train(data: list[tuple[FeatureVector, str]], config: LrConfig = LrConfig()) -> LrModel:
    """Deterministic full-batch gradient descent from zero initialization."""
    return lr_train_checkpoints(data, config, [config.epochs])[config.epochs]


def lr_train_checkpoints(data: list[tuple[FeatureVector, str]], config: LrConfig,
                         epoch_grid: list[int]) -> dict[int, LrModel]:
    """One descent pass snapshotting the model at several epoch counts.

    Full-batch descent makes a shorter run a prefix of a longer one, so the
    snapshots equal separately trained models.
    """
    if not data:
        raise InputError("training data is empty")
    if not epoch_grid or not all(epochs >= 1 for epochs in epoch_grid):
        raise InputError(f"epoch_grid must hold epoch counts >= 1, got {list(epoch_grid)}")
    problem = _LrProblem(data)
    snapshots = _lr_descend(problem, config, set(epoch_grid))
    models = {}
    for epochs, (w, bias) in snapshots.items():
        cfg = LrConfig(config.learning_rate, epochs, config.l2_strength)
        weights = {f: float(v) for f, v in zip(problem.feature_ids, w) if v != 0.0}
        models[epochs] = LrModel(weights, bias, cfg)
    return models


def lr_predict(model: LrModel, features: FeatureVector) -> str:
    score = model.bias
    for feature, count in features.items():
        weight = model.weights.get(feature)
        if weight is not None:
            score += weight * count
    return POSITIVE if score > 0 else NEGATIVE


# -- evaluation --------------------------------------------------------------

def f1_score(predictions: list[str], gold: list[str], positive_class: str = POSITIVE) -> float:
    """F1 of the positive class; 0 when the denominator is 0."""
    if len(predictions) != len(gold):
        raise InputError(f"length mismatch: {len(predictions)} vs {len(gold)}")
    if not predictions:
        raise InputError("empty prediction list")
    tp = sum(1 for p, g in zip(predictions, gold) if p == positive_class and g == positive_class)
    fp = sum(1 for p, g in zip(predictions, gold) if p == positive_class and g != positive_class)
    fn = sum(1 for p, g in zip(predictions, gold) if p != positive_class and g == positive_class)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def macro_f1(predictions: list[str], gold: list[str]) -> float:
    return (f1_score(predictions, gold, POSITIVE) + f1_score(predictions, gold, NEGATIVE)) / 2
