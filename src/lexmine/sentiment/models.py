"""Naive Bayes and logistic regression over sparse count features.

Both classifiers are written out in full so their internals can be checked
directly: NB posteriors against closed-form smoothed-count arithmetic, and
the LR gradient against finite differences of `_LrProblem.loss`. LR needs only
numpy: its two sparse products are weighted `np.bincount` sums over
coordinate arrays, and `np.bincount` adds each bin's weights in array order.
So every sum adds its terms in the order of the entries that feed it:
`gradient` reads them row by row, and `scores` reads the same entries
interleaved across rows, which keeps each row's order (and so its bits) but
lets consecutive adds go to different bins. NB is pure Python, so numpy is
imported only where LR uses it. Prediction ties break toward the negative
(majority) class.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product, starmap
from typing import TYPE_CHECKING, Iterator, Sequence

from ..errors import DivergenceError, InputError
from .bpe import FeatureVector

if TYPE_CHECKING:
    import numpy as np

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
    class_log_prior: dict[str, float]
    feature_log_lik: dict[str, dict[str, float]]   # class -> feature -> log P
    unseen_log_lik: dict[str, float]               # class -> log P of in-vocab unseen
    vocabulary: set[str]


def nb_train(data: list[tuple[FeatureVector, str]], alpha: float) -> NbModel:
    """Multinomial naive Bayes with additive smoothing."""
    if not 0 < alpha < math.inf:
        raise InputError(f"smoothing alpha must be finite and > 0, got {alpha}")
    if not data:
        raise InputError("training data is empty")
    class_docs = Counter(label for _, label in data)
    _check_labels(class_docs)

    class_feature_counts = {label: {} for label in LABELS}
    for features, label in data:
        counts = class_feature_counts[label]
        for feature, count in features.items():
            counts[feature] = counts.get(feature, 0) + count

    n_docs = len(data)
    vocabulary = set().union(*class_feature_counts.values())
    if not vocabulary:
        raise InputError("training data has no features")
    v = len(vocabulary)
    log_prior = {label: math.log(class_docs[label] / n_docs) for label in LABELS}
    log_lik = {}
    unseen = {}
    for label in LABELS:
        counts = class_feature_counts[label]
        denom = sum(counts.values()) + alpha * v
        log_lik[label] = {
            feature: math.log((count + alpha) / denom) for feature, count in counts.items()
        }
        unseen[label] = math.log(alpha / denom)
    return NbModel(log_prior, log_lik, unseen, vocabulary)


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

@dataclass
class LrModel:
    weights: dict[str, float]
    bias: float


def _logistic(scores: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-s). For s below about -709, e^-s overflows to inf and the
    result is 0, the correct limit, so numpy's overflow warning is silenced."""
    import numpy as np

    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-scores))


class _LrProblem:
    """Dataset as coordinate arrays over a fixed (sorted) feature order.

    There is one entry per feature of each row, each row's features taken
    in sorted order. The products with a weight or residual vector are
    weighted `np.bincount` sums over these entries; since `np.bincount`
    adds each bin's weights in array order, the entry order fixes the order
    of every sum's terms, and so its bits.

    - `gradient` (one sum per feature) reads `cols` and `vals` in row-major
      order: rows in data order, each row's features sorted, as in a
      canonical CSR matrix. Each feature adds its terms in row order.
    - `scores` (one sum per row) reads `score_rows`, `score_cols` and
      `score_vals`: the same entries ordered by position within their row,
      then by row, so every row's first feature comes first, then every
      row's second, and so on. Each row still adds its features in sorted
      order, the bits of a row-major sum. But consecutive entries fall in
      different bins, so no add waits for the one just before it, and
      the bincount runs about twice as fast on sent-cv's folds.
    """

    def __init__(self, data: list[tuple[FeatureVector, str]]):
        import numpy as np

        _check_labels(label for _, label in data)
        self.feature_ids = sorted({f for features, _ in data for f in features})
        index = {f: i for i, f in enumerate(self.feature_ids)}
        rows, positions, cols, vals = [], [], [], []
        for row, (features, _) in enumerate(data):
            for position, (feature, count) in enumerate(sorted(features.items())):
                rows.append(row)
                positions.append(position)
                cols.append(index[feature])
                vals.append(float(count))
        self.cols = np.array(cols, dtype=np.intp)
        self.vals = np.array(vals, dtype=np.float64)
        self.row_lengths = np.array([len(features) for features, _ in data], dtype=np.intp)
        rows = np.array(rows, dtype=np.intp)
        by_position = np.lexsort((rows, positions))
        self.score_rows = rows[by_position]
        self.score_cols = self.cols[by_position]
        self.score_vals = self.vals[by_position]
        self.y = np.array([1.0 if label == POSITIVE else 0.0 for _, label in data])

    def scores(self, w: np.ndarray, bias: float) -> np.ndarray:
        """x @ w + bias, one score per row."""
        import numpy as np

        return np.bincount(self.score_rows, weights=self.score_vals * w[self.score_cols],
                           minlength=len(self.y)) + bias

    def penalty(self, w: np.ndarray, l2: float) -> float:
        """The l2 term of `loss`."""
        return 0.5 * l2 * float(w @ w)

    def loss(self, w: np.ndarray, scores: np.ndarray, l2: float) -> float:
        import numpy as np

        margins = scores * (2.0 * self.y - 1.0)
        data_term = float(np.mean(np.logaddexp(0.0, -margins)))
        return data_term + self.penalty(w, l2)

    def loss_is_finite(self, w: np.ndarray, scores: np.ndarray, l2: float) -> bool:
        """Whether `loss(w, scores, l2)` is finite, computing the loss only
        when a cheaper bound cannot show that it is.

        The bound: with n rows, every |score| <= 1e300 / n and the penalty
        <= 1e300. Each term logaddexp(0, -margin) is then in [0, |score| + 1],
        so the n terms add up to at most 1e300 + n before rounding. `np.mean`
        sums before it divides, and a sum of n non-negative terms rounds up
        by a factor below (1 + 2^-53)^n < 2 for any n < 2^52, far more rows
        than fit in memory. So the sum stays below 2e300 + 2n, the mean below
        2e300 + 2, and with the penalty, the same value `loss` adds, the loss
        below about 3e300, short of the largest float (1.8e308). The feature
        count enters only through the penalty, which is bounded as computed.
        A NaN fails both comparisons, so NaN and overflow always reach the
        full loss.
        """
        import numpy as np

        if np.abs(scores).max() <= 1e300 / len(self.y) and self.penalty(w, l2) <= 1e300:
            return True
        return math.isfinite(self.loss(w, scores, l2))

    def gradient(self, w: np.ndarray, scores: np.ndarray, l2: float) -> tuple[np.ndarray, float]:
        import numpy as np

        residual = (_logistic(scores) - self.y) / len(self.y)
        # row-major entries: row r's residual repeated once per feature of r
        xtr = np.bincount(self.cols, weights=self.vals * np.repeat(residual, self.row_lengths),
                          minlength=len(self.feature_ids))
        return xtr + l2 * w, float(residual.sum())


def _lr_descend(problem: _LrProblem, learning_rate: float, l2: float,
                checkpoints: set[int]) -> dict[int, tuple[np.ndarray, float]]:
    import numpy as np

    w = np.zeros(len(problem.feature_ids))
    bias = 0.0
    snapshots = {}
    last = max(checkpoints)
    # an overflow ends in a non-finite loss, which is reported as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        scores = problem.scores(w, bias)
        for epoch in range(1, last + 1):
            # each step's scores serve its divergence check and the next
            # step's gradient; the check computes the full loss only when a
            # bound on the scores and the penalty cannot prove it finite,
            # so a divergence is reported at the same epoch as by the loss
            grad_w, grad_b = problem.gradient(w, scores, l2)
            w = w - learning_rate * grad_w
            bias = bias - learning_rate * grad_b
            scores = problem.scores(w, bias)
            if not problem.loss_is_finite(w, scores, l2):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            if epoch in checkpoints:
                snapshots[epoch] = (w.copy(), bias)
    return snapshots


def lr_train_checkpoints(data: list[tuple[FeatureVector, str]], learning_rate: float,
                         epoch_grid: Sequence[int], l2_grid: Sequence[float]
                         ) -> Iterator[tuple[int, float, LrModel]]:
    """Train one model per `(epochs, l2)` cell, epochs first and each grid
    in the order given, from one shared problem, and yield each as
    `(epochs, l2, model)`.

    Each l2 value gets one descent, snapshotted at every epoch count:
    full-batch descent makes a shorter run a prefix of a longer one, so
    every snapshot equals a separately trained model. The descents run
    before this returns; each model's weight dict is built only when the
    returned iterator reaches its cell, so a caller that keeps few models
    holds few dicts. An empty grid yields no models.
    """
    # written so that NaN fails each check: every comparison with NaN is False
    if not learning_rate > 0:
        raise InputError(f"learning rate must be > 0, got {learning_rate}")
    for epochs in epoch_grid:
        if not epochs >= 1:
            raise InputError(f"epochs must be >= 1, got {epochs}")
    for l2 in l2_grid:
        if not l2 >= 0:
            raise InputError(f"l2_strength must be >= 0, got {l2}")
    if not data:
        raise InputError("training data is empty")
    problem = _LrProblem(data)
    checkpoints = set(epoch_grid)
    snapshots = {l2: _lr_descend(problem, learning_rate, l2, checkpoints)
                 for l2 in dict.fromkeys(l2_grid)} if checkpoints else {}
    feature_ids = problem.feature_ids

    def cell(epochs: int, l2: float) -> tuple[int, float, LrModel]:
        w, bias = snapshots[l2][epochs]
        weights = {f: v for f, v in zip(feature_ids, w.tolist()) if v != 0.0}
        return epochs, l2, LrModel(weights, bias)

    return starmap(cell, product(epoch_grid, l2_grid))


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
