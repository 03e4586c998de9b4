"""Naive Bayes and logistic regression internals."""
from __future__ import annotations

import math
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexmine.errors import DivergenceError, InputError
from lexmine.sentiment.models import (
    LABELS,
    NEGATIVE,
    POSITIVE,
    NbModel,
    _logistic,
    _lr_descend,
    _LrProblem,
    f1_score,
    lr_predict,
    lr_train_checkpoints,
    macro_f1,
    nb_log_posteriors,
    nb_predict,
    nb_train,
)

# numpy reports overflow and invalid values as RuntimeWarnings; the trainer
# must keep them to itself
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NB_TOY = [
    ({"good": 2}, POSITIVE),
    ({"good": 1, "bad": 1}, POSITIVE),
    ({"bad": 2}, NEGATIVE),
    ({"bad": 1, "good": 1}, NEGATIVE),
]


class TestNaiveBayes:
    def test_posteriors_match_closed_form(self):
        # alpha=1: P(good|pos) = (3+1)/(4+2), P(bad|pos) = (1+1)/(4+2),
        # mirrored for the negative class; priors are 2/4 each
        model = nb_train(NB_TOY, alpha=1.0)
        scores = nb_log_posteriors(model, {"good": 2, "bad": 1})
        expected_pos = math.log(0.5) + 2 * math.log(4 / 6) + math.log(2 / 6)
        expected_neg = math.log(0.5) + 2 * math.log(2 / 6) + math.log(4 / 6)
        assert scores[POSITIVE] == pytest.approx(expected_pos, abs=1e-12)
        assert scores[NEGATIVE] == pytest.approx(expected_neg, abs=1e-12)
        assert nb_predict(model, {"good": 2, "bad": 1}) == POSITIVE

    def test_class_unseen_feature_uses_smoothed_floor(self):
        data = [({"good": 1, "wow": 1}, POSITIVE), ({"bad": 2}, NEGATIVE)]
        model = nb_train(data, alpha=1.0)
        scores = nb_log_posteriors(model, {"wow": 1})
        # vocabulary {good, wow, bad}; both classes have 2 total counts
        assert scores[POSITIVE] == pytest.approx(
            math.log(0.5) + math.log(2 / 5), abs=1e-12)
        assert scores[NEGATIVE] == pytest.approx(
            math.log(0.5) + math.log(1 / 5), abs=1e-12)

    def test_out_of_vocabulary_features_ignored(self):
        model = nb_train(NB_TOY, alpha=1.0)
        with_oov = nb_log_posteriors(model, {"good": 1, "zzz": 9})
        without = nb_log_posteriors(model, {"good": 1})
        assert with_oov == without

    def test_tie_predicts_negative(self):
        model = nb_train(NB_TOY, alpha=1.0)
        assert nb_predict(model, {"good": 1, "bad": 1}) == NEGATIVE
        assert nb_predict(model, {}) == NEGATIVE

    def test_prior_decides_empty_features(self):
        data = [({"a": 1}, POSITIVE), ({"b": 1}, POSITIVE), ({"c": 1}, NEGATIVE)]
        model = nb_train(data, alpha=1.0)
        assert nb_predict(model, {}) == POSITIVE

    def test_alpha_must_be_positive(self):
        with pytest.raises(InputError):
            nb_train(NB_TOY, alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(InputError):
            nb_train(NB_TOY, alpha=alpha)

    def test_needs_both_classes(self):
        with pytest.raises(InputError):
            nb_train([({"a": 1}, POSITIVE)], alpha=1.0)

    def test_rejects_unknown_label(self):
        with pytest.raises(InputError):
            nb_train([({"a": 1}, "meh"), ({"b": 1}, POSITIVE)], alpha=1.0)

    def test_rejects_empty_data(self):
        with pytest.raises(InputError):
            nb_train([], alpha=1.0)

    @given(st.floats(0.01, 10.0))
    def test_separable_data_classified_for_any_alpha(self, alpha):
        data = [({"up": 3}, POSITIVE), ({"up": 2}, POSITIVE),
                ({"down": 3}, NEGATIVE), ({"down": 1}, NEGATIVE)]
        model = nb_train(data, alpha=alpha)
        assert nb_predict(model, {"up": 1}) == POSITIVE
        assert nb_predict(model, {"down": 1}) == NEGATIVE


def oracle_nb_train(data, alpha):
    """`nb_train` with running counters: the vocabulary, each class's
    document count and each class's count total kept beside the per-class
    feature counts. It skips the input checks, as the draws are valid."""
    class_docs = {label: 0 for label in LABELS}
    class_feature_counts = {label: {} for label in LABELS}
    class_totals = {label: 0 for label in LABELS}
    vocabulary = set()
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
    return NbModel(log_prior, log_lik, unseen, vocabulary)


# unigram and bigram keys from a short pool, zero counts included, so
# features repeat across rows and classes and some rows are empty
feature_vector_st = st.dictionaries(st.sampled_from(["a", "b", "c", "d", "a b", "b a", "c d"]),
                                    st.integers(0, 4), max_size=5)
nb_data_st = st.tuples(
    st.lists(st.tuples(feature_vector_st, st.sampled_from(LABELS)), max_size=10),
    feature_vector_st, feature_vector_st,
).map(lambda drawn: drawn[0] + [(drawn[1], NEGATIVE), (drawn[2], POSITIVE)])


class TestNaiveBayesOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=nb_data_st, alpha=st.sampled_from([0.1, 0.5, 1.0, 3.7]))
    @example(data=[({}, NEGATIVE), ({}, POSITIVE)], alpha=1.0)
    @example(data=[({"a": 0}, NEGATIVE), ({}, POSITIVE)], alpha=1.0)
    def test_every_field_equals_running_counters(self, data, alpha):
        if not any(features for features, _ in data):
            # no feature leaves an empty vocabulary, which the oracle
            # divides by and nb_train rejects
            with pytest.raises(InputError, match="^training data has no features$"):
                nb_train(data, alpha)
            with pytest.raises(ZeroDivisionError):
                oracle_nb_train(data, alpha)
            return
        got = nb_train(data, alpha=alpha)
        want = oracle_nb_train(data, alpha)
        for field in fields(NbModel):
            assert getattr(got, field.name) == getattr(want, field.name), field.name


LR_TOY = [
    ({"f1": 2, "f2": 1}, POSITIVE),
    ({"f1": 1, "f3": 2}, POSITIVE),
    ({"f2": 3}, NEGATIVE),
    ({"f3": 1, "f2": 1}, NEGATIVE),
]


def train(data, learning_rate, epochs, l2):
    """The model of the single grid cell `(epochs, l2)`."""
    _, _, model = next(lr_train_checkpoints(data, learning_rate, [epochs], [l2]))
    return model


def weight_array(problem, weights):
    """A weight dict as the array the problem multiplies, in `feature_ids` order."""
    return np.array([weights.get(f, 0.0) for f in problem.feature_ids])


class TestLrGradient:
    def test_matches_central_finite_differences(self):
        problem = _LrProblem(LR_TOY)
        w = weight_array(problem, {"f1": 0.3, "f2": -0.2, "f3": 0.05})
        bias = 0.1
        l2 = 0.3

        def loss(w, bias):
            return problem.loss(w, problem.scores(w, bias), l2)

        grad_w, grad_b = problem.gradient(w, problem.scores(w, bias), l2)
        eps = 1e-6
        for i in range(len(w)):
            step = np.zeros_like(w)
            step[i] = eps
            numeric = (loss(w + step, bias) - loss(w - step, bias)) / (2 * eps)
            assert grad_w[i] == pytest.approx(numeric, rel=1e-6, abs=1e-9)
        numeric_b = (loss(w, bias + eps) - loss(w, bias - eps)) / (2 * eps)
        assert grad_b == pytest.approx(numeric_b, rel=1e-6, abs=1e-9)

    def test_zero_weights_balanced_data_zero_bias_gradient(self):
        problem = _LrProblem(LR_TOY)
        w = weight_array(problem, {})
        _, grad_b = problem.gradient(w, problem.scores(w, 0.0), 0.0)
        assert grad_b == pytest.approx(0.0, abs=1e-12)

    def test_loss_at_zero_is_log_two(self):
        problem = _LrProblem(LR_TOY)
        w = weight_array(problem, {})
        assert problem.loss(w, problem.scores(w, 0.0), 0.0) == pytest.approx(
            math.log(2.0), abs=1e-12)


features_st = st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 5), max_size=5)
weight_st = st.floats(-10.0, 10.0)


class TestLrArithmetic:
    """The bincount products equal plain loops that add the same terms in the
    same order: each row's features sorted, rows in data order."""

    @given(rows=st.lists(st.tuples(features_st, st.sampled_from((POSITIVE, NEGATIVE))),
                         min_size=2, max_size=8).filter(
                             lambda rows: {label for _, label in rows} == {POSITIVE, NEGATIVE}),
           weights=st.lists(weight_st, min_size=8, max_size=8),
           bias=weight_st)
    def test_scores_and_gradient_equal_python_loops(self, rows, weights, bias):
        problem = _LrProblem(rows)
        index = {f: i for i, f in enumerate(problem.feature_ids)}
        w = np.array(weights[:len(index)])

        expected_scores = []
        for features, _ in rows:
            total = 0.0
            for feature in sorted(features):
                total += float(features[feature]) * float(w[index[feature]])
            expected_scores.append(total + bias)
        scores = problem.scores(w, bias)
        assert scores.tolist() == expected_scores

        residual = (_logistic(scores) - problem.y) / len(rows)
        expected_grad = [0.0] * len(index)
        for row, (features, _) in enumerate(rows):
            for feature in sorted(features):
                expected_grad[index[feature]] += float(features[feature]) * float(residual[row])
        grad_w, grad_b = problem.gradient(w, scores, 0.0)
        assert grad_w.tolist() == expected_grad
        assert grad_b == float(residual.sum())

    @given(st.floats(-700.0, 700.0))
    def test_logistic_matches_closed_form(self, s):
        expected = 1.0 / (1.0 + math.exp(-s))
        assert _logistic(np.array([s]))[0] == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_logistic_saturates_without_warning(self):
        out = _logistic(np.array([-1e308, -800.0, 800.0, 1e308]))
        assert out.tolist() == [0.0, 0.0, 1.0, 1.0]


class OracleLrProblem:
    """`_LrProblem` as it was before `scores` read its entries interleaved
    across rows: one row-major copy of the entries serves both products,
    and the residual is gathered by row index."""

    def __init__(self, data):
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

    def scores(self, w, bias):
        return np.bincount(self.rows, weights=self.vals * w[self.cols],
                           minlength=len(self.y)) + bias

    def loss(self, w, scores, l2):
        margins = scores * (2.0 * self.y - 1.0)
        data_term = float(np.mean(np.logaddexp(0.0, -margins)))
        return data_term + 0.5 * l2 * float(w @ w)

    def gradient(self, w, scores, l2):
        residual = (_logistic(scores) - self.y) / len(self.y)
        xtr = np.bincount(self.cols, weights=self.vals * residual[self.rows],
                          minlength=len(self.feature_ids))
        return xtr + l2 * w, float(residual.sum())


def oracle_lr_descend(problem, learning_rate, l2, checkpoints):
    """`_lr_descend` as it was before the divergence check could skip the
    full loss: the loss is computed at every epoch."""
    w = np.zeros(len(problem.feature_ids))
    bias = 0.0
    snapshots = {}
    last = max(checkpoints)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = problem.scores(w, bias)
        for epoch in range(1, last + 1):
            grad_w, grad_b = problem.gradient(w, scores, l2)
            w = w - learning_rate * grad_w
            bias = bias - learning_rate * grad_b
            scores = problem.scores(w, bias)
            loss = problem.loss(w, scores, l2)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            if epoch in checkpoints:
                snapshots[epoch] = (w.copy(), bias)
    return snapshots


def descend_outcome(descend, problem, learning_rate, l2, checkpoints):
    """Each snapshot as (weight bytes, bias), or the divergence message."""
    try:
        snapshots = descend(problem, learning_rate, l2, checkpoints)
    except DivergenceError as err:
        return str(err)
    return {epoch: (w.tobytes(), bias) for epoch, (w, bias) in snapshots.items()}


def assert_descent_equals_oracle(data, learning_rate, l2, checkpoints):
    outcome = descend_outcome(_lr_descend, _LrProblem(data), learning_rate, l2, checkpoints)
    assert outcome == descend_outcome(oracle_lr_descend, OracleLrProblem(data),
                                      learning_rate, l2, checkpoints)
    return outcome


# rows of unequal length, some empty, over more features than a row holds
wide_features_st = st.dictionaries(st.sampled_from([f"w{i:02d}" for i in range(24)]),
                                   st.integers(1, 9), max_size=12)
wide_rows_st = st.lists(st.tuples(wide_features_st, st.sampled_from(LABELS)),
                        min_size=2, max_size=20).filter(
                            lambda rows: {label for _, label in rows} == set(LABELS))


class TestLrDescentOracle:
    """The descent's snapshots equal the oracle's by their bytes, and a
    diverging descent fails with the oracle's message."""

    @settings(max_examples=60, deadline=None)
    @given(rows=wide_rows_st,
           learning_rate=st.sampled_from([0.05, 0.5, 4.0, 1e160]),
           l2=st.sampled_from([0.0, 0.01, 0.3, 1e308, math.inf]),
           checkpoints=st.sets(st.integers(1, 12), min_size=1, max_size=4))
    def test_snapshots_equal_oracle(self, rows, learning_rate, l2, checkpoints):
        assert_descent_equals_oracle(rows, learning_rate, l2, checkpoints)

    def test_large_problem_equals_oracle(self):
        # more rows and features than hypothesis draws, so many bins share
        # each stretch of the interleaved entries
        rng = random.Random(24)
        features = [f"f{i:03d}" for i in range(300)]
        data = [({f: rng.randint(1, 4) for f in rng.sample(features, rng.randint(0, 40))},
                 LABELS[row % 2]) for row in range(120)]
        assert sorted(assert_descent_equals_oracle(data, 0.1, 0.01, {1, 7, 30})) == [1, 7, 30]

    def test_scores_overflow_with_finite_loss_trains(self):
        # every score is +-inf after the first step, so the bound fails, but
        # each row sits on its correct side, so the loss is 0 and no error
        data = [({"f": 10**160}, POSITIVE), ({"g": 10**160}, NEGATIVE)]
        outcome = assert_descent_equals_oracle(data, 1e-10, 0.0, {1, 3})
        assert sorted(outcome) == [1, 3]
        problem = _LrProblem(data)
        w = np.frombuffer(outcome[3][0])
        with np.errstate(over="ignore"):
            assert problem.scores(w, outcome[3][1]).tolist() == [math.inf, -math.inf]


def guard_problem(n_rows):
    """A problem of `n_rows` rows and the largest |score| the bound accepts."""
    data = [({"f": 1}, LABELS[row % 2]) for row in range(n_rows)]
    return _LrProblem(data), 1e300 / n_rows


class TestLrLossGuard:
    """`loss_is_finite` answers as the full loss would, and skips that loss
    only inside its bound."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        loss = _LrProblem.loss

        def counting_loss(problem, *args):
            calls.append(args)
            return loss(problem, *args)

        monkeypatch.setattr(_LrProblem, "loss", counting_loss)
        return calls

    @pytest.mark.parametrize("n_rows", [2, 5, 1000])
    def test_score_bound_scales_with_rows(self, counted, n_rows):
        problem, bound = guard_problem(n_rows)
        w = np.zeros(1)
        with np.errstate(over="ignore", invalid="ignore"):
            at = np.full(n_rows, -bound)
            assert problem.loss_is_finite(w, at, 0.0)
            assert counted == []
            above = at.copy()
            above[-1] = -np.nextafter(bound, math.inf)
            assert problem.loss_is_finite(w, above, 0.0)
            assert len(counted) == 1
            # every margin -1e308 for the positive rows: the sum overflows
            worst = np.where(problem.y == 1.0, -1e308, 1e308)
            assert not problem.loss_is_finite(w, worst, 0.0)
            assert not math.isfinite(problem.loss(w, worst, 0.0))

    def test_penalty_bound(self, counted):
        problem, _ = guard_problem(2)
        w = np.array([1.0])
        scores = np.zeros(2)
        with np.errstate(over="ignore", invalid="ignore"):
            assert problem.penalty(w, 2e300) == 1e300
            assert problem.loss_is_finite(w, scores, 2e300)
            assert counted == []
            assert problem.loss_is_finite(w, scores, np.nextafter(2e300, math.inf))
            assert len(counted) == 1
            assert not problem.loss_is_finite(w, scores, math.inf)
            assert not problem.loss_is_finite(np.array([math.inf]), scores, 0.0)
            assert not problem.loss_is_finite(w, np.array([0.0, math.nan]), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=2,
                           max_size=6),
           w=st.floats(allow_nan=True, allow_infinity=True),
           l2=st.one_of(st.floats(0.0, allow_infinity=True), st.just(2e300)))
    def test_equals_full_loss(self, scores, w, l2):
        problem, _ = guard_problem(len(scores))
        w, scores = np.array([w]), np.array(scores)
        with np.errstate(over="ignore", invalid="ignore"):
            assert problem.loss_is_finite(w, scores, l2) == math.isfinite(
                problem.loss(w, scores, l2))


class TestLrTraining:
    def test_separates_toy_data(self):
        data = [({"up": 2}, POSITIVE), ({"up": 1, "down": 1}, POSITIVE),
                ({"down": 2}, NEGATIVE), ({"down": 3}, NEGATIVE)]
        model = train(data, 0.5, 200, 0.0)
        assert [lr_predict(model, fv) for fv, _ in data] == [
            POSITIVE, POSITIVE, NEGATIVE, NEGATIVE]

    def test_loss_non_increasing(self):
        models = lr_train_checkpoints(LR_TOY, 0.05, range(1, 21), [0.0])
        problem = _LrProblem(LR_TOY)
        losses = []
        for _, _, m in models:
            w = weight_array(problem, m.weights)
            losses.append(problem.loss(w, problem.scores(w, m.bias), 0.0))
        assert losses[0] <= math.log(2.0)
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_checkpoints_equal_separate_runs(self):
        snapshots = list(lr_train_checkpoints(LR_TOY, 0.1, [50, 20], [0.0]))
        alone = train(LR_TOY, 0.1, 20, 0.0)
        assert snapshots[1] == (20, 0.0, alone)

    @settings(max_examples=40, deadline=None)
    @given(learning_rate=st.sampled_from([0.05, 0.1, 0.5]),
           epoch_grid=st.lists(st.integers(1, 8), max_size=6),
           l2_grid=st.lists(st.sampled_from([0.0, 0.01, 0.3]), max_size=4))
    def test_grid_cells_equal_single_cell_runs(self, learning_rate, epoch_grid, l2_grid):
        # the grids come unsorted and with repeats; cells are epochs first,
        # each labeled with its own (epochs, l2)
        assert list(lr_train_checkpoints(LR_TOY, learning_rate, epoch_grid, l2_grid)) == [
            (epochs, l2, train(LR_TOY, learning_rate, epochs, l2))
            for epochs in epoch_grid for l2 in l2_grid]

    def test_l2_shrinks_weights(self):
        (_, _, plain), (_, _, ridged) = lr_train_checkpoints(LR_TOY, 0.1, [100], [0.0, 0.5])
        norm = lambda m: sum(v * v for v in m.weights.values())
        assert norm(ridged) < norm(plain)

    def test_divergence_is_reported(self):
        # the descents run before the call returns, so the call itself
        # raises; each epoch is the one the loss at every epoch reported
        for count, learning_rate, l2, epoch in [
            (1, 0.1, 1e308, 2),      # the penalty's w @ w overflows at the second step
            (1, 0.1, math.inf, 1),   # inf * 0 makes the first step's weights NaN
            (1, 1e160, 1.0, 1),      # the step overflows the penalty
            (10**6, 1e300, 0.0, 1),  # the step times the counts overflows the scores
        ]:
            data = [({"f": count}, POSITIVE), ({"g": count}, NEGATIVE)]
            with pytest.raises(DivergenceError, match=rf"^non-finite loss at epoch {epoch}$"):
                lr_train_checkpoints(data, learning_rate, [5], [l2])
            assert_descent_equals_oracle(data, learning_rate, l2, {5})

    def test_score_tie_predicts_negative(self):
        model = train(LR_TOY, 0.1, 1, 0.0)
        assert lr_predict(model, {}) in (POSITIVE, NEGATIVE)
        zeroed = type(model)(weights={}, bias=0.0)
        assert lr_predict(zeroed, {"f1": 5}) == NEGATIVE

    def test_config_validation(self):
        with pytest.raises(InputError, match=r"^learning rate must be > 0, got 0\.0$"):
            lr_train_checkpoints(LR_TOY, 0.0, [100], [0.0])
        with pytest.raises(InputError, match=r"^epochs must be >= 1, got 0$"):
            lr_train_checkpoints(LR_TOY, 0.1, [100, 0], [0.0])
        with pytest.raises(InputError, match=r"^l2_strength must be >= 0, got -0\.1$"):
            lr_train_checkpoints(LR_TOY, 0.1, [100], [0.0, -0.1])

    @pytest.mark.parametrize("field", ["learning_rate", "epochs", "l2_strength"])
    def test_config_validation_rejects_nan(self, field):
        cell = {"learning_rate": 0.1, "epochs": 100, "l2_strength": 0.0, field: math.nan}
        with pytest.raises(InputError, match="got nan"):
            lr_train_checkpoints(LR_TOY, cell["learning_rate"], [cell["epochs"]],
                                 [cell["l2_strength"]])

    @pytest.mark.parametrize("grid", [[0, 50], [-1], [0.5]])
    def test_checkpoints_below_one_epoch_rejected(self, grid):
        with pytest.raises(InputError, match="epoch"):
            lr_train_checkpoints(LR_TOY, 0.1, grid, [0.0])

    @pytest.mark.parametrize("epoch_grid, l2_grid", [([], []), ([], [0.0]), ([100], [])],
                             ids=["both", "epochs", "l2"])
    def test_empty_grid_no_models(self, epoch_grid, l2_grid):
        assert list(lr_train_checkpoints(LR_TOY, 0.1, epoch_grid, l2_grid)) == []

    def test_empty_data_rejected(self):
        with pytest.raises(InputError):
            train([], 0.1, 100, 0.0)


class TestF1:
    def test_perfect(self):
        assert f1_score([POSITIVE, NEGATIVE], [POSITIVE, NEGATIVE]) == 1.0

    def test_two_thirds(self):
        # TP=2, FP=1, FN=1
        gold = [POSITIVE, POSITIVE, POSITIVE, NEGATIVE]
        pred = [POSITIVE, POSITIVE, NEGATIVE, POSITIVE]
        assert f1_score(pred, gold) == pytest.approx(2 / 3)

    def test_nothing_predicted_positive(self):
        assert f1_score([NEGATIVE, NEGATIVE], [NEGATIVE, NEGATIVE]) == 0.0

    def test_macro_averages_both_classes(self):
        gold = [POSITIVE, NEGATIVE]
        pred = [POSITIVE, POSITIVE]
        assert f1_score(pred, gold) == pytest.approx(2 / 3)
        assert f1_score(pred, gold, positive_class=NEGATIVE) == 0.0
        assert macro_f1(pred, gold) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            f1_score([POSITIVE], [POSITIVE, NEGATIVE])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            f1_score([], [])

    @given(st.lists(st.tuples(st.sampled_from((POSITIVE, NEGATIVE)),
                              st.sampled_from((POSITIVE, NEGATIVE))),
                    min_size=1, max_size=20),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, rng):
        pred = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        order = list(range(len(pairs)))
        rng.shuffle(order)
        shuffled_pred = [pred[i] for i in order]
        shuffled_gold = [gold[i] for i in order]
        assert f1_score(shuffled_pred, shuffled_gold) == pytest.approx(
            f1_score(pred, gold))
