"""Naive Bayes and logistic regression internals."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexmine.errors import DivergenceError, InputError
from lexmine.sentiment.models import (
    NEGATIVE,
    POSITIVE,
    _logistic,
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


LR_TOY = [
    ({"f1": 2, "f2": 1}, POSITIVE),
    ({"f1": 1, "f3": 2}, POSITIVE),
    ({"f2": 3}, NEGATIVE),
    ({"f3": 1, "f2": 1}, NEGATIVE),
]


def train(data, learning_rate, epochs, l2):
    """The model of the single grid cell `(epochs, l2)`."""
    return next(lr_train_checkpoints(data, learning_rate, [epochs], [l2]))


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
        for m in models:
            w = weight_array(problem, m.weights)
            losses.append(problem.loss(w, problem.scores(w, m.bias), 0.0))
        assert losses[0] <= math.log(2.0)
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_checkpoints_equal_separate_runs(self):
        snapshots = list(lr_train_checkpoints(LR_TOY, 0.1, [50, 20], [0.0]))
        alone = train(LR_TOY, 0.1, 20, 0.0)
        assert snapshots[1] == alone

    @settings(max_examples=40, deadline=None)
    @given(learning_rate=st.sampled_from([0.05, 0.1, 0.5]),
           epoch_grid=st.lists(st.integers(1, 8), max_size=6),
           l2_grid=st.lists(st.sampled_from([0.0, 0.01, 0.3]), max_size=4))
    def test_grid_cells_equal_single_cell_runs(self, learning_rate, epoch_grid, l2_grid):
        # the grids come unsorted and with repeats; cells are epochs first
        assert list(lr_train_checkpoints(LR_TOY, learning_rate, epoch_grid, l2_grid)) == [
            train(LR_TOY, learning_rate, epochs, l2) for epochs in epoch_grid for l2 in l2_grid]

    def test_l2_shrinks_weights(self):
        plain, ridged = lr_train_checkpoints(LR_TOY, 0.1, [100], [0.0, 0.5])
        norm = lambda m: sum(v * v for v in m.weights.values())
        assert norm(ridged) < norm(plain)

    def test_divergence_is_reported(self):
        # the absurd step size overflows the penalty term, which is exactly
        # the non-finite loss the trainer must turn into an error; the
        # descents run before the call returns, so the call itself raises
        data = [({"f": 1}, POSITIVE), ({"g": 1}, NEGATIVE)]
        with pytest.raises(DivergenceError) as err:
            lr_train_checkpoints(data, 1e160, [5], [1.0])
        assert "epoch" in str(err.value)

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
