"""Labeled data loading, stratified folds, and the CV harness."""
from __future__ import annotations

import json
import math
import random
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings, strategies as st

from lexmine.dictionary import parse_dictionary
from lexmine.errors import ConfigError, InputError, ParseError
from lexmine.sentiment import models
from lexmine.sentiment.cv import (
    CvConfig,
    FoldAssignment,
    LabeledPair,
    cross_validate,
    load_labeled_tsv,
    stratified_folds,
)

POS_WORDS = ["bagus", "senang", "hebat", "indah"]
NEG_WORDS = ["buruk", "sedih", "parah", "jelek"]
FILLER = ["hari", "ini", "film", "cerita", "orang", "kota"]

# numpy reports overflow and invalid values as RuntimeWarnings; the trainer
# must keep them to itself
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def keyword_corpus(n_per_class: int, signal=None) -> list[LabeledPair]:
    """Separable monolingual corpus: label is decided by one signal word."""
    signal = signal or (POS_WORDS, NEG_WORDS)
    rows = []
    for i in range(n_per_class):
        pos = f"{FILLER[i % 6]} {signal[0][i % 4]} {FILLER[(i + 1) % 6]} {signal[0][(i + 1) % 4]}"
        neg = f"{FILLER[(i + 2) % 6]} {signal[1][i % 4]} {FILLER[(i + 3) % 6]} {signal[1][(i + 1) % 4]}"
        rows.append(LabeledPair("positive", pos, pos))
        rows.append(LabeledPair("negative", neg, neg))
    return rows


class TestLoadLabeledTsv:
    def test_three_columns(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("positive\tgood stuff\tbarang rancak\n", encoding="utf-8")
        rows = load_labeled_tsv(path)
        assert rows == [LabeledPair("positive", "good stuff", "barang rancak")]

    def test_two_columns_fill_both_sides(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("negative\tburuk sekali\n", encoding="utf-8")
        rows = load_labeled_tsv(path)
        assert rows[0].src_text == rows[0].tgt_text == "buruk sekali"

    def test_label_case_insensitive(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("Positive\tok\n", encoding="utf-8")
        assert load_labeled_tsv(path)[0].label == "positive"

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("positive\tok\nneutral\tmeh\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_labeled_tsv(path)
        assert err.value.line_no == 2

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("positive\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_labeled_tsv(path)

    def test_empty_text_column(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("positive\t \tok\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_labeled_tsv(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        # as in a dictionary, a comment is any line whose first non-blank character is "#"
        path = tmp_path / "rows.tsv"
        path.write_text("# header\n  # note\n\t# note\n\npositive\tok\n", encoding="utf-8")
        assert load_labeled_tsv(path) == [LabeledPair("positive", "ok", "ok")]


class TestStratifiedFolds:
    def labels(self, n_pos, n_neg):
        return ["positive"] * n_pos + ["negative"] * n_neg

    def test_exact_sizes_on_divisible_corpus(self):
        folds = stratified_folds(self.labels(30, 70), k=5, ratios=(0.7, 0.1, 0.2), seed=7)
        assert len(folds) == 5
        for fold in folds:
            assert len(fold.train) == 70
            assert len(fold.dev) == 10
            assert len(fold.test) == 20
            pos_test = sum(1 for i in fold.test if i < 30)
            assert pos_test == 6
            pos_dev = sum(1 for i in fold.dev if i < 30)
            assert pos_dev == 3

    def test_splits_are_disjoint_and_complete(self):
        folds = stratified_folds(self.labels(23, 41), k=5, ratios=(0.7, 0.1, 0.2), seed=3)
        for fold in folds:
            combined = fold.train + fold.dev + fold.test
            assert sorted(combined) == list(range(64))

    def test_test_folds_partition_dataset(self):
        folds = stratified_folds(self.labels(23, 41), k=5, ratios=(0.7, 0.1, 0.2), seed=3)
        seen = [i for fold in folds for i in fold.test]
        assert sorted(seen) == list(range(64))

    def test_same_seed_reproduces(self):
        a = stratified_folds(self.labels(23, 41), k=5, ratios=(0.7, 0.1, 0.2), seed=11)
        b = stratified_folds(self.labels(23, 41), k=5, ratios=(0.7, 0.1, 0.2), seed=11)
        assert a == b

    def test_different_seed_differs(self):
        a = stratified_folds(self.labels(30, 70), k=5, ratios=(0.7, 0.1, 0.2), seed=0)
        b = stratified_folds(self.labels(30, 70), k=5, ratios=(0.7, 0.1, 0.2), seed=1)
        assert a != b

    def test_k_too_small(self):
        with pytest.raises(InputError):
            stratified_folds(self.labels(5, 5), k=1, ratios=(0.7, 0.1, 0.2), seed=0)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(InputError):
            stratified_folds(self.labels(10, 10), k=5, ratios=(0.5, 0.2, 0.2), seed=0)
        with pytest.raises(InputError):
            stratified_folds(self.labels(10, 10), k=5, ratios=(float("nan"), 0.1, 0.2),
                             seed=0)

    def test_test_ratio_tied_to_k(self):
        with pytest.raises(InputError):
            stratified_folds(self.labels(10, 10), k=5, ratios=(0.5, 0.25, 0.25), seed=0)

    def test_small_class_rejected(self):
        with pytest.raises(InputError):
            stratified_folds(self.labels(4, 20), k=5, ratios=(0.7, 0.1, 0.2), seed=0)

    @given(st.integers(5, 40), st.integers(5, 40), st.integers(0, 99))
    @settings(max_examples=40)
    def test_per_class_shares_within_one(self, n_pos, n_neg, seed):
        labels = self.labels(n_pos, n_neg)
        folds = stratified_folds(labels, k=5, ratios=(0.7, 0.1, 0.2), seed=seed)
        for fold in folds:
            for lo, hi, n in ((0, n_pos, n_pos), (n_pos, n_pos + n_neg, n_neg)):
                in_range = lambda part: sum(1 for i in part if lo <= i < hi)
                assert abs(in_range(fold.test) - n * 0.2) <= 1
                assert abs(in_range(fold.dev) - n * 0.1) <= 1
                assert abs(in_range(fold.train) - n * 0.7) <= 1


def oracle_stratified_folds(data, k, ratios, seed):
    """`stratified_folds` built fold by fold: for each fold, every class is
    cut into its k buckets again and its slice of the fold computed."""
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    r_train, r_dev, r_test = ratios
    if not all(r >= 0 for r in ratios) or not abs(r_train + r_dev + r_test - 1.0) <= 1e-9:
        raise InputError(f"ratios must be non-negative and sum to 1, got {ratios}")
    if abs(r_test - 1.0 / k) > 1e-9:
        raise InputError(f"test ratio must be 1/k={1.0 / k:.4f} for disjoint "
                         f"test folds, got {r_test}")

    by_class = {}
    for idx, label in enumerate(data):
        by_class.setdefault(label, []).append(idx)
    rng = random.Random(seed)
    for label, members in sorted(by_class.items()):
        if len(members) < k:
            raise InputError(f"class {label!r} has {len(members)} items, fewer than k={k}")
        rng.shuffle(members)

    folds = []
    for i in range(k):
        train, dev, test = [], [], []
        for label, members in sorted(by_class.items()):
            n = len(members)
            buckets = [members[j::k] for j in range(k)]
            test_c = buckets[i]
            rest = [idx for j in range(k) if j != i for idx in buckets[j]]
            want_dev = n * r_dev
            leftover = len(rest) - n * r_train
            dev_c = round((want_dev + leftover) / 2)
            dev_c = max(0, min(len(rest), dev_c))
            test.extend(test_c)
            dev.extend(rest[:dev_c])
            train.extend(rest[dev_c:])
        folds.append(FoldAssignment(sorted(train), sorted(dev), sorted(test)))
    return folds


@st.composite
def folds_case_st(draw):
    """(labels, k, ratios): 1-3 classes in any order, some smaller than k,
    and ratios that are valid (any dev share up to 1 - 1/k) or not."""
    k = draw(st.integers(2, 7))
    classes = draw(st.lists(st.sampled_from(["negative", "neutral", "positive"]),
                            min_size=1, max_size=3, unique=True))
    labels = [label for label in classes for _ in range(draw(st.integers(1, 4 * k)))]
    labels = draw(st.permutations(labels))
    remainder = 1.0 - 1.0 / k
    # a grid of shares lands on exact halves, where round() ties to even
    r_dev = draw(st.one_of(st.integers(0, 20).map(lambda t: remainder * t / 20),
                           st.floats(0.0, remainder)))
    valid = (remainder - r_dev, r_dev, 1.0 / k)
    ratios = draw(st.sampled_from([
        valid, valid, valid,
        (remainder - r_dev, r_dev + 0.25, 1.0 / k),            # sums past 1
        (1.0 - 1.0 / (k + 1) - r_dev, r_dev, 1.0 / (k + 1)),   # test share not 1/k
        (-0.1, remainder + 0.1, 1.0 / k),                       # negative share
        (math.nan, r_dev, 1.0 / k),
    ]))
    return labels, k, ratios


class TestStratifiedFoldsOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=folds_case_st(), seed=st.integers(0, 2**32 - 1))
    @example(case=(["positive"] * 3 + ["negative"] * 9, 4, (0.75, 0.0, 0.25)), seed=0)
    @example(case=(["positive"] * 6, 1, (0.0, 0.0, 1.0)), seed=0)
    def test_equals_fold_by_fold_assignment(self, case, seed):
        labels, k, ratios = case
        try:
            want = oracle_stratified_folds(labels, k, ratios, seed)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                stratified_folds(labels, k, ratios, seed)
            assert str(got.value) == str(exc)
            return
        assert stratified_folds(labels, k, ratios, seed) == want


class TestCvConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            CvConfig(algorithm="svm")

    def test_ratios_need_three_values(self):
        with pytest.raises(ConfigError, match="^ratios must have 3 values, got 2$"):
            CvConfig(ratios=(0.8, 0.2))

    def test_to_dict_round_trips_values(self):
        cfg = CvConfig(algorithm="lr", bpe_vocab_size=300)
        payload = json.loads(json.dumps(asdict(cfg)))
        assert payload["algorithm"] == "lr"
        assert payload["bpe_vocab_size"] == 300
        assert payload["ratios"] == [0.7, 0.1, 0.2]

    @pytest.mark.parametrize("algorithm, grid", [
        ("nb", "nb_alpha_grid"), ("lr", "lr_epoch_grid"), ("lr", "lr_l2_grid")])
    def test_empty_grid_rejected(self, algorithm, grid):
        with pytest.raises(ConfigError, match=grid):
            CvConfig(algorithm=algorithm, **{grid: ()})

    @pytest.mark.parametrize("grid, values", [
        ("nb_alpha_grid", (0.5, math.nan)), ("nb_alpha_grid", (math.inf,)),
        ("nb_alpha_grid", (0.0,)), ("lr_epoch_grid", (0, 50)), ("lr_epoch_grid", (-5,))])
    def test_out_of_range_grid_value_rejected(self, grid, values):
        with pytest.raises(ConfigError, match=grid):
            CvConfig(**{grid: values})

    def test_unused_grid_may_be_empty(self):
        assert CvConfig(algorithm="nb", lr_epoch_grid=(), lr_l2_grid=()).nb_alpha_grid
        assert CvConfig(algorithm="lr", nb_alpha_grid=()).lr_epoch_grid


class TestCrossValidate:
    def config(self, **overrides):
        defaults = dict(algorithm="nb", folds=5, seed=13, bpe_vocab_size=120)
        defaults.update(overrides)
        return CvConfig(**defaults)

    def test_in_language_separable_corpus(self):
        rows = keyword_corpus(30)
        report = cross_validate(rows, self.config(), "train-tgt/test-tgt")
        assert report.mean_f1_positive == pytest.approx(1.0)
        assert report.mean_f1_macro == pytest.approx(1.0)
        assert len(report.folds) == 5
        assert report.folds[0].sizes == {"train": 42, "dev": 6, "test": 12}

    def test_fold_without_dev_rows_is_named(self):
        # 6 rows per class at 5 folds leave fold 0 no dev row
        with pytest.raises(InputError, match="fold 0 has no dev rows"):
            cross_validate(keyword_corpus(6), self.config(), "train-tgt/test-tgt")

    def test_grid_tie_prefers_first_value(self):
        rows = keyword_corpus(30)
        report = cross_validate(rows, self.config(), "train-tgt/test-tgt")
        # perfectly separable data makes every alpha tie on dev F1
        for fold in report.folds:
            assert fold.chosen == {"alpha": 0.1}
            assert len(fold.grid_trace) == 3

    def test_grid_tie_prefers_smaller_value_in_any_order(self):
        rows = keyword_corpus(30)
        report = cross_validate(rows, self.config(nb_alpha_grid=(1.0, 0.5, 0.1)),
                                "train-tgt/test-tgt")
        for fold in report.folds:
            assert fold.chosen == {"alpha": 0.1}
            assert [cell["params"]["alpha"] for cell in fold.grid_trace] == [0.1, 0.5, 1.0]

    def test_lr_builds_one_problem_per_fold(self, monkeypatch):
        built = []

        class CountingProblem(models._LrProblem):
            def __init__(self, data):
                built.append(len(data))
                super().__init__(data)

        monkeypatch.setattr(models, "_LrProblem", CountingProblem)
        cfg = self.config(algorithm="lr", lr_epoch_grid=(5, 10),
                          lr_l2_grid=(0.0, 0.01, 0.1), lr_learning_rate=0.5)
        report = cross_validate(keyword_corpus(30), cfg, "train-tgt/test-tgt")
        assert len(built) == len(report.folds) == 5
        for fold in report.folds:
            assert [cell["params"] for cell in fold.grid_trace] == [
                {"epochs": e, "l2": l2} for e in (5, 10) for l2 in (0.0, 0.01, 0.1)]

    def test_deterministic_report(self):
        rows = keyword_corpus(30)
        a = cross_validate(rows, self.config(), "train-tgt/test-tgt")
        b = cross_validate(rows, self.config(), "train-tgt/test-tgt")
        assert json.dumps(asdict(a)) == json.dumps(asdict(b))

    def test_mean_is_average_of_folds(self):
        rows = keyword_corpus(30)
        report = cross_validate(rows, self.config(), "train-tgt/test-tgt")
        assert report.mean_f1_positive == pytest.approx(
            sum(f.f1_positive for f in report.folds) / len(report.folds))

    def test_fold_means_add_left_to_right(self):
        # two mislabeled rows leave one fold at F1 5/6; the compensated
        # builtin sum() of Python 3.12 and later would make both means
        # 0.9666666666666666
        rows = keyword_corpus(30)
        for k in (0, 45):
            flipped = "negative" if rows[k].label == "positive" else "positive"
            rows[k] = LabeledPair(flipped, rows[k].src_text, rows[k].tgt_text)
        report = cross_validate(rows, self.config(), "train-tgt/test-tgt")
        assert [f.f1_positive for f in report.folds] == [1.0, 1.0, 0.8333333333333334, 1.0, 1.0]
        assert [f.f1_macro for f in report.folds] == [1.0, 1.0, 0.8333333333333334, 1.0, 1.0]
        assert report.mean_f1_positive == report.mean_f1_macro == 0.9666666666666668

    def test_translation_mode_recovers_signal(self):
        # the zero-shot side spells its signal words differently; only the
        # dictionary route can map them back to the training vocabulary
        tgt_pos = ["rancak", "sanang", "hebaik", "rincah"]
        tgt_neg = ["buruak", "sadiah", "parih", "jeleak"]
        rows = []
        src_rows = keyword_corpus(30)
        tgt_rows = keyword_corpus(30, signal=(tgt_pos, tgt_neg))
        for src, tgt in zip(src_rows, tgt_rows):
            rows.append(LabeledPair(src.label, src.src_text, tgt.tgt_text))
        mapping = dict(zip(tgt_pos, POS_WORDS)) | dict(zip(tgt_neg, NEG_WORDS))
        dictionary = parse_dictionary([f"{s}\t{t}" for s, t in mapping.items()],
                                      direction=("tgt", "src"))

        translated = cross_validate(rows, self.config(), "train-src/test-w2w",
                                    dictionary=dictionary)
        raw = cross_validate(rows, self.config(), "train-src/test-tgt")
        assert translated.mean_f1_positive >= 0.9
        assert raw.mean_f1_positive <= 0.5
        assert translated.mean_f1_positive > raw.mean_f1_positive

    def test_lr_algorithm_path(self):
        rows = keyword_corpus(30)
        cfg = self.config(algorithm="lr", lr_epoch_grid=(5, 10),
                          lr_l2_grid=(0.0,), lr_learning_rate=0.5)
        report = cross_validate(rows, cfg, "train-tgt/test-tgt")
        assert report.mean_f1_positive >= 0.9
        for fold in report.folds:
            assert set(fold.chosen) == {"epochs", "l2"}

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            cross_validate(keyword_corpus(10), self.config(), "train-x/test-y")

    def test_w2w_mode_requires_dictionary(self):
        with pytest.raises(ConfigError):
            cross_validate(keyword_corpus(10), self.config(), "train-src/test-w2w")
