"""Labeled data loading, stratified folds, and the CV harness."""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lexmine
from lexmine import cli
from lexmine.dictionary import parse_dictionary
from lexmine.errors import ConfigError, InputError, ParseError
from lexmine.sentiment import models
from lexmine.sentiment.cv import (
    MODES,
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
SOURCE = Path(lexmine.__file__).resolve().parent.parent

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


# the zero-shot side spells its signal words differently; only the
# dictionary route can map them back to the training vocabulary
TGT_POS = ["rancak", "sanang", "hebaik", "rincah"]
TGT_NEG = ["buruak", "sadiah", "parih", "jeleak"]
TRANSLATION_DICT = [f"{t}\t{s}" for t, s in zip(TGT_POS + TGT_NEG, POS_WORDS + NEG_WORDS)]


def translation_corpus() -> list[LabeledPair]:
    tgt_rows = keyword_corpus(30, signal=(TGT_POS, TGT_NEG))
    return [LabeledPair(src.label, src.src_text, tgt.tgt_text)
            for src, tgt in zip(keyword_corpus(30), tgt_rows)]


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
        rows = translation_corpus()
        dictionary = parse_dictionary(TRANSLATION_DICT, direction=("tgt", "src"))

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


# Runs `lexmine.cli.run(argv)` in a fresh interpreter that sees CPUS CPUs
# (one thread more with THREAD 1), then writes to PROBE how many processes
# it forked, whether a child process is left, alive or unreaped, and whether
# it imported numpy itself.
PROBE_SCRIPT = """
import json, os, sys, threading

probe, cpus, thread, *argv = sys.argv[1:]
os.sched_getaffinity = lambda pid: set(range(int(cpus)))
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
if thread == "1":
    threading.Thread(target=threading.Event().wait, daemon=True).start()

import lexmine.cli

code = lexmine.cli.run(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
with open(probe, "w", encoding="utf-8") as handle:
    json.dump({"forks": len(forks), "children_left": children_left,
               "numpy": "numpy" in sys.modules}, handle)
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="fold workers are forked on Linux only")
class TestForkedFolds:
    """`sent cv` with its folds in forked workers, each run in a fresh
    interpreter: pytest's own process may hold threads, and then the folds
    never leave it. The interpreter is told it has 2 or more CPUs, so the
    workers run on a one-CPU host too. It runs under `-X dev`, which prints
    every warning, and each test compares or pins stderr. `-W error` would
    hide one: Python 3.12+ drops its fork-with-threads warning when the
    warning is an error."""

    def corpus(self, tmp_path) -> list[str]:
        data, dictionary = tmp_path / "data.tsv", tmp_path / "dict.tsv"
        data.write_text("".join(f"{row.label}\t{row.src_text}\t{row.tgt_text}\n"
                                for row in translation_corpus()), encoding="utf-8")
        dictionary.write_text("".join(line + "\n" for line in TRANSLATION_DICT),
                              encoding="utf-8")
        return ["sent", "cv", "--data", str(data), "--dict", str(dictionary),
                "--vocab-size", "120", "--out", "report.json"]

    def fresh(self, tmp_path, argv, cpus=2, thread=False):
        """(exit code, stdout, stderr, outputs, probe) of `argv` run in a
        fresh interpreter, in its own directory under `tmp_path`."""
        run_dir = tmp_path / "fresh"
        run_dir.mkdir()
        script = tmp_path / "probe.py"
        script.write_text(PROBE_SCRIPT, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SOURCE), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-X", "dev", str(script), "probe.json",
             str(cpus), "1" if thread else "0", *argv],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=120)
        probe = json.loads((run_dir / "probe.json").read_text(encoding="utf-8"))
        outputs = {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())
                   if path.name.startswith("report.json")
                   and not path.name.endswith(".timing.json")}
        return done.returncode, done.stdout, done.stderr, outputs, probe

    def here(self, tmp_path, argv, monkeypatch, capsys):
        """The same as `fresh`, less the probe, run in this process."""
        run_dir = tmp_path / "here"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        code = cli.run(argv)
        out, err = capsys.readouterr()
        outputs = {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())
                   if not path.name.endswith(".timing.json")}
        return code, out, err, outputs

    @pytest.mark.parametrize("algorithm", ["nb", "lr"])
    @pytest.mark.parametrize("mode", MODES)
    def test_same_bytes_as_one_process(self, tmp_path, monkeypatch, capsys, mode, algorithm):
        argv = self.corpus(tmp_path) + ["--mode", mode, "--algorithm", algorithm]
        *pooled, probe = self.fresh(tmp_path, argv)
        assert probe == {"forks": 2, "children_left": False, "numpy": False}
        assert pooled == list(self.here(tmp_path, argv, monkeypatch, capsys))
        assert pooled[0] == 0 and sorted(pooled[3]) == ["report.json",
                                                        "report.json.manifest.json"]

    @pytest.mark.parametrize("cpus, folds, forks", [(1, 5, 0), (2, 5, 2), (8, 4, 4)])
    def test_one_worker_per_cpu_up_to_the_fold_count(self, tmp_path, cpus, folds, forks):
        share = 1 / folds
        argv = self.corpus(tmp_path) + [
            "--mode", "train-tgt/test-tgt", "--folds", str(folds),
            "--ratios", f"{0.9 - share},0.1,{share}"]
        code, _, err, _, probe = self.fresh(tmp_path, argv, cpus=cpus)
        assert code == 0, err
        assert probe["forks"] == forks and not probe["children_left"]

    def test_fold_error_is_one_line_and_reaps_workers(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "huge.cfg").write_text("lr_learning_rate=1e300\n", encoding="utf-8")
        argv = self.corpus(tmp_path) + ["--mode", "train-src/test-w2w", "--algorithm", "lr",
                                        "--config", str(tmp_path / "huge.cfg")]
        *pooled, probe = self.fresh(tmp_path, argv)
        assert probe["forks"] == 2 and not probe["children_left"]
        assert pooled == list(self.here(tmp_path, argv, monkeypatch, capsys))
        code, out, err, _ = pooled
        assert (code, out, err) == (1, "", "lexmine: non-finite loss at epoch 1\n")

    def test_no_fork_from_a_threaded_process(self, tmp_path, monkeypatch, capsys):
        # Python 3.12+ warns when a process with threads forks
        argv = self.corpus(tmp_path) + ["--mode", "train-src/test-w2w"]
        *pooled, probe = self.fresh(tmp_path, argv, thread=True)
        assert probe["forks"] == 0
        assert pooled == list(self.here(tmp_path, argv, monkeypatch, capsys))
        assert pooled[0] == 0

    def test_import_leaves_multiprocessing_unloaded(self):
        done = subprocess.run(
            [sys.executable, "-c", "import sys, lexmine.cli; "
                                   "print(sorted(m for m in sys.modules "
                                   "if m.split('.')[0] == 'multiprocessing'))"],
            env=dict(os.environ, PYTHONPATH=str(SOURCE)), capture_output=True, text=True,
            timeout=60)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
