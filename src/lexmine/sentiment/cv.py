"""Stratified cross-validation over parallel bilingual sentiment data.

Data rows carry a label and two language sides: `src` is the language the
classifier is trained on, `tgt` the zero-shot language. Three experiment
modes mirror that setup:

  train-src/test-tgt   zero-shot: train on src text, test on raw tgt text
  train-src/test-w2w   train on src, test on tgt translated word-to-word
                       into the src language (dictionary maps tgt -> src)
  train-tgt/test-tgt   in-language reference point

Each fold trains a fresh BPE model on its training texts, tunes the
classifier on the dev split, and reports test F1 (positive-class headline,
macro too). One grid search serves both classifiers: it walks the grid in
ascending order (naive Bayes: alpha; logistic regression: epochs, then l2),
records every cell in `grid_trace` in that order, and keeps the first best
dev F1, so a tie goes to the smaller value.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from functools import partial

from ..dictionary import BilingualDictionary
from ..errors import ConfigError, InputError, ParseError
from ..manifest import content_lines, read_lines
from ..metrics import sum_in_order
from ..textproc import tokenize
from ..w2w import translate_tokens
from .bpe import bpe_train, featurize
from .models import (
    LABELS,
    f1_score,
    lr_predict,
    lr_train_checkpoints,
    macro_f1,
    nb_predict,
    nb_train,
)

MODES = ("train-src/test-tgt", "train-src/test-w2w", "train-tgt/test-tgt")


@dataclass(frozen=True)
class LabeledPair:
    """One corpus row: polarity label plus both language sides."""

    label: str
    src_text: str
    tgt_text: str


def load_labeled_tsv(path) -> list[LabeledPair]:
    """Rows `label<TAB>text_src[<TAB>text_tgt]`; one column of text means
    a monolingual corpus and fills both sides."""
    rows = []
    for line_no, line in content_lines(read_lines(path)):
        columns = line.split("\t")
        if len(columns) not in (2, 3):
            raise ParseError(path, line_no,
                             f"expected 2 or 3 tab-separated columns, got {len(columns)}")
        label = columns[0].strip().lower()
        if label not in LABELS:
            raise ParseError(path, line_no, f"unknown label {columns[0]!r}")
        src = columns[1].strip()
        tgt = columns[2].strip() if len(columns) == 3 else src
        if not src or not tgt:
            raise ParseError(path, line_no, "empty text column")
        rows.append(LabeledPair(label, src, tgt))
    return rows


@dataclass(frozen=True)
class FoldAssignment:
    train: list[int]
    dev: list[int]
    test: list[int]


def stratified_folds(data, k: int, ratios: tuple[float, float, float],
                     seed: int) -> list[FoldAssignment]:
    """Seeded per-class fold assignments with disjoint test buckets.

    `data` is a list of label strings. The k test buckets partition each
    class, which pins the test share to 1/k; the train/dev ratios are
    honored inside the remainder so every split stays within one item of
    its exact per-class proportion.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    r_train, r_dev, r_test = ratios
    # written so that a NaN ratio fails too: every comparison with NaN is False
    if not all(r >= 0 for r in ratios) or not abs(r_train + r_dev + r_test - 1.0) <= 1e-9:
        raise InputError(f"ratios must be non-negative and sum to 1, got {ratios}")
    if abs(r_test - 1.0 / k) > 1e-9:
        raise InputError(f"test ratio must be 1/k={1.0 / k:.4f} for disjoint "
                         f"test folds, got {r_test}")

    by_class: dict[str, list[int]] = {}
    for idx, label in enumerate(data):
        by_class.setdefault(label, []).append(idx)
    rng = random.Random(seed)
    splits: list[tuple[list[int], list[int], list[int]]] = [([], [], []) for _ in range(k)]
    for label, members in sorted(by_class.items()):
        n = len(members)
        if n < k:
            raise InputError(f"class {label!r} has {n} items, fewer than k={k}")
        rng.shuffle(members)
        buckets = [members[j::k] for j in range(k)]
        # dev size splits the difference between its own exact share and
        # what the train share leaves over, keeping both within one item
        want_dev = n * r_dev
        for i, (train, dev, test) in enumerate(splits):
            rest = [idx for j in range(k) if j != i for idx in buckets[j]]
            leftover = len(rest) - n * r_train
            dev_c = max(0, min(len(rest), round((want_dev + leftover) / 2)))
            test.extend(buckets[i])
            dev.extend(rest[:dev_c])
            train.extend(rest[dev_c:])
    return [FoldAssignment(sorted(train), sorted(dev), sorted(test))
            for train, dev, test in splits]


@dataclass(frozen=True)
class CvConfig:
    algorithm: str = "nb"                     # "nb" or "lr"
    folds: int = 5
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 13
    bpe_vocab_size: int = 2000
    nb_alpha_grid: tuple[float, ...] = (0.1, 0.5, 1.0)
    lr_epoch_grid: tuple[int, ...] = (50, 100, 200)
    lr_l2_grid: tuple[float, ...] = (0.0, 0.01, 0.1)
    lr_learning_rate: float = 0.1

    def __post_init__(self):
        if len(self.ratios) != 3:
            raise ConfigError(f"ratios must have 3 values, got {len(self.ratios)}")
        if self.algorithm not in ("nb", "lr"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        grids = ("nb_alpha_grid",) if self.algorithm == "nb" else ("lr_epoch_grid", "lr_l2_grid")
        for name in grids:
            if not getattr(self, name):
                raise ConfigError(f"{name} must hold at least one value")
        # written so that NaN fails too: every comparison with NaN is False
        if not all(0 < alpha < math.inf for alpha in self.nb_alpha_grid):
            raise ConfigError(f"nb_alpha_grid values must be finite and > 0, "
                              f"got {self.nb_alpha_grid}")
        if not all(epochs >= 1 for epochs in self.lr_epoch_grid):
            raise ConfigError(f"lr_epoch_grid values must be >= 1, got {self.lr_epoch_grid}")


@dataclass
class FoldResult:
    fold: int
    chosen: dict
    dev_f1: float
    f1_positive: float
    f1_macro: float
    sizes: dict
    grid_trace: list[dict] = field(default_factory=list)


@dataclass
class CvReport:
    mode: str
    config: CvConfig
    folds: list[FoldResult]
    mean_f1_positive: float
    mean_f1_macro: float


def _grid(train_data, config):
    """Yield `(params, model, predict)` for every grid cell of the configured
    classifier, each grid walked in ascending order. The LR cells train
    from one shared problem, and cells that differ only in epochs share one
    descent; each LR model's weight dict is built when its cell is reached."""
    if config.algorithm == "nb":
        for alpha in sorted(config.nb_alpha_grid):
            yield {"alpha": alpha}, nb_train(train_data, alpha=alpha), nb_predict
        return
    for epochs, l2, model in lr_train_checkpoints(train_data, config.lr_learning_rate,
                                                  sorted(config.lr_epoch_grid),
                                                  sorted(config.lr_l2_grid)):
        yield {"epochs": epochs, "l2": l2}, model, lr_predict


def _run_fold(data, config, mode, dictionary, job) -> FoldResult:
    """Train and test one fold; `job` is `(fold index, FoldAssignment)`."""
    fold_idx, assignment = job

    def train_text(row: LabeledPair) -> str:
        return row.tgt_text if mode == "train-tgt/test-tgt" else row.src_text

    def test_text(row: LabeledPair) -> str:
        if mode == "train-src/test-w2w":
            return translate_tokens(dictionary, tokenize(row.tgt_text)).text
        return row.tgt_text

    train_rows = [data[i] for i in assignment.train]
    dev_rows = [data[i] for i in assignment.dev]
    test_rows = [data[i] for i in assignment.test]

    bpe = bpe_train([train_text(r) for r in train_rows], vocab_size=config.bpe_vocab_size)
    train_data = [(featurize(bpe, train_text(r)), r.label) for r in train_rows]
    dev_features = [featurize(bpe, train_text(r)) for r in dev_rows]
    dev_labels = [r.label for r in dev_rows]
    test_features = [featurize(bpe, test_text(r)) for r in test_rows]
    test_labels = [r.label for r in test_rows]

    # the first best dev F1 wins, so a tie goes to the smaller value
    best = None
    trace = []
    for params, model, predict in _grid(train_data, config):
        dev_f1 = f1_score([predict(model, fv) for fv in dev_features], dev_labels)
        trace.append({"params": params, "dev_f1": dev_f1})
        if best is None or dev_f1 > best[0]:
            best = (dev_f1, params, model, predict)
    dev_f1, chosen, model, predict = best

    predictions = [predict(model, fv) for fv in test_features]
    return FoldResult(
        fold=fold_idx,
        chosen=chosen,
        dev_f1=dev_f1,
        f1_positive=f1_score(predictions, test_labels),
        f1_macro=macro_f1(predictions, test_labels),
        sizes={"train": len(train_rows), "dev": len(dev_rows), "test": len(test_rows)},
        grid_trace=trace,
    )


def _map_folds(run_fold, jobs: list) -> list[FoldResult]:
    """`run_fold` over `jobs`, results in job order, in up to
    min(len(jobs), CPUs) forked worker processes.

    Forking is safe only from a process with one OS thread: a forked child
    keeps no other thread, but keeps any lock another thread held, and
    Python 3.12+ warns about it. Threads arrive unseen, for example with
    numpy's BLAS pool, so the count comes from /proc. With more threads or
    one CPU, or without /proc or CPU affinity (off Linux), the jobs run in
    this process. The fork context is named because Python 3.14 defaults to
    forkserver, which would start each worker from a fresh interpreter. A
    worker's exception is raised here, and the pool's exit stops and reaps
    every worker.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        cpus = threads = 1
    if cpus < 2 or threads > 1:
        return list(map(run_fold, jobs))
    import multiprocessing  # here, not at the top: it slows every lexmine import

    with multiprocessing.get_context("fork").Pool(min(len(jobs), cpus)) as pool:
        return list(pool.imap(run_fold, jobs))


def cross_validate(data: list[LabeledPair], config: CvConfig, mode: str,
                   dictionary: BilingualDictionary | None = None) -> CvReport:
    """Run the k-fold experiment for one mode and one classifier.

    The folds run in up to min(k, CPUs) forked workers (`_map_folds`), and
    the report is the same as from one process."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "train-src/test-w2w" and dictionary is None:
        raise ConfigError("mode train-src/test-w2w requires a bilingual dictionary")

    folds = stratified_folds([row.label for row in data], k=config.folds,
                             ratios=config.ratios, seed=config.seed)
    for fold_idx, assignment in enumerate(folds):
        if not assignment.dev:
            raise InputError(f"fold {fold_idx} has no dev rows; "
                             "add rows or raise the dev ratio")

    run_fold = partial(_run_fold, data, config, mode, dictionary)
    fold_results = _map_folds(run_fold, list(enumerate(folds)))

    mean_pos = sum_in_order(f.f1_positive for f in fold_results) / len(fold_results)
    mean_macro = sum_in_order(f.f1_macro for f in fold_results) / len(fold_results)
    return CvReport(mode, config, fold_results, mean_pos, mean_macro)
