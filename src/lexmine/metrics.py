"""Self-contained evaluation metrics.

ROUGE-1 F1 with clipped unigram overlap, corpus-level 4-gram BLEU with
exponential zero-count smoothing and brevity penalty, Pearson correlation,
human-judgment aggregation, and descriptive corpus statistics. No external
metric packages; everything here is recomputable by hand.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat, zip_longest

from .errors import InputError
from .textproc import Token, is_punctuation, ngrams, tokenize

BLEU_MAX_ORDER = 4


def sum_in_order(values: Iterable[float]) -> float:
    """Add floats left to right, rounding after each addition.

    Builtin sum() does this up to Python 3.11; from 3.12 it compensates the
    rounding and may differ in the last bit, so a report would not keep its
    bytes across the Python versions lexmine supports.
    """
    return reduce(operator.add, values, 0.0)


def _clipped_matches(hyp_grams: list, ref_grams: list) -> int:
    """Clipped matches of two lists of grams: the sum, over each distinct
    gram g, of min(h(g), r(g)), where h and r count g in each list.

    Every g found in both lists adds min(h(g), r(g)) = 1 + (min(h(g),
    r(g)) - 1); every other g adds 0. So the sum is the number of distinct
    shared grams plus, over the shared grams, min(h(g), r(g)) - 1. That
    last term is 0 unless h(g) > 1 and r(g) > 1. The first part is one set
    intersection, and only grams repeated in both lists need counting; when
    no gram repeats in `hyp_grams`, there are none.
    """
    distinct = set(hyp_grams)
    matches = len(distinct.intersection(ref_grams))
    if len(distinct) < len(hyp_grams):
        for gram, count in Counter(hyp_grams).items():
            if count > 1:
                ref_count = ref_grams.count(gram)
                if ref_count > 1:
                    matches += min(count, ref_count) - 1
    return matches


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float
    overlap_count: int


def rouge1_f1(candidate: list[Token], reference: list[Token]) -> RougeScore:
    """Unigram-overlap F1 with clipped (multiset-min) counts."""
    overlap = _clipped_matches(candidate, reference)
    precision = overlap / len(candidate) if candidate else 0.0
    recall = overlap / len(reference) if reference else 0.0
    # 2PR/(P+R) as one correctly rounded division: equal fractions give
    # equal floats, so exact score ties stay ties
    f1 = 2 * overlap / (len(candidate) + len(reference)) if overlap else 0.0
    return RougeScore(precision, recall, f1, overlap)


@dataclass(frozen=True)
class BleuReport:
    bleu: float                      # 0..100
    ngram_precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    zero_length: bool = False

    def to_dict(self) -> dict:
        return {
            "bleu": self.bleu,
            "precisions": list(self.ngram_precisions),
            "bp": self.brevity_penalty,
            "hyp_len": self.hyp_length,
            "ref_len": self.ref_length,
            "zero_length": self.zero_length,
        }


def _pooled_counts(hypotheses, references):
    """Clipped n-gram matches and hypothesis n-gram totals per order, pooled
    over the segment pairs, with the pooled hypothesis and reference lengths.
    Unigrams are the tokens themselves rather than 1-tuples, which counts
    the same; they are clipped by `_clipped_matches`, and their total is
    the pooled hypothesis length.

    Orders 2 and up are read off the diagonals of bigram matches when
    neither side of a segment repeats a bigram. That is exact:
    - No n-gram of a higher order repeats on either side either, since two
      equal n-grams start with equal bigrams. So every n-gram counts at
      most once per side, and the clipped count of order n is the number
      of hypothesis positions whose n-gram occurs in the reference.
    - Each reference bigram has one position. The n-gram at hypothesis
      position i equals the reference n-gram at position j exactly when
      hypothesis bigrams i .. i+n-2 equal reference bigrams j .. j+n-2,
      that is, when their reference positions all exist and each is one
      more than the one before: a run of n-1 bigrams on one diagonal.
    So order 2 counts the hypothesis bigrams found in the reference. For
    order 3, `run[i]` says that bigram i+1 sits one reference position
    after bigram i. Each next order ands `run` with itself shifted by one,
    so for order n `run[i]` says that bigrams i .. i+n-2 lie on one
    diagonal, and the order counts the positions where it holds. Any other
    segment clips each order with `_clipped_matches`.
    """
    correct = [0] * BLEU_MAX_ORDER
    total = [0] * BLEU_MAX_ORDER
    ref_len = 0
    hyp_count = ref_count = 0
    for hyp, ref in zip_longest(hypotheses, references):
        hyp_count += hyp is not None
        ref_count += ref is not None
        if hyp is None or ref is None:
            continue  # counting what is left of the longer side
        ref_len += len(ref)
        correct[0] += _clipped_matches(hyp, ref)
        total[0] += len(hyp)
        if len(hyp) < 2:
            continue
        hyp_bigrams = list(zip(hyp, hyp[1:]))
        ref_bigrams = list(zip(ref, ref[1:]))
        position = dict(zip(ref_bigrams, range(len(ref_bigrams))))
        if len(position) == len(ref_bigrams) and len(set(hyp_bigrams)) == len(hyp_bigrams):
            # -2 marks a bigram the reference lacks; neither it nor -2 + 1
            # is a position, so such a bigram is never on a diagonal
            at = list(map(position.get, hyp_bigrams, repeat(-2)))
            matches = [len(at) - at.count(-2)]
            run = list(map(operator.eq, map(operator.add, at, repeat(1)), at[1:]))
            for n in range(3, min(len(hyp), BLEU_MAX_ORDER) + 1):
                if n > 3:
                    run = list(map(operator.and_, run, run[1:]))
                matches.append(run.count(True))
        else:
            matches = [_clipped_matches(hyp_bigrams, ref_bigrams)]
            for n in range(3, min(len(hyp), BLEU_MAX_ORDER) + 1):
                matches.append(_clipped_matches(list(ngrams(hyp, n)), list(ngrams(ref, n))))
        for n, count in enumerate(matches, 2):
            correct[n - 1] += count
            total[n - 1] += len(hyp) - n + 1
    if hyp_count != ref_count:
        raise InputError(f"hypothesis/reference counts differ: {hyp_count} vs {ref_count}")
    if not hyp_count:
        raise InputError("at least one hypothesis is required")
    return correct, total, total[0], ref_len


def bleu(hypotheses: Iterable[list[Token]], references: Iterable[list[Token]]) -> BleuReport:
    """Corpus-level BLEU over 1..4-grams with a single reference per segment.

    Takes any two iterables of token lists and consumes them one segment at
    a time, in lockstep, so one-shot generators work and no segment need
    outlive its turn. Tokens are compared as given: case-fold them first
    (``normalize``) for case-insensitive scoring.

    Clipped n-gram matches and totals are pooled over the whole corpus.
    Zero *matched* counts use exponential smoothing: the k-th zero order
    contributes 1/(2^k * pooled_total_n). Orders with no hypothesis n-grams
    at all (every segment shorter than n) are left out of the geometric
    mean so that a corpus compared against itself always scores 100.
    """
    correct, total, hyp_len, ref_len = _pooled_counts(hypotheses, references)

    if hyp_len == 0:
        return BleuReport(0.0, (0.0,) * BLEU_MAX_ORDER, 0.0, 0, ref_len, zero_length=True)

    precisions = [0.0] * BLEU_MAX_ORDER
    log_sum = 0.0
    effective_orders = 0
    smooth = 1.0
    for n in range(1, BLEU_MAX_ORDER + 1):
        if total[n - 1] == 0:
            continue
        effective_orders += 1
        if correct[n - 1] == 0:
            smooth *= 2.0
            precisions[n - 1] = 1.0 / (smooth * total[n - 1])
        else:
            precisions[n - 1] = correct[n - 1] / total[n - 1]
        log_sum += math.log(precisions[n - 1])

    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = 100.0 * bp * math.exp(log_sum / effective_orders)
    return BleuReport(score, tuple(precisions), bp, hyp_len, ref_len)


def pearson(x: list[float], y: list[float]) -> float | None:
    """Product-moment correlation; None when either side has zero variance."""
    if len(x) != len(y):
        raise InputError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise InputError("pearson needs at least 2 observations")
    mx = sum_in_order(x) / len(x)
    my = sum_in_order(y) / len(y)
    cov = sum_in_order((a - mx) * (b - my) for a, b in zip(x, y))
    var_x = sum_in_order((a - mx) ** 2 for a in x)
    var_y = sum_in_order((b - my) ** 2 for b in y)
    if var_x == 0.0 or var_y == 0.0:
        return None
    return cov / math.sqrt(var_x * var_y)


@dataclass(frozen=True)
class JudgmentSummary:
    mean_score: float       # mean of per-item annotator averages
    pearson: float | None   # None when undefined (zero variance)
    pearson_defined: bool
    items: int


def judgment_summary(scores_a: list[int], scores_b: list[int]) -> JudgmentSummary:
    """Aggregate two annotators' 1-5 judgments: averaged mean + agreement."""
    if len(scores_a) != len(scores_b):
        raise InputError(f"length mismatch: {len(scores_a)} vs {len(scores_b)}")
    if len(scores_a) < 2:
        raise InputError("judgment summary needs at least 2 items")
    for s in list(scores_a) + list(scores_b):
        if not isinstance(s, int) or not 1 <= s <= 5:
            raise InputError(f"scores must be integers in 1..5, got {s!r}")
    mean_score = sum((a + b) / 2 for a, b in zip(scores_a, scores_b)) / len(scores_a)
    corr = pearson([float(s) for s in scores_a], [float(s) for s in scores_b])
    return JudgmentSummary(mean_score, corr, corr is not None, len(scores_a))


@dataclass(frozen=True)
class SideStats:
    sentences: int
    mean_words: float
    std_words: float
    mean_chars: float
    std_chars: float
    vocab_size: int


@dataclass(frozen=True)
class CorpusStats:
    side_a: SideStats
    side_b: SideStats
    overlapping_vocab: int
    empty: bool
    std_kind: str = field(default="population", init=False)


def _side_stats(sentences: list[str]) -> tuple[SideStats, set[str]]:
    vocab: set[str] = set()
    word_counts = []
    char_counts = []
    for sent in sentences:
        tokens = tokenize(sent)
        word_counts.append(len(tokens))
        char_counts.append(len(sent))
        vocab.update(t.lower() for t in tokens if not is_punctuation(t))
    if not sentences:
        return SideStats(0, 0.0, 0.0, 0.0, 0.0, 0), vocab
    import numpy as np

    words = np.asarray(word_counts, dtype=float)
    chars = np.asarray(char_counts, dtype=float)
    return SideStats(
        sentences=len(sentences),
        mean_words=float(words.mean()),
        std_words=float(words.std()),  # population std
        mean_chars=float(chars.mean()),
        std_chars=float(chars.std()),
        vocab_size=len(vocab),
    ), vocab


def corpus_stats(side_a: list[str], side_b: list[str]) -> CorpusStats:
    """Per-side length statistics plus vocabulary overlap."""
    stats_a, vocab_a = _side_stats(side_a)
    stats_b, vocab_b = _side_stats(side_b)
    return CorpusStats(
        side_a=stats_a,
        side_b=stats_b,
        overlapping_vocab=len(vocab_a & vocab_b),
        empty=not side_a and not side_b,
    )
