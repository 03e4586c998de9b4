"""ROUGE-1, corpus BLEU, Pearson, judgment aggregation, corpus statistics."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict
from itertools import chain, zip_longest

import pytest
from hypothesis import given, strategies as st

from lexmine.errors import InputError
from lexmine.metrics import (
    BLEU_MAX_ORDER,
    _clipped_matches,
    _pooled_counts,
    bleu,
    corpus_stats,
    judgment_summary,
    pearson,
    rouge1_f1,
    sum_in_order,
)
from lexmine.textproc import ngrams, normalize

token_st = st.sampled_from(list("abcdefg"))
segment_st = st.lists(token_st, min_size=1, max_size=10)
corpus_st = st.lists(st.tuples(segment_st, segment_st), min_size=1, max_size=8)
# short segments over three tokens: n-grams of every order repeat and clip
short_segment_st = st.lists(st.sampled_from("abc"), max_size=5)
short_corpus_st = st.lists(st.tuples(short_segment_st, short_segment_st), min_size=1, max_size=8)
wide_token_st = st.sampled_from([f"w{i}" for i in range(40)])


@st.composite
def wide_pair_st(draw, copies=1):
    """A segment pair over 40 tokens, so most segments repeat no n-gram;
    the reference holds a run of the hypothesis `copies` times, so n-grams
    of every order are shared. With two copies the reference repeats each
    bigram of the run, so long shared runs also take the per-order path."""
    hyp = draw(st.lists(wide_token_st, max_size=12))
    start = draw(st.integers(0, len(hyp)))
    stop = draw(st.integers(start, len(hyp)))
    edge = st.lists(wide_token_st, max_size=4)
    ref = draw(edge)
    for _ in range(copies):
        ref += hyp[start:stop] + draw(edge)
    return hyp, ref


wide_corpus_st = st.lists(wide_pair_st(), min_size=1, max_size=8)
twice_corpus_st = st.lists(wide_pair_st(copies=2), min_size=1, max_size=8)


class TestRouge1:
    def test_identical(self):
        score = rouge1_f1(["a", "b"], ["a", "b"])
        assert score.f1 == 1.0
        assert score.precision == score.recall == 1.0

    def test_disjoint(self):
        assert rouge1_f1(["a"], ["b"]).f1 == 0.0

    def test_two_of_three(self):
        score = rouge1_f1(["a", "b", "c"], ["a", "b", "d"])
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)
        assert score.overlap_count == 2

    def test_clipped_repeats(self):
        # "a a a" vs "a": overlap is min(3, 1) = 1, not 3
        score = rouge1_f1(["a", "a", "a"], ["a"])
        assert score.overlap_count == 1
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(0.5)

    def test_empty_candidate(self):
        assert rouge1_f1([], ["a"]).f1 == 0.0

    def test_empty_both(self):
        assert rouge1_f1([], []).f1 == 0.0

    @given(segment_st, segment_st)
    def test_f1_symmetric(self, a, b):
        assert rouge1_f1(a, b).f1 == pytest.approx(rouge1_f1(b, a).f1)

    @given(segment_st, segment_st)
    def test_matches_multiset_oracle(self, a, b):
        # independent recount: intersect the two token multisets directly
        overlap = 0
        pool = list(b)
        for token in a:
            if token in pool:
                pool.remove(token)
                overlap += 1
        assert rouge1_f1(a, b).overlap_count == overlap

    @given(segment_st, segment_st)
    def test_bounded(self, a, b):
        score = rouge1_f1(a, b)
        assert 0.0 <= score.f1 <= 1.0


def oracle_counts(pairs):
    """Pooled clipped n-gram matches and totals per order, from explicit loops."""
    correct = [0] * 4
    total = [0] * 4
    for n in range(1, 5):
        for hyp, ref in pairs:
            hyp_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            total[n - 1] += len(hyp_grams)
            for gram in set(hyp_grams):
                correct[n - 1] += min(hyp_grams.count(gram), ref_grams.count(gram))
    return correct, total


def oracle_pooled_counts(hypotheses, references):
    """`_pooled_counts` as it was before set intersection: one Counter per
    side over all orders chained together, and min(count, reference count)
    for every distinct hypothesis n-gram."""
    correct = [0] * BLEU_MAX_ORDER
    total = [0] * BLEU_MAX_ORDER
    hyp_len = ref_len = 0
    hyp_count = ref_count = 0
    for hyp, ref in zip_longest(hypotheses, references):
        hyp_count += hyp is not None
        ref_count += ref is not None
        if hyp is None or ref is None:
            continue
        hyp_len += len(hyp)
        ref_len += len(ref)
        orders = range(1, min(len(hyp), BLEU_MAX_ORDER) + 1)
        ref_counts = Counter(chain.from_iterable(ngrams(ref, n) for n in orders))
        for gram, count in Counter(chain.from_iterable(ngrams(hyp, n) for n in orders)).items():
            correct[len(gram) - 1] += min(count, ref_counts.get(gram, 0))
        for n in orders:
            total[n - 1] += len(hyp) - n + 1
    if hyp_count != ref_count:
        raise InputError(f"hypothesis/reference counts differ: {hyp_count} vs {ref_count}")
    if not hyp_count:
        raise InputError("at least one hypothesis is required")
    return correct, total, hyp_len, ref_len


def oracle_per_order_counts(hypotheses, references):
    """`_pooled_counts` as it was before the diagonal path: every order of
    every segment clipped by `_clipped_matches`, over a fresh list of that
    order's n-grams on each side."""
    correct = [0] * BLEU_MAX_ORDER
    total = [0] * BLEU_MAX_ORDER
    hyp_len = ref_len = 0
    hyp_count = ref_count = 0
    for hyp, ref in zip_longest(hypotheses, references):
        hyp_count += hyp is not None
        ref_count += ref is not None
        if hyp is None or ref is None:
            continue
        hyp_len += len(hyp)
        ref_len += len(ref)
        correct[0] += _clipped_matches(hyp, ref)
        total[0] += len(hyp)
        for n in range(2, min(len(hyp), BLEU_MAX_ORDER) + 1):
            correct[n - 1] += _clipped_matches(list(ngrams(hyp, n)), list(ngrams(ref, n)))
            total[n - 1] += len(hyp) - n + 1
    if hyp_count != ref_count:
        raise InputError(f"hypothesis/reference counts differ: {hyp_count} vs {ref_count}")
    if not hyp_count:
        raise InputError("at least one hypothesis is required")
    return correct, total, hyp_len, ref_len


def oracle_precisions(pairs):
    """Per-order precisions from the loop counts, zero-matched orders smoothed."""
    correct, total = oracle_counts(pairs)
    precisions, smooth = [0.0] * 4, 1.0
    for n in range(4):
        if total[n] == 0:
            continue
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 1.0 / (smooth * total[n])
        else:
            precisions[n] = correct[n] / total[n]
    return precisions


def oracle_bleu(pairs):
    """Reference corpus BLEU built from explicit loops (no Counter)."""
    hyp_len = sum(len(h) for h, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    log_sum, orders = 0.0, 0
    for p in oracle_precisions(pairs):
        if p:
            orders += 1
            log_sum += math.log(p)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / orders)


def sides(pairs):
    """The hypothesis and reference sides of `pairs` as one-shot generators."""
    return (h for h, _ in pairs), (r for _, r in pairs)


class TestBleu:
    def test_identical_corpus_scores_100(self):
        refs = [["a", "b", "c"], ["d"]]
        report = bleu(refs, refs)
        assert report.bleu == 100.0
        assert report.brevity_penalty == 1.0

    def test_single_short_segment_scores_100(self):
        # orders longer than the segment are left out of the geometric mean
        assert bleu([["a"]], [["a"]]).bleu == 100.0

    def test_brevity_penalty_value(self):
        # 5-token hypothesis whose unigrams all occur in a 10-token reference,
        # with no matching higher-order n-grams
        hyp = ["a", "b", "c", "d", "e"]
        ref = ["a", "z1", "b", "z2", "c", "z3", "d", "z4", "e", "z5"]
        report = bleu([hyp], [ref])
        assert report.brevity_penalty == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert report.ngram_precisions == pytest.approx((1.0, 1 / 8, 1 / 12, 1 / 16))
        expected = 100.0 * math.exp(-1.0) * (1.0 * (1 / 8) * (1 / 12) * (1 / 16)) ** 0.25
        assert report.bleu == pytest.approx(expected, abs=1e-9)

    def test_no_penalty_when_hypothesis_longer(self):
        assert bleu([["a", "b", "c"]], [["a", "b"]]).brevity_penalty == 1.0

    def test_zero_length_hypotheses(self):
        report = bleu([[]], [["a", "b"]])
        assert report.bleu == 0.0
        assert report.zero_length
        assert report.brevity_penalty == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            bleu([["a"]], [["a"], ["b"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            bleu([], [])

    def test_lowercase_switch(self):
        # tokens are scored as given; case-folding is the caller's
        assert bleu([["A"]], [["a"]]).bleu < 100.0
        assert bleu([normalize(["A"])], [["a"]]).bleu == 100.0

    @given(corpus_st)
    def test_matches_loop_oracle(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        assert bleu(hyps, refs).bleu == pytest.approx(oracle_bleu(pairs), abs=1e-9)

    @given(corpus_st)
    def test_bounded(self, pairs):
        report = bleu([h for h, _ in pairs], [r for _, r in pairs])
        assert 0.0 <= report.bleu <= 100.0
        assert 0.0 < report.brevity_penalty <= 1.0

    @given(corpus_st)
    def test_segment_order_irrelevant(self, pairs):
        forward = bleu([h for h, _ in pairs], [r for _, r in pairs])
        rev = list(reversed(pairs))
        backward = bleu([h for h, _ in rev], [r for _, r in rev])
        assert forward.bleu == pytest.approx(backward.bleu, abs=1e-12)

    @given(corpus_st)
    def test_counts_decomposition(self, pairs):
        # every matched order's precision is the per-segment clipped counts
        # pooled over the corpus, and the lengths are per-segment sums
        report = bleu([h for h, _ in pairs], [r for _, r in pairs])
        correct, total = oracle_counts(pairs)
        for n in range(4):
            if correct[n]:
                assert report.ngram_precisions[n] == correct[n] / total[n]
            elif not total[n]:
                assert report.ngram_precisions[n] == 0.0
        assert report.hyp_length == sum(len(h) for h, _ in pairs)
        assert report.ref_length == sum(len(r) for _, r in pairs)

    @given(short_corpus_st)
    def test_precisions_and_lengths_equal_oracle(self, pairs):
        lengths = (sum(len(h) for h, _ in pairs), sum(len(r) for _, r in pairs))
        report = bleu(*sides(pairs))
        assert list(report.ngram_precisions) == oracle_precisions(pairs)
        assert (report.hyp_length, report.ref_length) == lengths

    @pytest.mark.parametrize("strategy",
                             [corpus_st, short_corpus_st, wide_corpus_st, twice_corpus_st],
                             ids=["corpus", "short", "wide", "twice"])
    @given(data=st.data())
    def test_pooled_counts_equal_both_oracles(self, strategy, data):
        pairs = data.draw(strategy)
        counts = _pooled_counts(*sides(pairs))
        assert counts == oracle_per_order_counts(*sides(pairs))
        assert counts == oracle_pooled_counts(*sides(pairs))
        assert counts[:2] == oracle_counts(pairs)

    @pytest.mark.parametrize("hyp, ref, correct", [
        # the reference repeats "a b"; only its first occurrence goes on
        # to "c" (a map from bigram to position would keep the last one)
        ("a b c", "a b c x a b", [3, 2, 1, 0]),
        ("a b a b", "a b c", [2, 1, 0, 0]),                # the hypothesis repeats "a b"
        # "a b c" runs on one diagonal, a mismatch breaks it, and "d e f"
        # runs on another
        ("a b c x d e f", "d e f y a b c", [6, 4, 2, 0]),
        ("a b c d", "y a b z", [2, 1, 0, 0]),              # a run of 1 bigram
        ("a b c d", "y a b c z", [3, 2, 1, 0]),            # a run of 2 bigrams
        ("a b c d", "y a b c d z", [4, 3, 2, 1]),          # a run of 3 bigrams
        ("a b", "b a b", [2, 1, 0, 0]),                    # hypothesis of length 2
        ("a b c", "c a b", [3, 1, 0, 0]),                  # hypothesis of length 3
        ("a b c", "", [0, 0, 0, 0]),                       # reference of length 0
        ("a b c", "b", [1, 0, 0, 0]),                      # reference of length 1
    ])
    def test_pooled_counts_branches(self, hyp, ref, correct):
        hyp, ref = hyp.split(), ref.split()
        total = [max(len(hyp) - n + 1, 0) for n in range(1, BLEU_MAX_ORDER + 1)]
        counts = _pooled_counts([hyp], [ref])
        assert counts == (correct, total, len(hyp), len(ref))
        assert counts == oracle_per_order_counts([hyp], [ref])
        assert counts[:2] == oracle_counts([(hyp, ref)])

    @pytest.mark.parametrize("hyp, ref, matches", [
        (["a", "b", "c"], ["c", "b", "d"], 2),            # no repeat
        (["a", "a", "b"], ["a", "b", "c"], 2),            # repeat in hyp only
        (["a", "b"], ["a", "a", "a", "b"], 2),            # repeat in ref only
        (["a", "a", "b"], ["a", "a", "a"], 2),            # both, hyp count < ref count
        (["a", "a", "b", "c"], ["a", "c", "a"], 3),       # both, hyp count = ref count
        (["a", "a", "a", "b"], ["b", "a", "a", "c"], 3),  # both, hyp count > ref count
        ([], ["a"], 0),
    ])
    def test_clipped_matches_branches(self, hyp, ref, matches):
        hyp_counts, ref_counts = Counter(hyp), Counter(ref)
        assert sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()) == matches
        assert _clipped_matches(hyp, ref) == matches
        bigrams = [(g, "x") for g in hyp], [(g, "x") for g in ref]
        assert _clipped_matches(*bigrams) == matches

    def test_pulls_both_sides_in_lockstep(self):
        pulls = []

        def recorded(name, segments):
            for segment in segments:
                pulls.append(name)
                yield segment

        segments = [["a", "b"], ["c"], ["d", "e", "f"]]
        bleu(recorded("hyp", segments), recorded("ref", segments))
        assert sorted(pulls) == ["hyp"] * 3 + ["ref"] * 3
        lead = 0
        for name in pulls:
            lead += 1 if name == "hyp" else -1
            assert abs(lead) <= 1

    @pytest.mark.parametrize("hyp_count, ref_count", [(3, 2), (2, 3)])
    def test_length_mismatch_of_generators_gives_full_counts(self, hyp_count, ref_count):
        hyps = (["a"] for _ in range(hyp_count))
        refs = (["a"] for _ in range(ref_count))
        with pytest.raises(InputError) as exc:
            bleu(hyps, refs)
        assert str(exc.value) == (
            f"hypothesis/reference counts differ: {hyp_count} vs {ref_count}")

    def test_empty_generators_rejected(self):
        with pytest.raises(InputError) as exc:
            bleu(iter([]), iter([]))
        assert str(exc.value) == "at least one hypothesis is required"

    def test_segment_counts_short_segment(self):
        # a 2-token segment has no 3- or 4-grams: those orders stay empty
        report = bleu([["a", "b"]], [["a", "b"]])
        assert report.ngram_precisions == (1.0, 1.0, 0.0, 0.0)
        assert (report.hyp_length, report.ref_length) == (2, 2)
        assert report.bleu == 100.0

    def test_disjoint_sides_score_low(self):
        # nothing matches, so only the smoothing floor is left
        src = [["a", "b", "c", "d", "e"]]
        tgt = [["v", "w", "x", "y", "z"]]
        report = bleu(src, tgt)
        assert report.ngram_precisions == pytest.approx((1 / 10, 1 / 16, 1 / 24, 1 / 32))
        assert report.bleu < 10.0


class TestSumInOrder:
    def test_rounds_after_each_addition(self):
        # builtin sum() gives 1.0 from Python 3.12 on, 0.9999999999999999 before
        assert sum_in_order([0.1] * 10) == 0.9999999999999999

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    def test_equals_loop(self, values):
        total = 0.0
        for value in values:
            total += value
        assert sum_in_order(values) == total


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_near_linear(self):
        # cov=3, var_x=2, var_y=14/3
        expected = 3.0 / math.sqrt(2.0 * 14.0 / 3.0)
        got = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9820, abs=1e-4)

    def test_zero_variance_undefined(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None

    def test_adds_left_to_right(self):
        # the compensated builtin sum() of Python 3.12 and later gives
        # 0.9819805060619656 here; adding left to right gives the same bytes
        # on every version
        assert pearson([3.0, 5.0, 2.0], [3.0, 4.0, 2.0]) == 0.9819805060619659

    def test_too_short(self):
        with pytest.raises(InputError):
            pearson([1.0], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            pearson([1.0, 2.0], [1.0])

    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=12),
           st.integers(1, 5), st.integers(-10, 10))
    def test_affine_invariance(self, xs, scale, shift):
        ys = [float(v) for v in xs]
        if len(set(xs)) < 2:
            return
        scaled = [scale * v + shift for v in ys]
        base = [float(i) for i in range(len(xs))]
        assert pearson(base, scaled) == pytest.approx(pearson(base, ys), abs=1e-9)

    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=12))
    def test_bounded(self, xs):
        ys = [float(v) for v in xs]
        base = [float(i) for i in range(len(xs))]
        if len(set(xs)) < 2:
            return
        assert -1.0 - 1e-12 <= pearson(base, ys) <= 1.0 + 1e-12


class TestJudgmentSummary:
    def test_unanimous_fives(self):
        summary = judgment_summary([5, 5, 5], [5, 5, 5])
        assert summary.mean_score == 5.0
        assert summary.pearson is None
        assert not summary.pearson_defined

    def test_crossed_pair(self):
        summary = judgment_summary([5, 4], [4, 5])
        assert summary.mean_score == pytest.approx(4.5)
        assert summary.pearson == pytest.approx(-1.0)
        assert summary.pearson_defined

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            judgment_summary([5, 6], [5, 5])

    def test_rejects_non_integer(self):
        with pytest.raises(InputError):
            judgment_summary([5, 4.5], [5, 5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError, match=r"^length mismatch: 3 vs 2$"):
            judgment_summary([1, 2, 3], [1, 2])

    def test_rejects_single_item(self):
        with pytest.raises(InputError):
            judgment_summary([5], [5])

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                    min_size=2, max_size=20))
    def test_mean_matches_hand_computation(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        summary = judgment_summary(a, b)
        expected = (sum(a) + sum(b)) / (2 * len(pairs))
        assert summary.mean_score == pytest.approx(expected, abs=1e-12)
        assert summary.items == len(pairs)


class TestCorpusStats:
    def test_two_sided_toy(self):
        side_a = ["a b", "a c d"]
        side_b = ["a e!"]
        stats = corpus_stats(side_a, side_b)
        assert stats.side_a.sentences == 2
        assert stats.side_a.mean_words == pytest.approx(2.5)
        assert stats.side_a.std_words == pytest.approx(0.5)   # population std
        assert stats.side_a.mean_chars == pytest.approx(4.0)
        assert stats.side_a.std_chars == pytest.approx(1.0)
        assert stats.side_a.vocab_size == 4
        assert stats.side_b.vocab_size == 2   # punctuation excluded
        assert stats.overlapping_vocab == 1   # just "a"
        assert not stats.empty

    def test_case_folded_vocab(self):
        stats = corpus_stats(["A a"], ["b"])
        assert stats.side_a.vocab_size == 1

    def test_empty(self):
        stats = corpus_stats([], [])
        assert stats.empty
        assert stats.side_a.sentences == 0
        assert stats.overlapping_vocab == 0

    def test_to_dict_labels_std(self):
        payload = asdict(corpus_stats([], []))
        assert payload["std_kind"] == "population"

    @given(st.lists(st.lists(token_st, min_size=1, max_size=6), min_size=1, max_size=6),
           st.lists(st.lists(token_st, min_size=1, max_size=6), min_size=1, max_size=6))
    def test_overlap_bounded_by_smaller_vocab(self, words_a, words_b):
        side_a = [" ".join(ws) for ws in words_a]
        side_b = [" ".join(ws) for ws in words_b]
        stats = corpus_stats(side_a, side_b)
        assert stats.overlapping_vocab <= min(
            stats.side_a.vocab_size, stats.side_b.vocab_size)
