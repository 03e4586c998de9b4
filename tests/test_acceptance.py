"""Top-level acceptance checks.

Each test exercises one end-to-end guarantee against an oracle written
independently from the library code (explicit loops, no shared helpers) and
prints one ``ACCEPTANCE C<n> <name>: PASS|FAIL`` line to the real terminal.
"""
from __future__ import annotations

import contextlib
import json
import math
import random
import time

import numpy as np
import pytest

from lexmine.cli import run as cli_run
from lexmine.dictionary import parse_dictionary
from lexmine.metrics import bleu, rouge1_f1
from lexmine.mining import AlignedPair, Document, MiningConfig, diversity_filter, mine
from lexmine.sentiment.cv import CvConfig, LabeledPair, cross_validate, stratified_folds
from lexmine.sentiment.models import (
    NEGATIVE,
    POSITIVE,
    _LrProblem,
    nb_log_posteriors,
    nb_train,
)
from lexmine.textproc import normalize, split_sentences, tokenize
from lexmine.w2w import translate_tokens


def pair_with(text, score, idx):
    return AlignedPair(text, f"t{idx}", score, f"doc{idx}")


@contextlib.contextmanager
def criterion(capsys, num, name, budget_s):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE C{num} {name}: {'PASS' if ok else 'FAIL'}")


# -- independent metric oracles -------------------------------------------------

def oracle_overlap(a, b):
    pool = list(b)
    overlap = 0
    for token in a:
        if token in pool:
            pool.remove(token)
            overlap += 1
    return overlap


def oracle_rouge_f1(a, b):
    overlap = oracle_overlap(a, b)
    if not a or not b or overlap == 0:
        return 0.0
    precision = overlap / len(a)
    recall = overlap / len(b)
    return 2 * precision * recall / (precision + recall)


def oracle_bleu(pairs):
    correct = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    hyp_len = sum(len(h) for h, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    for n in (1, 2, 3, 4):
        for hyp, ref in pairs:
            hyp_grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            total[n - 1] += len(hyp_grams)
            for gram in set(hyp_grams):
                correct[n - 1] += min(hyp_grams.count(gram), ref_grams.count(gram))
    log_sum, orders, smooth = 0.0, 0, 1.0
    for n in range(4):
        if total[n] == 0:
            continue
        orders += 1
        if correct[n] == 0:
            smooth *= 2.0
            log_sum += math.log(1.0 / (smooth * total[n]))
        else:
            log_sum += math.log(correct[n] / total[n])
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / orders)


def random_corpus(rng, max_segments=8, max_len=12):
    vocab = ["satu", "dua", "tiga", "ampek", "limo", "anam", "tujuah", "salapan"]
    segments = rng.randint(1, max_segments)
    return [([rng.choice(vocab) for _ in range(rng.randint(1, max_len))],
             [rng.choice(vocab) for _ in range(rng.randint(1, max_len))])
            for _ in range(segments)]


def test_c01_metric_oracles(capsys):
    with criterion(capsys, 1, "metric-oracles", 5.0):
        rng = random.Random(101)
        for _ in range(50):
            pairs = random_corpus(rng)
            mine_score = bleu([h for h, _ in pairs], [r for _, r in pairs]).bleu
            assert abs(mine_score - oracle_bleu(pairs)) <= 1e-9
            for hyp, ref in pairs:
                got = rouge1_f1(hyp, ref)
                assert got.overlap_count == oracle_overlap(hyp, ref)
                assert got.f1 == pytest.approx(oracle_rouge_f1(hyp, ref), abs=1e-12)


def test_c02_bleu_self_test(capsys):
    with criterion(capsys, 2, "bleu-self-test", 1.0):
        rng = random.Random(202)
        for _ in range(20):
            refs = [r for _, r in random_corpus(rng)]
            assert bleu(refs, refs).bleu == 100.0
        for extra in (1, 3, 9):
            hyps = [["a", "b", "c", "d", "e"]]
            refs = [["a", "b", "c", "d", "e"] + [f"pad{i}" for i in range(extra)]]
            report = bleu(hyps, refs)
            expected_bp = math.exp(1.0 - (5 + extra) / 5)
            assert report.brevity_penalty == pytest.approx(expected_bp, abs=1e-12)


# -- planted alignment corpus ----------------------------------------------------

def render_sentence(words):
    return " ".join([words[0].capitalize()] + words[1:]) + "."


def planted_collections(n_docs=50, n_true=10, n_distract=10, seed=23):
    """Two document collections with known parallel sentences.

    Every true source sentence has a unique-vocabulary translation planted
    in the paired document; distractor sentences on both sides share no
    dictionary image with anything, so their best score stays far below
    threshold (punctuation-only overlap).
    """
    rng = random.Random(seed)
    src_docs, tgt_docs, dict_rows, details = [], [], [], []
    for d in range(n_docs):
        src_items = []
        tgt_items = []
        for i in range(n_true):
            s_words = [f"s{d}x{i}w{k}" for k in range(7)]
            t_words = [f"t{d}x{i}w{k}" for k in range(7)]
            dict_rows.extend(f"{s}\t{t}" for s, t in zip(s_words, t_words))
            src_items.append((i, s_words))
            tgt_items.append((i, t_words))
        for i in range(n_distract):
            src_items.append((None, [f"ds{d}x{i}w{k}" for k in range(7)]))
            tgt_items.append((None, [f"dt{d}x{i}w{k}" for k in range(7)]))
        rng.shuffle(src_items)
        rng.shuffle(tgt_items)
        src_docs.append(Document(f"s{d}", f"Topic {d}",
                                 " ".join(render_sentence(w) for _, w in src_items)))
        tgt_docs.append(Document(f"t{d}", f"topic {d}",
                                 " ".join(render_sentence(w) for _, w in tgt_items)))
        details.append((src_items, tgt_items))
    return src_docs, tgt_docs, dict_rows, details


def oracle_align(src_tokens, tgt_tokens, mapping, threshold=0.5):
    candidates = []
    for i, tokens in enumerate(src_tokens):
        translated = [mapping.get(t, t) for t in tokens]
        best, best_j = -1.0, -1
        for j, ref in enumerate(tgt_tokens):
            score = oracle_rouge_f1(translated, ref)
            if score > best:
                best, best_j = score, j
        if best_j >= 0 and best >= threshold:
            candidates.append((best, i, best_j))
    taken = set()
    kept = []
    for score, i, j in sorted(candidates, key=lambda c: (-c[0], c[1])):
        if j not in taken:
            taken.add(j)
            kept.append((score, i, j))
    return sorted(kept, key=lambda c: c[1])


def test_c03_alignment_recovery(capsys):
    with criterion(capsys, 3, "alignment-recovery", 30.0):
        src_docs, tgt_docs, dict_rows, details = planted_collections()
        dictionary = parse_dictionary(dict_rows)
        mapping = {row.split("\t")[0]: row.split("\t")[1] for row in dict_rows}
        assert len(split_sentences(src_docs[0].text)) == 20

        pairs, stats = mine(src_docs, tgt_docs, dictionary, MiningConfig())
        assert stats["document_pairs"] == 50

        # exhaustive score-matrix oracle, document by document
        expected = []
        planted_total = 0
        for (src_items, tgt_items), doc in zip(details, src_docs):
            src_tokens = [[w.lower() for w in words] + ["."] for _, words in src_items]
            tgt_tokens = [[w.lower() for w in words] + ["."] for _, words in tgt_items]
            for score, i, j in oracle_align(src_tokens, tgt_tokens, mapping):
                expected.append((render_sentence(src_items[i][1]),
                                 render_sentence(tgt_items[j][1]), score))
            planted_total += sum(1 for truth, _ in src_items if truth is not None)

        got = [(p.source_sentence, p.target_sentence, p.score) for p in pairs]
        assert got == expected

        # every planted pair is recovered (contract floor is 95%) and no
        # distractor sentence sneaks in on either side
        truth_by_text = {}
        for (src_items, tgt_items), _ in zip(details, src_docs):
            for truth, words in src_items:
                truth_by_text[render_sentence(words)] = truth
            for truth, words in tgt_items:
                truth_by_text[render_sentence(words)] = truth
        recovered = sum(1 for src, tgt, _ in got
                        if truth_by_text[src] is not None
                        and truth_by_text[src] == truth_by_text[tgt])
        assert recovered / planted_total >= 0.95
        assert recovered == planted_total == 500
        assert all(truth_by_text[src] is not None and truth_by_text[tgt] is not None
                   for src, tgt, _ in got)


def test_c04_trigram_cap(capsys):
    with criterion(capsys, 4, "trigram-cap", 5.0):
        def recount(kept):
            counts = {}
            for p in kept:
                tokens = [t.lower() for t in tokenize(p.source_sentence)]
                grams = {tuple(tokens[i:i + 3]) for i in range(len(tokens) - 2)}
                for g in grams:
                    counts[g] = counts.get(g, 0) + 1
            return counts

        # a single trigram overloaded 150x is cut to exactly the cap
        flood = [pair_with("a b c", i / 1000, i) for i in range(150)]
        kept = diversity_filter(flood, MiningConfig(trigram_cap=100))
        assert len(kept) == 100
        assert recount(kept) == {("a", "b", "c"): 100}
        assert kept == flood[50:]

        # overlapping overloads: removals for one trigram count for the rest
        first = [pair_with("a b c d", i / 1000, i) for i in range(120)]
        second = [pair_with("b c d e", 1.0 - i / 1000, 200 + i) for i in range(120)]
        kept = diversity_filter(first + second, MiningConfig(trigram_cap=100))
        assert all(count <= 100 for count in recount(kept).values())

        # nothing over the cap means byte-for-byte identity
        calm = [pair_with("a b c", 0.5, i) for i in range(90)]
        assert diversity_filter(calm, MiningConfig(trigram_cap=100)) == calm

        # randomized stress: every surviving count respects the cap and the
        # output is an order-preserving subset
        rng = random.Random(404)
        vocab = ["a", "b", "c", "d"]
        for _ in range(30):
            pairs = [pair_with(" ".join(rng.choice(vocab)
                                        for _ in range(rng.randint(3, 6))),
                               rng.random(), i)
                     for i in range(rng.randint(1, 120))]
            kept = diversity_filter(pairs, MiningConfig(trigram_cap=5))
            assert all(count <= 5 for count in recount(kept).values())
            positions = [pairs.index(p) for p in kept]
            assert positions == sorted(positions)


def test_c05_w2w_invariants(capsys):
    with criterion(capsys, 5, "w2w-invariants", 5.0):
        rng = random.Random(505)
        known = {f"kata{i}": f"word{i}" for i in range(40)}
        unknown = [f"Asing{i}" for i in range(40)]
        punct = ["!", ",", ".", "?"]
        dictionary = parse_dictionary([f"{s}\t{t}" for s, t in known.items()])

        for _ in range(1000):
            tokens = [rng.choice(list(known) + unknown + punct)
                      for _ in range(rng.randint(0, 15))]
            result = translate_tokens(dictionary, tokens)
            assert result.total_count == len(tokens) == len(result.tokens)
            oov = 0
            for original, translated in zip(tokens, result.tokens):
                if original in punct:
                    assert translated == original
                elif original.lower() in known:
                    assert translated == known[original.lower()]
                else:
                    assert translated == original.lower()
                    oov += 1
            assert result.oov_count == oov

        identity = parse_dictionary([f"{w}\t{w}" for w in known])
        for _ in range(200):
            tokens = [rng.choice(list(known)).upper() for _ in range(rng.randint(1, 10))]
            assert translate_tokens(identity, tokens).tokens == [
                t.lower() for t in tokens]


def make_separable_rows(n_per_class):
    pos_words = ["bagus", "hebat", "senang", "indah"]
    neg_words = ["buruk", "jelek", "sedih", "parah"]
    filler = [f"kata{i}" for i in range(12)]
    rows = []
    for i in range(n_per_class):
        for label, signal in ((POSITIVE, pos_words), (NEGATIVE, neg_words)):
            text = (f"{filler[i % 12]} {signal[i % 4]} {filler[(i + 5) % 12]} "
                    f"{signal[(i + 1) % 4]} {filler[(i + 9) % 12]}")
            rows.append(LabeledPair(label, text, text))
    return rows


def test_c06_classifier_correctness(capsys):
    with criterion(capsys, 6, "classifier-correctness", 60.0):
        # naive Bayes against closed-form smoothed-count arithmetic
        data = [({"good": 2}, POSITIVE), ({"good": 1, "bad": 1}, POSITIVE),
                ({"bad": 2}, NEGATIVE), ({"bad": 1, "good": 1}, NEGATIVE)]
        model = nb_train(data, alpha=0.5)
        # pos counts: good 3, bad 1 of 4; vocab 2; denom 4 + 0.5*2 = 5
        scores = nb_log_posteriors(model, {"good": 3, "bad": 1})
        expected_pos = math.log(0.5) + 3 * math.log(3.5 / 5) + math.log(1.5 / 5)
        expected_neg = math.log(0.5) + 3 * math.log(1.5 / 5) + math.log(3.5 / 5)
        assert abs(scores[POSITIVE] - expected_pos) <= 1e-12
        assert abs(scores[NEGATIVE] - expected_neg) <= 1e-12

        # logistic gradient against central finite differences
        rng = random.Random(606)
        features = [f"f{i}" for i in range(10)]
        lr_data = []
        for _ in range(20):
            fv = {f: rng.randint(1, 3) for f in features if rng.random() < 0.4}
            lr_data.append((fv or {"f0": 1}, rng.choice((POSITIVE, NEGATIVE))))
        weights = {f: rng.uniform(-0.5, 0.5) for f in features}
        bias, l2, eps = 0.2, 0.3, 1e-6
        problem = _LrProblem(lr_data)
        assert problem.feature_ids == features
        w = np.array([weights[f] for f in problem.feature_ids])

        def loss(w, bias):
            return problem.loss(w, problem.scores(w, bias), l2)

        grad_w, grad_b = problem.gradient(w, problem.scores(w, bias), l2)
        for i in range(len(w)):
            step = np.zeros_like(w)
            step[i] = eps
            numeric = (loss(w + step, bias) - loss(w - step, bias)) / (2 * eps)
            assert grad_w[i] == pytest.approx(numeric, rel=1e-6, abs=1e-9)
        numeric_b = (loss(w, bias + eps) - loss(w, bias - eps)) / (2 * eps)
        assert grad_b == pytest.approx(numeric_b, rel=1e-6, abs=1e-9)

        # both classifiers ace a 500-item separable corpus under 5-fold CV
        rows = make_separable_rows(250)
        nb_report = cross_validate(
            rows, CvConfig(algorithm="nb", bpe_vocab_size=150), "train-tgt/test-tgt")
        assert nb_report.mean_f1_positive >= 0.99
        lr_report = cross_validate(
            rows, CvConfig(algorithm="lr", bpe_vocab_size=150,
                           lr_epoch_grid=(50, 100), lr_l2_grid=(0.0, 0.01),
                           lr_learning_rate=0.5),
            "train-tgt/test-tgt")
        assert lr_report.mean_f1_positive >= 0.99


def test_c07_stratified_folds(capsys):
    with criterion(capsys, 7, "stratified-folds", 5.0):
        rng = random.Random(707)
        for _ in range(100):
            n_pos = rng.randint(5, 60)
            n_neg = rng.randint(5, 60)
            labels = [POSITIVE] * n_pos + [NEGATIVE] * n_neg
            folds = stratified_folds(labels, k=5, ratios=(0.7, 0.1, 0.2),
                                     seed=rng.randint(0, 10**6))
            all_test = []
            for fold in folds:
                combined = sorted(fold.train + fold.dev + fold.test)
                assert combined == list(range(n_pos + n_neg))
                for lo, hi, n in ((0, n_pos, n_pos),
                                  (n_pos, n_pos + n_neg, n_neg)):
                    count = lambda part: sum(1 for i in part if lo <= i < hi)
                    assert abs(count(fold.test) - n * 0.2) <= 1.0
                    assert abs(count(fold.dev) - n * 0.1) <= 1.0
                    assert abs(count(fold.train) - n * 0.7) <= 1.0
                all_test.extend(fold.test)
            assert sorted(all_test) == list(range(n_pos + n_neg))


# -- synthetic bilingual corpus ---------------------------------------------------

SHARED = [f"kata{i}" for i in range(20)]          # identical in both languages
SRC_SUBS = [f"umum{i}" for i in range(8)]         # everyday words that differ
TGT_SUBS = [f"umuam{i}" for i in range(8)]
SRC_POS = ["bagus", "hebat", "senang", "indah"]
SRC_NEG = ["buruk", "jelek", "sedih", "parah"]
TGT_POS = ["rancak", "galir", "sanang", "elok"]
TGT_NEG = ["buruak", "jeleak", "sadiah", "parono"]


def bilingual_rows(n_per_class=200):
    """Parallel rows where 20 of 36 content words are shared across languages
    and the rest (all signal words included) are substituted forms."""
    rows = []
    for i in range(n_per_class):
        for label, src_sig, tgt_sig in ((POSITIVE, SRC_POS, TGT_POS),
                                        (NEGATIVE, SRC_NEG, TGT_NEG)):
            slots = (SHARED[i % 20], (SRC_SUBS, TGT_SUBS, i % 8),
                     SHARED[(i + 7) % 20], (src_sig, tgt_sig, i % 4),
                     SHARED[(i + 13) % 20], (SRC_SUBS, TGT_SUBS, (i + 3) % 8))
            src = [s if isinstance(s, str) else s[0][s[2]] for s in slots]
            tgt = [s if isinstance(s, str) else s[1][s[2]] for s in slots]
            rows.append(LabeledPair(label, " ".join(src) + " .", " ".join(tgt) + " ."))
    return rows


def bridging_dictionary():
    """tgt -> src entries for 14 of the 16 substituted words (~90% coverage)."""
    mapping = dict(zip(TGT_POS, SRC_POS))
    mapping.update(zip(TGT_NEG[:3], SRC_NEG[:3]))      # "parono" left out
    mapping.update(zip(TGT_SUBS[:7], SRC_SUBS[:7]))    # "umuam7" left out
    return parse_dictionary([f"{t}\t{s}" for t, s in mapping.items()],
                            direction=("tgt", "src"))


def test_c08_zero_shot_ordering(capsys):
    with criterion(capsys, 8, "zero-shot-ordering", 120.0):
        rows = bilingual_rows()
        config = CvConfig(algorithm="nb", bpe_vocab_size=200)
        dictionary = bridging_dictionary()

        in_language = cross_validate(rows, config, "train-tgt/test-tgt")
        translated = cross_validate(rows, config, "train-src/test-w2w",
                                    dictionary=dictionary)
        raw = cross_validate(rows, config, "train-src/test-tgt")

        assert in_language.mean_f1_positive >= translated.mean_f1_positive
        assert translated.mean_f1_positive >= raw.mean_f1_positive
        # the dictionary bridge has to matter, not just tie
        assert translated.mean_f1_positive - raw.mean_f1_positive >= 0.3
        assert in_language.mean_f1_positive >= 0.99


def test_c09_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "determinism", 60.0):
        src_docs, tgt_docs, dict_rows, _ = planted_collections()
        src = tmp_path / "src.jsonl"
        tgt = tmp_path / "tgt.jsonl"
        src.write_text("".join(
            json.dumps({"id": d.id, "title": d.title, "text": d.text}) + "\n"
            for d in src_docs), encoding="utf-8")
        tgt.write_text("".join(
            json.dumps({"id": d.id, "title": d.title, "text": d.text}) + "\n"
            for d in tgt_docs), encoding="utf-8")
        dictionary = tmp_path / "dict.tsv"
        dictionary.write_text("".join(row + "\n" for row in dict_rows),
                              encoding="utf-8")

        out = tmp_path / "corpus.tsv"
        manifest = tmp_path / "corpus.tsv.manifest.json"
        argv = ["mine", "all", "--src", str(src), "--tgt", str(tgt),
                "--dict", str(dictionary), "--out", str(out)]
        assert cli_run(argv) == 0
        corpus_first = out.read_bytes()
        manifest_first = manifest.read_bytes()
        assert len(corpus_first) > 0

        assert cli_run(argv) == 0
        assert out.read_bytes() == corpus_first
        assert manifest.read_bytes() == manifest_first


def test_c10_translation_gain(capsys):
    with criterion(capsys, 10, "translation-gain", 30.0):
        rows = bilingual_rows()
        dictionary = bridging_dictionary()
        refs = [normalize(row.src_text.split()) for row in rows]
        raw_hyps = [normalize(row.tgt_text.split()) for row in rows]
        w2w_hyps = [normalize(translate_tokens(dictionary, row.tgt_text.split()).tokens)
                    for row in rows]

        raw_score = bleu(raw_hyps, refs).bleu
        w2w_score = bleu(w2w_hyps, refs).bleu
        assert w2w_score - raw_score >= 10.0
        assert w2w_score > 50.0
