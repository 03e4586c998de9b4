"""BPE training, encoding, and count-feature extraction."""
from __future__ import annotations

import json
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lexmine import cli
from lexmine.errors import InputError
from lexmine.sentiment.bpe import _END, EOW, BpeModel, bpe_train, featurize

word_st = st.text(alphabet="abcd", min_size=1, max_size=6)
corpus_st = st.lists(word_st, min_size=1, max_size=8)


def naive_merge(seq, pair):
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
            out.append(seq[i] + seq[i + 1])
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def naive_merges(texts, vocab_size, marker=EOW):
    """Reference trainer that recounts every pair from scratch each round.
    Words end in `marker`: EOW matches a model's spelled merges, `_END` its
    `merges`."""
    freq = Counter()
    for text in texts:
        freq.update(text.lower().split())
    items = sorted(freq.items())
    seqs = [list(word) + [marker] for word, _ in items]
    weights = [count for _, count in items]
    used = len({sym for seq in seqs for sym in seq})
    merges = []
    while used < vocab_size:
        pair_counts = Counter()
        for seq, weight in zip(seqs, weights):
            for pair in zip(seq, seq[1:]):
                pair_counts[pair] += weight
        eligible = {p: c for p, c in pair_counts.items() if c >= 2}
        if not eligible:
            break
        best_count = max(eligible.values())
        best = min(p for p, c in eligible.items() if c == best_count)
        merges.append(best)
        used += 1
        seqs = [naive_merge(seq, best) for seq in seqs]
    return merges


def scan_merges(texts, vocab_size, marker=EOW):
    """Reference trainer with incremental pair counts that picks each merge
    by scanning every live pair, and updates them by recounting each merged
    word's pairs in full. It is the oracle for both the heap pick and the
    positional delta update that replaced that recount. Words end in
    `marker`, as in `naive_merges`."""
    freq = Counter()
    for text in texts:
        freq.update(text.lower().split())
    words = [(tuple(word) + (marker,), count) for word, count in sorted(freq.items())]
    used = len({sym for symbols, _ in words for sym in symbols})
    pair_counts = Counter()
    pair_words = {}
    for wid, (symbols, count) in enumerate(words):
        for pair, n in Counter(zip(symbols, symbols[1:])).items():
            pair_counts[pair] += n * count
            pair_words.setdefault(pair, set()).add(wid)
    merges = []
    while used < vocab_size:
        best, best_count = None, 0
        for pair, count in pair_counts.items():
            if count < 2 or count < best_count:
                continue
            if count > best_count or pair < best:
                best, best_count = pair, count
        if best is None:
            break
        merges.append(best)
        used += 1
        for wid in sorted(pair_words.get(best, ())):
            symbols, count = words[wid]
            old_pairs = Counter(zip(symbols, symbols[1:]))
            if best not in old_pairs:
                continue
            new_symbols = tuple(naive_merge(list(symbols), best))
            words[wid] = (new_symbols, count)
            for pair, n in old_pairs.items():
                pair_counts[pair] -= n * count
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
                members = pair_words.get(pair)
                if members is not None:
                    members.discard(wid)
                    if not members:
                        del pair_words[pair]
            for pair, n in Counter(zip(new_symbols, new_symbols[1:])).items():
                pair_counts[pair] += n * count
                pair_words.setdefault(pair, set()).add(wid)
    return merges


def spelled_merges(model):
    """The merges as `to_dict` writes them, the marker spelled EOW."""
    return [tuple(pair) for pair in model.to_dict()["merges"]]


# mixed case folds to fewer symbols; runs such as "aaaa" make merges overlap;
# "1", "!" and "." sort below EOW's "<" but above a space or a bare tab, so
# a marker that began with either would break ties differently
pool_word_st = st.one_of(
    st.text(alphabet="abcdeABE1!.", min_size=1, max_size=8),
    st.builds(lambda char, n: char * n, st.sampled_from("aAbZ"), st.integers(2, 7)),
)

# words that spell one symbol string along two routes: "abc" is ("ab", "c")
# or ("a", "bc"), and "<", "/", "w", ">" can merge into a symbol spelled EOW,
# which is not the marker that training appends
collision_word_st = st.lists(
    st.sampled_from(["abc", "ab", "bc", "a", "c", "<", "/", "w", ">", "</w>"]),
    min_size=1, max_size=4).map("".join)


@st.composite
def texts_and_budget(draw, word_strategy=pool_word_st):
    """Several texts drawn with repetition from a small word pool, so word
    frequencies vary, and a budget from one merge up to past the point
    where no pair is left."""
    pool = draw(st.lists(word_strategy, min_size=1, max_size=10))
    texts = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=10)
                          .map(" ".join), min_size=1, max_size=4))
    words = set(" ".join(texts).lower().split())
    alphabet = set("".join(words)) | {EOW}
    most_merges = sum(len(word) for word in words)
    return texts, len(alphabet) + draw(st.integers(1, most_merges + 2))


def zipf_corpus(seed, n_types=500, n_tokens=8000):
    """Seeded consonant-vowel pseudo-words, drawn by Zipf's law."""
    rng = random.Random(seed)
    syllables = [c + v for c in "bdgklmnprst" for v in "aeiou"]
    types = sorted({"".join(rng.choice(syllables) for _ in range(rng.randint(2, 6)))
                    for _ in range(n_types)})
    weights = [1.0 / rank for rank in range(1, len(types) + 1)]
    tokens = rng.choices(rng.sample(types, len(types)), weights=weights, k=n_tokens)
    return [" ".join(tokens[i:i + 20]) for i in range(0, n_tokens, 20)]


def assert_cache_matches_fresh_model(model, texts):
    """Each training word encodes as it does under a model built from the
    merges alone, whose encode cache starts empty."""
    fresh = BpeModel(model.merges, model.vocab_size)
    for word in sorted(set(" ".join(texts).lower().split())):
        assert model.encode_word(word) == fresh.encode_word(word), word


class TestTraining:
    def test_most_frequent_pair_first(self):
        model = bpe_train(["aaab aaab"], vocab_size=4)
        assert model.merges[0] == ("a", "a")

    def test_one_over_alphabet_gives_one_merge(self):
        # alphabet is {a, b, EOW}, so a budget of 4 buys exactly one merge
        model = bpe_train(["aaab aaab"], vocab_size=4)
        assert len(model.merges) == 1

    def test_tie_breaks_lexicographically(self):
        model = bpe_train(["ab ab cd cd"], vocab_size=7)
        assert model.merges[0] == ("a", "b")

    def test_no_pair_reaches_two(self):
        model = bpe_train(["ab cd"], vocab_size=10)
        assert model.merges == []

    def test_budget_not_exceeding_alphabet_rejected(self):
        with pytest.raises(InputError):
            bpe_train(["aaab"], vocab_size=3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            bpe_train(["   ", ""], vocab_size=10)

    def test_case_folded(self):
        upper = bpe_train(["AAAB aaab"], vocab_size=4)
        lower = bpe_train(["aaab aaab"], vocab_size=4)
        assert upper.merges == lower.merges

    @given(corpus_st, st.integers(1, 6))
    @settings(max_examples=60)
    def test_matches_recount_oracle(self, words, extra):
        texts = [" ".join(words)]
        alphabet = set("".join(words)) | {EOW}
        vocab_size = len(alphabet) + extra
        model = bpe_train(texts, vocab_size=vocab_size)
        assert spelled_merges(model) == naive_merges(texts, vocab_size)

    @given(texts_and_budget())
    @settings(max_examples=300)
    def test_heap_pick_matches_scan_oracle(self, texts_budget):
        texts, vocab_size = texts_budget
        model = bpe_train(texts, vocab_size=vocab_size)
        assert spelled_merges(model) == scan_merges(texts, vocab_size)

    @given(texts_and_budget(collision_word_st))
    @settings(max_examples=300)
    # "</w>" rebuilt from its characters once paired up into a merge already
    # made, and training raised "duplicate merge rule in BPE model"
    @example((["abc</w></</w> abc</w></</w> waw</ ab</ waw</ ab</"], 21))
    def test_symbol_collisions_match_oracles(self, texts_budget):
        # a word that spells "</w>" holds no marker, so no pair is merged twice
        texts, vocab_size = texts_budget
        expected = naive_merges(texts, vocab_size, _END)
        assert scan_merges(texts, vocab_size, _END) == expected
        assert len(set(expected)) == len(expected)
        model = bpe_train(texts, vocab_size=vocab_size)
        assert model.merges == expected
        assert_cache_matches_fresh_model(model, texts)

    @given(st.one_of(st.tuples(corpus_st.map(lambda words: [" ".join(words)]),
                               st.integers(6, 60)),
                     texts_and_budget(), texts_and_budget(collision_word_st)))
    @settings(max_examples=300)
    def test_no_two_merges_spell_one_string(self, texts_budget):
        # training tells the symbols it merged in this pass by their spelling
        texts, vocab_size = texts_budget
        spelled = [left + right for left, right in bpe_train(texts, vocab_size).merges]
        assert len(set(spelled)) == len(spelled)

    def test_symbol_spelled_twice_keeps_its_left_pair(self):
        # "/</w>" is spelled from five characters, then "/" and the marker
        # right after it merge into a symbol that callers see spelled the same:
        # the two stay distinct, and the pair between them must go
        texts = ["/</w>/ /</w>/ ab/</w><"]
        assert bpe_train(texts, vocab_size=13).merges == naive_merges(texts, 13, _END)

    def test_ties_break_in_eow_order(self):
        # ("1", "1"), ("1", "</w>") and ("b", "1") tie at 2; "1" sorts below
        # "</w>", and a marker sorting below "1" (a space) would merge
        # ("1", marker) second
        model = bpe_train(["a b11 a a b11 a as. a a a"], vocab_size=11)
        assert model.to_dict()["merges"] == [
            ["a", "</w>"], ["1", "1"], ["11", "</w>"], ["b", "11</w>"]]

    @given(texts_and_budget())
    @settings(max_examples=200)
    def test_seeded_cache_matches_fresh_model(self, texts_budget):
        texts, vocab_size = texts_budget
        assert_cache_matches_fresh_model(bpe_train(texts, vocab_size=vocab_size), texts)

    def test_heap_pick_matches_scan_oracle_on_zipf_corpus(self):
        # over a thousand merges leave many stale heap entries to skip
        texts = zipf_corpus(seed=7)
        merges = spelled_merges(bpe_train(texts, vocab_size=2000))
        assert len(merges) > 1000
        assert merges == scan_merges(texts, 2000)

    @given(corpus_st)
    def test_deterministic(self, words):
        texts = [" ".join(words)]
        vocab_size = len(set("".join(words)) | {EOW}) + 4
        first = bpe_train(texts, vocab_size=vocab_size)
        second = bpe_train(texts, vocab_size=vocab_size)
        assert first.merges == second.merges


class TestCommandLine:
    @given(texts_and_budget(collision_word_st))
    @settings(max_examples=60, deadline=None)
    def test_sent_bpe_writes_model_on_marker_collisions(self, texts_budget):
        # words that spell "</w>" train, and write the model and its manifest
        texts, vocab_size = texts_budget
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            src, out = scratch / "text.txt", scratch / "bpe.json"
            src.write_text("\n".join(texts) + "\n", encoding="utf-8")
            assert cli.run(["sent", "bpe", "--in", str(src), "--out", str(out),
                            "--vocab-size", str(vocab_size)]) == 0
            model = json.loads(out.read_text(encoding="utf-8"))
            assert model["vocab_size"] == vocab_size
            manifest = json.loads((scratch / "bpe.json.manifest.json").read_text())
            assert manifest["counts"]["merges"] == len(model["merges"])


class TestEncoding:
    def test_fully_merged_word(self):
        model = bpe_train(["aaab aaab"], vocab_size=6)
        assert model.encode("aaab aaab") == ["aaab", EOW, "aaab", EOW]

    def test_unseen_characters_stay_single(self):
        model = bpe_train(["aaab aaab"], vocab_size=4)
        assert model.encode_word("xyz") == ("x", "y", "z", EOW)

    def test_encode_lowercases(self):
        model = bpe_train(["aaab aaab"], vocab_size=4)
        assert model.encode("AAAB") == model.encode("aaab")

    def test_empty_text(self):
        model = bpe_train(["aaab"], vocab_size=4)
        assert model.encode("") == []

    @given(corpus_st, word_st)
    def test_tokens_concatenate_to_word(self, words, probe):
        vocab_size = len(set("".join(words)) | {EOW}) + 3
        model = bpe_train([" ".join(words)], vocab_size=vocab_size)
        assert "".join(model.encode_word(probe)) == probe + EOW

    def test_duplicate_merges_rejected(self):
        with pytest.raises(InputError):
            BpeModel(merges=[("a", "b"), ("a", "b")], vocab_size=10)


class TestFeaturize:
    def fully_merging_model(self):
        # every training word ends up as a single token
        return bpe_train(["ab ab ab cd cd cd"], vocab_size=9)

    def test_unigrams_and_bigrams(self):
        model = self.fully_merging_model()
        ab, cd = f"ab{EOW}", f"cd{EOW}"
        assert model.encode("ab cd ab") == [ab, cd, ab]
        assert featurize(model, "ab cd ab") == {
            ab: 2, cd: 1, f"{ab} {cd}": 1, f"{cd} {ab}": 1,
        }

    def test_single_token_has_no_bigram(self):
        model = self.fully_merging_model()
        assert featurize(model, "ab") == {f"ab{EOW}": 1}

    def test_empty_text(self):
        model = self.fully_merging_model()
        assert featurize(model, "") == {}

    @given(st.lists(word_st, max_size=6))
    def test_total_counts_match_token_stream(self, words):
        model = bpe_train(["ab ab ab cd cd cd"], vocab_size=9)
        text = " ".join(words)
        tokens = model.encode(text)
        features = featurize(model, text)
        expected = len(tokens) + max(0, len(tokens) - 1)
        assert sum(features.values()) == expected
