"""Byte-pair encoding trained from scratch.

Words are whitespace-pretokenized and lowercased; each gets an end-of-word
marker symbol. Training greedily merges the most frequent adjacent symbol
pair (ties: lexicographically smallest pair) until the symbol budget is
spent or no pair occurs at least twice.

Pair counts are kept incrementally, as in subword-nmt's `learn_bpe.py`
(Sennrich et al. 2016): a merge recounts only the words that hold the
merged pair. Each merge is picked from a lazily invalidated heap of
`(-count, pair)` entries, whose minimum is exactly the rule above. A merge
pushes the new count of every pair it touched, and a pick pops and skips
each entry whose count is no longer the pair's current one.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from ..errors import InputError

EOW = "</w>"


@dataclass
class BpeModel:
    merges: list[tuple[str, str]]
    vocab_size: int
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False)
    _cache: dict[str, tuple[str, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.merges)) != len(self.merges):
            raise InputError("duplicate merge rule in BPE model")
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache = {}

    def encode_word(self, word: str) -> tuple[str, ...]:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        symbols = list(word) + [EOW]
        while len(symbols) > 1:
            best_rank = None
            best_pair = None
            for pair in zip(symbols, symbols[1:]):
                rank = self._ranks.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank, best_pair = rank, pair
            if best_pair is None:
                break
            symbols = _merge_symbols(symbols, best_pair)
        result = tuple(symbols)
        self._cache[word] = result
        return result

    def encode(self, text: str) -> list[str]:
        tokens: list[str] = []
        for word in text.lower().split():
            tokens.extend(self.encode_word(word))
        return tokens

    def to_dict(self) -> dict:
        return {"vocab_size": self.vocab_size,
                "merges": [list(pair) for pair in self.merges]}

def _merge_symbols(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _word_pairs(symbols: tuple[str, ...]) -> Counter:
    return Counter(zip(symbols, symbols[1:]))


def bpe_train(corpus, vocab_size: int) -> BpeModel:
    """Learn merge rules from a text corpus.

    `corpus` is a list of strings. The symbol budget counts the initial
    alphabet (characters plus the end-of-word marker) and one symbol per
    merge.
    """
    word_freq = Counter()
    for text in corpus:
        word_freq.update(text.lower().split())
    if not word_freq:
        raise InputError("BPE training corpus is empty")

    words: list[tuple[tuple[str, ...], int]] = [
        (tuple(word) + (EOW,), freq) for word, freq in sorted(word_freq.items())
    ]
    alphabet = {sym for symbols, _ in words for sym in symbols}
    if vocab_size <= len(alphabet):
        raise InputError(
            f"vocab_size {vocab_size} must exceed the initial alphabet size {len(alphabet)}")

    pair_counts: Counter = Counter()
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wid, (symbols, freq) in enumerate(words):
        for pair, n in _word_pairs(symbols).items():
            pair_counts[pair] += n * freq
            pair_words.setdefault(pair, set()).add(wid)

    # one (-count, pair) entry per live pair at its current count, plus stale
    # entries left behind when a count changed; a pick skips the stale ones
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    symbols_used = len(alphabet)
    while symbols_used < vocab_size and heap:
        neg_count, best_pair = heapq.heappop(heap)
        if -neg_count != pair_counts.get(best_pair, 0):
            continue
        if -neg_count < 2:
            break
        merges.append(best_pair)
        symbols_used += 1
        touched = set()
        # merging never recreates best_pair, so its word set retires with it
        for wid in pair_words.pop(best_pair):
            symbols, freq = words[wid]
            old_pairs = _word_pairs(symbols)
            new_symbols = tuple(_merge_symbols(list(symbols), best_pair))
            new_pairs = _word_pairs(new_symbols)
            words[wid] = (new_symbols, freq)
            for pair, n in old_pairs.items():
                pair_counts[pair] -= n * freq
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
                members = pair_words.get(pair)
                if members is not None:
                    members.discard(wid)
                    if not members:
                        del pair_words[pair]
            for pair, n in new_pairs.items():
                pair_counts[pair] += n * freq
                pair_words.setdefault(pair, set()).add(wid)
            touched.update(old_pairs)
            touched.update(new_pairs)
        for pair in touched:
            count = pair_counts.get(pair)
            if count is not None:
                heapq.heappush(heap, (-count, pair))

    return BpeModel(merges=merges, vocab_size=vocab_size)


FeatureVector = dict[str, int]


def featurize(model: BpeModel, text: str) -> FeatureVector:
    """Counts of BPE-token unigrams and adjacent-token bigrams.

    Bigram keys are the two tokens joined by a space, which cannot collide
    with unigram keys (tokens never contain whitespace).
    """
    tokens = model.encode(text)
    features: Counter = Counter(tokens)
    features.update(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
    return dict(features)
