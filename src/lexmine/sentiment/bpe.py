"""Byte-pair encoding trained from scratch.

Words are whitespace-pretokenized and lowercased; each ends in the marker
`_END`, EOW plus a tab, which no such word holds: no merge spells it, so no
pair is merged twice. Training greedily merges the most frequent adjacent
symbol pair (ties: lexicographically smallest pair; a tab sorts below every
character a word can hold but U+0000-U+0008, so ties break as with EOW)
until the symbol budget is spent or no pair occurs at least twice.
`BpeModel.merges` holds `_END`; `encode_word` and `to_dict` spell it EOW.

Pair counts are kept incrementally, as in subword-nmt's `learn_bpe.py`
(Sennrich et al. 2016). A merge rewrites, in one left-to-right pass, only
the words that may hold the merged pair. At each occurrence it takes the
word's frequency off the pairs that touch it (left neighbour, the pair
itself, right neighbour) and adds it to the merged symbol's new left and
right pairs; pairs away from every occurrence keep their counts. Each merge
is picked from a lazily invalidated heap of `(-count, pair)` entries, whose
minimum is exactly the rule above. A merge pushes the new count of each
pair whose count changed, and a pick pops and skips each entry whose count
is no longer the pair's current one.

Training applies the merges to each corpus word in rank order, which is
what `BpeModel.encode_word` does too, so the trained model's encode cache
starts with every corpus word's final segmentation.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from ..errors import InputError

EOW = "</w>"
_END = EOW + "\t"


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
        symbols = list(word) + [_END]
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
        result = _spell(symbols)
        self._cache[word] = result
        return result

    def encode(self, text: str) -> list[str]:
        tokens: list[str] = []
        for word in text.lower().split():
            tokens.extend(self.encode_word(word))
        return tokens

    def to_dict(self) -> dict:
        return {"vocab_size": self.vocab_size,
                "merges": [list(_spell(pair)) for pair in self.merges]}


def _spell(symbols) -> tuple[str, ...]:
    # the marker can only end the last symbol of a word, or of a merge pair
    return (*symbols[:-1], symbols[-1].replace(_END, EOW))


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


def bpe_train(corpus, vocab_size: int) -> BpeModel:
    """Learn merge rules from a text corpus.

    `corpus` is a list of strings. The symbol budget counts the initial
    alphabet (characters plus the end-of-word marker) and one symbol per
    merge. Ties break as if the marker were spelled EOW: `</w>`'s order.
    """
    word_freq = Counter()
    for text in corpus:
        word_freq.update(text.lower().split())
    if not word_freq:
        raise InputError("BPE training corpus is empty")

    names = sorted(word_freq)
    words: list[tuple[tuple[str, ...], int]] = [
        (tuple(word) + (_END,), word_freq[word]) for word in names
    ]
    alphabet = {sym for symbols, _ in words for sym in symbols}
    if vocab_size <= len(alphabet):
        raise InputError(
            f"vocab_size {vocab_size} must exceed the initial alphabet size {len(alphabet)}")

    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wid, (symbols, freq) in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            pair_words.setdefault(pair, set()).add(wid)

    # one (-count, pair) entry per live pair at its current count, plus stale
    # entries left behind when a count changed; a pick skips the stale ones
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(alphabet) + len(merges) < vocab_size and heap:
        neg_count, best_pair = heapq.heappop(heap)
        if -neg_count != pair_counts.get(best_pair, 0):
            continue
        if -neg_count < 2:
            break
        merges.append(best_pair)
        left, right = best_pair
        merged = left + right
        # merging never recreates best_pair, so its word set retires with it;
        # the set may name words that no longer hold the pair, which merge nothing
        wids = pair_words.pop(best_pair)
        delta: dict[tuple[str, str], int] = {}
        for wid in wids:
            symbols, freq = words[wid]
            out: list[str] = []
            # out[-1] == merged only right after a match, as no two merges spell one
            # string: a merge joins every occurrence of its pair in one left-to-right
            # pass and no symbol is split again, so copies of a string that no symbol
            # crosses are segmented alike: never one symbol here and left, right there
            i, n = 0, len(symbols)
            while i < n:
                if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
                    if out:
                        if out[-1] == merged:
                            # the old pair in between was the previous match's right neighbour
                            new = (merged, merged)
                        else:
                            old = (out[-1], left)
                            delta[old] = delta.get(old, 0) - freq
                            new = (out[-1], merged)
                        delta[new] = delta.get(new, 0) + freq
                        pair_words.setdefault(new, set()).add(wid)
                    delta[best_pair] = delta.get(best_pair, 0) - freq
                    if i + 2 < n:
                        old = (right, symbols[i + 2])
                        delta[old] = delta.get(old, 0) - freq
                    out.append(merged)
                    i += 2
                else:
                    if out and out[-1] == merged:
                        new = (merged, symbols[i])
                        delta[new] = delta.get(new, 0) + freq
                        pair_words.setdefault(new, set()).add(wid)
                    out.append(symbols[i])
                    i += 1
            words[wid] = (tuple(out), freq)
        for pair, change in delta.items():
            if change:
                count = pair_counts.get(pair, 0) + change
                if count > 0:
                    pair_counts[pair] = count
                    heapq.heappush(heap, (-count, pair))
                else:
                    del pair_counts[pair]

    model = BpeModel(merges=merges, vocab_size=vocab_size)
    model._cache.update((names[wid], _spell(symbols)) for wid, (symbols, _) in enumerate(words))
    return model


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
