"""Seeded input generators for the benchmark workloads.

Every generator takes the benchmark seed and a size scale (1.0 is the
benchmark size; the self-test uses a tiny one), writes its input files,
and returns the ground truth the output checks need plus the input
properties the results record. Nothing here imports lexmine: the truth
comes from how the inputs were built, not from the code under test.

The planted-alignment corpus follows ``planted_collections`` and the
bilingual sentiment rows follow ``bilingual_rows`` in
``tests/test_acceptance.py``; both are scaled up and drawn from richer,
Zipfian vocabularies so that each layer does benchmark-sized work.
"""
from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

POSITIVE = "positive"
NEGATIVE = "negative"

_CONSONANTS = "bcdfghjklmnprstw"
_VOWELS = "aeiou"


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _pseudo_words(rng: random.Random, count: int, prefix: str = "",
                  exclude: set[str] | frozenset[str] = frozenset()) -> list[str]:
    """`count` distinct lowercase pronounceable words of 2-4 syllables."""
    seen = set(exclude)
    words = []
    while len(words) < count:
        syllables = rng.randint(2, 4)
        word = prefix + "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                                for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class Zipf:
    """Rank-frequency sampler, P(rank r) proportional to 1 / r**exponent."""

    def __init__(self, items, exponent: float = 1.0):
        self.items = list(items)
        weights = [1.0 / (rank ** exponent) for rank in range(1, len(self.items) + 1)]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random):
        pick = rng.random() * self.cumulative[-1]
        return self.items[min(bisect.bisect_right(self.cumulative, pick),
                              len(self.items) - 1)]


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@dataclass
class Generated:
    """Files written for one workload, with its truth and input properties."""

    files: dict[str, Path]
    properties: dict[str, float] = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


# -- mine-planted -----------------------------------------------------------------

def render_sentence(words: list[str]) -> str:
    return " ".join([words[0].capitalize()] + words[1:]) + "."


def planted(seed: int, scale: float, out: Path, n_true: int = 20,
            n_distract: int = 20, words_per_sentence: int = 7) -> Generated:
    """Document collections with a known parallel sentence in every pair.

    Each document pair plants `n_true` sentences whose words all have a
    unique dictionary image, so their translation scores exactly 1.0
    against the planted target, and `n_distract` sentences per side whose
    words have no dictionary image, so they only share the final period
    with anything (score 1/8). Sentence order inside each document and the
    order of the target collection are shuffled by the seed.
    """
    rng = random.Random(seed)
    n_docs = _scaled(200, scale, 3)
    src_docs, tgt_docs, dict_rows, expected = [], [], [], []
    for d in range(n_docs):
        src_items, tgt_items = [], []
        for i in range(n_true):
            s_words = [f"s{d}x{i}w{k}" for k in range(words_per_sentence)]
            t_words = [f"t{d}x{i}w{k}" for k in range(words_per_sentence)]
            dict_rows.extend(f"{s}\t{t}" for s, t in zip(s_words, t_words))
            src_items.append((i, s_words))
            tgt_items.append((i, t_words))
        for i in range(n_distract):
            src_items.append((None, [f"ds{d}x{i}w{k}" for k in range(words_per_sentence)]))
            tgt_items.append((None, [f"dt{d}x{i}w{k}" for k in range(words_per_sentence)]))
        rng.shuffle(src_items)
        rng.shuffle(tgt_items)
        src_docs.append({"id": f"s{d}", "title": f"Topic {d}",
                         "text": " ".join(render_sentence(w) for _, w in src_items)})
        tgt_docs.append({"id": f"t{d}", "title": f"topic {d}",
                         "text": " ".join(render_sentence(w) for _, w in tgt_items)})
        target_of = {truth: words for truth, words in tgt_items if truth is not None}
        # the corpus lists a document's pairs in source-sentence order
        expected.extend(f"{render_sentence(words)}\t{render_sentence(target_of[truth])}"
                        f"\t1.000000\ts{d}"
                        for truth, words in src_items if truth is not None)
    rng.shuffle(tgt_docs)
    rng.shuffle(dict_rows)

    files = {"src": out / "src.jsonl", "tgt": out / "tgt.jsonl", "dict": out / "dict.tsv"}
    _write_lines(files["src"], (json.dumps(doc) for doc in src_docs))
    _write_lines(files["tgt"], (json.dumps(doc) for doc in tgt_docs))
    _write_lines(files["dict"], dict_rows)
    per_doc = n_true + n_distract
    properties = {
        "documents": n_docs,
        "source_sentences": n_docs * per_doc,
        "score_cells": n_docs * per_doc * per_doc,
        # distractor words have no dictionary image; every sentence ends in "."
        "oov_rate": n_distract * words_per_sentence / (per_doc * (words_per_sentence + 1)),
    }
    return Generated(files, properties, {"corpus": expected})


# -- filter-boilerplate -------------------------------------------------------------

_COPULAS = ["adalah", "merupakan", "ialah"]


def boilerplate(seed: int, scale: float, out: Path) -> Generated:
    """A corpus TSV of stub-article sentences, as `mine sents` writes it.

    Rows follow "X <copula> <kind> di <place> , <region> ." with kind,
    place and region drawn from Zipfian pools, so the frequent slot values
    make hundreds of boilerplate trigrams that the filter must thin, while
    sentences built from rare values survive. Scores carry six decimals
    like the corpus writer's, and include ties.
    """
    rng = random.Random(seed)
    n_rows = _scaled(60000, scale, 400)
    kinds = Zipf(_pseudo_words(rng, 600, prefix="k"), exponent=0.9)
    places = Zipf(_pseudo_words(rng, 4000, prefix="p"), exponent=1.0)
    regions = Zipf(_pseudo_words(rng, 800, prefix="r"), exponent=1.1)
    names = _pseudo_words(rng, n_rows)
    rows = []
    for n, name in enumerate(names):
        kind, place, region = kinds.draw(rng), places.draw(rng), regions.draw(rng)
        copula = rng.choice(_COPULAS)
        src = f"{name.capitalize()} {copula} {kind} di {place}, {region}."
        tgt = f"{name.capitalize()} is a {kind} in {place}, {region}."
        score = rng.randint(500000, 1000000) / 1e6
        rows.append(f"{src}\t{tgt}\t{score:.6f}\tdoc{n // 3}")
    files = {"corpus": out / "corpus.tsv"}
    _write_lines(files["corpus"], rows)
    return Generated(files, truth={"rows": rows})


# -- translate-bleu ----------------------------------------------------------------

def translation_set(seed: int, scale: float, out: Path) -> Generated:
    """Source lines, reference translations and a partial dictionary.

    Words come from a Zipfian source vocabulary; each has one true target
    form (a fifth are spelled the same in both languages). The dictionary
    lists the true form first for about 90% of the word types, sometimes
    followed by a synonym; the rest are missing and pass through untranslated.
    References use the true forms, with occasional synonyms and swapped
    neighbours, so the score is high but not perfect. Lines carry sentence
    casing, capitalized names, commas and end punctuation.
    """
    rng = random.Random(seed)
    n_lines = _scaled(15000, scale, 30)
    n_types = _scaled(12000, scale, 300)
    src_words = _pseudo_words(rng, n_types)
    tgt_words = _pseudo_words(rng, n_types, exclude=set(src_words))
    true = {}
    for s, t in zip(src_words, tgt_words):
        true[s] = s if rng.random() < 0.2 else t
    synonyms = dict(zip(src_words, _pseudo_words(rng, n_types, prefix="y",
                                                 exclude=set(src_words) | set(tgt_words))))
    missing = set(rng.sample(src_words, round(0.1 * n_types)))
    dict_rows = []
    for s in src_words:
        if s in missing:
            continue
        targets = [true[s]] + ([synonyms[s]] if rng.random() < 0.15 else [])
        dict_rows.append(f"{s}\t{'|'.join(targets)}")
    rng.shuffle(dict_rows)

    vocab = Zipf(rng.sample(src_words, len(src_words)), exponent=1.0)
    src_lines, ref_lines = [], []
    for _ in range(n_lines):
        length = rng.randint(15, 35)
        words = [vocab.draw(rng) for _ in range(length)]
        refs = [synonyms[w] if rng.random() < 0.05 else true[w] for w in words]
        for k in range(length - 1):
            if rng.random() < 0.03:
                refs[k], refs[k + 1] = refs[k + 1], refs[k]
        src_out, ref_out = [], []
        for k, (w, r) in enumerate(zip(words, refs)):
            if k == 0 or rng.random() < 0.05:
                w, r = w.capitalize(), r.capitalize()
            if k < length - 1 and rng.random() < 0.08:
                w, r = w + ",", r + ","
            src_out.append(w)
            ref_out.append(r)
        end = "?" if rng.random() < 0.1 else "."
        src_lines.append(" ".join(src_out) + end)
        ref_lines.append(" ".join(ref_out) + end)

    files = {"src": out / "test.src.txt", "ref": out / "test.ref.txt",
             "dict": out / "dict.tsv"}
    _write_lines(files["src"], src_lines)
    _write_lines(files["ref"], ref_lines)
    _write_lines(files["dict"], dict_rows)
    return Generated(files)


# -- sent-cv -----------------------------------------------------------------------

SIGNAL_WORDS_PER_ROW = 3
LEXICON_SEED = 0


def sentiment_rows(seed: int, scale: float, out: Path) -> Generated:
    """Labeled parallel rows with planted signal words.

    Like ``bilingual_rows``: some content words are spelled the same in
    both languages, the rest (every signal word included) have a
    substituted target form. Each row draws ~18 class-neutral words from a
    Zipfian vocabulary of several thousand types and adds
    SIGNAL_WORDS_PER_ROW words from its own class's signal list; no row
    holds a signal word of the other class. The tgt->src dictionary covers
    every signal word and about 90% of the other substituted words.

    The lexicon (word forms, translations, frequency ranks) is the same for
    every seed, so each seed leaves BPE about the same number of merges to
    learn before its pairs run out; the seed draws the rows.
    """
    rng = random.Random(LEXICON_SEED)
    n_per_class = _scaled(250, scale, 100)
    n_types = _scaled(4000, scale, 800)
    neutral = _pseudo_words(rng, n_types)
    signals = _pseudo_words(rng, 16, prefix="z", exclude=set(neutral))
    pos_signal, neg_signal = signals[:8], signals[8:]
    src_vocab = neutral + signals
    tgt_forms = _pseudo_words(rng, len(src_vocab), prefix="q", exclude=set(src_vocab))
    tgt_of = {}
    for word, form in zip(src_vocab, tgt_forms):
        shared = word in neutral and rng.random() < 0.4
        tgt_of[word] = word if shared else form
    substituted = [w for w in neutral if tgt_of[w] != w]
    missing = set(rng.sample(substituted, round(0.1 * len(substituted))))
    dict_rows = [f"{tgt_of[w]}\t{w}" for w in src_vocab
                 if tgt_of[w] != w and w not in missing]
    rng.shuffle(dict_rows)

    vocab = Zipf(rng.sample(neutral, len(neutral)), exponent=1.0)
    rng = random.Random(seed)
    rows = []
    for _ in range(n_per_class):
        for label, signal in ((POSITIVE, pos_signal), (NEGATIVE, neg_signal)):
            words = [vocab.draw(rng) for _ in range(rng.randint(14, 22))]
            for _ in range(SIGNAL_WORDS_PER_ROW):
                words.insert(rng.randint(0, len(words)), rng.choice(signal))
            src = " ".join(words) + " ."
            tgt = " ".join(tgt_of[w] for w in words) + " ."
            rows.append(f"{label}\t{src}\t{tgt}")
    files = {"data": out / "labeled.tsv", "dict": out / "bridge.tsv"}
    _write_lines(files["data"], rows)
    _write_lines(files["dict"], dict_rows)
    return Generated(files, truth={"rows": len(rows)})
