"""Parallel-corpus construction from two comparable document collections.

Pipeline: pair documents by normalized title, segment sentences, translate
the source side word-to-word, pick each source sentence's best target by
ROUGE-1 F1, keep pairs above a threshold, then thin over-represented
trigrams. Every stage is deterministic.
"""
from __future__ import annotations

import heapq
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .dictionary import BilingualDictionary
from .errors import InputError, ParseError
from .manifest import atomic_write_text, read_lines
from .textproc import is_punctuation, ngrams, normalize, split_sentences, tokenize
from .w2w import translate_tokens

_SURROGATE = re.compile("[\ud800-\udfff]")  # only a JSON escape can make one


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    text: str


@dataclass(frozen=True)
class AlignedPair:
    source_sentence: str
    target_sentence: str
    score: float
    doc_id: str


@dataclass(frozen=True)
class MiningConfig:
    align_threshold: float = 0.5
    trigram_top_k: int = 1000
    trigram_cap: int = 100
    one_to_one: bool = True

    def __post_init__(self):
        if not 0.0 <= self.align_threshold <= 1.0:
            raise InputError(f"align_threshold must be in [0,1], got {self.align_threshold}")
        if self.trigram_top_k < 1:
            raise InputError(f"trigram_top_k must be >= 1, got {self.trigram_top_k}")
        if self.trigram_cap < 1:
            raise InputError(f"trigram_cap must be >= 1, got {self.trigram_cap}")


def normalize_title(title: str) -> str:
    """Lowercase, strip punctuation/symbols, collapse whitespace."""
    kept = "".join(" " if is_punctuation(ch) else ch for ch in title.lower())
    return " ".join(kept.split())


def align_documents(src_docs: list[Document], tgt_docs: list[Document]
                    ) -> list[tuple[Document, Document]]:
    """Pair documents whose normalized titles are equal.

    Duplicate titles within a collection resolve to the first occurrence,
    so each title yields at most one pair. Pair order follows the source
    collection.
    """
    tgt_by_title: dict[str, Document] = {}
    for doc in tgt_docs:
        tgt_by_title.setdefault(normalize_title(doc.title), doc)
    tgt_by_title.pop("", None)
    pairs = []
    for doc in src_docs:
        # a paired title leaves the map, so a later source with it finds none
        tgt = tgt_by_title.pop(normalize_title(doc.title), None)
        if tgt is not None:
            pairs.append((doc, tgt))
    return pairs


def align_sentences(src_sentences: list[str], tgt_sentences: list[str], doc_id: str,
                    dictionary: BilingualDictionary, cfg: MiningConfig) -> list[AlignedPair]:
    """Best-target alignment of two sentence lists; each pair records `doc_id`.

    Each source sentence is translated word-to-word and assigned its
    highest-scoring target sentence by ROUGE-1 F1 over lowercased target
    tokens (ties: earliest target). The scores come from one postings
    index per call, mapping each target word to its
    (target index, count) entries: a source sentence walks only the
    postings of its own word types, summing the clipped overlap
    min(source count, target count) per target, and scores each target as
    `2 * overlap / (len(translated) + len(target))`, or 0.0 without
    overlap. That is the same float `metrics.rouge1_f1` gives for every
    pair. Pairs below the threshold are dropped; with one_to_one,
    surviving pairs are deduped greedily by descending score so each
    target is used once.
    """
    if not src_sentences or not tgt_sentences:
        return []

    postings: dict[str, list[tuple[int, int]]] = {}
    tgt_lengths = []
    for j, tgt_sentence in enumerate(tgt_sentences):
        tokens = normalize(tokenize(tgt_sentence))
        tgt_lengths.append(len(tokens))
        for word, count in Counter(tokens).items():
            postings.setdefault(word, []).append((j, count))

    candidates: list[tuple[float, int, int]] = []  # (score, src_idx, tgt_idx)
    for i, src_sentence in enumerate(src_sentences):
        translated = translate_tokens(dictionary, tokenize(src_sentence)).tokens
        overlap: dict[int, int] = {}
        for word, count in Counter(translated).items():
            for j, tgt_count in postings.get(word, ()):
                # a conditional, not min(): this loop is the hottest in mining
                overlap[j] = overlap.get(j, 0) + (count if count < tgt_count else tgt_count)
        # every target without overlap scores 0.0, so target 0 wins unless
        # one scores higher; strict > in target order keeps the earliest tie
        best_score, best_j = 0.0, 0
        for j in sorted(overlap):
            score = 2 * overlap[j] / (len(translated) + tgt_lengths[j])
            if score > best_score:
                best_score, best_j = score, j
        if best_score >= cfg.align_threshold:
            candidates.append((best_score, i, best_j))

    if cfg.one_to_one:
        taken: set[int] = set()
        kept = []
        for score, i, j in sorted(candidates, key=lambda c: (-c[0], c[1])):
            if j not in taken:
                taken.add(j)
                kept.append((score, i, j))
        candidates = sorted(kept, key=lambda c: c[1])

    return [
        AlignedPair(src_sentences[i], tgt_sentences[j], score, doc_id)
        for score, i, j in candidates
    ]


def diversity_filter(pairs: list[AlignedPair], cfg: MiningConfig) -> list[AlignedPair]:
    """Thin sentences so no frequent source trigram dominates the corpus.

    The top-K trigrams are ranked once on the input (by sentence-occurrence
    count, ties lexicographic). While any of them occurs in more than `cap`
    surviving sentences, the currently worst offender (ties lexicographic)
    sheds its lowest-scoring sentences (ties: input order) until it fits,
    and counts are recomputed. Output preserves input order.

    Each sentence's distinct trigrams are held as a tuple, not a set (a set
    of five or more carries a 32-slot table), and counted in one pass.
    """
    rows = [tuple(set(ngrams(normalize(tokenize(p.source_sentence)), 3))) for p in pairs]
    occurrence = Counter(chain.from_iterable(rows))
    # the keys are unique, so the heap's top K equal sorted(...)[:K]
    top = heapq.nsmallest(cfg.trigram_top_k, occurrence.items(),
                          key=lambda item: (-item[1], item[0]))
    del occurrence  # it holds every distinct trigram; free it before narrowing
    watched = {tri for tri, _ in top}
    # from here on a sentence matters only through its watched trigrams
    rows = [tuple(watched.intersection(row)) for row in rows]

    alive = [True] * len(pairs)
    members: dict[tuple, list[int]] = {tri: [] for tri in watched}
    for idx, row in enumerate(rows):
        for tri in row:
            members[tri].append(idx)
    counts = {tri: len(idxs) for tri, idxs in members.items()}
    scores = [pair.score for pair in pairs]

    while True:
        overloaded = [(cnt, tri) for tri, cnt in counts.items() if cnt > cfg.trigram_cap]
        if not overloaded:
            break
        # worst offender first; ties broken by lexicographic trigram order
        worst_count = max(cnt for cnt, _ in overloaded)
        worst = min(tri for cnt, tri in overloaded if cnt == worst_count)
        # members[worst] is in input order and the sort is stable, so tied
        # scores go in input order
        victims = sorted(filter(alive.__getitem__, members[worst]), key=scores.__getitem__)
        to_remove = counts[worst] - cfg.trigram_cap
        for idx in victims[:to_remove]:
            alive[idx] = False
            for tri in rows[idx]:
                counts[tri] -= 1

    return [pair for idx, pair in enumerate(pairs) if alive[idx]]


# -- whole-pipeline driver ---------------------------------------------------

def mine(src_docs: list[Document], tgt_docs: list[Document],
         dictionary: BilingualDictionary, cfg: MiningConfig,
         apply_filter: bool = True) -> tuple[list[AlignedPair], dict[str, int]]:
    """Full pipeline: title pairing -> sentence alignment -> trigram filter.

    Each paired document is split into sentences once, here. Aligned pairs
    come out in document-pair order. `apply_filter=False` stops after
    thresholding. Returns the pairs and the counts the mining manifest
    records.
    """
    doc_pairs = align_documents(src_docs, tgt_docs)
    source_sentences = 0
    aligned = []
    for src_doc, tgt_doc in doc_pairs:
        src_sentences = split_sentences(src_doc.text)
        source_sentences += len(src_sentences)
        aligned.extend(align_sentences(src_sentences, split_sentences(tgt_doc.text),
                                       src_doc.id, dictionary, cfg))
    final = diversity_filter(aligned, cfg) if apply_filter else aligned
    return final, {"source_documents": len(src_docs), "target_documents": len(tgt_docs),
                   "document_pairs": len(doc_pairs), "source_sentences": source_sentences,
                   "aligned_pairs": len(aligned), "final_pairs": len(final)}


# -- file formats ------------------------------------------------------------

def read_documents(path) -> list[Document]:
    """JSON-lines documents with `id`, `title`, `text` string fields.

    An id may not hold a tab or a line break, because it becomes the last
    column of the corpus TSV.
    """
    docs = []
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
        except RecursionError:
            raise ParseError(path, line_no, "invalid JSON: nested too deeply") from None
        if not isinstance(obj, dict):
            raise ParseError(path, line_no, "expected a JSON object")
        for key in ("id", "title", "text"):
            if key not in obj:
                raise ParseError(path, line_no, f"missing field {key!r}")
            if not isinstance(obj[key], str):
                raise ParseError(path, line_no, f"field {key!r} is not a string")
        doc = Document(obj["id"], obj["title"], obj["text"])
        if any(_SURROGATE.search(value) for value in (doc.id, doc.title, doc.text)):
            raise ParseError(path, line_no, "invalid JSON: lone surrogate")
        if any(ch in doc.id for ch in "\t\n\r"):
            raise ParseError(path, line_no, f"id {doc.id!r} holds a tab or line break")
        docs.append(doc)
    return docs


def write_corpus(pairs: list[AlignedPair], path) -> None:
    """Write TSV to `path`: source, target, score, doc_id."""
    atomic_write_text(path, "".join(f"{pair.source_sentence}\t{pair.target_sentence}"
                                    f"\t{pair.score:.6f}\t{pair.doc_id}\n" for pair in pairs))


def read_corpus(path) -> list[AlignedPair]:
    pairs = []
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        columns = line.split("\t")
        if len(columns) != 4:
            raise ParseError(path, line_no,
                             f"expected 4 tab-separated columns, got {len(columns)}")
        source, target, score_text, doc_id = columns
        for side, text in (("source", source), ("target", target)):
            if not text.strip():
                raise ParseError(path, line_no, f"empty {side} sentence")
        try:
            score = float(score_text)
        except ValueError:
            score = math.nan
        if math.isnan(score):  # NaN would break the filter's lowest-score-first order
            raise ParseError(path, line_no, f"bad score {score_text!r}")
        pairs.append(AlignedPair(source, target, score, doc_id))
    return pairs
