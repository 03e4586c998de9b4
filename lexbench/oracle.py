"""Reference implementations the output checks compare against.

Written from the documented rules in the README, not from the library
code, and kept deliberately plain: explicit loops and dictionaries, no
shared helpers with lexmine.
"""
from __future__ import annotations

import math
import unicodedata

BLEU_ORDERS = 4
W2W_MAX_LEN = 75


def _punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith(("P", "S"))


def tokenize(text: str) -> list[str]:
    """Whitespace chunks; punctuation at either end of a chunk stands alone."""
    out = []
    for chunk in text.split():
        head = []
        while chunk and _punct(chunk[0]):
            head.append(chunk[0])
            chunk = chunk[1:]
        tail = []
        while chunk and _punct(chunk[-1]):
            tail.insert(0, chunk[-1])
            chunk = chunk[:-1]
        out.extend(head)
        if chunk:
            out.append(chunk)
        out.extend(tail)
    return out


def is_punct_token(token: str) -> bool:
    return all(_punct(ch) for ch in token)


def read_dictionary(path) -> dict[str, str]:
    """source -> first listed target, lowercased, first row of a source wins."""
    first = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            source, targets = line.split("\t")
            first.setdefault(source.strip().lower(), targets.split("|")[0].strip().lower())
    return first


def translate_line(mapping: dict[str, str], line: str) -> tuple[str, int, int]:
    """w2w of one line: (text, oov tokens, tokens)."""
    tokens = tokenize(line)[:W2W_MAX_LEN]
    out, oov = [], 0
    for token in tokens:
        if is_punct_token(token):
            out.append(token)
        elif token.lower() in mapping:
            out.append(mapping[token.lower()])
        else:
            out.append(token.lower())
            oov += 1
    return " ".join(out), oov, len(tokens)


def corpus_bleu(hyp_lines: list[str], ref_lines: list[str]) -> float:
    """Lowercased corpus BLEU-4 with the documented smoothing and brevity penalty."""
    correct = [0] * BLEU_ORDERS
    total = [0] * BLEU_ORDERS
    hyp_len = ref_len = 0
    for hyp_line, ref_line in zip(hyp_lines, ref_lines):
        hyp = [t.lower() for t in tokenize(hyp_line)]
        ref = [t.lower() for t in tokenize(ref_line)]
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, BLEU_ORDERS + 1):
            ref_counts: dict[tuple, int] = {}
            for i in range(len(ref) - n + 1):
                gram = tuple(ref[i:i + n])
                ref_counts[gram] = ref_counts.get(gram, 0) + 1
            for i in range(len(hyp) - n + 1):
                gram = tuple(hyp[i:i + n])
                total[n - 1] += 1
                if ref_counts.get(gram, 0) > 0:
                    ref_counts[gram] -= 1
                    correct[n - 1] += 1
    if hyp_len == 0:
        return 0.0
    log_sum, orders, smooth = 0.0, 0, 1.0
    for n in range(BLEU_ORDERS):
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


def source_trigrams(sentence: str) -> set[tuple[str, str, str]]:
    tokens = [t.lower() for t in tokenize(sentence)]
    return {tuple(tokens[i:i + 3]) for i in range(len(tokens) - 2)}


def watched_trigrams(trigram_sets: list[set], top_k: int) -> list[tuple[tuple, int]]:
    """The top_k trigrams by number of sentences holding them, ties lexicographic."""
    occurrences: dict[tuple, int] = {}
    for grams in trigram_sets:
        for gram in grams:
            occurrences[gram] = occurrences.get(gram, 0) + 1
    ranked = sorted(occurrences.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_k]


def diversity_filter(rows: list[tuple[str, float]], top_k: int, cap: int) -> list[int]:
    """Indices of the (source sentence, score) rows the trigram filter keeps.

    The README's rule: watch the top_k trigrams of the input; while a
    watched trigram sits in more than `cap` surviving sentences, the one
    in most sentences (ties: smallest trigram) drops its lowest-scoring
    sentences (ties: earliest row) until it fits.
    """
    grams = [source_trigrams(sentence) for sentence, _ in rows]
    watched = {gram for gram, _ in watched_trigrams(grams, top_k)}
    holders: dict[tuple, list[int]] = {gram: [] for gram in watched}
    for idx, row_grams in enumerate(grams):
        for gram in row_grams:
            if gram in watched:
                holders[gram].append(idx)
    alive = [True] * len(rows)
    live_count = {gram: len(idxs) for gram, idxs in holders.items()}
    while True:
        worst = None
        for gram, count in live_count.items():
            if count > cap and (worst is None or count > live_count[worst]
                                or (count == live_count[worst] and gram < worst)):
                worst = gram
        if worst is None:
            break
        survivors = [idx for idx in holders[worst] if alive[idx]]
        survivors.sort(key=lambda idx: (rows[idx][1], idx))
        for idx in survivors[:live_count[worst] - cap]:
            alive[idx] = False
            for gram in grams[idx]:
                if gram in watched:
                    live_count[gram] -= 1
    return [idx for idx in range(len(rows)) if alive[idx]]
