"""Deterministic tokenization, sentence segmentation, and n-gram extraction.

All other modules build on these primitives, so everything here is a pure
function with no configuration beyond explicit arguments. Sentences and
tokens are plain strings; n-grams are tuples of tokens, case kept as given.
"""
from __future__ import annotations

import re
import unicodedata
from typing import Iterator

from .errors import InputError

# a run of terminators ("?!", "...") is one boundary: group 1 is the run,
# then the whitespace after it (re's \s is str.isspace on every code point,
# as tests check)
_TERMINATOR_RUN = re.compile(r"([.!?]+)\s*")

# A "word token" is anything that is not made purely of punctuation or
# symbol characters (Unicode categories P* and S*). No character for which
# str.isalnum() holds is in P* or S*, so an alphanumeric string holds no
# punctuation; tests check this over every code point.
Token = str
NGram = tuple[str, ...]


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def is_punctuation(token: str) -> bool:
    """True if every character of the token is punctuation or a symbol."""
    return bool(token) and not token.isalnum() and all(_is_punct_char(ch) for ch in token)


def tokenize(text: str) -> list[Token]:
    """Split text into word and punctuation tokens.

    Chunks are whitespace-separated; leading and trailing punctuation
    characters of each chunk become standalone tokens while internal
    punctuation (apostrophes, hyphens, decimal points) stays attached.
    Total function: every non-whitespace character lands in exactly one
    token, in order.
    """
    tokens: list[Token] = []
    for chunk in text.split():
        if chunk.isalnum():  # nothing to peel: see the note on P*/S* above
            tokens.append(chunk)
            continue
        lead = 0
        while lead < len(chunk) and _is_punct_char(chunk[lead]):
            lead += 1
        trail = len(chunk)
        while trail > lead and _is_punct_char(chunk[trail - 1]):
            trail -= 1
        tokens.extend(chunk[:lead])
        if trail > lead:
            tokens.append(chunk[lead:trail])
        tokens.extend(chunk[trail:])
    return tokens


def normalize(tokens: list[Token]) -> list[Token]:
    """Lowercase every token; length and order preserved."""
    return [t.lower() for t in tokens]


def _abbreviation_before(text: str, i: int) -> bool:
    """True if the alphanumeric word just before text[i] is short and
    capitalized ("A.", "Dr."), so it reads as an initial or abbreviation.
    The walk back stops after three characters: a longer word never is one."""
    k = i
    while k > 0 and i - k < 3 and text[k - 1].isalnum():
        k -= 1
    word = text[k:i]
    return len(word) <= 2 and word.isalpha() and word[0].isupper()


def split_sentences(text: str) -> list[str]:
    """Segment text on terminal punctuation ('.', '!', '?').

    A terminator ends a sentence when it is the last non-space character or
    is followed by whitespace and then an uppercase letter or digit. A '.'
    after a short capitalized word (at most two letters) does not split.
    Whitespace (including newlines) inside each sentence is collapsed to
    single spaces; no non-whitespace character is dropped.
    """
    ends = []
    n = len(text)
    for run in _TERMINATOR_RUN.finditer(text):
        i, j = run.span(1)
        after = run.end()
        if j == i + 1 and text[i] == "." and _abbreviation_before(text, i):
            continue
        if after == n or (after > j and (text[after].isupper() or text[after].isdigit())):
            ends.append(j)
    ends.append(n)
    pieces = (" ".join(text[start:end].split()) for start, end in zip([0, *ends], ends))
    return [piece for piece in pieces if piece]


def ngrams(tokens: list[Token], n: int) -> Iterator[NGram]:
    """Contiguous n-grams of the token list, in order, case kept.

    Returns a one-pass iterator: wrap it in a Counter for a multiset or in
    a set for the distinct n-grams.
    """
    if n < 1:
        raise InputError(f"n-gram order must be >= 1, got {n}")
    return zip(*(tokens[i:] for i in range(n)))
