"""Word-to-word translation through the bilingual dictionary.

Each word token is replaced by its preferred translation (first target in
file order); unknown words pass through lowercased and are counted as
out-of-vocabulary. Punctuation tokens are never looked up. Output is
all-lowercase, token count preserved.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dictionary import BilingualDictionary
from .textproc import Token, is_punctuation


@dataclass(frozen=True)
class TranslationResult:
    tokens: list[Token]
    oov_count: int

    @property
    def total_count(self) -> int:
        return len(self.tokens)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def translate_tokens(dictionary: BilingualDictionary, tokens: list[Token]) -> TranslationResult:
    out: list[Token] = []
    oov = 0
    for token in tokens:
        # most tokens are words, and no alphanumeric token is punctuation
        if not token.isalnum() and is_punctuation(token):
            out.append(token)
            continue
        lowered = token.lower()
        targets = dictionary.entries.get(lowered)
        if targets:
            out.append(targets[0])
        else:
            out.append(lowered)
            oov += 1
    return TranslationResult(out, oov)
