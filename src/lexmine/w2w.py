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


@dataclass
class OovSummary:
    sentences: int = 0
    oov_tokens: int = 0
    total_tokens: int = 0

    @property
    def rate(self) -> float:
        return self.oov_tokens / self.total_tokens if self.total_tokens else 0.0

    @property
    def zero_denominator(self) -> bool:
        return self.total_tokens == 0

    def to_dict(self) -> dict:
        return {
            "sentences": self.sentences,
            "oov_tokens": self.oov_tokens,
            "total_tokens": self.total_tokens,
            "oov_rate": self.rate,
            "zero_denominator": self.zero_denominator,
        }


def translate_tokens(dictionary: BilingualDictionary, tokens: list[Token]) -> TranslationResult:
    out: list[Token] = []
    oov = 0
    for token in tokens:
        if is_punctuation(token):
            out.append(token)
            continue
        lowered = token.lower()
        targets = dictionary.lookup(lowered)
        if targets:
            out.append(targets[0])
        else:
            out.append(lowered)
            oov += 1
    return TranslationResult(out, oov)
