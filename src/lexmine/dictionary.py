"""Bilingual word dictionary: load, filter, invert, save.

File format is TSV: ``source<TAB>target1|target2|...`` with '#' comment
lines. All words are stored lowercased; multi-word entries are rejected
because downstream translation is strictly word-to-word.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .manifest import atomic_write_text, content_lines, read_lines


@dataclass
class BilingualDictionary:
    """Immutable-after-load map from source word to its translations.

    The first target of each entry is the preferred translation.
    """

    entries: dict[str, list[str]] = field(default_factory=dict)
    direction: tuple[str, str] = ("src", "tgt")

    def __len__(self) -> int:
        return len(self.entries)


def _check_single_word(field: str, path, line_no: int) -> str:
    """The one word of `field`, lowercased, without surrounding whitespace."""
    words = field.split()
    if len(words) != 1:
        if not words:
            raise ParseError(path, line_no, "empty word")
        raise ParseError(path, line_no, f"multi-word entry not allowed: {field.strip()!r}")
    return words[0].lower()


def parse_dictionary(lines, direction: tuple[str, str] = ("src", "tgt"),
                     path: str = "<memory>") -> BilingualDictionary:
    """Parse dictionary rows; duplicate sources merge with target dedup.

    A word in either column may not hold `|` or start with `#`: written
    back after `invert`, `|` would split it into two targets and a leading
    `#` would make its line a comment."""
    entries: dict[str, list[str]] = {}
    for line_no, line in content_lines(lines):
        columns = line.split("\t")
        if len(columns) != 2:
            raise ParseError(path, line_no,
                             f"expected 2 tab-separated columns, got {len(columns)}")
        source = _check_single_word(columns[0], path, line_no)
        targets = [_check_single_word(t, path, line_no)
                   for t in columns[1].split("|")]
        if "|" in source or "#" in line:  # rare: test each word
            for word in (source, *targets):
                if "|" in word or word.startswith("#"):
                    raise ParseError(path, line_no,
                                     f"word holds '|' or starts with '#': {word!r}")
        known = entries.setdefault(source, [])
        for t in targets:
            if t not in known:
                known.append(t)
    return BilingualDictionary(entries, direction)


def load_dictionary(path, direction: tuple[str, str] = ("src", "tgt")) -> BilingualDictionary:
    return parse_dictionary(read_lines(path), direction, path=str(path))


def save_dictionary(dictionary: BilingualDictionary, path) -> None:
    """Write canonical TSV to `path`, sorted by source word."""
    atomic_write_text(path, "".join(f"{source}\t{'|'.join(dictionary.entries[source])}\n"
                                    for source in sorted(dictionary.entries)))


def load_lexicon(path) -> frozenset[str]:
    words = set()
    for line_no, raw in content_lines(read_lines(path)):
        words.add(_check_single_word(raw, path, line_no))
    return frozenset(words)


def filter_by_lexicon(dictionary: BilingualDictionary,
                      lexicon: frozenset[str]) -> BilingualDictionary:
    """Keep only targets registered in the lexicon; drop emptied entries."""
    kept: dict[str, list[str]] = {}
    for source, targets in dictionary.entries.items():
        registered = [t for t in targets if t in lexicon]
        if registered:
            kept[source] = registered
    return BilingualDictionary(kept, dictionary.direction)


def invert(dictionary: BilingualDictionary) -> BilingualDictionary:
    """Target->sources view; source order follows the forward dictionary."""
    inverse: dict[str, list[str]] = {}
    for source, targets in dictionary.entries.items():
        for target in targets:
            sources = inverse.setdefault(target, [])
            if source not in sources:
                sources.append(source)
    return BilingualDictionary(inverse, (dictionary.direction[1], dictionary.direction[0]))


def dictionary_stats(dictionary: BilingualDictionary) -> dict:
    """Summary counts: size, identity overlap, synonym/variant groups."""
    n = len(dictionary.entries)
    identical = sum(1 for source, targets in dictionary.entries.items() if source in targets)
    inverse = invert(dictionary)
    multi = sum(1 for sources in inverse.entries.values() if len(sources) > 1)
    return {
        "entries": n,
        "identical_entries": identical,
        "identity_ratio": (identical / n) if n else None,
        "targets_with_multiple_sources": multi,
        "direction": list(dictionary.direction),
    }
