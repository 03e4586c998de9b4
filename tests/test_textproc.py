"""Tokenization, segmentation, and n-gram behavior."""
from __future__ import annotations

import re
import sys
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from lexmine.errors import InputError
from lexmine.textproc import (
    is_punctuation,
    ngrams,
    normalize,
    split_sentences,
    tokenize,
)

# arbitrary-ish text: words, punctuation, unicode letters, odd spacing
text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80)
# characters on the edges of str.isalnum() and of P*/S*: numbers that are
# not digits, letters that change length or case form when lowercased, a
# combining mark, symbols, punctuation inside words, and plain ASCII
edge_text_strategy = st.text(
    alphabet=st.sampled_from(list("½²٣Ⅻİßǅ\u0301€…“_'-.aZ7 ")), max_size=40)


def _oracle_is_punct_char(ch):
    return unicodedata.category(ch)[0] in ("P", "S")


def oracle_is_punctuation(token):
    """The reference predicate: every character checked, no fast path."""
    return bool(token) and all(_oracle_is_punct_char(ch) for ch in token)


def oracle_tokenize(text):
    """The reference tokenizer: every chunk peeled character by character."""
    tokens = []
    for chunk in text.split():
        lead = 0
        while lead < len(chunk) and _oracle_is_punct_char(chunk[lead]):
            lead += 1
        trail = len(chunk)
        while trail > lead and _oracle_is_punct_char(chunk[trail - 1]):
            trail -= 1
        tokens.extend(chunk[:lead])
        if trail > lead:
            tokens.append(chunk[lead:trail])
        tokens.extend(chunk[trail:])
    return tokens


def oracle_split_sentences(text):
    """The reference segmenter: every character visited in Python."""
    sentences = []
    start = 0
    n = len(text)

    def flush(end):
        nonlocal start
        piece = re.sub(r"\s+", " ", text[start:end]).strip()
        if piece:
            sentences.append(piece)
        start = end

    i = 0
    while i < n:
        ch = text[i]
        if ch not in ".!?":
            i += 1
            continue
        j = i + 1
        while j < n and text[j] in ".!?":
            j += 1
        after = j
        while after < n and text[after].isspace():
            after += 1
        at_end = after >= n
        starts_new = not at_end and after > j and (text[after].isupper() or text[after].isdigit())
        if ch == "." and j == i + 1:
            k = i
            while k > 0 and text[k - 1].isalnum():
                k -= 1
            word = text[k:i]
            if len(word) <= 2 and word.isalpha() and word[0].isupper():
                i = j
                continue
        if at_end or starts_new:
            flush(j)
        i = j
    flush(n)
    return sentences


# sentence-shaped text: words of every length up to four before a
# terminator run, Dr.-style initials among them, then whitespace of every
# kind or a control character, then a word that may open a sentence
sentence_text_strategy = st.lists(st.tuples(
    st.sampled_from(["", "A", "Dr", "xDr", "aB1", "Abcd", "é", "É", "5", "٣", "½", "Ⅻ", "ǅ", "_"]),
    st.sampled_from(["", ".", "!", "?", "..", "...", "?!"]),
    st.sampled_from(["", " ", "  ", "\n", "\t", "\r", "\x0b", "\x1c", "\x85", "\u2028",
                     "\u3000", "\x00", "\x07"]),
), max_size=8).map(lambda parts: "".join(map("".join, parts)))


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_exclamation_detached(self):
        assert tokenize("Iduik Golkar! Idrus jo Yorrys Bapaluak") == [
            "Iduik", "Golkar", "!", "Idrus", "jo", "Yorrys", "Bapaluak",
        ]

    def test_comma_detached(self):
        assert tokenize("karambia, kalapo") == ["karambia", ",", "kalapo"]

    def test_internal_punctuation_attached(self):
        assert tokenize("don't e-mail 3.14") == ["don't", "e-mail", "3.14"]

    def test_wrapping_punctuation(self):
        assert tokenize("(Really.)") == ["(", "Really", ".", ")"]
        assert tokenize("Ini rumah.") == ["Ini", "rumah", "."]

    @given(text_strategy)
    def test_no_whitespace_inside_tokens(self, text):
        for token in tokenize(text):
            assert token
            assert not any(ch.isspace() for ch in token)

    @given(text_strategy)
    def test_character_preservation(self, text):
        # every non-whitespace character lands in exactly one token, in order
        assert "".join(tokenize(text)) == "".join(text.split())

    @given(text_strategy)
    def test_rejoin_round_trip(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.one_of(text_strategy, edge_text_strategy))
    def test_equals_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    def test_no_alphanumeric_character_is_punctuation(self):
        # the isalnum() fast paths of tokenize and is_punctuation rely on
        # this property of the Unicode database
        offending = [hex(cp) for cp in range(sys.maxunicode + 1)
                     if chr(cp).isalnum() and _oracle_is_punct_char(chr(cp))]
        assert offending == []


class TestSplitSentences:
    def test_two_periods(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_three_letter_abbreviation_splits(self):
        # "Hlm" is 3 letters, longer than the short capitalized words kept
        assert split_sentences("Hlm. 5 penting.") == ["Hlm.", "5 penting."]

    def test_short_capitalized_word_does_not_split(self):
        assert split_sentences("Dr. Smith pergi. Dia pulang.") == [
            "Dr. Smith pergi.", "Dia pulang."]

    def test_empty(self):
        assert split_sentences("") == []

    def test_terminator_run_is_one_boundary(self):
        assert split_sentences("Apa?! Dia tahu... Ya.") == [
            "Apa?!", "Dia tahu...", "Ya."]

    def test_lowercase_continuation_does_not_split(self):
        assert split_sentences("Berat 3.5 kg. semua setuju") == [
            "Berat 3.5 kg. semua setuju"]

    def test_newlines_collapse(self):
        got = split_sentences("Baris satu\ndua. Baris  tiga.")
        assert got == ["Baris satu dua.", "Baris tiga."]

    @settings(max_examples=300)
    @given(st.one_of(text_strategy, sentence_text_strategy))
    # a three-letter word ending in an initial splits; a run of dots after
    # an initial splits; an initial keeps "A.\tB" together
    @example("xDr. Abcd")
    @example("A.. B")
    @example("A.\tB")
    def test_equals_oracle(self, text):
        assert split_sentences(text) == oracle_split_sentences(text)

    def test_regex_whitespace_is_str_whitespace(self):
        # split_sentences finds the whitespace after a terminator with re's
        # \s and collapses it with str.split(); the oracle uses str.isspace
        space = re.compile(r"\s")
        offending = [hex(cp) for cp in range(sys.maxunicode + 1)
                     if bool(space.match(chr(cp))) != chr(cp).isspace()
                     or (len(f"a{chr(cp)}b".split()) == 2) != chr(cp).isspace()]
        assert offending == []

    @given(text_strategy)
    def test_no_character_dropped(self, text):
        joined = "".join(split_sentences(text))
        assert sorted(joined.replace(" ", "")) == sorted(
            "".join(text.split()))

    @given(st.one_of(text_strategy, st.text(alphabet=st.sampled_from(list("aZ.? \r\n\t")),
                                            max_size=40)))
    def test_sentences_are_valid(self, text):
        for sentence in split_sentences(text):
            assert sentence.strip()
            assert "\n" not in sentence
            assert "\r" not in sentence


class TestNormalize:
    def test_examples(self):
        assert normalize(["Balando"]) == ["balando"]
        assert normalize([]) == []
        assert normalize(["ABC", "!"]) == ["abc", "!"]

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=10))
    def test_idempotent(self, tokens):
        once = normalize(tokens)
        assert normalize(once) == once
        assert len(once) == len(tokens)


class TestNgrams:
    def test_unigrams(self):
        assert list(ngrams(["a", "b", "c"], 1)) == [("a",), ("b",), ("c",)]

    def test_single_trigram(self):
        assert list(ngrams(["a", "b", "c"], 3)) == [("a", "b", "c")]

    def test_window_longer_than_input(self):
        assert list(ngrams(["a", "b"], 3)) == []

    def test_preserves_case(self):
        assert list(ngrams(["A", "b"], 2)) == [("A", "b")]

    def test_zero_order_rejected(self):
        with pytest.raises(InputError):
            ngrams(["a"], 0)

    @given(st.lists(st.sampled_from("abcD"), max_size=20), st.integers(1, 5))
    def test_count_identity(self, tokens, n):
        assert len(list(ngrams(tokens, n))) == max(0, len(tokens) - n + 1)

    @given(st.lists(st.sampled_from("abcD"), max_size=20), st.integers(1, 5))
    def test_matches_slice_oracle(self, tokens, n):
        assert list(ngrams(tokens, n)) == [tuple(tokens[i:i + n])
                                           for i in range(len(tokens) - n + 1)]


class TestIsPunctuation:
    def test_pure_punctuation(self):
        assert is_punctuation("!")
        assert is_punctuation("...")
        assert is_punctuation("(")

    def test_words_and_mixes(self):
        assert not is_punctuation("a")
        assert not is_punctuation("e-mail")
        assert not is_punctuation("")

    @given(st.one_of(text_strategy, edge_text_strategy))
    def test_equals_oracle(self, token):
        assert is_punctuation(token) == oracle_is_punctuation(token)
