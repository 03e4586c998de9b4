"""Word-to-word translation invariants and OOV accounting."""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from lexmine.cli import run
from lexmine.dictionary import invert, parse_dictionary
from lexmine.textproc import is_punctuation, tokenize
from lexmine.w2w import TranslationResult, translate_tokens

word_st = st.text(alphabet="abcdef", min_size=1, max_size=5)
token_st = st.one_of(word_st, st.sampled_from(["!", ",", ".", "?"]))
# words, punctuation, symbols and mixed tokens, in any case, with digits,
# numeric characters ("²", "½") and letters beyond ASCII
mixed_token_st = st.one_of(word_st, st.text(alphabet="abcABC19²½éÉ.,'-!?€", max_size=5), st.text())


def oracle_translate_tokens(dictionary, tokens) -> TranslationResult:
    """`translate_tokens` as it was before it tested `isalnum()` itself:
    `is_punctuation` on every token."""
    out = []
    oov = 0
    for token in tokens:
        if is_punctuation(token):
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


@st.composite
def dict_and_tokens(draw):
    rows = draw(st.dictionaries(word_st, word_st, max_size=6))
    d = parse_dictionary([f"{s}\t{t}" for s, t in rows.items()])
    tokens = draw(st.lists(token_st, max_size=12))
    return d, tokens


class TestTranslateTokens:
    def test_known_word_replaced_punctuation_kept(self):
        d = parse_dictionary(["karambia\tkelapa"])
        result = translate_tokens(d, ["karambia", "!"])
        assert result.tokens == ["kelapa", "!"]
        assert result.oov_count == 0
        assert result.total_count == 2

    def test_oov_passes_through_lowercased(self):
        d = parse_dictionary(["karambia\tkelapa"])
        result = translate_tokens(d, ["Tamasuak"])
        assert result.tokens == ["tamasuak"]
        assert result.oov_count == 1
        assert result.total_count == 1

    def test_empty(self):
        d = parse_dictionary(["a\tb"])
        result = translate_tokens(d, [])
        assert result.tokens == []
        assert (result.oov_count, result.total_count) == (0, 0)

    def test_first_target_preferred(self):
        d = parse_dictionary(["ambo\tsaya|aku"])
        assert translate_tokens(d, ["ambo"]).tokens == ["saya"]

    def test_case_insensitive_lookup(self):
        d = parse_dictionary(["karambia\tkelapa"])
        assert translate_tokens(d, ["KARAMBIA"]).tokens == ["kelapa"]

    @given(dict_and_tokens())
    def test_token_count_preserved(self, case):
        d, tokens = case
        result = translate_tokens(d, tokens)
        assert len(result.tokens) == len(tokens)
        assert result.total_count == len(result.tokens)
        assert 0 <= result.oov_count <= result.total_count

    @given(dict_and_tokens())
    def test_output_is_lowercase(self, case):
        d, tokens = case
        for token in translate_tokens(d, tokens).tokens:
            assert token == token.lower()

    @given(dict_and_tokens())
    def test_every_output_token_accounted_for(self, case):
        # each position is the dictionary image, the lowercased original
        # (OOV or punctuation); nothing else can appear
        d, tokens = case
        result = translate_tokens(d, tokens)
        for original, translated in zip(tokens, result.tokens):
            if is_punctuation(original):
                assert translated == original
            else:
                targets = d.entries.get(original.lower())
                expected = targets[0] if targets else original.lower()
                assert translated == expected


    @given(st.dictionaries(word_st, word_st, max_size=6), st.lists(mixed_token_st, max_size=12))
    def test_equals_oracle(self, rows, tokens):
        d = parse_dictionary([f"{s}\t{t}" for s, t in rows.items()])
        assert translate_tokens(d, tokens) == oracle_translate_tokens(d, tokens)


class TestIdentityAndRoundTrip:
    @given(st.lists(word_st, min_size=1, max_size=10))
    def test_identity_dictionary_round_trip(self, words):
        d = parse_dictionary([f"{w}\t{w}" for w in set(words)])
        result = translate_tokens(d, words)
        assert result.tokens == [w.lower() for w in words]
        assert result.oov_count == 0

    def test_bijective_dictionary_inverts(self):
        d = parse_dictionary(["a\tx", "b\ty", "c\tz"])
        there = translate_tokens(d, ["a", "b", "c"]).tokens
        back = translate_tokens(invert(d), there).tokens
        assert back == ["a", "b", "c"]


class TestTextAndSentence:
    def test_text_is_tokenized_first(self):
        d = parse_dictionary(["karambia\tkelapa"])
        result = translate_tokens(d, tokenize("Karambia!"))
        assert result.text == "kelapa !"


def w2w_summary(dict_rows, lines) -> dict:
    """The OOV summary `lexmine w2w` writes for these dictionary rows and lines."""
    with tempfile.TemporaryDirectory() as scratch:
        d = Path(scratch) / "d.tsv"
        d.write_text("".join(row + "\n" for row in dict_rows), encoding="utf-8")
        src = Path(scratch) / "in.txt"
        src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = Path(scratch) / "out.txt"
        assert run(["w2w", "--dict", str(d), "--in", str(src), "--out", str(out)]) == 0
        return json.loads(Path(str(out) + ".oov.json").read_text(encoding="utf-8"))


class TestCorpusSummary:
    def test_aggregate_rate(self):
        summary = w2w_summary(["a\tx", "b\ty"], ["a q", "b r"])
        assert summary["sentences"] == 2
        assert summary["oov_tokens"] == 2
        assert summary["total_tokens"] == 4
        assert summary["oov_rate"] == 0.5
        assert summary["zero_denominator"] is False

    def test_empty_stream(self):
        assert w2w_summary(["a\tx"], []) == {"sentences": 0, "oov_tokens": 0, "total_tokens": 0,
                                              "oov_rate": 0.0, "zero_denominator": True}

    @given(st.lists(st.lists(word_st, min_size=1, max_size=6), max_size=6))
    def test_summary_is_sum_of_parts(self, sentence_tokens):
        rows = ["a\tx", "b\ty"]
        lines = [" ".join(tokens) for tokens in sentence_tokens]
        summary = w2w_summary(rows, lines)
        d = parse_dictionary(rows)
        results = [translate_tokens(d, tokenize(line)) for line in lines]
        assert summary["oov_tokens"] == sum(r.oov_count for r in results)
        assert summary["total_tokens"] == sum(r.total_count for r in results)
        assert summary["sentences"] == len(lines)
