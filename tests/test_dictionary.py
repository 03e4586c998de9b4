"""Bilingual dictionary parsing, filtering, inversion, and queries."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from lexmine.dictionary import (
    BilingualDictionary,
    _check_single_word,
    dictionary_stats,
    filter_by_lexicon,
    invert,
    load_dictionary,
    load_lexicon,
    parse_dictionary,
    save_dictionary,
)
from lexmine.errors import InputError, ParseError

word_st = st.text(alphabet="abcde", min_size=1, max_size=4)
# dictionary fields: letters that change when lowercased, and whitespace of
# every kind in every position, control characters among it
field_st = st.one_of(
    st.text(alphabet=st.sampled_from(list("aBİß \t\r\n\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000")),
            max_size=8),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8))


def oracle_check_single_word(field, path, line_no):
    """The reference word check: the stripped field, every character tested."""
    word = field.strip()
    if not word:
        raise ParseError(path, line_no, "empty word")
    if any(ch.isspace() for ch in word):
        raise ParseError(path, line_no, f"multi-word entry not allowed: {word!r}")
    return word.lower()


def outcome(check, field):
    try:
        return check(field, "d.tsv", 7)
    except ParseError as exc:
        return ("error", str(exc))


@st.composite
def dictionaries(draw):
    rows = draw(st.dictionaries(word_st, st.lists(word_st, min_size=1, max_size=3),
                                max_size=8))
    lines = [f"{src}\t{'|'.join(tgts)}" for src, tgts in rows.items()]
    return parse_dictionary(lines)


def pairs(d):
    return {(source, t) for source, targets in d.entries.items() for t in targets}


class TestParse:
    def test_single_row(self):
        d = parse_dictionary(["karambia\tkelapa"])
        assert len(d) == 1
        assert d.entries["karambia"] == ["kelapa"]

    def test_duplicate_sources_merge(self):
        d = parse_dictionary(["ibunyo\tibunya", "ibunyo\tbundanya|ibunya"])
        assert d.entries["ibunyo"] == ["ibunya", "bundanya"]

    def test_multiple_targets(self):
        d = parse_dictionary(["ambo\tsaya|aku"])
        assert d.entries["ambo"] == ["saya", "aku"]

    def test_one_column_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_dictionary(["ok\tfine", "nocolumn"])
        assert err.value.line_no == 2

    def test_three_columns_rejected(self):
        with pytest.raises(ParseError):
            parse_dictionary(["a\tb\tc"])

    @pytest.mark.parametrize("lines, message", [
        (["ok\tfine", "\tb"], "<memory>:2: empty word"),
        (["a\tb||c"], "<memory>:1: empty word")])
    def test_empty_word_rejected(self, lines, message):
        with pytest.raises(ParseError) as err:
            parse_dictionary(lines)
        assert str(err.value) == message

    def test_multi_word_rejected(self):
        with pytest.raises(ParseError):
            parse_dictionary(["a\tdua kata"])

    @pytest.mark.parametrize("line, word", [("a|b\tx", "a|b"), ("x\t#foo", "#foo"),
                                            ("x\ty| #Foo", "#foo")])
    def test_word_that_cannot_be_written_back_rejected(self, line, word):
        # inverted, `a|b` would read back as two targets and `#foo` as a comment
        with pytest.raises(ParseError) as err:
            parse_dictionary(["ok\tfine", line])
        assert str(err.value) == f"<memory>:2: word holds '|' or starts with '#': {word!r}"

    def test_hash_inside_a_word_allowed(self):
        assert parse_dictionary(["c#\tx#y"]).entries == {"c#": ["x#y"]}

    @given(field_st)
    def test_word_check_equals_oracle(self, field):
        assert outcome(_check_single_word, field) == outcome(oracle_check_single_word, field)

    def test_comments_and_blanks_skipped(self):
        d = parse_dictionary(["# header", "", "a\tb", "  ", "# trailing"])
        assert len(d) == 1

    def test_lowercases_entries(self):
        d = parse_dictionary(["Karambia\tKelapa"])
        assert d.entries["karambia"] == ["kelapa"]


class TestFilterByLexicon:
    def test_drops_unregistered_target(self):
        d = parse_dictionary(["karambia\tkelapa|kalapo"])
        kept = filter_by_lexicon(d, frozenset({"kelapa"}))
        assert kept.entries["karambia"] == ["kelapa"]

    def test_drops_emptied_entry(self):
        d = parse_dictionary(["a\tx", "b\ty"])
        kept = filter_by_lexicon(d, frozenset({"x"}))
        assert len(kept) == 1
        assert "b" not in kept.entries

    def test_empty_lexicon_empties_dictionary(self):
        d = parse_dictionary(["a\tx", "b\ty"])
        assert len(filter_by_lexicon(d, frozenset())) == 0

    @given(dictionaries(), st.sets(word_st, max_size=10))
    def test_idempotent(self, d, words):
        lexicon = frozenset(words)
        once = filter_by_lexicon(d, lexicon)
        twice = filter_by_lexicon(once, lexicon)
        assert pairs(once) == pairs(twice)

    @given(dictionaries(), st.sets(word_st, max_size=10))
    def test_only_removes_pairs(self, d, words):
        kept = filter_by_lexicon(d, frozenset(words))
        assert pairs(kept) <= pairs(d)
        for _, target in pairs(kept):
            assert target in words


class TestInvert:
    def test_groups_shared_target(self):
        d = parse_dictionary(["ibunyo\tibunya", "mandehnyo\tibunya"])
        inv = invert(d)
        assert inv.entries["ibunya"] == ["ibunyo", "mandehnyo"]

    def test_direction_flips(self):
        d = parse_dictionary(["a\tb"], direction=("min", "id"))
        assert invert(d).direction == ("id", "min")

    def test_empty(self):
        assert len(invert(BilingualDictionary())) == 0

    @given(dictionaries())
    def test_pair_set_transposed(self, d):
        flipped = {(t, s) for s, t in pairs(d)}
        assert pairs(invert(d)) == flipped

    @given(dictionaries())
    def test_double_inversion_preserves_pairs(self, d):
        assert pairs(invert(invert(d))) == pairs(d)


class TestIdentityRatio:
    def test_half(self):
        d = parse_dictionary(["a\ta", "b\tc"])
        assert dictionary_stats(d)["identity_ratio"] == 0.5

    def test_identity_inside_target_list_counts(self):
        d = parse_dictionary(["a\tx|a"])
        assert dictionary_stats(d)["identity_ratio"] == 1.0

    @given(dictionaries())
    def test_bounded(self, d):
        if len(d):
            assert 0.0 <= dictionary_stats(d)["identity_ratio"] <= 1.0


class TestLexicon:
    def test_load_skips_comments(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# wordlist\nkelapa\n\nPohon\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert len(lex) == 2
        assert "pohon" in lex


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        d = parse_dictionary(["b\ty|z", "a\tx"])
        out = tmp_path / "dict.tsv"
        save_dictionary(d, out)
        again = load_dictionary(out)
        assert pairs(again) == pairs(d)
        # canonical output is sorted by source word
        assert out.read_text(encoding="utf-8") == "a\tx\nb\ty|z\n"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_dictionary(tmp_path / "nope.tsv")


class TestStats:
    def test_counts(self):
        d = parse_dictionary(["a\ta", "b\tc", "d\tc"])
        stats = dictionary_stats(d)
        assert stats["entries"] == 3
        assert stats["identical_entries"] == 1
        assert stats["identity_ratio"] == pytest.approx(1 / 3)
        assert stats["targets_with_multiple_sources"] == 1

    def test_empty_dictionary(self):
        stats = dictionary_stats(BilingualDictionary())
        assert stats["entries"] == 0
        assert stats["identity_ratio"] is None
