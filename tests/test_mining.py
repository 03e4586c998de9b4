"""Document pairing, sentence alignment, and corpus thinning."""
from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from lexmine import mining
from lexmine.dictionary import parse_dictionary
from lexmine.errors import InputError, ParseError
from lexmine.metrics import rouge1_f1
from lexmine.mining import (
    AlignedPair,
    Document,
    MiningConfig,
    align_documents,
    align_sentences,
    diversity_filter,
    mine,
    normalize_title,
    read_corpus,
    read_documents,
    write_corpus,
)
from lexmine.textproc import ngrams, normalize, split_sentences, tokenize
from lexmine.w2w import translate_tokens

IDENTITY_WORDS = ["a", "b", "c", "d", "e"]
IDENTITY_DICT = parse_dictionary([f"{w}\t{w}" for w in IDENTITY_WORDS])


def pair_with(text: str, score: float, idx: int) -> AlignedPair:
    return AlignedPair(text, "t", score, f"d{idx}")


class TestNormalizeTitle:
    def test_case_and_trailing_punctuation(self):
        assert normalize_title("Kucing!") == normalize_title(" kucing ")

    def test_punctuation_becomes_space(self):
        assert normalize_title("Alpha-Beta") == "alpha beta"

    def test_whitespace_collapses(self):
        assert normalize_title("a   b\tc") == "a b c"

    def test_pure_punctuation_is_empty(self):
        assert normalize_title("!!!") == ""


class TestAlignDocuments:
    def test_matches_on_normalized_title(self):
        src = [Document("s1", "Kucing!", "x")]
        tgt = [Document("t1", "kucing", "y")]
        assert align_documents(src, tgt) == [(src[0], tgt[0])]

    def test_no_match(self):
        src = [Document("s1", "Kucing", "x")]
        tgt = [Document("t1", "Anjing", "y")]
        assert align_documents(src, tgt) == []

    def test_duplicate_titles_first_occurrence_wins(self):
        src = [Document("s1", "Kucing", "x"), Document("s2", "kucing", "x2")]
        tgt = [Document("t1", "KUCING", "y"), Document("t2", "Kucing!", "y2")]
        pairs = align_documents(src, tgt)
        assert pairs == [(src[0], tgt[0])]

    def test_order_follows_source_collection(self):
        src = [Document("s1", "B", "x"), Document("s2", "A", "x")]
        tgt = [Document("t1", "A", "y"), Document("t2", "B", "y")]
        assert [s.id for s, _ in align_documents(src, tgt)] == ["s1", "s2"]

    def test_empty_normalized_title_never_pairs(self):
        src = [Document("s1", "!!!", "x")]
        tgt = [Document("t1", "...", "y")]
        assert align_documents(src, tgt) == []


def oracle_align_documents(src_docs, tgt_docs):
    """Title pairing with a second copy of its state: the first target per
    title kept in a map, and the paired titles in a set of their own."""
    tgt_by_title = {}
    for doc in tgt_docs:
        key = normalize_title(doc.title)
        if key and key not in tgt_by_title:
            tgt_by_title[key] = doc
    pairs = []
    seen = set()
    for doc in src_docs:
        key = normalize_title(doc.title)
        if key and key not in seen and key in tgt_by_title:
            pairs.append((doc, tgt_by_title[key]))
            seen.add(key)
    return pairs


# case and punctuation variants of three titles, and titles that normalize
# to nothing; a short pool makes titles repeat within and across sides
TITLE_POOL = ["Kucing", "kucing!", "KUCING", "Anjing", "anjing.", "Alpha-Beta",
              "alpha beta", "!!!", "...", "", " "]
titles_st = st.lists(st.sampled_from(TITLE_POOL), max_size=8)


class TestAlignDocumentsOracle:
    @settings(max_examples=300, deadline=None)
    @given(src_titles=titles_st, tgt_titles=titles_st)
    # "kucing!" comes after "Kucing" has taken the target, and "!!!" and
    # "..." are titles on both sides that never pair
    @example(src_titles=["Kucing", "!!!", "kucing!", "Anjing"],
             tgt_titles=["...", "KUCING", "kucing", "anjing.", "!!!"])
    def test_equals_seen_set_pairing(self, src_titles, tgt_titles):
        src = [Document(f"s{i}", title, "x") for i, title in enumerate(src_titles)]
        tgt = [Document(f"t{i}", title, "y") for i, title in enumerate(tgt_titles)]
        assert align_documents(src, tgt) == oracle_align_documents(src, tgt)


class TestAlignSentences:
    def test_identity_pair_scores_one(self):
        aligned = align_sentences(["A b c."], ["A b c."], "s", IDENTITY_DICT, MiningConfig())
        assert len(aligned) == 1
        assert aligned[0].score == pytest.approx(1.0)
        assert aligned[0].doc_id == "s"

    def test_all_below_threshold_yields_nothing(self):
        aligned = align_sentences(["Q r s."], ["X y z."], "s",
                                  parse_dictionary(["a\tb"]), MiningConfig())
        assert aligned == []

    def test_recovers_permuted_translations(self):
        words = {f"w{i}{j}": f"v{i}{j}" for i in range(4) for j in range(3)}
        dictionary = parse_dictionary([f"{s}\t{t}" for s, t in words.items()])
        src = [f"W{i}0 w{i}1 w{i}2." for i in range(4)]
        order = [2, 0, 3, 1]
        tgt = [f"V{i}0 v{i}1 v{i}2." for i in order]
        aligned = align_sentences(src, tgt, "s", dictionary, MiningConfig())
        assert len(aligned) == 4
        # output follows source order and each sentence finds its translation
        for i, ap in enumerate(aligned):
            assert ap.source_sentence.lower().startswith(f"w{i}0")
            assert ap.target_sentence.lower().startswith(f"v{i}0")
            assert ap.score == pytest.approx(1.0)

    def test_tie_prefers_earliest_target(self):
        # unigram overlap ignores word order, so both targets score 1.0
        aligned = align_sentences(["a b!"], ["A b!", "B a!"], "s", IDENTITY_DICT, MiningConfig())
        assert len(aligned) == 1
        assert aligned[0].target_sentence == "A b!"

    def test_exact_fraction_tie_prefers_earliest_target(self):
        # both targets score exactly 1/3: 2 of 5 source tokens against 7
        # target tokens, and 1 of 5 against 1; F1 computed as 2PR/(P+R)
        # would round the two to different floats
        aligned = align_sentences(["P q r s."], ["P q v w x y!", "S"], "s",
                                  parse_dictionary([]), MiningConfig(align_threshold=0.3))
        assert [ap.target_sentence for ap in aligned] == ["P q v w x y!"]
        assert aligned[0].score == 1 / 3

    def test_one_to_one_keeps_best_per_target(self):
        src, tgt = ["A b c d e.", "A b c."], ["A b c d e."]
        aligned = align_sentences(src, tgt, "s", IDENTITY_DICT, MiningConfig())
        assert len(aligned) == 1
        assert aligned[0].source_sentence == "A b c d e."

        relaxed = MiningConfig(one_to_one=False)
        shared = align_sentences(src, tgt, "s", IDENTITY_DICT, relaxed)
        assert len(shared) == 2

    def test_one_to_one_targets_unique(self):
        aligned = align_sentences(["A b.", "B a.", "A a.", "B b."], ["A b.", "B a."], "s",
                                  IDENTITY_DICT, MiningConfig())
        targets = [ap.target_sentence for ap in aligned]
        assert len(targets) == len(set(targets))

    def test_empty_side_yields_nothing(self):
        assert align_sentences([], ["A b."], "s", IDENTITY_DICT, MiningConfig()) == []
        assert align_sentences(["A b."], [], "s", IDENTITY_DICT, MiningConfig()) == []


def oracle_align(src_sentences, tgt_sentences, dictionary, cfg):
    """The per-pair reference: `rouge1_f1` for every (source, target) pair.

    Returns (source text, target text, score) rows.
    """
    if not src_sentences or not tgt_sentences:
        return []
    tgt_tokens = [normalize(tokenize(s)) for s in tgt_sentences]
    candidates = []
    for i, src_sentence in enumerate(src_sentences):
        translated = translate_tokens(dictionary, tokenize(src_sentence)).tokens
        best_score, best_j = -1.0, -1
        for j, ref in enumerate(tgt_tokens):
            score = rouge1_f1(translated, ref).f1
            if score > best_score:
                best_score, best_j = score, j
        if best_j >= 0 and best_score >= cfg.align_threshold:
            candidates.append((best_score, i, best_j))
    if cfg.one_to_one:
        taken, kept = set(), []
        for score, i, j in sorted(candidates, key=lambda c: (-c[0], c[1])):
            if j not in taken:
                taken.add(j)
                kept.append((score, i, j))
        candidates = sorted(kept, key=lambda c: c[1])
    return [(src_sentences[i], tgt_sentences[j], score)
            for score, i, j in candidates]


# few word types, mixed case and a dictionary that merges words, so tokens
# repeat within and across sentences and scores tie; the lists are drawn
# directly, so a sentence may be empty, start lowercase or hold a
# terminator inside, none of which split_sentences produces
ORACLE_DICT = parse_dictionary(["a\tx", "b\tb", "c\tx", "q\tq"])
oracle_sentence_st = st.lists(
    st.sampled_from(["a", "b", "c", "x", "q", "B", "X", "z", ".", "!", "?", "a.b"]),
    max_size=6,
).map(" ".join)
oracle_sentences_st = st.lists(oracle_sentence_st, max_size=7)
ZERO_OVERLAP_SRC = ["Z z?", "Z z!", "A b."]
ZERO_OVERLAP_TGT = ["X q.", "B x."]


class TestAlignSentencesOracle:
    @settings(max_examples=300, deadline=None)
    @given(src=oracle_sentences_st, tgt=oracle_sentences_st,
           threshold=st.sampled_from([0.0, 0.3, 0.5]), one_to_one=st.booleans())
    # threshold 0: the first two source sentences share no token with any
    # target, so both score 0.0 against target 0; under one_to_one the
    # first keeps it and the second loses it
    @example(src=ZERO_OVERLAP_SRC, tgt=ZERO_OVERLAP_TGT, threshold=0.0, one_to_one=True)
    @example(src=ZERO_OVERLAP_SRC, tgt=ZERO_OVERLAP_TGT, threshold=0.0, one_to_one=False)
    # sentences split_sentences never produces: a lowercase start, an
    # inner terminator, an empty sentence
    @example(src=["a b. c", "b ! q"], tgt=["", "x? b", "q b!"], threshold=0.3, one_to_one=True)
    def test_equals_rouge1_loop(self, src, tgt, threshold, one_to_one):
        cfg = MiningConfig(align_threshold=threshold, one_to_one=one_to_one)
        got = [(ap.source_sentence, ap.target_sentence, ap.score)
               for ap in align_sentences(src, tgt, "s", ORACLE_DICT, cfg)]
        assert got == oracle_align(src, tgt, ORACLE_DICT, cfg)
        assert all(type(score) is float for _, _, score in got)

    def test_zero_overlap_keeps_target_zero_at_threshold_zero(self):
        got = [(ap.source_sentence, ap.target_sentence, ap.score)
               for ap in align_sentences(ZERO_OVERLAP_SRC, ZERO_OVERLAP_TGT, "s", ORACLE_DICT,
                                         MiningConfig(align_threshold=0.0))]
        assert got == [("Z z?", "X q.", 0.0), ("A b.", "B x.", 1.0)]


class TestMiningConfig:
    def test_threshold_range(self):
        with pytest.raises(InputError):
            MiningConfig(align_threshold=1.5)

    def test_cap_positive(self):
        with pytest.raises(InputError):
            MiningConfig(trigram_cap=0)

    def test_top_k_positive(self):
        with pytest.raises(InputError):
            MiningConfig(trigram_top_k=0)


def recount(pairs):
    counts = Counter()
    for p in pairs:
        tokens = [t.lower() for t in tokenize(p.source_sentence)]
        counts.update({tuple(tokens[i:i + 3]) for i in range(len(tokens) - 2)})
    return counts


class TestDiversityFilter:
    def test_no_overload_is_identity(self):
        pairs = [pair_with("a b c", 0.9, 0), pair_with("b c d", 0.8, 1),
                 pair_with("x", 0.7, 2)]
        assert diversity_filter(pairs, MiningConfig()) == pairs

    def test_single_trigram_capped_exactly(self):
        pairs = [pair_with("a b c", i / 1000, i) for i in range(150)]
        kept = diversity_filter(pairs, MiningConfig(trigram_cap=100))
        assert len(kept) == 100
        # lowest-scoring occurrences go first; order of survivors is preserved
        assert kept == pairs[50:]

    def test_shared_trigram_decrements_coupled_counts(self):
        pairs = [pair_with("a b c d", i / 1000, i) for i in range(150)]
        kept = diversity_filter(pairs, MiningConfig(trigram_cap=100))
        # both trigrams live in every sentence, so one trim fixes both
        assert kept == pairs[50:]
        assert max(recount(kept).values()) == 100

    def test_overlapping_overloads(self):
        first = [pair_with("a b c d", i / 1000, i) for i in range(120)]
        second = [pair_with("b c d e", 1.0 - i / 1000, 200 + i) for i in range(120)]
        pairs = first + second
        kept = diversity_filter(pairs, MiningConfig(trigram_cap=100))
        # the shared trigram sheds all low-scoring "a b c d" rows plus the
        # cheapest 20 of the others, which already satisfies every cap
        assert kept == second[:100]
        counts = recount(kept)
        assert all(cnt <= 100 for cnt in counts.values())

    def test_only_top_k_trigrams_watched(self):
        frequent = [pair_with("x y z", 0.9, i) for i in range(5)]
        rare = [pair_with("p q r", 0.9, 100 + i) for i in range(4)]
        cfg = MiningConfig(trigram_cap=3, trigram_top_k=1)
        kept = diversity_filter(frequent + rare, cfg)
        texts = Counter(p.source_sentence for p in kept)
        assert texts["x y z"] == 3
        assert texts["p q r"] == 4

    def test_subset_in_input_order(self):
        pairs = [pair_with("a b c", (150 - i) / 1000, i) for i in range(150)]
        kept = diversity_filter(pairs, MiningConfig(trigram_cap=100))
        positions = [pairs.index(p) for p in kept]
        assert positions == sorted(positions)

    def test_equal_scores_shed_in_input_order(self):
        pairs = [pair_with("a b c", 0.5, i) for i in range(6)]
        assert diversity_filter(pairs, MiningConfig(trigram_cap=2)) == pairs[4:]

    def test_tied_scores_across_two_overloads(self):
        # "a b c" and "x y z" both hold five rows, so "a b c" sheds first:
        # row 0, then the first two of its three 0.5 rows. Row 0 also held
        # "x y z", which then sheds its 0.1 row and the first of its two
        # 0.5 rows; the dead row 0 is no victim a second time.
        rows = [("a b c x y z", 0.2), ("a b c", 0.5), ("a b c", 0.5), ("a b c", 0.5),
                ("a b c", 0.9), ("x y z", 0.5), ("x y z", 0.1), ("x y z", 0.5),
                ("x y z", 0.9)]
        pairs = [pair_with(text, score, i) for i, (text, score) in enumerate(rows)]
        kept = diversity_filter(pairs, MiningConfig(trigram_cap=2))
        assert kept == [pairs[3], pairs[4], pairs[7], pairs[8]]

    def test_empty_input(self):
        assert diversity_filter([], MiningConfig()) == []


def oracle_filter(pairs, cfg):
    """The reference filter: every distinct trigram sorted, full trigram sets."""
    trigram_sets = [set(ngrams(normalize(tokenize(p.source_sentence)), 3)) for p in pairs]
    occurrence = Counter()
    for trigrams in trigram_sets:
        occurrence.update(trigrams)
    top = sorted(occurrence.items(), key=lambda item: (-item[1], item[0]))[: cfg.trigram_top_k]
    watched = {tri for tri, _ in top}
    if not watched:
        return list(pairs)

    alive = [True] * len(pairs)
    members: dict[tuple, list[int]] = {tri: [] for tri in watched}
    for idx, trigrams in enumerate(trigram_sets):
        for tri in trigrams & watched:
            members[tri].append(idx)
    counts = {tri: len(idxs) for tri, idxs in members.items()}

    while True:
        overloaded = [(cnt, tri) for tri, cnt in counts.items() if cnt > cfg.trigram_cap]
        if not overloaded:
            break
        # worst offender first; ties broken by lexicographic trigram order
        worst_count = max(cnt for cnt, _ in overloaded)
        worst = min(tri for cnt, tri in overloaded if cnt == worst_count)
        victims = sorted(
            (idx for idx in members[worst] if alive[idx]),
            key=lambda idx: (pairs[idx].score, idx),
        )
        to_remove = counts[worst] - cfg.trigram_cap
        for idx in victims[:to_remove]:
            alive[idx] = False
            for tri in trigram_sets[idx] & watched:
                counts[tri] -= 1

    return [pair for idx, pair in enumerate(pairs) if alive[idx]]


# 3-4 word types once lowercased, so trigrams repeat across sentences and
# their counts tie at the top-K boundary; three scores, so victims tie too
FILTER_VOCAB = ["a", "B", "c", "A", "b", "d"]
filter_pairs_st = st.integers(4, 6).flatmap(lambda n: st.lists(
    st.tuples(st.lists(st.sampled_from(FILTER_VOCAB[:n]), min_size=1, max_size=7),
              st.sampled_from([0.5, 0.75, 1.0])),
    max_size=30,
)).map(lambda rows: [pair_with(" ".join(words), score, i)
                     for i, (words, score) in enumerate(rows)])


class TestDiversityFilterOracle:
    @settings(max_examples=300, deadline=None)
    @given(pairs=filter_pairs_st, top_k=st.integers(1, 5), cap=st.integers(1, 3))
    def test_equals_sorting_filter(self, pairs, top_k, cap):
        cfg = MiningConfig(trigram_top_k=top_k, trigram_cap=cap)
        assert diversity_filter(pairs, cfg) == oracle_filter(pairs, cfg)


class TestMine:
    def docs(self):
        src = [Document("s1", "One", "A b c. C d e."),
               Document("s2", "Two", "B c d.")]
        tgt = [Document("t1", "one", "A b c. C d e."),
               Document("t2", "two", "B c d.")]
        return src, tgt

    def test_identity_collections(self):
        src, tgt = self.docs()
        pairs, stats = mine(src, tgt, IDENTITY_DICT, MiningConfig())
        assert len(pairs) == 3
        assert all(p.score == pytest.approx(1.0) for p in pairs)
        assert stats == {"source_documents": 2, "target_documents": 2, "document_pairs": 2,
                         "source_sentences": 3, "aligned_pairs": 3, "final_pairs": 3}

    def test_empty_source(self):
        _, tgt = self.docs()
        pairs, stats = mine([], tgt, IDENTITY_DICT, MiningConfig())
        assert pairs == []
        assert stats["document_pairs"] == 0
        assert stats["final_pairs"] == 0

    def test_splits_each_document_once(self, monkeypatch):
        split_texts = []

        def recording_split(text):
            split_texts.append(text)
            return split_sentences(text)

        monkeypatch.setattr(mining, "split_sentences", recording_split)
        src = [Document(f"s{i}", f"T{i}", "A b. C d.") for i in range(3)]
        tgt = [Document(f"t{i}", f"t{i}", "A b.") for i in range(3)]
        _, stats = mine(src, tgt, IDENTITY_DICT, MiningConfig())
        assert sorted(split_texts) == ["A b."] * 3 + ["A b. C d."] * 3
        assert stats["source_sentences"] == 6

    def test_aligns_through_the_module_name(self, monkeypatch):
        # profilers wrap mining.align_sentences; mine must call that name
        calls = []

        def recording_align(src_sentences, tgt_sentences, doc_id, dictionary, cfg):
            calls.append(doc_id)
            return align_sentences(src_sentences, tgt_sentences, doc_id, dictionary, cfg)

        monkeypatch.setattr(mining, "align_sentences", recording_align)
        src = [Document(f"s{i}", f"T{i}", "A b.") for i in range(3)]
        tgt = [Document(f"t{i}", f"t{i}", "A b.") for i in range(3)]
        pairs, _ = mine(src, tgt, IDENTITY_DICT, MiningConfig())
        assert calls == ["s0", "s1", "s2"]
        assert len(pairs) == 3

    def test_filter_can_be_skipped(self):
        src = [Document(f"s{i}", f"T{i}", "A b c.") for i in range(150)]
        tgt = [Document(f"t{i}", f"t{i}", "A b c.") for i in range(150)]
        unfiltered, stats = mine(src, tgt, IDENTITY_DICT,
                                 MiningConfig(), apply_filter=False)
        assert len(unfiltered) == 150
        assert stats["final_pairs"] == 150
        filtered, _ = mine(src, tgt, IDENTITY_DICT, MiningConfig())
        assert len(filtered) == 100


class TestFileFormats:
    def test_read_documents(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        rows = [{"id": "d1", "title": "T", "text": "A b.", "language": "min"},
                {"id": "d2", "title": "U", "text": "C d."}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                        encoding="utf-8")
        # fields other than id, title and text are ignored
        assert read_documents(path) == [Document("d1", "T", "A b."),
                                        Document("d2", "U", "C d.")]

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
    def test_read_documents_non_object(self, tmp_path, line):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "title": "T", "text": "A."}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_documents(path)
        assert str(err.value) == f"{path}:2: expected a JSON object"

    @pytest.mark.parametrize("doc_id", ["a\tb", "a\nb", "a\rb", "\t"])
    def test_read_documents_rejects_row_breaking_id(self, tmp_path, doc_id):
        # the id is the corpus TSV's last column: a tab or line break in it
        # would make a row that read_corpus cannot read back
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"id": doc_id, "title": "T", "text": "A."}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_documents(path)
        assert str(err.value).startswith(f"{path}:1: id ")

    def test_read_documents_missing_field(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "title": "T"}\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_documents(path)
        assert "text" in str(err.value)

    def test_read_documents_bad_json(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("{oops\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_documents(path)

    def test_corpus_round_trip(self, tmp_path):
        # an infinite score still sorts, so it reads back; NaN is refused below
        pairs = [AlignedPair("Src sent.", "Tgt sent.", 0.75, "d1"),
                 AlignedPair("Another.", "Lain.", 1.0, "d2"),
                 AlignedPair("Tak.", "Tidak.", float("inf"), "d3")]
        path = tmp_path / "corpus.tsv"
        write_corpus(pairs, path)
        assert read_corpus(path) == pairs

    @pytest.mark.parametrize("row, side", [("\tX y.\t0.5\td1\n", "source"),
                                           ("A b.\t \t0.5\td1\n", "target")])
    def test_read_corpus_empty_sentence(self, tmp_path, row, side):
        path = tmp_path / "corpus.tsv"
        path.write_text("A.\tB.\t0.5\td0\n" + row, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_corpus(path)
        assert str(err.value) == f"{path}:2: empty {side} sentence"

    def test_read_corpus_bad_column_count(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tb\t0.5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_corpus(path)

    @pytest.mark.parametrize("score", ["high", "nan", "NaN", "-nan"])
    def test_read_corpus_bad_score(self, tmp_path, score):
        path = tmp_path / "corpus.tsv"
        path.write_text(f"a\tb\t{score}\td1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_corpus(path)
        assert str(err.value) == f"{path}:1: bad score {score!r}"
