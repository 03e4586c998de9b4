"""End-to-end command-line behavior: exit codes, files, manifests."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lexmine
from lexmine import cli
from lexmine.cli import run
from lexmine.metrics import bleu

POEM = "Satu dua tiga. Ampek limo anam."


@pytest.fixture(autouse=True)
def _scratch_cwd(tmp_path_factory, monkeypatch):
    # commands without --out drop a default manifest into the CWD; keep
    # every test's droppings in its own scratch directory
    monkeypatch.chdir(tmp_path_factory.mktemp("cwd"))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_docs(path, rows):
    lines = [json.dumps(row) for row in rows]
    return write(path, "\n".join(lines) + "\n")


def identity_docs(tmp_path, n=2, sentences="A b c. C d e."):
    src = write_docs(tmp_path / "src.jsonl",
                     [{"id": f"s{i}", "title": f"T{i}", "text": sentences}
                      for i in range(n)])
    tgt = write_docs(tmp_path / "tgt.jsonl",
                     [{"id": f"t{i}", "title": f"t{i}", "text": sentences}
                      for i in range(n)])
    dictionary = write(tmp_path / "dict.tsv",
                       "a\ta\nb\tb\nc\tc\nd\td\ne\te\n")
    return src, tgt, dictionary


def cv_data(tmp_path, rows=40):
    lines = []
    for i in range(rows):
        lines.append(f"positive\tfilm bagus sekali nomor {i}")
        lines.append(f"negative\tfilm buruk sekali nomor {i}")
    return write(tmp_path / "data.tsv", "\n".join(lines) + "\n")


COMMANDS = ["dict build", "dict filter", "dict invert", "dict stats", "w2w",
            "mine docs", "mine sents", "mine filter", "mine all",
            "eval bleu", "eval rouge", "eval stats", "eval judge", "sent bpe", "sent cv"]


def command_argv(command, tmp_path):
    """Arguments that run `command` on small valid inputs, with --out tmp_path/out."""
    src, tgt, d = identity_docs(tmp_path)
    text = write(tmp_path / "text.txt", POEM + "\n")
    corpus = write(tmp_path / "corpus.tsv", "A b c.\tA b c.\t1.000000\ts0\n")
    scores = write(tmp_path / "scores.txt", "5\n4\n3\n")
    args = {
        "dict build": ["--in", d],
        "dict filter": ["--dict", d, "--lexicon", write(tmp_path / "lex.txt", "a\nb\n")],
        "dict invert": ["--dict", d],
        "dict stats": ["--dict", d],
        "w2w": ["--dict", d, "--in", text],
        "mine docs": ["--src", src, "--tgt", tgt],
        "mine sents": ["--src", src, "--tgt", tgt, "--dict", d],
        "mine filter": ["--in", corpus],
        "mine all": ["--src", src, "--tgt", tgt, "--dict", d],
        "eval bleu": ["--hyp", text, "--ref", text],
        "eval rouge": ["--hyp", text, "--ref", text],
        "eval stats": ["--corpus", corpus],
        "eval judge": ["--scores-a", scores, "--scores-b", scores],
        "sent bpe": ["--in", text],
        "sent cv": ["--data", cv_data(tmp_path), "--mode", "train-tgt/test-tgt",
                    "--vocab-size", "120"],
    }[command]
    return command.split() + args + ["--out", str(tmp_path / "out")]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["bogus"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["dict", "stats"]) == 2
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(["dict", "stats", "--dict", str(tmp_path / "absent.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("lexmine:")
        assert "absent.tsv" in err

    def test_bare_group_is_usage_error(self, capsys):
        assert run(["mine"]) == 2
        capsys.readouterr()

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.tsv", "ok\tfine\nbroken\n")
        code = run(["dict", "stats", "--dict", bad])
        assert code == 1
        assert "bad.tsv:2" in capsys.readouterr().err


class TestDictCommands:
    def test_build_canonicalizes(self, tmp_path, capsys):
        raw = write(tmp_path / "raw.tsv", "b\ty\na\tx\nb\tz|y\n")
        out = tmp_path / "dict.tsv"
        code = run(["dict", "build", "--in", raw, "--out", str(out),
                    "--direction", "min:id"])
        assert code == 0
        assert out.read_text(encoding="utf-8") == "a\tx\nb\ty|z\n"
        manifest = json.loads((tmp_path / "dict.tsv.manifest.json").read_text())
        assert manifest["command"] == "dict build"
        assert manifest["config"]["direction"] == ["min", "id"]
        assert manifest["counts"]["entries"] == 2
        assert raw in manifest["inputs"]
        assert len(manifest["inputs"][raw]) == 64
        capsys.readouterr()

    def test_filter(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "a\tx|q\nb\tq\n")
        lex = write(tmp_path / "lex.txt", "x\n")
        out = tmp_path / "f.tsv"
        assert run(["dict", "filter", "--dict", d, "--lexicon", lex,
                    "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a\tx\n"
        assert "kept 1 of 2" in capsys.readouterr().err

    def test_invert(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "ibunyo\tibunya\nmandehnyo\tibunya\n")
        out = tmp_path / "inv.tsv"
        assert run(["dict", "invert", "--dict", d, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "ibunya\tibunyo|mandehnyo\n"
        capsys.readouterr()

    def test_stats_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        d = write(tmp_path / "d.tsv", "a\ta\nb\tc\n")
        assert run(["dict", "stats", "--dict", d]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["identity_ratio"] == 0.5
        # without --out the manifest lands in the working directory
        assert (tmp_path / "lexmine-dict-stats.manifest.json").exists()

    def test_stats_to_file(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "a\ta\n")
        out = tmp_path / "stats.json"
        assert run(["dict", "stats", "--dict", d, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["entries"] == 1
        capsys.readouterr()


class TestW2w:
    def test_translates_line_per_line(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "satu\tsatu\ndua\tdua\ntiga\ttiga\n")
        src = write(tmp_path / "in.txt", "Satu dua tiga.\n\nTamasuak dua.\n")
        out = tmp_path / "out.txt"
        assert run(["w2w", "--dict", d, "--in", src, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "satu dua tiga ."
        assert lines[1] == ""           # blank lines stay blank
        assert lines[2] == "tamasuak dua ."
        summary = json.loads((tmp_path / "out.txt.oov.json").read_text())
        assert summary["sentences"] == 2
        assert summary["oov_tokens"] == 1
        assert summary["total_tokens"] == 7
        capsys.readouterr()

    def test_truncates_at_default_limit(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "w\tw\n")
        src = write(tmp_path / "in.txt", " ".join(["w"] * 80) + "\n")
        out = tmp_path / "out.txt"
        assert run(["w2w", "--dict", d, "--in", src, "--out", str(out)]) == 0
        assert len(out.read_text().split()) == 75
        capsys.readouterr()

    def test_zero_disables_truncation(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "w\tw\n")
        src = write(tmp_path / "in.txt", " ".join(["w"] * 80) + "\n")
        out = tmp_path / "out.txt"
        assert run(["w2w", "--dict", d, "--in", src, "--out", str(out),
                    "--max-len", "0"]) == 0
        assert len(out.read_text().split()) == 80
        capsys.readouterr()

    def test_summary_path_flag(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "a\tb\n")
        src = write(tmp_path / "in.txt", "a\n")
        out = tmp_path / "out.txt"
        summary = tmp_path / "oov.json"
        assert run(["w2w", "--dict", d, "--in", src, "--out", str(out),
                    "--summary", str(summary)]) == 0
        assert json.loads(summary.read_text())["oov_rate"] == 0.0
        capsys.readouterr()


class TestConfigPrecedence:
    def corpus(self, tmp_path, rows=150):
        text = "".join(f"A b c.\tX.\t0.900000\td{i}\n" for i in range(rows))
        return write(tmp_path / "corpus.tsv", text)

    def test_default_cap(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        out = tmp_path / "kept.tsv"
        assert run(["mine", "filter", "--in", corpus, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 100
        capsys.readouterr()

    def test_config_file_overrides_default(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        cfg = write(tmp_path / "run.cfg", "# settings\ntrigram_cap = 10\n")
        out = tmp_path / "kept.tsv"
        assert run(["mine", "filter", "--in", corpus, "--out", str(out),
                    "--config", cfg]) == 0
        assert len(out.read_text().splitlines()) == 10
        capsys.readouterr()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        cfg = write(tmp_path / "run.cfg", "trigram_cap = 10\n")
        out = tmp_path / "kept.tsv"
        assert run(["mine", "filter", "--in", corpus, "--out", str(out),
                    "--config", cfg, "--trigram-cap", "20"]) == 0
        assert len(out.read_text().splitlines()) == 20
        capsys.readouterr()

    def test_config_file_recorded_as_input(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        cfg = write(tmp_path / "run.cfg", "trigram_cap = 10\n")
        out = tmp_path / "kept.tsv"
        run(["mine", "filter", "--in", corpus, "--out", str(out), "--config", cfg])
        manifest = json.loads((tmp_path / "kept.tsv.manifest.json").read_text())
        assert cfg in manifest["inputs"]
        capsys.readouterr()

    def test_malformed_config_line(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        cfg = write(tmp_path / "run.cfg", "trigram_cap 10\n")
        assert run(["mine", "filter", "--in", corpus,
                    "--out", str(tmp_path / "k.tsv"), "--config", cfg]) == 1
        assert "run.cfg:1" in capsys.readouterr().err


def render_docs(path, prefix, docs):
    """One JSONL document per entry; each sentence is a list of lowercase words."""
    return write_docs(path, [
        {"id": f"{prefix}{i}", "title": f"T{i}",
         "text": " ".join(" ".join(words).capitalize() + "." for words in sentences)}
        for i, sentences in enumerate(docs)])


sentences_st = st.lists(st.lists(st.sampled_from(list("abcxyz")), min_size=1, max_size=6),
                        min_size=1, max_size=3)


class TestMine:
    def test_docs_pairing(self, tmp_path, capsys):
        src, tgt, _ = identity_docs(tmp_path)
        out = tmp_path / "pairs.tsv"
        assert run(["mine", "docs", "--src", src, "--tgt", tgt,
                    "--out", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows == [["s0", "t0", "t0"], ["s1", "t1", "t1"]]
        capsys.readouterr()

    def test_full_pipeline(self, tmp_path, capsys):
        src, tgt, d = identity_docs(tmp_path)
        out = tmp_path / "corpus.tsv"
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert all(line.split("\t")[2] == "1.000000" for line in lines)
        manifest = json.loads((tmp_path / "corpus.tsv.manifest.json").read_text())
        assert manifest["command"] == "mine all"
        assert manifest["counts"]["document_pairs"] == 2
        assert manifest["counts"]["final_pairs"] == 4
        assert sorted(manifest["inputs"]) == sorted([src, tgt, d])
        assert "jobs" not in manifest["config"]
        capsys.readouterr()

    def test_sents_skips_filter(self, tmp_path, capsys):
        src, tgt, d = identity_docs(tmp_path, n=150, sentences="A b c.")
        filtered = tmp_path / "filtered.tsv"
        unfiltered = tmp_path / "unfiltered.tsv"
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--out", str(filtered)]) == 0
        assert run(["mine", "sents", "--src", src, "--tgt", tgt, "--dict", d,
                    "--out", str(unfiltered)]) == 0
        assert len(filtered.read_text().splitlines()) == 100
        assert len(unfiltered.read_text().splitlines()) == 150
        capsys.readouterr()

    def test_sents_records_no_trigram_setting(self, tmp_path, capsys):
        # mine sents never filters: a config file's trigram keys are ignored
        # and stay out of its manifest, which records only what it applies
        src, tgt, d = identity_docs(tmp_path)
        cfg = write(tmp_path / "run.cfg", "trigram_cap=1\ntrigram_top=5\nthreshold=0.25\n")
        out = tmp_path / "corpus.tsv"
        assert run(["mine", "sents", "--src", src, "--tgt", tgt, "--dict", d,
                    "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "corpus.tsv.manifest.json").read_text())
        assert manifest["config"] == {"align_threshold": 0.25, "one_to_one": True}
        assert len(out.read_text().splitlines()) == 4
        capsys.readouterr()

    def test_config_jobs_key_is_ignored(self, tmp_path, capsys):
        # mining runs in one process; a jobs key, even an invalid one, changes nothing
        src, tgt, d = identity_docs(tmp_path)
        plain = tmp_path / "plain.tsv"
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--out", str(plain)]) == 0
        cfg = write(tmp_path / "run.cfg", "jobs=0\n")
        out = tmp_path / "corpus.tsv"
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()
        capsys.readouterr()

    def test_threshold_flag(self, tmp_path, capsys):
        src, tgt, d = identity_docs(tmp_path)
        out = tmp_path / "corpus.tsv"
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--out", str(out), "--threshold", "1.1"]) == 1
        assert "align_threshold" in capsys.readouterr().err

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        _, tgt, d = identity_docs(tmp_path)
        src = write(tmp_path / "broken.jsonl", '{"id": "s"}\n')
        out = tmp_path / "corpus.tsv"
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert not (tmp_path / "corpus.tsv.manifest.json").exists()
        capsys.readouterr()

    @settings(max_examples=40, deadline=None)
    @given(docs=st.lists(st.tuples(sentences_st, sentences_st), min_size=1, max_size=4),
           threshold=st.sampled_from(["0", "0.3", "0.5"]),
           pairing=st.sampled_from(["--one-to-one", "--many-to-one"]),
           top=st.sampled_from(["1", "3", "1000"]))
    # two scores of exactly 4/7, from 2 of 3 tokens against 4 and 4 of 7
    # against 7, share the over-cap trigram "a b ."
    @example(docs=[([["a", "b"]], [["a", "x", "y"]]),
                   ([["c", "d", "e", "f", "a", "b"]], [["c", "d", "e", "x", "y", "z"]])],
             threshold="0.5", pairing="--one-to-one", top="1000")
    def test_all_equals_sents_then_filter(self, docs, threshold, pairing, top):
        # the filter ranks victims by score; %.6f rounding in the sents file
        # must not change that order, including exact ties
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            src = render_docs(scratch / "src.jsonl", "s", [s for s, _ in docs])
            tgt = render_docs(scratch / "tgt.jsonl", "t", [t for _, t in docs])
            d = write(scratch / "dict.tsv", "a\ta\n")
            common = ["--src", src, "--tgt", tgt, "--dict", d, "--threshold", threshold,
                      pairing]
            trigram = ["--trigram-top", top, "--trigram-cap", "1"]
            mined, sents, kept = scratch / "all.tsv", scratch / "sents.tsv", scratch / "kept.tsv"
            assert run(["mine", "all", *common, *trigram, "--out", str(mined)]) == 0
            assert run(["mine", "sents", *common, "--out", str(sents)]) == 0
            assert run(["mine", "filter", "--in", str(sents), *trigram,
                        "--out", str(kept)]) == 0
            assert kept.read_bytes() == mined.read_bytes()


class TestEval:
    def test_bleu_self_comparison(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", POEM + "\n")
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", hyp]) == 0
        assert capsys.readouterr().out.strip() == "bleu 100.00"

    def test_bleu_report_file(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", POEM + "\n")
        out = tmp_path / "bleu.json"
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", hyp,
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["bleu"] == 100.0
        assert report["bp"] == 1.0
        assert report["hyp_len"] == report["ref_len"]
        assert len(report["precisions"]) == 4
        capsys.readouterr()

    def test_bleu_lowercase_flag(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", "SATU DUA TIGA AMPEK LIMO\n")
        ref = write(tmp_path / "r.txt", "satu dua tiga ampek limo\n")
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref]) == 0
        assert capsys.readouterr().out.strip() != "bleu 100.00"
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref,
                    "--lowercase"]) == 0
        assert capsys.readouterr().out.strip() == "bleu 100.00"

    def test_bleu_lowercases_tokens_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def recording_bleu(hypotheses, references, lowercase=False):
            calls.append((hypotheses, references, lowercase))
            return bleu(hypotheses, references, lowercase=lowercase)

        monkeypatch.setattr(cli, "bleu", recording_bleu)
        hyp = write(tmp_path / "h.txt", "SATU Dua\n")
        ref = write(tmp_path / "r.txt", "satu dua\n")
        out = tmp_path / "bleu.json"
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref, "--lowercase",
                    "--out", str(out)]) == 0
        # the tokens reach bleu as read; bleu lowercases them
        assert calls == [([["SATU", "Dua"]], [["satu", "dua"]], True)]
        assert json.loads(out.read_text())["lowercased"] is True
        capsys.readouterr()

    def test_bleu_no_tokenize_splits_on_spaces(self, tmp_path, capsys):
        # with tokenization "x." matches "x ."; pre-tokenized it does not
        hyp = write(tmp_path / "h.txt", "satu dua tiga ampek x.\n")
        ref = write(tmp_path / "r.txt", "satu dua tiga ampek x .\n")
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref]) == 0
        tokenized = capsys.readouterr().out.strip()
        assert tokenized == "bleu 100.00"
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref,
                    "--no-tokenize"]) == 0
        assert capsys.readouterr().out.strip() != "bleu 100.00"

    def test_bleu_line_count_mismatch(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", "a\nb\n")
        ref = write(tmp_path / "r.txt", "a\n")
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref]) == 1
        assert "lines" in capsys.readouterr().err

    def test_rouge_mean(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", "a b c\n")
        ref = write(tmp_path / "r.txt", "a b d\n")
        assert run(["eval", "rouge", "--hyp", hyp, "--ref", ref]) == 0
        assert capsys.readouterr().out.strip() == "rouge1_f1 0.6667"

    def test_rouge_lowercase_flag(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", "A B c\n")
        ref = write(tmp_path / "r.txt", "a b d\n")
        assert run(["eval", "rouge", "--hyp", hyp, "--ref", ref]) == 0
        assert capsys.readouterr().out.strip() == "rouge1_f1 0.0000"
        assert run(["eval", "rouge", "--hyp", hyp, "--ref", ref, "--lowercase"]) == 0
        assert capsys.readouterr().out.strip() == "rouge1_f1 0.6667"

    def test_stats_from_corpus(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.tsv", "A b.\tX y z.\t0.8\td1\n")
        assert run(["eval", "stats", "--corpus", corpus]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["side_a"]["sentences"] == 1
        assert payload["side_b"]["mean_words"] == 4.0

    def test_stats_from_two_files(self, tmp_path, capsys):
        side_a = write(tmp_path / "a.txt", "A b.\nC d e.\n")
        side_b = write(tmp_path / "b.txt", "X.\n")
        assert run(["eval", "stats", "--side-a", side_a, "--side-b", side_b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["side_a"]["sentences"] == 2
        assert payload["side_b"]["sentences"] == 1

    def test_stats_source_flags_conflict(self, tmp_path, capsys):
        corpus = write(tmp_path / "c.tsv", "A.\tB.\t0.9\td\n")
        side = write(tmp_path / "a.txt", "A.\n")
        assert run(["eval", "stats", "--corpus", corpus, "--side-a", side]) == 1
        assert run(["eval", "stats", "--side-a", side]) == 1
        capsys.readouterr()

    def test_bleu_has_no_jobs_flag(self, tmp_path, capsys):
        # no command runs a worker pool, so none takes --jobs
        for command in ("eval bleu", "mine sents", "mine all"):
            assert run(command_argv(command, tmp_path) + ["--jobs", "2"]) == 2, command
            assert "--jobs" in capsys.readouterr().err

    def test_judge_summary_line(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "5\n4\n")
        b = write(tmp_path / "b.txt", "4\n5\n")
        assert run(["eval", "judge", "--scores-a", a, "--scores-b", b]) == 0
        assert capsys.readouterr().out.strip() == "mean 4.50 pearson -1.0000"

    def test_judge_undefined_agreement(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "5\n5\n5\n")
        assert run(["eval", "judge", "--scores-a", a, "--scores-b", a]) == 0
        assert capsys.readouterr().out.strip() == "mean 5.00 pearson undefined"

    def test_judge_rejects_bad_score(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "5\nsix\n")
        assert run(["eval", "judge", "--scores-a", a, "--scores-b", a]) == 1
        assert "a.txt:2" in capsys.readouterr().err


class TestSent:
    def test_bpe_model_file(self, tmp_path, capsys):
        src = write(tmp_path / "text.txt", "aaab aaab\naaab caab\n")
        out = tmp_path / "bpe.json"
        assert run(["sent", "bpe", "--in", src, "--out", str(out),
                    "--vocab-size", "8"]) == 0
        model = json.loads(out.read_text())
        assert model["vocab_size"] == 8
        assert model["merges"][0] == ["a", "a"]
        capsys.readouterr()

    def test_cv_report(self, tmp_path, capsys):
        data = cv_data(tmp_path)
        out = tmp_path / "report.json"
        assert run(["sent", "cv", "--data", data, "--mode", "train-tgt/test-tgt",
                    "--vocab-size", "120", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "train-tgt/test-tgt"
        assert report["mean_f1_positive"] == 1.0
        assert len(report["folds"]) == 5
        err = capsys.readouterr().err
        assert "mean_f1_positive 1.0000" in err
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["seed"] == 13
        assert manifest["config"]["mode"] == "train-tgt/test-tgt"

    def test_cv_rejects_missing_dictionary(self, tmp_path, capsys):
        data = cv_data(tmp_path)
        assert run(["sent", "cv", "--data", data,
                    "--mode", "train-src/test-w2w"]) == 1
        assert "dictionary" in capsys.readouterr().err

    def test_cv_nan_ratio_is_one_line_error(self, tmp_path, capsys):
        data = cv_data(tmp_path)
        assert run(["sent", "cv", "--data", data, "--mode", "train-tgt/test-tgt",
                    "--ratios", "nan,0.1,0.2"]) == 1
        assert capsys.readouterr().err == ("lexmine: ratios must be non-negative and sum "
                                           "to 1, got (nan, 0.1, 0.2)\n")

    @pytest.mark.parametrize("algorithm, grid", [
        ("nb", "nb_alpha_grid"), ("lr", "lr_epoch_grid"), ("lr", "lr_l2_grid")])
    def test_cv_empty_grid_is_one_line_error(self, tmp_path, capsys, algorithm, grid):
        data = cv_data(tmp_path)
        cfg = write(tmp_path / "run.cfg", f"{grid}=\n")
        assert run(["sent", "cv", "--data", data, "--mode", "train-tgt/test-tgt",
                    "--algorithm", algorithm, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"lexmine: {grid} must hold at least one value\n"

    @pytest.mark.parametrize("algorithm, setting, message", [
        ("nb", "nb_alpha_grid=nan", "nb_alpha_grid values must be finite and > 0, got (nan,)"),
        ("nb", "nb_alpha_grid=0.5,inf", "nb_alpha_grid values must be finite and > 0, "
                                        "got (0.5, inf)"),
        ("lr", "lr_epoch_grid=0,50", "lr_epoch_grid values must be >= 1, got (0, 50)"),
        ("lr", "lr_l2_grid=nan", "l2_strength must be >= 0, got nan"),
        ("lr", "lr_learning_rate=nan", "learning rate must be > 0, got nan"),
        ("lr", "lr_learning_rate=1e160", "non-finite loss at epoch 1")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cv_bad_training_value_is_one_line_error(self, tmp_path, capsys,
                                                     algorithm, setting, message):
        data = cv_data(tmp_path)
        cfg = write(tmp_path / "run.cfg", setting + "\n")
        assert run(["sent", "cv", "--data", data, "--mode", "train-tgt/test-tgt",
                    "--algorithm", algorithm, "--vocab-size", "120", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"lexmine: {message}\n"

    def test_cv_invalid_mode_is_usage_error(self, tmp_path, capsys):
        data = cv_data(tmp_path)
        assert run(["sent", "cv", "--data", data, "--mode", "nope"]) == 2
        capsys.readouterr()

    def test_cv_same_seed_reproduces(self, tmp_path, capsys):
        data = cv_data(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(["sent", "cv", "--data", data, "--mode", "train-tgt/test-tgt",
                    "--vocab-size", "120", "--seed", "1", "--out", str(out_a)]) == 0
        assert run(["sent", "cv", "--data", data, "--mode", "train-tgt/test-tgt",
                    "--vocab-size", "120", "--seed", "1", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        capsys.readouterr()


class TestManifestHygiene:
    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", POEM + "\n")
        out = tmp_path / "bleu.json"
        run(["eval", "bleu", "--hyp", hyp, "--ref", hyp, "--out", str(out)])
        manifest_path = tmp_path / "bleu.json.manifest.json"
        first = manifest_path.read_bytes()
        run(["eval", "bleu", "--hyp", hyp, "--ref", hyp, "--out", str(out)])
        assert manifest_path.read_bytes() == first
        capsys.readouterr()

    def test_timing_lives_in_sidecar(self, tmp_path, capsys):
        src, tgt, d = identity_docs(tmp_path)
        out = tmp_path / "corpus.tsv"
        run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
             "--out", str(out)])
        manifest = json.loads((tmp_path / "corpus.tsv.manifest.json").read_text())
        assert "timing" not in manifest
        sidecar = json.loads((tmp_path / "corpus.tsv.timing.json").read_text())
        assert sidecar["timing"]["total_s"] >= 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_writes_one_epilogue(self, tmp_path, capsys, command):
        argv = command_argv(command, tmp_path)
        manifest_path = tmp_path / "out.manifest.json"
        assert run(argv) == 0
        first = manifest_path.read_bytes()
        manifest = json.loads(first)
        assert manifest["command"] == command
        assert "timing" not in manifest
        sidecar = json.loads((tmp_path / "out.timing.json").read_text())
        assert sidecar["command"] == command
        assert sidecar["timing"]["total_s"] >= 0
        assert run(argv) == 0
        assert manifest_path.read_bytes() == first
        capsys.readouterr()

    def test_explicit_manifest_path(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "a\tb\n")
        out = tmp_path / "built.tsv"
        manifest = tmp_path / "custom.manifest.json"
        assert run(["dict", "build", "--in", d, "--out", str(out),
                    "--manifest", str(manifest)]) == 0
        assert json.loads(manifest.read_text())["command"] == "dict build"
        capsys.readouterr()

    def test_version_field_present(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "a\tb\n")
        out = tmp_path / "built.tsv"
        run(["dict", "build", "--in", d, "--out", str(out)])
        manifest = json.loads((tmp_path / "built.tsv.manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["tool"] == "lexmine"
        assert manifest["version"]
        capsys.readouterr()


def key_paths(payload, prefix=""):
    """Dotted paths of every key in a JSON object; lists of objects as `name[]`."""
    paths = set()
    for key, value in payload.items():
        path = prefix + key
        if isinstance(value, dict):
            paths |= key_paths(value, path + ".")
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for item in value:
                paths |= key_paths(item, path + "[].")
        else:
            paths.add(path)
    return paths


ENVELOPE = {"command", "config", "counts", "inputs", "outputs", "schema_version", "tool",
            "version"}
MINING_CONFIG = {"align_threshold", "one_to_one", "trigram_cap", "trigram_top_k"}
MINING_COUNTS = {"aligned_pairs", "document_pairs", "final_pairs", "source_documents",
                 "source_sentences", "target_documents"}
OOV_SUMMARY = {"oov_rate", "oov_tokens", "sentences", "total_tokens", "zero_denominator"}
SIDE_STATS = {"mean_chars", "mean_words", "sentences", "std_chars", "std_words", "vocab_size"}
CV_CONFIG = {"algorithm", "bpe_vocab_size", "folds", "lr_epoch_grid", "lr_l2_grid",
             "lr_learning_rate", "nb_alpha_grid", "ratios", "seed"}
CV_FOLD = {"fold", "dev_f1", "f1_macro", "f1_positive", "chosen.alpha", "sizes.train",
           "sizes.dev", "sizes.test", "grid_trace[].dev_f1", "grid_trace[].params.alpha"}

# command -> (manifest config keys, manifest counts keys, key paths of the
# JSON report: at --out, or at <out>.oov.json for w2w; None when --out is
# not JSON)
RECORD_SCHEMA = {
    "dict build": ({"direction"}, {"entries"}, None),
    "dict filter": ({"lexicon"}, {"entries_after", "entries_before", "lexicon_words"}, None),
    "dict invert": ({"direction"}, {"entries_after", "entries_before"}, None),
    "dict stats": (set(), {"entries"},
                   {"direction", "entries", "identical_entries", "identity_ratio",
                    "targets_with_multiple_sources"}),
    "w2w": ({"max_len"}, OOV_SUMMARY, OOV_SUMMARY),
    "mine docs": (set(), {"document_pairs", "source_documents", "target_documents"}, None),
    "mine sents": ({"align_threshold", "one_to_one"}, MINING_COUNTS, None),
    "mine filter": ({"trigram_cap", "trigram_top_k"}, {"pairs_after", "pairs_before"}, None),
    "mine all": (MINING_CONFIG, MINING_COUNTS, None),
    "eval bleu": ({"lowercase", "no_tokenize"}, {"segments"},
                  {"bleu", "bp", "hyp_len", "lowercased", "precisions", "ref_len",
                   "zero_length"}),
    "eval rouge": ({"lowercase"}, {"segments"},
                   {"lines", "lowercased", "mean_f1", "mean_precision", "mean_recall"}),
    "eval stats": (set(), {"sentences_a", "sentences_b"},
                   {"empty", "overlapping_vocab", "std_kind",
                    *(f"side_{side}.{key}" for side in "ab" for key in SIDE_STATS)}),
    "eval judge": (set(), {"items"}, {"items", "mean_score", "pearson", "pearson_defined"}),
    "sent bpe": ({"vocab_size"}, {"lines", "merges"}, {"merges", "vocab_size"}),
    "sent cv": ({"mode", *CV_CONFIG}, {"folds", "rows"},
                {"mode", "mean_f1_macro", "mean_f1_positive",
                 *(f"config.{key}" for key in CV_CONFIG),
                 *(f"folds[].{key}" for key in CV_FOLD)}),
}


class TestRecordSchema:
    """Every JSON record's keys, pinned: a renamed or added field fails here."""

    def test_covers_every_command(self):
        assert sorted(RECORD_SCHEMA) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_record_keys(self, tmp_path, capsys, command):
        config_keys, counts_keys, report_paths = RECORD_SCHEMA[command]
        assert run(command_argv(command, tmp_path)) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        envelope = ENVELOPE | ({"seed"} if command == "sent cv" else set())
        assert set(manifest) == envelope
        assert set(manifest["config"]) == config_keys
        assert set(manifest["counts"]) == counts_keys
        if report_paths is not None:
            report = tmp_path / ("out.oov.json" if command == "w2w" else "out")
            assert key_paths(json.loads(report.read_text())) == report_paths
        capsys.readouterr()


# junk text: separators, comment marks, JSON fragments, numbers and
# non-ASCII text; junk config files also set real keys to junk values
JUNK_PIECES = ["\t", "|", "#", "=", "\n", " ", "{", "}", "[", "]", '"', ":", ",", "null",
               '{"id": 1, "title": "T", "text": "A b."}', "0", "42", "-3.5", "nan", "inf",
               "a", "B", ".", "é", "Ünï", "漢字", "😀", "positive"]
# `jobs` is no setting of any command: it stands for a key that is ignored
SETTING_NAMES = ["direction", "max_len", "threshold", "trigram_top", "trigram_cap",
                 "one_to_one", "jobs", "lowercase", "no_tokenize", "vocab_size", "algorithm",
                 "folds", "ratios", "seed", "nb_alpha_grid", "lr_epoch_grid", "lr_l2_grid",
                 "lr_learning_rate"]
junk_st = st.lists(st.sampled_from(JUNK_PIECES), max_size=30).map("".join)
junk_config_st = st.lists(st.tuples(st.sampled_from(SETTING_NAMES), junk_st), max_size=4).map(
    lambda rows: "\n".join(f"{key}={value}" for key, value in rows))


class TestInputRobustness:
    def test_non_utf8_input_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\n\xff\xfe\n")
        bad = str(bad)
        for argv in (["eval", "bleu", "--hyp", bad, "--ref", bad],
                     ["mine", "filter", "--in", bad, "--out", str(tmp_path / "f.tsv")],
                     ["dict", "build", "--in", bad, "--out", str(tmp_path / "d.tsv")],
                     ["sent", "cv", "--data", bad, "--mode", "train-tgt/test-tgt"]):
            assert run(argv) == 1
            assert capsys.readouterr().err == f"lexmine: {bad}:2: not valid UTF-8\n"

    def test_empty_corpus_column_names_the_line(self, tmp_path, capsys):
        corpus = write(tmp_path / "corpus.tsv", "\tX y.\t0.5\td1\n")
        for argv in (["mine", "filter", "--in", corpus, "--out", str(tmp_path / "f.tsv")],
                     ["eval", "stats", "--corpus", corpus]):
            assert run(argv) == 1
            assert capsys.readouterr().err == f"lexmine: {corpus}:1: empty source sentence\n"

    def test_non_object_document_line(self, tmp_path, capsys):
        _, tgt, d = identity_docs(tmp_path)
        src = write(tmp_path / "src.jsonl", "5\n")
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--out", str(tmp_path / "corpus.tsv")]) == 1
        assert capsys.readouterr().err == f"lexmine: {src}:1: expected a JSON object\n"

    @settings(max_examples=15, deadline=None)
    @given(data=junk_st, config=st.one_of(junk_st, junk_config_st))
    def test_junk_files_exit_cleanly(self, data, config):
        # every command, with each input file and its --config file replaced
        # by junk, ends with a status (no exception escapes `run`)
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            for command in COMMANDS:
                argv = command_argv(command, scratch)
                for path in scratch.iterdir():
                    path.write_text(data, encoding="utf-8")
                cfg = write(scratch / "junk.cfg", config)
                assert run(argv + ["--config", cfg]) in (0, 1, 2), command

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(st.text(max_size=4), min_size=1, max_size=3),
           text=st.text(max_size=40))
    def test_mine_sents_output_reads_back_in_mine_filter(self, ids, text):
        # whatever `mine sents` writes, `mine filter` reads back unchanged;
        # an id that would break a TSV row is rejected before anything is written
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            docs = [({"id": doc_id, "title": f"T{i}", "text": text},
                     {"id": f"t{i}", "title": f"t{i}", "text": text})
                    for i, doc_id in enumerate(ids)]
            src = write_docs(scratch / "src.jsonl", [s for s, _ in docs])
            tgt = write_docs(scratch / "tgt.jsonl", [t for _, t in docs])
            d = write(scratch / "dict.tsv", "a\ta\n")
            sents = scratch / "sents.tsv"
            code = run(["mine", "sents", "--src", src, "--tgt", tgt, "--dict", d,
                        "--threshold", "0", "--out", str(sents)])
            if any(ch in doc_id for doc_id in ids for ch in "\t\n\r"):
                assert code == 1
                assert not sents.exists()
                return
            assert code == 0
            kept = scratch / "kept.tsv"
            assert run(["mine", "filter", "--in", str(sents), "--out", str(kept)]) == 0
            assert kept.read_bytes() == sents.read_bytes()


@pytest.mark.parametrize("module", ["lexmine", "lexmine.cli"])
def test_python_dash_m_entry_point(module):
    package_root = str(Path(lexmine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", module, "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"lexmine {lexmine.__version__}"
