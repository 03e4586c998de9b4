"""End-to-end command-line behavior: exit codes, files, manifests."""
from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import hashlib
import io
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lexmine
from lexmine import cli
from lexmine.cli import run
from lexmine.dictionary import (
    BilingualDictionary,
    filter_by_lexicon,
    invert,
    load_dictionary,
    load_lexicon,
)
from lexmine.errors import ParseError
from lexmine.metrics import bleu
from lexmine.textproc import normalize

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


def same_text_docs(tmp_path, ids, text):
    """Source documents with the given ids and target documents paired with
    them by title, every one holding `text`."""
    src = write_docs(tmp_path / "src.jsonl", [{"id": doc_id, "title": f"T{i}", "text": text}
                                              for i, doc_id in enumerate(ids)])
    tgt = write_docs(tmp_path / "tgt.jsonl", [{"id": f"t{i}", "title": f"t{i}", "text": text}
                                              for i in range(len(ids))])
    return src, tgt


def identity_docs(tmp_path, n=2, sentences="A b c. C d e."):
    src, tgt = same_text_docs(tmp_path, [f"s{i}" for i in range(n)], sentences)
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

    def test_stray_os_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        # an input that vanishes between the run and its manifest
        def vanished(path):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))

        monkeypatch.setattr(lexmine.manifest, "sha256_file", vanished)
        d = write(tmp_path / "d.tsv", "a\tb\n")
        assert run(["dict", "stats", "--dict", d]) == 1
        assert capsys.readouterr().err == f"lexmine: {d}: No such file or directory\n"


@contextlib.contextmanager
def collector(enabled):
    """The cyclic garbage collector switched on or off, then as it was."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case, status", [("success", 0), ("lexmine error", 1),
                                              ("os error", 1), ("usage error", 2)])
    def test_run_restores_the_callers_collector(self, tmp_path, capsys, monkeypatch,
                                                 enabled, case, status):
        # the collector is paused while the command works, and left as the
        # caller had it on every way out of `run`
        paused = []

        def recording_load(*args, **kwargs):
            paused.append(not gc.isenabled())
            return load_dictionary(*args, **kwargs)

        def vanished(path):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))

        monkeypatch.setattr(cli, "load_dictionary", recording_load)
        d = write(tmp_path / "d.tsv", "broken\n" if case == "lexmine error" else "a\tb\n")
        if case == "os error":
            monkeypatch.setattr(lexmine.manifest, "sha256_file", vanished)
        argv = ["dict", "stats"] + ([] if case == "usage error" else ["--dict", d])
        with collector(enabled):
            assert run(argv) == status
            assert gc.isenabled() == enabled
        assert paused == ([] if case == "usage error" else [True])
        capsys.readouterr()


def cycle_argv(command, tmp_path, n):
    """Arguments that run `command` on inputs of about `n` rows, with --out
    tmp_path/out; `sent cv` names its algorithm as a third word."""
    tmp_path.mkdir()
    words = command.split()
    if command == "mine all":
        src, tgt, d = identity_docs(tmp_path, n)
        args = ["--src", src, "--tgt", tgt, "--dict", d, "--trigram-cap", "2"]
    elif words[0] == "sent":
        words, algorithm = words[:2], words[2]
        args = ["--data", cv_data(tmp_path, n), "--mode", "train-tgt/test-tgt",
                "--vocab-size", "120", "--algorithm", algorithm]
    else:
        d = write(tmp_path / "dict.tsv", "".join(f"W{i}\tt{i}|u{i % 5}\n" for i in range(n)))
        lines = write(tmp_path / "lines.txt", "".join(
            f"W{i} dua {i}, tiga. Ampek w{i % 7} limo.\n" for i in range(n)))
        corpus = write(tmp_path / "corpus.tsv", "".join(
            f"The stub article {i % 3} of the day {i % 50}.\tX y {i}.\t{i / n:.6f}\ts{i}\n"
            for i in range(n)))
        args = {"dict build": ["--in", d],
                "w2w": ["--dict", d, "--in", lines],
                "mine filter": ["--in", corpus, "--trigram-cap", "2"],
                "eval bleu": ["--hyp", lines, "--ref", lines],
                "eval stats": ["--corpus", corpus]}[command]
    return [*words, *args, "--out", str(tmp_path / "out")]


class TestNoReferenceCycles:
    """`run` pauses the cyclic collector, which is safe only while the data
    a command builds forms no reference cycles: reference counting frees
    everything else. So the cyclic garbage one run leaves (argparse's parser,
    built once per run) must not grow with the input."""

    @pytest.mark.parametrize("command, n", [
        ("dict build", 40), ("w2w", 40), ("mine filter", 40), ("mine all", 4),
        ("eval bleu", 40), ("eval stats", 40), ("sent cv nb", 20), ("sent cv lr", 20)])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path, capsys, command, n):
        def cyclic_garbage(size, name):
            argv = cycle_argv(command, tmp_path / name, size)
            gc.collect()
            assert run(argv) == 0
            return gc.collect()

        with collector(False):
            cyclic_garbage(n, "warm-up")  # first imports and caches
            small, large = cyclic_garbage(n, "small"), cyclic_garbage(10 * n, "large")
        capsys.readouterr()
        assert small == large, (small, large)


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

    def test_build_rejects_bad_direction(self, tmp_path, capsys):
        raw = write(tmp_path / "raw.tsv", "a\tx\n")
        assert run(["dict", "build", "--in", raw, "--out", str(tmp_path / "dict.tsv"),
                    "--direction", "a:b:c"]) == 1
        assert capsys.readouterr().err == (
            "lexmine: direction must look like src:tgt, got 'a:b:c'\n")
        assert os.listdir(tmp_path) == ["raw.tsv"]
        assert os.listdir() == []

    def test_build_rejects_word_that_cannot_be_written_back(self, tmp_path, capsys):
        raw = write(tmp_path / "raw.tsv", "x\t#foo\n")
        assert run(["dict", "build", "--in", raw, "--out", str(tmp_path / "dict.tsv")]) == 1
        assert capsys.readouterr().err == (
            f"lexmine: {raw}:1: word holds '|' or starts with '#': '#foo'\n")
        assert os.listdir(tmp_path) == ["raw.tsv"]

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

    def test_stats_to_stdout(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "a\ta\nb\tc\n")
        assert run(["dict", "stats", "--dict", d]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["identity_ratio"] == 0.5

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

    def test_negative_max_len_rejected(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "w\tw\n")
        src = write(tmp_path / "in.txt", "w\n")
        assert run(["w2w", "--dict", d, "--in", src, "--out", str(tmp_path / "out.txt"),
                    "--max-len", "-1"]) == 1
        assert capsys.readouterr().err == "lexmine: max-len must be >= 0, got -1\n"
        assert sorted(os.listdir(tmp_path)) == ["d.tsv", "in.txt"]
        assert os.listdir() == []

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

    def test_config_file_true(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", "A B C D\n")
        ref = write(tmp_path / "r.txt", "a b c d\n")
        cfg = write(tmp_path / "run.cfg", "lowercase=true\n")
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref, "--config", cfg]) == 0
        assert capsys.readouterr().out == "bleu 100.00\n"

    def test_config_file_false(self, tmp_path, capsys):
        # both source sentences align best to the one target sentence
        src = write_docs(tmp_path / "src.jsonl", [{"id": "s0", "title": "T",
                                                   "text": "A b c. A b d."}])
        tgt = write_docs(tmp_path / "tgt.jsonl", [{"id": "t0", "title": "T", "text": "A b c."}])
        d = write(tmp_path / "d.tsv", "a\ta\nb\tb\nc\tc\nd\td\n")
        argv = ["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                "--out", str(tmp_path / "c.tsv")]
        assert run(argv) == 0
        assert (tmp_path / "c.tsv").read_text() == "A b c.\tA b c.\t1.000000\ts0\n"
        cfg = write(tmp_path / "run.cfg", "one_to_one=false\n")
        assert run(argv + ["--config", cfg]) == 0
        assert (tmp_path / "c.tsv").read_text() == ("A b c.\tA b c.\t1.000000\ts0\n"
                                                    "A b d.\tA b c.\t0.750000\ts0\n")
        capsys.readouterr()

    def test_malformed_config_line(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        cfg = write(tmp_path / "run.cfg", "trigram_cap 10\n")
        assert run(["mine", "filter", "--in", corpus,
                    "--out", str(tmp_path / "k.tsv"), "--config", cfg]) == 1
        assert "run.cfg:1" in capsys.readouterr().err

    def test_key_given_twice(self, tmp_path, capsys):
        corpus = self.corpus(tmp_path)
        cfg = write(tmp_path / "run.cfg", "trigram_cap = 10\n# again\ntrigram_cap=20\n")
        before = sorted(tmp_path.iterdir())
        assert run(["mine", "filter", "--in", corpus,
                    "--out", str(tmp_path / "k.tsv"), "--config", cfg]) == 1
        assert capsys.readouterr().err == f"lexmine: {cfg}:3: key 'trigram_cap' given twice\n"
        assert sorted(tmp_path.iterdir()) == before


class TestMalformedConfig:
    """Every command parses its whole --config file, also one that resolves no setting."""

    @pytest.mark.parametrize("command", ["dict filter", "dict invert", "dict stats",
                                         "mine docs", "eval stats", "eval judge"])
    def test_refused_before_anything_is_written(self, tmp_path, capsys, command):
        argv = command_argv(command, tmp_path) + [
            "--config", write(tmp_path / "bad.cfg", "this is not key value\n")]
        before = sorted(tmp_path.iterdir())
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"lexmine: {tmp_path / 'bad.cfg'}:1: expected key=value, "
                                "got 'this is not key value'\n")
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before
        assert list(Path().iterdir()) == []  # no default manifest in the CWD either

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_key_refused(self, tmp_path, capsys, command):
        argv = command_argv(command, tmp_path) + [
            "--config", write(tmp_path / "run.cfg", "# misspelled\nlr_l2grid=0.5\n")]
        before = sorted(tmp_path.iterdir())
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"lexmine: {tmp_path / 'run.cfg'}:2: unknown key 'lr_l2grid'\n")
        assert sorted(tmp_path.iterdir()) == before
        assert list(Path().iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_other_commands_key_is_allowed(self, tmp_path, capsys, command):
        # one file may serve several commands: a key that this command does
        # not apply changes nothing it records but the config file's digest
        key = "direction=a:b" if command != "dict build" else "max_len=3"
        argv = command_argv(command, tmp_path)
        assert run(argv) == 0
        plain = json.loads((tmp_path / "out.manifest.json").read_text())
        assert run(argv + ["--config", write(tmp_path / "run.cfg", key + "\n")]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest["config"] == plain["config"]
        assert manifest["counts"] == plain["counts"]
        capsys.readouterr()


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

    def test_config_jobs_key_is_refused(self, tmp_path, capsys):
        # mining runs in one process and no command has a jobs setting, so a
        # jobs key is refused with its line before anything is written
        src, tgt, d = identity_docs(tmp_path)
        cfg = write(tmp_path / "run.cfg", "threshold=0.5\njobs=0\n")
        before = sorted(tmp_path.iterdir())
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--config", cfg, "--out", str(tmp_path / "corpus.tsv")]) == 1
        assert capsys.readouterr().err == f"lexmine: {cfg}:2: unknown key 'jobs'\n"
        assert sorted(tmp_path.iterdir()) == before

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
        folds = []

        def recording_bleu(hypotheses, references):
            hypotheses, references = list(hypotheses), list(references)
            calls.append((hypotheses, references))
            return bleu(hypotheses, references)

        def recording_normalize(tokens):
            folds.append(tokens)
            return normalize(tokens)

        monkeypatch.setattr(cli, "bleu", recording_bleu)
        monkeypatch.setattr(cli, "normalize", recording_normalize)
        hyp = write(tmp_path / "h.txt", "SATU Dua\n")
        ref = write(tmp_path / "r.txt", "satu dua\n")
        out = tmp_path / "bleu.json"
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref, "--lowercase",
                    "--out", str(out)]) == 0
        # each line's tokens are lowercased once, as read; bleu scores them as given
        assert folds == [["SATU", "Dua"], ["satu", "dua"]]
        assert calls == [([["satu", "dua"]], [["satu", "dua"]])]
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

    def test_bleu_no_tokenize_splits_on_any_whitespace(self, tmp_path, capsys):
        # a tab and U+2028 (a line separator that does not end a line of the
        # file) separate tokens just as a space does
        hyp = write(tmp_path / "h.txt", "satu\tdua\u2028tiga ampek\n")
        ref = write(tmp_path / "r.txt", "satu dua tiga ampek\n")
        out = tmp_path / "bleu.json"
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref, "--no-tokenize",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "bleu 100.00"
        assert json.loads(out.read_text())["hyp_len"] == 4

    def test_bleu_line_count_mismatch(self, tmp_path, capsys):
        long = write(tmp_path / "long.txt", "a\nb\n")
        short = write(tmp_path / "short.txt", "a\n")
        for hyp, hyp_lines, ref, ref_lines in ((long, 2, short, 1), (short, 1, long, 2)):
            assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref]) == 1
            assert capsys.readouterr().err == (
                f"lexmine: {hyp} has {hyp_lines} lines but {ref} has {ref_lines}\n")

    def test_bleu_empty_hyp(self, tmp_path, capsys):
        hyp = write(tmp_path / "h.txt", "")
        ref = write(tmp_path / "r.txt", "")
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref]) == 1
        assert capsys.readouterr().err == f"lexmine: {hyp} is empty\n"

    def test_bleu_bad_utf8_in_ref_only(self, tmp_path, capsys):
        # the files also differ in length: the encoding check comes first
        hyp = write(tmp_path / "h.txt", "a\nb\nc\n")
        ref = tmp_path / "r.txt"
        ref.write_bytes(b"a\n\xff\n")
        assert run(["eval", "bleu", "--hyp", hyp, "--ref", str(ref)]) == 1
        assert capsys.readouterr().err == f"lexmine: {ref}:2: not valid UTF-8\n"

    def test_bleu_memory_does_not_grow_with_the_test_set(self, tmp_path, capsys):
        # eval bleu holds one line per file at a time, so a test set ten
        # times longer leaves its traced peak about where it was
        def traced_peak(lines):
            hyp = write(tmp_path / f"h{lines}.txt",
                        "".join(f"Satu {i} dua .\n" for i in range(lines)))
            ref = write(tmp_path / f"r{lines}.txt",
                        "".join(f"satu {i} dua .\n" for i in range(lines)))
            tracemalloc.start()
            try:
                assert run(["eval", "bleu", "--hyp", hyp, "--ref", ref, "--lowercase"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(400), traced_peak(4_000)
        capsys.readouterr()
        assert large <= 1.5 * small, (small, large)

    def test_filter_memory_stays_near_the_input_size(self, tmp_path, capsys):
        # stub-article rows "X adalah <kind> di <place>, <region>." whose
        # slots are drawn Zipfian, so frequent values make over-cap
        # trigrams, with scores that tie. mine filter holds the rows and,
        # until ranking, each row's distinct trigrams as a tuple: about 16
        # times the file here; a set per row would take about 25 times it
        rng = random.Random(1)

        def words(count):
            return ["".join(rng.choice("bdgklmnprst") + rng.choice("aiou")
                            for _ in range(rng.randint(2, 4))) for _ in range(count)]

        def zipf(count, exponent):
            pool = words(count)
            weights = list(itertools.accumulate(rank ** -exponent
                                                for rank in range(1, count + 1)))
            return lambda: rng.choices(pool, cum_weights=weights)[0]

        kind, place, region = zipf(600, 0.9), zipf(4000, 1.0), zipf(800, 1.1)
        rows = []
        for n, name in enumerate(words(6000)):
            src = f"{name.capitalize()} adalah {kind()} di {place()}, {region()}."
            rows.append(f"{src}\t{src}\t{rng.randint(500, 1000) / 1000:.6f}\td{n // 3}\n")
        corpus = write(tmp_path / "corpus.tsv", "".join(rows))
        tracemalloc.start()
        try:
            assert run(["mine", "filter", "--in", corpus, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 18 * os.path.getsize(corpus), (peak, os.path.getsize(corpus))

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

    def test_judge_score_count_mismatch(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "5\n4\n3\n")
        b = write(tmp_path / "b.txt", "5\n4\n")
        assert run(["eval", "judge", "--scores-a", a, "--scores-b", b]) == 1
        assert capsys.readouterr().err == f"lexmine: {a} has 3 scores but {b} has 2\n"

    def test_judge_rejects_bad_score(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "5\nsix\n")
        assert run(["eval", "judge", "--scores-a", a, "--scores-b", a]) == 1
        assert "a.txt:2" in capsys.readouterr().err

    def test_judge_names_out_of_range_score_in_a(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "5\n7\n")
        b = write(tmp_path / "b.txt", "5\n4\n")
        assert run(["eval", "judge", "--scores-a", a, "--scores-b", b]) == 1
        assert capsys.readouterr().err == f"lexmine: {a}:2: expected a score in 1..5, got 7\n"

    def test_judge_names_out_of_range_score_in_b(self, tmp_path, capsys):
        a = write(tmp_path / "a.txt", "5\n4\n3\n")
        b = write(tmp_path / "b.txt", "# rater b\n5\n0\n3\n")
        assert run(["eval", "judge", "--scores-a", a, "--scores-b", b]) == 1
        assert capsys.readouterr().err == f"lexmine: {b}:3: expected a score in 1..5, got 0\n"


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

    def test_bpe_words_spelling_the_end_marker(self, tmp_path, capsys):
        # merges of "<", "/", "w", ">" once rebuilt the end-of-word marker
        # and chose a pair twice: "duplicate merge rule in BPE model", exit 1
        src = write(tmp_path / "text.txt",
                    "abc</w></</w> abc</w></</w> waw</ ab</ waw</ ab</\n")
        out = tmp_path / "bpe.json"
        assert run(["sent", "bpe", "--in", src, "--out", str(out),
                    "--vocab-size", "21"]) == 0
        assert capsys.readouterr().err == "learned 13 merges from 1 lines\n"
        assert len(json.loads(out.read_text())["merges"]) == 13

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
        for bad in (["--mode", "nope"], ["--mode", "train-tgt/test-tgt", "--algorithm", "nope"]):
            assert run(["sent", "cv", "--data", data, *bad]) == 2
            assert "invalid choice" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["dict stats", "eval bleu", "eval rouge", "eval stats",
                                         "eval judge", "sent cv"])
    def test_default_manifest_name(self, tmp_path, capsys, command):
        # without --out the manifest and its sidecar land in the working directory
        argv = command_argv(command, tmp_path)[:-2]
        assert "--out" not in argv
        assert run(argv) == 0
        slug = command.replace(" ", "-")
        manifest = json.loads(Path(f"lexmine-{slug}.manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["outputs"] == []
        assert json.loads(Path(f"lexmine-{slug}.timing.json").read_text())["command"] == command
        capsys.readouterr()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask-022", "umask-027"])
    def test_outputs_follow_the_umask(self, tmp_path, capsys, umask, mode):
        d = write(tmp_path / "d.tsv", "a\tb\n")
        out = tmp_path / "built.tsv"
        saved = os.umask(umask)
        try:
            assert run(["dict", "build", "--in", d, "--out", str(out)]) == 0
        finally:
            os.umask(saved)
        for path in (out, tmp_path / "built.tsv.manifest.json", tmp_path / "built.tsv.timing.json"):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name
        capsys.readouterr()

    def test_explicit_manifest_path(self, tmp_path, capsys):
        d = write(tmp_path / "d.tsv", "a\tb\n")
        out = tmp_path / "built.tsv"
        manifest = tmp_path / "custom.manifest.json"
        assert run(["dict", "build", "--in", d, "--out", str(out),
                    "--manifest", str(manifest)]) == 0
        assert json.loads(manifest.read_text())["command"] == "dict build"
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["dict stats", "eval stats", "sent cv"])
    def test_stdout_report_equals_out_file(self, tmp_path, capsys, command):
        argv = command_argv(command, tmp_path)
        assert run(argv) == 0
        capsys.readouterr()
        assert run(argv[:-2]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (tmp_path / "out").read_bytes()

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


# the options that name a file a command reads
INPUT_OPTIONS = {"--in", "--dict", "--lexicon", "--src", "--tgt", "--hyp", "--ref", "--corpus",
                 "--side-a", "--side-b", "--scores-a", "--scores-b", "--data", "--config"}


class TestRecordSchema:
    """Every JSON record's keys, pinned: a renamed or added field fails here."""

    def test_covers_every_command(self):
        assert sorted(RECORD_SCHEMA) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_record_keys(self, tmp_path, capsys, command):
        config_keys, counts_keys, report_paths = RECORD_SCHEMA[command]
        argv = command_argv(command, tmp_path) + [
            "--config", write(tmp_path / "run.cfg", "# no settings\n")]
        assert run(argv) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        envelope = ENVELOPE | ({"seed"} if command == "sent cv" else set())
        assert set(manifest) == envelope
        assert set(manifest["config"]) == config_keys
        assert set(manifest["counts"]) == counts_keys
        out = str(tmp_path / "out")
        assert_files(manifest, argv,
                     [out, out + ".oov.json"] if command == "w2w" else [out])
        if report_paths is not None:
            report = tmp_path / ("out.oov.json" if command == "w2w" else "out")
            assert key_paths(json.loads(report.read_text())) == report_paths
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["eval stats", "sent cv", "w2w"])
    def test_optional_files(self, tmp_path, capsys, command):
        # the optional file flags that `command_argv` leaves out
        text = write(tmp_path / "text.txt", POEM + "\n")
        _, _, d = identity_docs(tmp_path)
        out, summary = str(tmp_path / "out"), str(tmp_path / "summary.json")
        argv = {
            "eval stats": ["eval", "stats", "--side-a", text,
                           "--side-b", write(tmp_path / "b.txt", "Satu dua.\n")],
            "sent cv": ["sent", "cv", "--data", cv_data(tmp_path), "--mode", "train-src/test-w2w",
                        "--dict", d, "--vocab-size", "120"],
            "w2w": ["w2w", "--dict", d, "--in", text, "--summary", summary],
        }[command] + ["--out", out]
        assert run(argv) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert_files(manifest, argv, [out, summary] if command == "w2w" else [out])
        capsys.readouterr()


def assert_files(manifest, argv, outputs):
    # exactly the files the command was given to read, and the ones it wrote
    assert set(manifest["inputs"]) == {value for flag, value in zip(argv, argv[1:])
                                       if flag in INPUT_OPTIONS}
    assert manifest["outputs"] == outputs


# inputs on which adding floats left to right and the compensated builtin
# sum() of Python 3.12 and later differ in the last bit: every ROUGE mean,
# and pearson's covariance; the hyp and ref lines also repeat `satu` and
# `tiga` with different counts on each side, so BLEU clips.
# The diagonal pair gives BLEU segments that repeat no bigram on either
# side (a run of three bigrams, a run broken and resumed on another
# diagonal, 1- and 2-token segments) and segments whose hypothesis or
# reference repeats a bigram.
# The stub corpus makes `mine filter --trigram-top 3 --trigram-cap 2` shed
# rows in two rounds: "adalah nagari di" and "di agam ." tie at 7 rows (in
# mixed case), the first sheds five rows across a tie of scores, and then
# "di agam ." still holds three live rows and sheds one, while the dead
# 0.5 row it also held scores lowest.
DRIFT_FILES = {
    "drift_hyp.txt": "tiga\nlimo tujuah\nsatu anam tiga satu ampek tiga\nsatu\n",
    "drift_ref.txt": "tiga\ntiga anam limo\ntiga\nsatu satu\n",
    "drift_a.txt": "3\n5\n2\n",
    "drift_b.txt": "3\n4\n2\n",
    "diagonal_hyp.txt": ("satu dua tiga ampek limo anam\n"
                         "satu dua tiga limo anam tujuah\n"
                         "dua tiga dua tiga ampek\n"
                         "limo anam tujuah\n"
                         "satu dua\n"
                         "tiga\n"
                         "ampek limo anam\n"),
    "diagonal_ref.txt": ("tujuah satu dua tiga ampek salapan anam\n"
                         "limo anam tujuah sapuluah satu dua tiga\n"
                         "dua tiga ampek\n"
                         "limo anam tujuah ampek limo anam\n"
                         "satu dua\n"
                         "tiga\n"
                         "ampek\n"),
    "stubs.tsv": "".join(f"{src}\t{src}\t{score}\td{n // 2}\n" for n, (src, score) in enumerate([
        ("Koto Gadang adalah nagari di Agam.", "0.800000"),
        ("Koto Baru adalah nagari di Agam.", "0.800000"),
        ("KOTO Tuo adalah Nagari di agam.", "0.800000"),
        ("Sungai Puar adalah nagari di Agam.", "0.500000"),
        ("Pandai Sikek adalah nagari di Tanah Datar.", "0.800000"),
        ("Batu Taba adalah nagari di Agam.", "0.950000"),
        ("Pariangan adalah nagari di Tanah Datar.", "0.700000"),
        ("Lintau adalah kecamatan di Tanah Datar.", "0.800000"),
        ("Tilatang Kamang adalah kecamatan di AGAM.", "0.600000"),
        ("Rao adalah kecamatan di Pasaman.", "0.600000"),
        ("Canduang adalah kecamatan di Agam.", "0.900000"),
        ("Pasaman adalah kabupaten di Sumatera Barat.", "0.900000"),
    ])),
}

# (command, extra flags): each command once, and the eval runs whose flags
# change how inputs are read or scored, reach `pearson: null`, or read the
# DRIFT_FILES. `sent cv --algorithm lr` is left out: its floats come from
# numpy's exp and logaddexp, whose last bits may differ between machines.
GOLDEN_RUNS = [(command, ()) for command in COMMANDS] + [
    ("eval bleu", ("--lowercase",)),
    ("eval bleu", ("--no-tokenize",)),
    ("eval bleu", ("--lowercase", "--no-tokenize")),
    ("eval rouge", ("--lowercase",)),
    ("eval judge", ("--scores-b", "constant.txt")),
    ("eval rouge", ("--hyp", "drift_hyp.txt", "--ref", "drift_ref.txt")),
    ("eval judge", ("--scores-a", "drift_a.txt", "--scores-b", "drift_b.txt")),
    ("eval bleu", ("--hyp", "drift_hyp.txt", "--ref", "drift_ref.txt")),
    ("eval bleu", ("--hyp", "diagonal_hyp.txt", "--ref", "diagonal_ref.txt")),
    ("mine filter", ("--in", "stubs.tsv", "--trigram-top", "3", "--trigram-cap", "2")),
]


def golden_digests(command, flags) -> dict[str, str]:
    """Run `command_argv(command)` plus `flags` with paths relative to the
    working directory; return the sha256 (16 hex digits, "" when empty) of
    stdout, stderr and every output file but the timing sidecar. Print it
    for each run in an empty directory to renew `GOLDEN_DIGESTS`."""
    write(Path("constant.txt"), "4\n4\n4\n")
    for name, text in DRIFT_FILES.items():
        write(Path(name), text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(command_argv(command, Path()) + list(flags))
    assert code == 0, stderr.getvalue()
    blobs = {"stdout": stdout.getvalue().encode("utf-8"),
             "stderr": stderr.getvalue().encode("utf-8")}
    blobs.update((path.name, path.read_bytes()) for path in Path().glob("out*")
                 if not path.name.endswith(".timing.json"))
    return {name: hashlib.sha256(blob).hexdigest()[:16] if blob else ""
            for name, blob in sorted(blobs.items())}


GOLDEN_DIGESTS = {
    "dict build": {
        "out": "9a7d489a74922883",
        "out.manifest.json": "07c93c4a32680102",
        "stderr": "b83b9b7ce105913e",
        "stdout": "",
    },
    "dict filter": {
        "out": "9ba2b924c3c8483d",
        "out.manifest.json": "e023d7262e760e82",
        "stderr": "c4d9f807c8c716b8",
        "stdout": "",
    },
    "dict invert": {
        "out": "9a7d489a74922883",
        "out.manifest.json": "1015ee71241cb632",
        "stderr": "a6c72821af157151",
        "stdout": "",
    },
    "dict stats": {
        "out": "881f0cdd8a17ce6c",
        "out.manifest.json": "40efd4f7b7c1c7a0",
        "stderr": "",
        "stdout": "e63108dff77e1464",
    },
    "w2w": {
        "out": "75fa1e46ad4aa290",
        "out.manifest.json": "8c6cd5f770101818",
        "out.oov.json": "fe7697109fdec259",
        "stderr": "2101c3683c854c23",
        "stdout": "",
    },
    "mine docs": {
        "out": "009f8d36e4061ced",
        "out.manifest.json": "61ed382447c6cc6a",
        "stderr": "744868a3b81d4217",
        "stdout": "",
    },
    "mine sents": {
        "out": "4a2a5c1d7261783e",
        "out.manifest.json": "8f66deccf068bb74",
        "stderr": "29aedae404dfd39d",
        "stdout": "",
    },
    "mine filter": {
        "out": "6166e2d0524ba159",
        "out.manifest.json": "05b60a584d235bb0",
        "stderr": "882a0cb24c361433",
        "stdout": "",
    },
    "mine all": {
        "out": "4a2a5c1d7261783e",
        "out.manifest.json": "d81e32b09763f811",
        "stderr": "29aedae404dfd39d",
        "stdout": "",
    },
    "eval bleu": {
        "out": "ec6cb2e388aeaec6",
        "out.manifest.json": "3bad9b08d764de1a",
        "stderr": "",
        "stdout": "94f9fa3d91dd510a",
    },
    "eval rouge": {
        "out": "d00b31b864745de2",
        "out.manifest.json": "a0e8542b2cfd7893",
        "stderr": "",
        "stdout": "8603d9b411336ae5",
    },
    "eval stats": {
        "out": "e95d86f9978a252a",
        "out.manifest.json": "e1a1b7db51ee6019",
        "stderr": "",
        "stdout": "e63108dff77e1464",
    },
    "eval judge": {
        "out": "87bf7686ca19b486",
        "out.manifest.json": "1c760620ea4f95aa",
        "stderr": "",
        "stdout": "a5153bf0b2953822",
    },
    "sent bpe": {
        "out": "8e1eeb5576008755",
        "out.manifest.json": "6dc73f57e20f665a",
        "stderr": "9577f57497c229b4",
        "stdout": "",
    },
    "sent cv": {
        "out": "d3fb9d7cc9cf64a2",
        "out.manifest.json": "abe115088efc189d",
        "stderr": "eb99b1d81c38188c",
        "stdout": "f04984b6dac7cb84",
    },
    "eval bleu --lowercase": {
        "out": "c3e150e68333f8eb",
        "out.manifest.json": "0a37c4227475d3b2",
        "stderr": "",
        "stdout": "94f9fa3d91dd510a",
    },
    "eval bleu --no-tokenize": {
        "out": "1a812e081a9b0cf8",
        "out.manifest.json": "f14cf1846e943eea",
        "stderr": "",
        "stdout": "94f9fa3d91dd510a",
    },
    "eval bleu --lowercase --no-tokenize": {
        "out": "537224dcad6a72e2",
        "out.manifest.json": "56c172f4c28392d2",
        "stderr": "",
        "stdout": "94f9fa3d91dd510a",
    },
    "eval rouge --lowercase": {
        "out": "00853f8c044b8b37",
        "out.manifest.json": "7cfc9459c0cca729",
        "stderr": "",
        "stdout": "8603d9b411336ae5",
    },
    "eval judge --scores-b constant.txt": {
        "out": "c19973b71ad910a0",
        "out.manifest.json": "00e265768fc10f35",
        "stderr": "",
        "stdout": "94ae760b70be922d",
    },
    "eval rouge --hyp drift_hyp.txt --ref drift_ref.txt": {
        "out": "da8dfa27d6c8981a",
        "out.manifest.json": "4a1efbfb919bd897",
        "stderr": "",
        "stdout": "5ea874ab0dc5cbeb",
    },
    "eval judge --scores-a drift_a.txt --scores-b drift_b.txt": {
        "out": "34638f347c4ecf15",
        "out.manifest.json": "187d8274525b886e",
        "stderr": "",
        "stdout": "80753ef4faf454a1",
    },
    "eval bleu --hyp drift_hyp.txt --ref drift_ref.txt": {
        "out": "e2f6898d30a80533",
        "out.manifest.json": "6217f708aefddcd2",
        "stderr": "",
        "stdout": "899556a848e9704f",
    },
    "eval bleu --hyp diagonal_hyp.txt --ref diagonal_ref.txt": {
        "out": "ebc4f01596dab4cf",
        "out.manifest.json": "5ecd2f954a506f24",
        "stderr": "",
        "stdout": "a0e6766e8df4336d",
    },
    "mine filter --in stubs.tsv --trigram-top 3 --trigram-cap 2": {
        "out": "db6d4190840e1f4a",
        "out.manifest.json": "e27b357dcb502a39",
        "stderr": "76d8db14e3713817",
        "stdout": "",
    },
}


class TestGoldenOutputs:
    """Every byte a command writes, pinned: a change to any output fails here."""

    def test_covers_every_run(self):
        assert sorted(GOLDEN_DIGESTS) == sorted(" ".join((c, *f)) for c, f in GOLDEN_RUNS)

    @pytest.mark.parametrize("command, flags", GOLDEN_RUNS,
                             ids=[" ".join((c, *f)) for c, f in GOLDEN_RUNS])
    def test_outputs_are_pinned(self, command, flags):
        assert golden_digests(command, flags) == GOLDEN_DIGESTS[" ".join((command, *flags))]


# junk text: separators, comment marks, JSON fragments, numbers and
# non-ASCII text; junk config files also set real keys to junk values
JUNK_PIECES = ["\t", "|", "#", "=", "\n", " ", "{", "}", "[", "]", '"', ":", ",", "null",
               '{"id": 1, "title": "T", "text": "A b."}', "0", "42", "-3.5", "nan", "inf",
               "a", "B", ".", "é", "Ünï", "漢字", "😀", "positive"]
# `jobs` is no setting of any command: it stands for an unknown key
SETTING_NAMES = [*cli._SETTINGS, "jobs"]
junk_st = st.lists(st.sampled_from(JUNK_PIECES), max_size=30).map("".join)
junk_config_st = st.lists(st.tuples(st.sampled_from(SETTING_NAMES), junk_st), max_size=4).map(
    lambda rows: "\n".join(f"{key}={value}" for key, value in rows))


def as_saved(dictionary):
    """The dictionary as a saved file lists it, sources sorted: `invert`
    orders each word's sources as the file it reads lists them."""
    return BilingualDictionary(dict(sorted(dictionary.entries.items())))


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

    def test_empty_corpus_line_is_skipped(self, tmp_path, capsys):
        rows = "A b c.\tA b c.\t1.000000\ts0\n\nD e f.\tD e f.\t1.000000\ts1\n"
        corpus = write(tmp_path / "corpus.tsv", rows)
        out = tmp_path / "f.tsv"
        assert run(["mine", "filter", "--in", corpus, "--out", str(out)]) == 0
        assert out.read_text() == rows.replace("\n\n", "\n")
        assert capsys.readouterr().err == "kept 2 of 2 pairs\n"
        bad = write(tmp_path / "bad.tsv", "A b c.\tA b c.\t1.000000\ts0\n\nbroken\n")
        assert run(["mine", "filter", "--in", bad, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"lexmine: {bad}:3: expected 4 tab-separated columns, got 1\n")

    def test_non_object_document_line(self, tmp_path, capsys):
        _, tgt, d = identity_docs(tmp_path)
        src = write(tmp_path / "src.jsonl", "5\n")
        assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                    "--out", str(tmp_path / "corpus.tsv")]) == 1
        assert capsys.readouterr().err == f"lexmine: {src}:1: expected a JSON object\n"

    def test_deeply_nested_document_line(self, tmp_path, capsys):
        _, tgt, d = identity_docs(tmp_path)
        src = write(tmp_path / "src.jsonl", "[" * 100_000 + "\n")
        out = str(tmp_path / "out.tsv")
        for argv in (["mine", "docs", "--src", src, "--tgt", tgt, "--out", out],
                     ["mine", "all", "--src", src, "--tgt", tgt, "--dict", d, "--out", out]):
            assert run(argv) == 1
            assert capsys.readouterr().err == (
                f"lexmine: {src}:1: invalid JSON: nested too deeply\n")

    @pytest.mark.parametrize("field", ["id", "title", "text"])
    @pytest.mark.parametrize("command", ["docs", "all"])
    def test_lone_surrogate_document_line(self, tmp_path, capsys, field, command):
        # a lone surrogate escape decodes to text that cannot be written as UTF-8
        _, tgt, d = identity_docs(tmp_path)
        row = {"id": "a", "title": "T", "text": "A b c."}
        row[field] += "\ud800"
        src = write_docs(tmp_path / "src.jsonl", [row])
        before = sorted(tmp_path.iterdir())
        argv = ["mine", command, "--src", src, "--tgt", tgt,
                "--out", str(tmp_path / "out.tsv")]
        assert run(argv + (["--dict", d] if command == "all" else [])) == 1
        assert capsys.readouterr().err == f"lexmine: {src}:1: invalid JSON: lone surrogate\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("field", ["id", "title", "text"])
    @pytest.mark.parametrize("command", ["docs", "all"])
    @pytest.mark.parametrize("value", [None, 1, ["A b c."]], ids=["null", "number", "list"])
    def test_non_string_document_field(self, tmp_path, capsys, field, command, value):
        _, tgt, d = identity_docs(tmp_path)
        row = {"id": "a", "title": "T0", "text": "A b c."}
        row[field] = value
        src = write_docs(tmp_path / "src.jsonl", [row])
        before = sorted(tmp_path.iterdir())
        argv = ["mine", command, "--src", src, "--tgt", tgt,
                "--out", str(tmp_path / "out.tsv")]
        assert run(argv + (["--dict", d, "--threshold", "0"] if command == "all" else [])) == 1
        assert capsys.readouterr().err == f"lexmine: {src}:1: field {field!r} is not a string\n"
        assert sorted(tmp_path.iterdir()) == before

    # "\udcff" is the byte 0xff as sys.argv carries it (os.fsdecode(b"\xff"))
    @pytest.mark.parametrize("name, direction", [("\udcff.tsv", "a:b"), ("d.tsv", "\udcff:b")],
                             ids=["in", "direction"])
    def test_non_utf8_argument(self, tmp_path, capsys, name, direction):
        d = write(tmp_path / name, "a\tb\n")
        argv = ["dict", "build", "--in", d, "--out", str(tmp_path / "built.tsv"),
                "--direction", direction]
        bad = next(arg for arg in argv if "\udcff" in arg)
        assert run(argv) == 1
        assert capsys.readouterr().err == f"lexmine: argument {bad!r} is not valid UTF-8\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

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
            src, tgt = same_text_docs(scratch, ids, text)
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

    # whitespace to str.split and split_sentences, and all but \xa0 and
    # \u3000 line breaks to str.splitlines; a text-mode file breaks on "\n" only
    odd_space_st = st.sampled_from(list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\xa0\u3000"))
    corpus_text_st = st.text(alphabet=st.one_of(st.sampled_from(list("aB.! ")), odd_space_st),
                             max_size=40)

    @settings(max_examples=40, deadline=None)
    @given(ids=st.lists(st.text(alphabet=st.one_of(st.just("a"), odd_space_st), max_size=4),
                        min_size=1, max_size=3),
           text=corpus_text_st, cap=st.integers(1, 3))
    @example(ids=["a\x85"], text="A a.\u2028 a\x1ca a!", cap=1)
    def test_mine_all_output_reads_back(self, ids, text, cap):
        # `mine filter` with every trigram watched keeps all of a `mine all`
        # corpus, byte for byte, and `eval stats` counts one sentence per row
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            src, tgt = same_text_docs(scratch, ids, text)
            d = write(scratch / "dict.tsv", "a\ta\n")
            corpus = scratch / "corpus.tsv"
            filter_flags = ["--trigram-top", "1000", "--trigram-cap", str(cap)]
            assert run(["mine", "all", "--src", src, "--tgt", tgt, "--dict", d,
                        "--threshold", "0", *filter_flags, "--out", str(corpus)]) == 0
            kept = scratch / "kept.tsv"
            assert run(["mine", "filter", "--in", str(corpus), *filter_flags,
                        "--out", str(kept)]) == 0
            assert kept.read_bytes() == corpus.read_bytes()
            stats = scratch / "stats.json"
            assert run(["eval", "stats", "--corpus", str(corpus), "--out", str(stats)]) == 0
            rows = corpus.read_text(encoding="utf-8").count("\n")
            report = json.loads(stats.read_text(encoding="utf-8"))
            assert report["side_a"]["sentences"] == report["side_b"]["sentences"] == rows

    @settings(max_examples=40, deadline=None)
    @given(lines=st.lists(st.text(alphabet=st.one_of(st.sampled_from(list("aB. ")),
                                                      odd_space_st), max_size=8),
                          min_size=1, max_size=4))
    @example(lines=["", "a\u2028B", "\x85"])
    def test_w2w_output_reads_back_in_eval_bleu(self, lines):
        # `eval bleu` reads a `w2w` output against the `w2w` input: same
        # line count, blank lines included
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            source = write(scratch / "in.txt", "".join(f"{line}\n" for line in lines))
            d = write(scratch / "dict.tsv", "a\ta\n")
            hyp = scratch / "hyp.txt"
            assert run(["w2w", "--dict", d, "--in", source, "--out", str(hyp)]) == 0
            report = scratch / "bleu.json"
            assert run(["eval", "bleu", "--hyp", str(hyp), "--ref", source,
                        "--out", str(report)]) == 0
            assert hyp.read_text(encoding="utf-8").count("\n") == len(lines)
            manifest = json.loads((scratch / "bleu.json.manifest.json").read_text())
            assert manifest["counts"]["segments"] == len(lines)

    dictionary_word_st = st.text(alphabet="aBİß#| ", max_size=4)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(dictionary_word_st,
                                   st.lists(dictionary_word_st, min_size=1, max_size=3)),
                         min_size=1, max_size=4),
           lexicon=st.lists(st.text(alphabet="aBİß#|", min_size=1, max_size=3), max_size=4))
    @example(rows=[("x", ["#foo"])], lexicon=[])
    @example(rows=[("a|b", ["x"])], lexicon=[])
    @example(rows=[("ß", ["B"]), ("B", ["B"])], lexicon=[])
    @example(rows=[("B", ["BB", "B"])], lexicon=[])
    def test_dictionary_chain_reads_back(self, rows, lexicon):
        # what `dict build`, `dict invert` and `dict filter` write,
        # `load_dictionary` reads back as the dictionary each one saved; a raw
        # file that does not parse is refused before anything is written
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            raw = write(scratch / "raw.tsv",
                        "".join(f"{source}\t{'|'.join(targets)}\n" for source, targets in rows))
            lex = write(scratch / "lex.txt", "".join(f"{word}\n" for word in lexicon))
            built = scratch / "built.tsv"
            code = run(["dict", "build", "--in", raw, "--out", str(built)])
            try:
                saved = load_dictionary(raw)
            except ParseError:
                assert code == 1
                assert not built.exists()
                return
            assert code == 0
            assert load_dictionary(built).entries == saved.entries
            inverted = invert(as_saved(saved))
            kept = filter_by_lexicon(saved, load_lexicon(lex))
            chain = [("invert", "built.tsv", "inverted.tsv", inverted),
                     ("invert", "inverted.tsv", "twice.tsv", invert(as_saved(inverted))),
                     ("filter", "built.tsv", "kept.tsv", kept)]
            for action, source, out, saved in chain:
                argv = ["dict", action, "--dict", str(scratch / source),
                        "--out", str(scratch / out)]
                assert run(argv + (["--lexicon", lex] if action == "filter" else [])) == 0
                assert load_dictionary(scratch / out).entries == saved.entries, out


class TestOutputPaths:
    @pytest.mark.parametrize("flag, name", [("--out", "missing/x.tsv"),
                                            ("--manifest", "missing/m.json"),
                                            ("--out", "outdir"),
                                            ("--out", "outdir/"),
                                            ("--summary", "missing/s.json")])
    def test_unwritable_output_names_the_given_path(self, tmp_path, capsys, flag, name):
        (tmp_path / "outdir").mkdir()
        d = write(tmp_path / "d.tsv", "a\tb\n")
        target = f"{tmp_path}/{name}"
        if flag == "--summary":
            argv = ["w2w", "--dict", d, "--in", d, "--out", str(tmp_path / "x.tsv")]
        else:
            argv = ["dict", "build", "--in", d, "--out", str(tmp_path / "x.tsv")]
        if flag == "--out":
            argv[-1] = target
        else:
            argv += [flag, target]
        assert run(argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("lexmine:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"lexmine: cannot write {target}: ")
        # every output path is checked before the command writes anything
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["d.tsv", "outdir"]

    @pytest.mark.parametrize("command", ["dict build", "mine filter", "w2w --summary",
                                         "w2w default summary"])
    def test_output_naming_an_input_is_refused(self, tmp_path, capsys, command):
        d = write(tmp_path / "d.tsv", "b\tc\na\tz\n")
        corpus = write(tmp_path / "corpus.tsv", "A b c.\tA b c.\t1.000000\ts0\n")
        text = write(tmp_path / "text.txt", POEM + "\n")
        oov_named = write(tmp_path / "t.oov.json", POEM + "\n")
        argv = {
            "dict build": ["dict", "build", "--in", d, "--out", f"{tmp_path}/./d.tsv"],
            "mine filter": ["mine", "filter", "--in", corpus, "--out", corpus],
            "w2w --summary": ["w2w", "--dict", d, "--in", text,
                              "--out", str(tmp_path / "out.txt"), "--summary", text],
            # the summary defaults to <out>.oov.json, which here is the input
            "w2w default summary": ["w2w", "--dict", d, "--in", oov_named,
                                    "--out", str(tmp_path / "t")],
        }[command]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("lexmine: --") and err.count("\n") == 1
        assert "is the same file as" in err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_sidecar_naming_an_input_is_refused(self, tmp_path, capsys):
        # the timing sidecar of r.manifest.json is r.timing.json
        d = write(tmp_path / "r.timing.json", "a\tb\n")
        assert run(["dict", "build", "--in", d, "--out", str(tmp_path / "o.tsv"),
                    "--manifest", str(tmp_path / "r.manifest.json")]) == 1
        assert capsys.readouterr().err == (
            f"lexmine: timing sidecar {d} is the same file as input {d}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.timing.json"]
        assert Path(d).read_text(encoding="utf-8") == "a\tb\n"

    @pytest.mark.parametrize("outputs, clash", [
        # (flag, file name) pairs given after the command's inputs, and the
        # stderr line, each {name} in it standing for tmp_path/name
        ([("--out", "o.tsv"), ("--manifest", "o.tsv")],
         "--manifest {o.tsv} is the same file as --out {o.tsv}"),
        ([("--out", "r.timing.json"), ("--manifest", "r.manifest.json")],
         "timing sidecar {r.timing.json} is the same file as --out {r.timing.json}"),
        # the manifest defaults to <out>.manifest.json
        ([("--out", "q.txt"), ("--summary", "q.txt.manifest.json")],
         "--manifest {q.txt.manifest.json} is the same file as "
         "--summary {q.txt.manifest.json}"),
        ([("--out", "q.txt"), ("--summary", "./q.txt")],
         "--summary {./q.txt} is the same file as --out {q.txt}"),
        ([("--out", "q.txt"), ("--summary", "s.json"), ("--manifest", "s.json")],
         "--manifest {s.json} is the same file as --summary {s.json}"),
        ([("--out", "q.txt"), ("--summary", "s.timing.json"),
          ("--manifest", "s.manifest.json")],
         "timing sidecar {s.timing.json} is the same file as --summary {s.timing.json}"),
    ], ids=["out-manifest", "out-sidecar", "summary-default-manifest", "out-summary",
            "summary-manifest", "summary-sidecar"])
    def test_outputs_naming_one_file_are_refused(self, tmp_path, capsys, outputs, clash):
        d = write(tmp_path / "d.tsv", "a\tb\n")
        flags = {flag for flag, _ in outputs}
        argv = ["w2w", "--dict", d, "--in", d] if "--summary" in flags else [
            "dict", "build", "--in", d]
        for flag, name in outputs:
            argv += [flag, f"{tmp_path}/{name}"]
        assert run(argv) == 1
        for _, name in outputs:
            clash = clash.replace(f"{{{name}}}", f"{tmp_path}/{name}")
        assert capsys.readouterr().err == f"lexmine: {clash}\n"
        # refused before anything is written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.tsv"]


# argparse dests of the flags that are no declared file: the settings with a
# generated flag, the two with a hand-written one, --mode, and --manifest,
# which `run` defaults and guards itself
SETTING_DESTS = {key for key, (_, _, flag_help) in cli._SETTINGS.items() if flag_help} | {
    "one_to_one", "algorithm", "mode", "manifest"}


def leaf_parsers(parser, names=()):
    """Yield (command, parser) for every command the parser runs."""
    if parser.get_default("handler"):
        yield " ".join(names), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, names + (name,))


def test_every_flag_is_classified():
    # a file flag that its command does not declare would get no overwrite
    # refusal, no up-front output check and no manifest digest
    leaves = dict(leaf_parsers(cli._build_parser()))
    assert sorted(leaves) == sorted(COMMANDS)
    for command, sub in leaves.items():
        dests = {action.dest for action in sub._actions
                 if action.option_strings and action.dest != "help"}
        assert dests - SETTING_DESTS == {*sub.get_default("inputs"),
                                         *sub.get_default("outputs")}, command
    # and no setting dest is left over from a flag that no command has
    assert {action.dest for sub in leaves.values() for action in sub._actions} >= SETTING_DESTS


def test_every_help_renders():
    # argparse %-formats help strings only when it shows them, so a stray %
    # in generated help would fail at `--help`, not when the parser is built
    for command, sub in leaf_parsers(cli._build_parser()):
        assert sub.format_help().startswith(f"usage: lexmine {command} "), command


OPTIONAL_OUT = [command for command, sub in leaf_parsers(cli._build_parser())
                if not any(action.required for action in sub._actions
                           if "--out" in action.option_strings)]


@pytest.mark.parametrize("command", OPTIONAL_OUT)
def test_out_help_says_what_stdout_gets(tmp_path, capsys, command):
    # without --out a command prints its JSON report when its help says
    # "default: stdout", and only its one summary line when it does not
    sub = dict(leaf_parsers(cli._build_parser()))[command]
    out_help = next(action.help for action in sub._actions if "--out" in action.option_strings)
    assert run(command_argv(command, tmp_path)[:-2]) == 0
    printed = capsys.readouterr().out
    if "default: stdout" in out_help:
        json.loads(printed)
    else:
        assert len(printed.splitlines()) == 1 and printed.endswith("\n"), printed


def test_setting_flags_name_their_default():
    for command, sub in leaf_parsers(cli._build_parser()):
        for action in sub._actions:
            if action.dest in cli._SETTINGS and action.nargs != 0:  # booleans take no value
                default = cli._SETTINGS[action.dest][1]
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
                assert f"(default {shown})" in action.help, (command, action.dest)


def test_readme_lists_every_config_key():
    # the README table of config keys: each key, the commands that read it
    # and its default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    documented = {key.strip(" `"): (sorted(c.strip(" `") for c in commands.split(",")),
                                    default.strip(" `"))
                  for key, commands, default in rows}
    readers = {key: sorted(command for command, sub in leaf_parsers(cli._build_parser())
                           if key in sub.get_default("settings"))
               for key in cli._SETTINGS}
    shown = {key: (",".join(map(str, default)) if isinstance(default, tuple)
                   else str(default).lower())
             for key, (_, default, _) in cli._SETTINGS.items()}
    assert documented == {key: (readers[key], shown[key]) for key in cli._SETTINGS}


@pytest.mark.parametrize("module", ["lexmine", "lexmine.cli"])
def test_python_dash_m_entry_point(module):
    package_root = str(Path(lexmine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", module, "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"lexmine {lexmine.__version__}"
