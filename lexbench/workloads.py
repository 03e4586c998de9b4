"""The benchmark's workloads: inputs, command sequence, set-up readers, checks.

Each workload runs real `lexmine` commands at `--jobs 1`. The checks use
only the generator's ground truth and the reference code in oracle.py.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle

TRIGRAM_TOP = 1000      # lexmine's default --trigram-top
TRIGRAM_CAP = 100       # lexmine's default --trigram-cap
CV_FOLDS = 5            # lexmine's default --folds
# Every sent-cv row carries three signal words of its own class and none of
# the other's, and the bridge dictionary maps every target-side signal word
# back to its source form, so either classifier separates the classes well
# above this floor; measured means are 0.93-1.0, down to the self-test size.
CV_F1_FLOOR = 0.9


@dataclass
class Command:
    argv: list[str]             # lexmine arguments, without the program name
    outputs: list[Path]         # deterministic files it writes (byte-compared)
    takes_jobs: bool = False


@dataclass
class Prepared:
    """Inputs of one workload, written once per benchmark run."""

    generated: gen.Generated
    commands: list[Command]
    readers: str                # Python run by the set-up probe, after import
    reader_args: list[str]
    properties: dict[str, float] = field(default_factory=dict)
    expected: dict = field(default_factory=dict)


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _overcap_share(sentences: list[str]) -> tuple[float, int]:
    """(share of watched trigrams over the cap, how many) for filter input."""
    watched = oracle.watched_trigrams([oracle.source_trigrams(s) for s in sentences],
                                      TRIGRAM_TOP)
    over = sum(1 for _, count in watched if count > TRIGRAM_CAP)
    return (over / len(watched) if watched else 0.0), over


def _word_types(texts) -> int:
    return len({t.lower() for text in texts for t in oracle.tokenize(text)
                if not oracle.is_punct_token(t)})


def _oov_rate(translated: list[tuple[str, int, int]]) -> float:
    """OOV tokens over all tokens of oracle.translate_line results."""
    return sum(oov for _, oov, _ in translated) / sum(n for _, _, n in translated)


def _input_bytes(generated: gen.Generated) -> int:
    return sum(path.stat().st_size for path in generated.files.values())


class Workload:
    name = ""
    why = ""

    def prepare(self, seed: int, scale: float, inputs: Path, outputs: Path) -> Prepared:
        raise NotImplementedError

    def check(self, prepared: Prepared, command: int) -> list[str]:
        """Problems with the outputs of `commands[command]`; empty when correct."""
        raise NotImplementedError


class MinePlanted(Workload):
    name = "mine-planted"
    why = ("mine all on planted document pairs: ROUGE-1 alignment scoring dominates; "
           "no trigram is over the cap, so the filter only ranks")

    def prepare(self, seed, scale, inputs, outputs):
        g = gen.planted(seed, scale, inputs)
        f = g.files
        corpus = outputs / "corpus.tsv"
        sentences = [line.split("\t")[0] for line in g.truth["corpus"]]
        share, over = _overcap_share(sentences)
        p = g.properties
        properties = {
            "input.bytes": _input_bytes(g),
            "input.items": p["documents"],
            "input.word_types": _word_types(json.loads(line)["text"]
                                            for line in _lines(f["src"])),
            "input.overcap_share": share,
            "input.oov_rate": p["oov_rate"],
            "mining.score_cells": p["score_cells"],
            "mining.filter.overloaded_trigrams": over,
        }
        command = Command(["mine", "all", "--src", str(f["src"]), "--tgt", str(f["tgt"]),
                           "--dict", str(f["dict"]), "--out", str(corpus)],
                          [corpus, Path(str(corpus) + ".manifest.json")], takes_jobs=True)
        readers = ("from lexmine.mining import read_documents\n"
                   "from lexmine.dictionary import load_dictionary\n"
                   "read_documents(sys.argv[1]); read_documents(sys.argv[2])\n"
                   "load_dictionary(sys.argv[3])\n")
        return Prepared(g, [command], readers, [str(f["src"]), str(f["tgt"]), str(f["dict"])],
                        properties,
                        {"corpus": "".join(line + "\n" for line in g.truth["corpus"]),
                         "source_sentences": p["source_sentences"]})

    def check(self, prepared, command):
        corpus = prepared.commands[0].outputs[0]
        got = corpus.read_text(encoding="utf-8")
        if got == prepared.expected["corpus"]:
            return []
        want = prepared.expected["corpus"].splitlines()
        have = got.splitlines()
        return [f"corpus differs from the planted truth: {len(have)} rows, "
                f"{len(set(have) & set(want))} of {len(want)} planted pairs at 1.000000"]


class FilterBoilerplate(Workload):
    name = "filter-boilerplate"
    why = ("mine filter on stub-article rows with hundreds of over-cap trigrams: "
           "the filter's peel loop and tokenizing dominate; no scoring runs")

    def prepare(self, seed, scale, inputs, outputs):
        g = gen.boilerplate(seed, scale, inputs)
        rows = g.truth["rows"]
        sentences = [row.split("\t")[0] for row in rows]
        scored = [(s, float(row.split("\t")[2])) for s, row in zip(sentences, rows)]
        kept = oracle.diversity_filter(scored, TRIGRAM_TOP, TRIGRAM_CAP)
        share, over = _overcap_share(sentences)
        properties = {
            "input.bytes": _input_bytes(g),
            "input.items": len(rows),
            "input.word_types": _word_types(sentences),
            "input.overcap_share": share,
            "input.oov_rate": 0.0,
            "mining.filter.overloaded_trigrams": over,
        }
        out = outputs / "kept.tsv"
        command = Command(["mine", "filter", "--in", str(g.files["corpus"]), "--out", str(out)],
                          [out, Path(str(out) + ".manifest.json")])
        readers = "from lexmine.mining import read_corpus\nread_corpus(sys.argv[1])\n"
        expected = {"kept": [rows[i] for i in kept]}
        return Prepared(g, [command], readers, [str(g.files["corpus"])], properties, expected)

    def check(self, prepared, command):
        rows = prepared.generated.truth["rows"]
        have = _lines(prepared.commands[0].outputs[0])
        problems = []
        position = 0
        for line in have:
            while position < len(rows) and rows[position] != line:
                position += 1
            if position == len(rows):
                problems.append("output is not an order-preserving subset of the input")
                break
            position += 1
        counts: dict[tuple, int] = {}
        for line in have:
            for gram in oracle.source_trigrams(line.split("\t")[0]):
                counts[gram] = counts.get(gram, 0) + 1
        watched = oracle.watched_trigrams(
            [oracle.source_trigrams(row.split("\t")[0]) for row in rows], TRIGRAM_TOP)
        over = [gram for gram, _ in watched if counts.get(gram, 0) > TRIGRAM_CAP]
        if over:
            problems.append(f"{len(over)} watched trigrams still over the cap, e.g. {over[0]}")
        if have != prepared.expected["kept"]:
            problems.append(f"kept {len(have)} rows, the reference filter keeps "
                            f"{len(prepared.expected['kept'])} (or different ones)")
        return problems


class TranslateBleu(Workload):
    name = "translate-bleu"
    why = ("w2w of a Zipfian test set, then eval bleu --lowercase against references: "
           "word lookup, tokenizing and BLEU n-gram counting")

    def prepare(self, seed, scale, inputs, outputs):
        g = gen.translation_set(seed, scale, inputs)
        f = g.files
        mapping = oracle.read_dictionary(f["dict"])
        src = _lines(f["src"])
        translated = [oracle.translate_line(mapping, line) for line in src]
        hyp_lines = [text for text, _, _ in translated]
        properties = {
            "input.bytes": _input_bytes(g),
            "input.items": len(src),
            "input.word_types": _word_types(src),
            "input.overcap_share": 0.0,
            "input.oov_rate": _oov_rate(translated),
        }
        hyp, report = outputs / "test.hyp.txt", outputs / "bleu.json"
        commands = [
            Command(["w2w", "--dict", str(f["dict"]), "--in", str(f["src"]), "--out", str(hyp)],
                    [hyp, Path(str(hyp) + ".oov.json"), Path(str(hyp) + ".manifest.json")]),
            Command(["eval", "bleu", "--hyp", str(hyp), "--ref", str(f["ref"]), "--lowercase",
                     "--out", str(report)],
                    [report, Path(str(report) + ".manifest.json")], takes_jobs=True),
        ]
        readers = "from lexmine.dictionary import load_dictionary\nload_dictionary(sys.argv[1])\n"
        expected = {"hyp": "".join(line + "\n" for line in hyp_lines),
                    "bleu": oracle.corpus_bleu(hyp_lines, _lines(f["ref"]))}
        return Prepared(g, commands, readers, [str(f["dict"])], properties, expected)

    def check(self, prepared, command):
        out = prepared.commands[command].outputs[0]
        if command == 0:
            if out.read_text(encoding="utf-8") != prepared.expected["hyp"]:
                return ["w2w output differs from the reference translation"]
            return []
        report = json.loads(out.read_text(encoding="utf-8"))
        if abs(report["bleu"] - prepared.expected["bleu"]) > 1e-9 or not report["lowercased"]:
            return [f"bleu {report['bleu']!r}, reference {prepared.expected['bleu']!r}"]
        return []


class SentCv(Workload):
    name = "sent-cv"
    why = ("sent cv train-src/test-w2w with nb then lr on rows with thousands of "
           "word types: BPE training, featurizing and both classifiers")

    def prepare(self, seed, scale, inputs, outputs):
        g = gen.sentiment_rows(seed, scale, inputs)
        f = g.files
        rows = [line.split("\t") for line in _lines(f["data"])]
        bridge = oracle.read_dictionary(f["dict"])
        properties = {
            "input.bytes": _input_bytes(g),
            "input.items": len(rows),
            "input.word_types": _word_types(src for _, src, _ in rows),
            "input.overcap_share": 0.0,
            "input.oov_rate": _oov_rate([oracle.translate_line(bridge, tgt)
                                         for _, _, tgt in rows]),
        }
        commands = []
        for algorithm in ("nb", "lr"):
            report = outputs / f"cv.{algorithm}.json"
            commands.append(Command(
                ["sent", "cv", "--data", str(f["data"]), "--mode", "train-src/test-w2w",
                 "--dict", str(f["dict"]), "--algorithm", algorithm, "--out", str(report)],
                [report, Path(str(report) + ".manifest.json")]))
        readers = ("from lexmine.sentiment.cv import load_labeled_tsv\n"
                   "from lexmine.dictionary import load_dictionary\n"
                   "load_labeled_tsv(sys.argv[1]); load_dictionary(sys.argv[2], ('tgt', 'src'))\n")
        return Prepared(g, commands, readers, [str(f["data"]), str(f["dict"])], properties)

    def check(self, prepared, command):
        report = json.loads(prepared.commands[command].outputs[0].read_text(encoding="utf-8"))
        n_rows = prepared.generated.truth["rows"]
        folds = report["folds"]
        problems = []
        if len(folds) != CV_FOLDS or sum(f["sizes"]["test"] for f in folds) != n_rows:
            problems.append("test folds do not cover the rows once")
        if any(sum(f["sizes"].values()) != n_rows for f in folds):
            problems.append("a fold's train/dev/test sizes do not add up to the rows")
        if report["mean_f1_positive"] < CV_F1_FLOOR:
            problems.append(f"mean F1 {report['mean_f1_positive']:.4f} below the planted-signal "
                            f"floor {CV_F1_FLOOR}")
        return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (MinePlanted(), FilterBoilerplate(), TranslateBleu(), SentCv())
}
