"""Command-line interface.

Subcommand groups: `dict` (build/filter/invert/stats), `w2w`, `mine`
(docs/sents/filter/all), `eval` (bleu/rouge/stats/judge), and `sent`
(bpe/cv). Every command resolves its settings with the precedence
flags > --config key=value file > built-in defaults, writes artifacts
atomically, and emits a run manifest with sha256 digests of every input.

Exit status: 0 success, 1 input/config error (one-line diagnostic on
stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from dataclasses import asdict

from .dictionary import (
    filter_by_lexicon,
    invert,
    dictionary_stats,
    load_dictionary,
    load_lexicon,
    save_dictionary,
)
from .errors import ConfigError, InputError, LexmineError, ParseError
from .manifest import (
    RunManifest,
    atomic_write_json,
    atomic_write_text,
    manifest_path_for,
    read_lines,
)
from .metrics import bleu, corpus_stats, judgment_summary, rouge1_f1
from .mining import (
    MiningConfig,
    align_documents,
    diversity_filter,
    mine,
    normalize_title,
    read_corpus,
    read_documents,
    write_corpus,
)
from .sentiment import CvConfig, bpe_train, cross_validate, load_labeled_tsv
from .textproc import Sentence, normalize, tokenize, truncate
from .version import __version__
from .w2w import OovSummary, translate_tokens

PROG = "lexmine"


# -- configuration plumbing ---------------------------------------------------

def _conv_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _conv_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _conv_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _read_config_file(path) -> dict[str, str]:
    """key=value lines; '#' comments and blank lines are skipped."""
    settings: dict[str, str] = {}
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, line_no, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        settings[key.strip()] = value.strip()
    return settings


def _resolve(args, spec) -> dict:
    """Apply the flags > config file > defaults precedence.

    `spec` rows are (name, default, converter); converters run on raw
    strings only, so typed argparse values pass through unchanged.
    """
    file_cfg = _read_config_file(args.config) if args.config else {}
    resolved = {}
    for name, default, conv in spec:
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name, default)
        if isinstance(value, str) and conv is not str:
            try:
                value = conv(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {name}: {exc}") from exc
        resolved[name] = value
    return resolved


def _parse_direction(raw: str) -> tuple[str, str]:
    parts = raw.split(":")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise ConfigError(f"direction must look like src:tgt, got {raw!r}")
    return (parts[0].strip(), parts[1].strip())


def _finish(args, config: dict, inputs, counts: dict, outputs, *,
            seed: int | None = None) -> int:
    """Every command's epilogue: write the run manifest and its timing sidecar.

    The manifest goes to --manifest, else next to --out, else to
    `lexmine-<command>.manifest.json` in the working directory. Unset
    (None) inputs and outputs are skipped; the --config file counts as an
    input. Returns the command's exit status, 0.
    """
    manifest = RunManifest(
        command=args.slug.replace("-", " "), version=__version__, config=config,
        seed=seed, counts=counts, outputs=[str(p) for p in outputs if p],
        timing={"total_s": round(time.perf_counter() - args.started, 6)})
    for path in [*inputs, args.config]:
        if path:
            manifest.add_input(path)
    if args.manifest:
        target = args.manifest
    elif args.out:
        target = manifest_path_for(args.out)
    else:
        target = f"{PROG}-{args.slug}.manifest.json"
    manifest.write(target)
    return 0


# argparse dests of the flags that name files a command reads, and writes
_INPUT_FLAGS = ("in_path", "dict", "lexicon", "src", "tgt", "hyp", "ref", "corpus",
                "side_a", "side_b", "scores_a", "scores_b", "data", "config")
_OUTPUT_FLAGS = ("out", "summary", "manifest")


def _refuse_overwriting_inputs(args) -> None:
    """An output flag naming an input file would replace the bytes the run
    reads, and the manifest would record the output's digest as the
    input's, so such a run is refused before anything is written."""
    inputs = [getattr(args, dest, None) for dest in _INPUT_FLAGS]
    for dest in _OUTPUT_FLAGS:
        out = getattr(args, dest, None)
        if out and os.path.exists(out):
            for path in inputs:
                if path and os.path.exists(path) and os.path.samefile(out, path):
                    raise ConfigError(f"--{dest} {out} is the same file as input {path}")


def _emit_report(args, payload: dict, summary_line: str) -> None:
    """Report goes to --out as JSON when given, else to stdout."""
    if args.out:
        atomic_write_json(args.out, payload)
        print(summary_line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))


# -- dict ----------------------------------------------------------------------

def _cmd_dict_build(args) -> int:
    cfg = _resolve(args, [("direction", "src:tgt", str)])
    direction = _parse_direction(cfg["direction"])
    dictionary = load_dictionary(args.in_path, direction)
    buf = io.StringIO()
    save_dictionary(dictionary, buf)
    atomic_write_text(args.out, buf.getvalue())
    print(f"wrote {len(dictionary)} entries to {args.out}", file=sys.stderr)
    return _finish(args, {"direction": list(direction)}, [args.in_path],
                   {"entries": len(dictionary)}, [args.out])


def _cmd_dict_filter(args) -> int:
    dictionary = load_dictionary(args.dict)
    lexicon = load_lexicon(args.lexicon)
    filtered = filter_by_lexicon(dictionary, lexicon)
    buf = io.StringIO()
    save_dictionary(filtered, buf)
    atomic_write_text(args.out, buf.getvalue())
    print(f"kept {len(filtered)} of {len(dictionary)} entries", file=sys.stderr)
    return _finish(args, {"lexicon": str(args.lexicon)}, [args.dict, args.lexicon],
                   {"entries_before": len(dictionary), "entries_after": len(filtered),
                    "lexicon_words": len(lexicon)}, [args.out])


def _cmd_dict_invert(args) -> int:
    dictionary = load_dictionary(args.dict)
    inverted = invert(dictionary)
    buf = io.StringIO()
    save_dictionary(inverted, buf)
    atomic_write_text(args.out, buf.getvalue())
    print(f"wrote {len(inverted)} inverted entries to {args.out}", file=sys.stderr)
    return _finish(args, {"direction": list(inverted.direction)}, [args.dict],
                   {"entries_before": len(dictionary), "entries_after": len(inverted)},
                   [args.out])


def _cmd_dict_stats(args) -> int:
    stats = dictionary_stats(load_dictionary(args.dict))
    _emit_report(args, stats, f"wrote stats to {args.out}")
    return _finish(args, {}, [args.dict], {"entries": stats["entries"]}, [args.out])


# -- w2w -----------------------------------------------------------------------

def _cmd_w2w(args) -> int:
    cfg = _resolve(args, [("max_len", 75, int)])
    if cfg["max_len"] < 0:
        raise ConfigError(f"max-len must be >= 0, got {cfg['max_len']}")
    dictionary = load_dictionary(args.dict)
    summary = OovSummary()
    translated = []
    for line in read_lines(args.in_path):
        tokens = tokenize(line)
        if not tokens:
            translated.append("")
            continue
        if cfg["max_len"]:
            tokens = truncate(tokens, cfg["max_len"])
        result = translate_tokens(dictionary, tokens)
        summary.sentences += 1
        summary.oov_tokens += result.oov_count
        summary.total_tokens += result.total_count
        translated.append(result.text)
    atomic_write_text(args.out, "\n".join(translated) + "\n" if translated else "")
    summary_path = args.summary or str(args.out) + ".oov.json"
    atomic_write_json(summary_path, summary.to_dict())
    print(f"translated {summary.sentences} sentences, "
          f"{summary.oov_tokens}/{summary.total_tokens} tokens OOV", file=sys.stderr)
    return _finish(args, {"max_len": cfg["max_len"]}, [args.dict, args.in_path],
                   summary.to_dict(), [args.out, summary_path])


# -- mine ----------------------------------------------------------------------

def _mining_spec():
    defaults = MiningConfig()
    return [
        ("threshold", defaults.align_threshold, float),
        ("trigram_top", defaults.trigram_top_k, int),
        ("trigram_cap", defaults.trigram_cap, int),
        ("one_to_one", defaults.one_to_one, _conv_bool),
    ]


def _cmd_mine_docs(args) -> int:
    src_docs = read_documents(args.src)
    tgt_docs = read_documents(args.tgt)
    pairs = align_documents(src_docs, tgt_docs)
    rows = [f"{src.id}\t{tgt.id}\t{normalize_title(src.title)}" for src, tgt in pairs]
    atomic_write_text(args.out, "\n".join(rows) + "\n" if rows else "")
    print(f"paired {len(pairs)} documents", file=sys.stderr)
    return _finish(args, {}, [args.src, args.tgt],
                   {"source_documents": len(src_docs), "target_documents": len(tgt_docs),
                    "document_pairs": len(pairs)}, [args.out])


def _run_mining(args, apply_filter: bool) -> int:
    # without the filter (mine sents) no trigram setting is resolved or recorded
    cfg = _resolve(args, [row for row in _mining_spec()
                          if apply_filter or not row[0].startswith("trigram_")])
    mining_cfg = MiningConfig(align_threshold=cfg["threshold"],
                              trigram_top_k=cfg.get("trigram_top", MiningConfig.trigram_top_k),
                              trigram_cap=cfg.get("trigram_cap", MiningConfig.trigram_cap),
                              one_to_one=cfg["one_to_one"])
    src_docs = read_documents(args.src)
    tgt_docs = read_documents(args.tgt)
    dictionary = load_dictionary(args.dict)
    pairs, stats = mine(src_docs, tgt_docs, dictionary, mining_cfg, apply_filter=apply_filter)
    buf = io.StringIO()
    write_corpus(pairs, buf)
    atomic_write_text(args.out, buf.getvalue())
    print(f"paired {stats.document_pairs} documents, "
          f"aligned {stats.aligned_pairs} sentence pairs, "
          f"kept {stats.final_pairs}", file=sys.stderr)
    config = asdict(mining_cfg)
    if not apply_filter:
        config = {key: config[key] for key in ("align_threshold", "one_to_one")}
    return _finish(args, config, [args.src, args.tgt, args.dict], asdict(stats), [args.out])


def _cmd_mine_sents(args) -> int:
    return _run_mining(args, apply_filter=False)


def _cmd_mine_all(args) -> int:
    return _run_mining(args, apply_filter=True)


def _cmd_mine_filter(args) -> int:
    cfg = _resolve(args, [row for row in _mining_spec()
                          if row[0] in ("trigram_top", "trigram_cap")])
    mining_cfg = MiningConfig(trigram_top_k=cfg["trigram_top"],
                              trigram_cap=cfg["trigram_cap"])
    pairs = read_corpus(args.in_path)
    kept = diversity_filter(pairs, mining_cfg)
    buf = io.StringIO()
    write_corpus(kept, buf)
    atomic_write_text(args.out, buf.getvalue())
    print(f"kept {len(kept)} of {len(pairs)} pairs", file=sys.stderr)
    return _finish(args,
                   {"trigram_top_k": cfg["trigram_top"], "trigram_cap": cfg["trigram_cap"]},
                   [args.in_path], {"pairs_before": len(pairs), "pairs_after": len(kept)},
                   [args.out])


# -- eval ----------------------------------------------------------------------

def _load_parallel_tokens(args, pretokenized: bool):
    hyp_lines = list(read_lines(args.hyp))
    ref_lines = list(read_lines(args.ref))
    if len(hyp_lines) != len(ref_lines):
        raise InputError(f"{args.hyp} has {len(hyp_lines)} lines but "
                         f"{args.ref} has {len(ref_lines)}")
    if not hyp_lines:
        raise InputError(f"{args.hyp} is empty")
    split = str.split if pretokenized else tokenize
    hyps = [split(line) for line in hyp_lines]
    refs = [split(line) for line in ref_lines]
    return hyps, refs


def _cmd_eval_bleu(args) -> int:
    cfg = _resolve(args, [("lowercase", False, _conv_bool),
                          ("no_tokenize", False, _conv_bool)])
    hyps, refs = _load_parallel_tokens(args, cfg["no_tokenize"])
    report = bleu(hyps, refs, lowercase=cfg["lowercase"])
    if args.out:
        atomic_write_json(args.out, report.to_dict())
    print(f"bleu {report.bleu:.2f}")
    return _finish(args, {"lowercase": cfg["lowercase"], "no_tokenize": cfg["no_tokenize"]},
                   [args.hyp, args.ref], {"segments": len(hyps)}, [args.out])


def _cmd_eval_rouge(args) -> int:
    cfg = _resolve(args, [("lowercase", False, _conv_bool)])
    hyps, refs = _load_parallel_tokens(args, pretokenized=False)
    if cfg["lowercase"]:
        hyps = [normalize(h) for h in hyps]
        refs = [normalize(r) for r in refs]
    scores = [rouge1_f1(h, r) for h, r in zip(hyps, refs)]
    payload = {
        "lines": len(scores),
        "mean_precision": sum(s.precision for s in scores) / len(scores),
        "mean_recall": sum(s.recall for s in scores) / len(scores),
        "mean_f1": sum(s.f1 for s in scores) / len(scores),
        "lowercased": cfg["lowercase"],
    }
    if args.out:
        atomic_write_json(args.out, payload)
    print(f"rouge1_f1 {payload['mean_f1']:.4f}")
    return _finish(args, {"lowercase": cfg["lowercase"]}, [args.hyp, args.ref],
                   {"segments": len(scores)}, [args.out])


def _lines_to_sentences(path) -> list[Sentence]:
    return [Sentence(line) for line in read_lines(path) if line.strip()]


def _cmd_eval_stats(args) -> int:
    inputs = []
    if args.corpus:
        if args.side_a or args.side_b:
            raise ConfigError("give either --corpus or --side-a/--side-b, not both")
        pairs = read_corpus(args.corpus)
        side_a = [p.source_sentence for p in pairs]
        side_b = [p.target_sentence for p in pairs]
        inputs = [args.corpus]
    elif args.side_a and args.side_b:
        side_a = _lines_to_sentences(args.side_a)
        side_b = _lines_to_sentences(args.side_b)
        inputs = [args.side_a, args.side_b]
    else:
        raise ConfigError("stats needs --corpus or both --side-a and --side-b")
    stats = corpus_stats(side_a, side_b)
    _emit_report(args, asdict(stats), f"wrote stats to {args.out}")
    return _finish(args, {}, inputs, {"sentences_a": stats.side_a.sentences,
                                      "sentences_b": stats.side_b.sentences}, [args.out])


def _read_scores(path) -> list[int]:
    scores = []
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            scores.append(int(line))
        except ValueError as exc:
            raise ParseError(path, line_no, f"expected an integer, got {line!r}") from exc
    return scores


def _cmd_eval_judge(args) -> int:
    scores_a = _read_scores(args.scores_a)
    scores_b = _read_scores(args.scores_b)
    summary = judgment_summary(scores_a, scores_b)
    if args.out:
        atomic_write_json(args.out, asdict(summary))
    agreement = f"{summary.pearson:.4f}" if summary.pearson_defined else "undefined"
    print(f"mean {summary.mean_score:.2f} pearson {agreement}")
    return _finish(args, {}, [args.scores_a, args.scores_b], {"items": summary.items},
                   [args.out])


# -- sent ----------------------------------------------------------------------

def _cmd_sent_bpe(args) -> int:
    cfg = _resolve(args, [("vocab_size", 2000, int)])
    lines = [line for line in read_lines(args.in_path) if line.strip()]
    if not lines:
        raise InputError(f"{args.in_path} has no text")
    model = bpe_train(lines, vocab_size=cfg["vocab_size"])
    atomic_write_json(args.out, model.to_dict())
    print(f"learned {len(model.merges)} merges from {len(lines)} lines", file=sys.stderr)
    return _finish(args, {"vocab_size": cfg["vocab_size"]}, [args.in_path],
                   {"lines": len(lines), "merges": len(model.merges)}, [args.out])


def _cmd_sent_cv(args) -> int:
    defaults = CvConfig()
    cfg = _resolve(args, [
        ("algorithm", defaults.algorithm, str),
        ("folds", defaults.folds, int),
        ("ratios", defaults.ratios, _conv_floats),
        ("seed", defaults.seed, int),
        ("vocab_size", defaults.bpe_vocab_size, int),
        ("nb_alpha_grid", defaults.nb_alpha_grid, _conv_floats),
        ("lr_epoch_grid", defaults.lr_epoch_grid, _conv_ints),
        ("lr_l2_grid", defaults.lr_l2_grid, _conv_floats),
        ("lr_learning_rate", defaults.lr_learning_rate, float),
    ])
    ratios = tuple(cfg["ratios"])
    if len(ratios) != 3:
        raise ConfigError(f"ratios must have 3 values, got {len(ratios)}")
    config = CvConfig(algorithm=cfg["algorithm"], folds=cfg["folds"], ratios=ratios,
                      seed=cfg["seed"], bpe_vocab_size=cfg["vocab_size"],
                      nb_alpha_grid=tuple(cfg["nb_alpha_grid"]),
                      lr_epoch_grid=tuple(cfg["lr_epoch_grid"]),
                      lr_l2_grid=tuple(cfg["lr_l2_grid"]),
                      lr_learning_rate=cfg["lr_learning_rate"])
    rows = load_labeled_tsv(args.data)
    dictionary = load_dictionary(args.dict, ("tgt", "src")) if args.dict else None
    report = cross_validate(rows, config, args.mode, dictionary)
    _emit_report(args, asdict(report), f"wrote report to {args.out}")
    print(f"mean_f1_positive {report.mean_f1_positive:.4f} "
          f"mean_f1_macro {report.mean_f1_macro:.4f}", file=sys.stderr)
    return _finish(args, {"mode": args.mode, **asdict(config)}, [args.data, args.dict],
                   {"rows": len(rows), "folds": config.folds}, [args.out], seed=config.seed)


# -- parser --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Mine a parallel corpus from comparable documents and "
                    "run dictionary-based translation baselines.")
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    groups = parser.add_subparsers(dest="group", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value settings file")
    common.add_argument("--manifest", help="manifest output path")

    def leaf(subparsers, name, slug, handler, help_text):
        sub = subparsers.add_parser(name, parents=[common], help=help_text)
        sub.set_defaults(handler=handler, slug=slug)
        return sub

    dict_group = groups.add_parser("dict", help="bilingual dictionary tools")
    dict_subs = dict_group.add_subparsers(dest="sub", required=True, metavar="action")
    sub = leaf(dict_subs, "build", "dict-build", _cmd_dict_build,
               "normalize a raw dictionary TSV")
    sub.add_argument("--in", dest="in_path", required=True, help="raw dictionary TSV")
    sub.add_argument("--out", required=True, help="canonical dictionary TSV")
    sub.add_argument("--direction", help="language pair label, e.g. min:id")
    sub = leaf(dict_subs, "filter", "dict-filter", _cmd_dict_filter,
               "drop translations missing from a lexicon")
    sub.add_argument("--dict", required=True, help="dictionary TSV")
    sub.add_argument("--lexicon", required=True, help="one registered word per line")
    sub.add_argument("--out", required=True)
    sub = leaf(dict_subs, "invert", "dict-invert", _cmd_dict_invert,
               "swap source and target sides")
    sub.add_argument("--dict", required=True)
    sub.add_argument("--out", required=True)
    sub = leaf(dict_subs, "stats", "dict-stats", _cmd_dict_stats,
               "entry counts and identity overlap")
    sub.add_argument("--dict", required=True)
    sub.add_argument("--out", help="JSON output (default: stdout)")

    sub = leaf(groups, "w2w", "w2w", _cmd_w2w,
               "word-for-word translation, one sentence per line")
    sub.add_argument("--dict", required=True)
    sub.add_argument("--in", dest="in_path", required=True, help="input sentences")
    sub.add_argument("--out", required=True, help="translated sentences")
    sub.add_argument("--summary", help="OOV summary JSON (default: <out>.oov.json)")
    sub.add_argument("--max-len", dest="max_len", type=int,
                     help="truncate inputs to this many tokens, 0 disables (default 75)")

    mine_group = groups.add_parser("mine", help="parallel corpus construction")
    mine_subs = mine_group.add_subparsers(dest="sub", required=True, metavar="stage")

    def mining_flags(sub, with_filter=True):
        sub.add_argument("--src", required=True, help="source documents JSONL")
        sub.add_argument("--tgt", required=True, help="target documents JSONL")
        sub.add_argument("--dict", required=True, help="source->target dictionary TSV")
        sub.add_argument("--out", required=True, help="corpus TSV")
        sub.add_argument("--threshold", type=float,
                         help=f"minimum alignment score (default {MiningConfig.align_threshold})")
        if with_filter:
            sub.add_argument("--trigram-top", dest="trigram_top", type=int,
                             help="how many frequent trigrams to watch "
                                  f"(default {MiningConfig.trigram_top_k})")
            sub.add_argument("--trigram-cap", dest="trigram_cap", type=int,
                             help="max sentences per watched trigram "
                                  f"(default {MiningConfig.trigram_cap})")
        pairing = sub.add_mutually_exclusive_group()
        pairing.add_argument("--one-to-one", dest="one_to_one", action="store_true",
                             default=None, help="unique targets per document (default)")
        pairing.add_argument("--many-to-one", dest="one_to_one", action="store_false",
                             default=None, help="allow target sentence reuse")

    sub = leaf(mine_subs, "docs", "mine-docs", _cmd_mine_docs,
               "pair documents by normalized title")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--out", required=True, help="TSV: src_id, tgt_id, title")
    sub = leaf(mine_subs, "sents", "mine-sents", _cmd_mine_sents,
               "align sentences (no trigram filter)")
    mining_flags(sub, with_filter=False)
    sub = leaf(mine_subs, "filter", "mine-filter", _cmd_mine_filter,
               "apply the trigram diversity filter to a corpus TSV")
    sub.add_argument("--in", dest="in_path", required=True, help="corpus TSV")
    sub.add_argument("--out", required=True)
    sub.add_argument("--trigram-top", dest="trigram_top", type=int)
    sub.add_argument("--trigram-cap", dest="trigram_cap", type=int)
    sub = leaf(mine_subs, "all", "mine-all", _cmd_mine_all,
               "full pipeline: pair, align, filter")
    mining_flags(sub, with_filter=True)

    eval_group = groups.add_parser("eval", help="metrics over line-aligned files")
    eval_subs = eval_group.add_subparsers(dest="sub", required=True, metavar="metric")
    sub = leaf(eval_subs, "bleu", "eval-bleu", _cmd_eval_bleu, "corpus-level BLEU")
    sub.add_argument("--hyp", required=True, help="hypothesis file, one segment per line")
    sub.add_argument("--ref", required=True, help="reference file, line-aligned")
    sub.add_argument("--lowercase", action="store_true", default=None,
                     help="case-insensitive scoring")
    sub.add_argument("--no-tokenize", dest="no_tokenize", action="store_true",
                     default=None, help="input is pre-tokenized; split on spaces")
    sub.add_argument("--out", help="JSON report (default: stdout)")
    sub = leaf(eval_subs, "rouge", "eval-rouge", _cmd_eval_rouge, "mean ROUGE-1 F1")
    sub.add_argument("--hyp", required=True)
    sub.add_argument("--ref", required=True)
    sub.add_argument("--lowercase", action="store_true", default=None)
    sub.add_argument("--out", help="JSON report (default: stdout)")
    sub = leaf(eval_subs, "stats", "eval-stats", _cmd_eval_stats,
               "descriptive statistics of a parallel corpus")
    sub.add_argument("--corpus", help="corpus TSV from mine")
    sub.add_argument("--side-a", dest="side_a", help="sentences, one per line")
    sub.add_argument("--side-b", dest="side_b", help="sentences, one per line")
    sub.add_argument("--out", help="JSON report (default: stdout)")
    sub = leaf(eval_subs, "judge", "eval-judge", _cmd_eval_judge,
               "aggregate two annotators' 1-5 scores")
    sub.add_argument("--scores-a", dest="scores_a", required=True)
    sub.add_argument("--scores-b", dest="scores_b", required=True)
    sub.add_argument("--out", help="JSON report (default: stdout)")

    sent_group = groups.add_parser("sent", help="sentiment classification harness")
    sent_subs = sent_group.add_subparsers(dest="sub", required=True, metavar="action")
    sub = leaf(sent_subs, "bpe", "sent-bpe", _cmd_sent_bpe,
               "learn a subword merge table")
    sub.add_argument("--in", dest="in_path", required=True, help="training text")
    sub.add_argument("--out", required=True, help="model JSON")
    sub.add_argument("--vocab-size", dest="vocab_size", type=int,
                     help="target vocabulary size (default 2000)")
    sub = leaf(sent_subs, "cv", "sent-cv", _cmd_sent_cv,
               "stratified k-fold cross-validation")
    sub.add_argument("--data", required=True,
                     help="TSV: label, src text, optional tgt text")
    sub.add_argument("--mode", required=True,
                     choices=["train-src/test-tgt", "train-src/test-w2w",
                              "train-tgt/test-tgt"])
    sub.add_argument("--algorithm", choices=["nb", "lr"],
                     help="classifier (default nb)")
    sub.add_argument("--dict", help="tgt->src dictionary TSV (needed for test-w2w)")
    sub.add_argument("--folds", type=int, help="fold count (default 5)")
    sub.add_argument("--ratios", help="train,dev,test (default 0.7,0.1,0.2)")
    sub.add_argument("--seed", type=int, help="shuffle seed")
    sub.add_argument("--vocab-size", dest="vocab_size", type=int,
                     help="BPE vocabulary size (default 2000)")
    sub.add_argument("--out", help="JSON report (default: stdout)")

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.started = time.perf_counter()
    try:
        _refuse_overwriting_inputs(args)
        return args.handler(args)
    except LexmineError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = exc.filename or ""
        print(f"{PROG}: {name}: {exc.strerror}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
