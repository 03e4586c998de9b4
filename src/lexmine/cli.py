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
import errno
import gc
import os
import sys
import time
from dataclasses import asdict

from . import __version__
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
    atomic_write_json,
    atomic_write_text,
    content_lines,
    format_json,
    read_lines,
    timing_path_for,
    write_manifest,
)
from .metrics import bleu, corpus_stats, judgment_summary, rouge1_f1, sum_in_order
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
from .sentiment.bpe import bpe_train
from .sentiment.cv import MODES, CvConfig, cross_validate, load_labeled_tsv
from .textproc import normalize, tokenize
from .w2w import translate_tokens

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


# every setting a command can apply: config key -> (converter, default, flag
# help); `leaf` gives each key with a help a flag --key-with-dashes
_SETTINGS = {
    "direction": (str, "src:tgt", "language pair label, e.g. min:id; the TSV stores no "
                  "direction, so only this command's manifest records it"),
    "max_len": (int, 75, "truncate inputs to this many tokens, 0 disables"),
    "threshold": (float, MiningConfig.align_threshold, "minimum alignment score"),
    "trigram_top": (int, MiningConfig.trigram_top_k, "how many frequent trigrams to watch"),
    "trigram_cap": (int, MiningConfig.trigram_cap, "max sentences per watched trigram"),
    "one_to_one": (_conv_bool, MiningConfig.one_to_one, None),  # flag pair in pairing_flags
    "lowercase": (_conv_bool, False, "case-insensitive scoring"),
    "no_tokenize": (_conv_bool, False, "input is pre-tokenized; split on whitespace"),
    "vocab_size": (int, CvConfig.bpe_vocab_size, "BPE vocabulary size"),
    "algorithm": (str, CvConfig.algorithm, None),  # flag with choices in _build_parser
    "folds": (int, CvConfig.folds, "fold count"),
    "ratios": (_conv_floats, CvConfig.ratios, "train,dev,test"),
    "seed": (int, CvConfig.seed, "shuffle seed"),
    "nb_alpha_grid": (_conv_floats, CvConfig.nb_alpha_grid, None),
    "lr_epoch_grid": (_conv_ints, CvConfig.lr_epoch_grid, None),
    "lr_l2_grid": (_conv_floats, CvConfig.lr_l2_grid, None),
    "lr_learning_rate": (float, CvConfig.lr_learning_rate, None),
}
# the config dataclass field of each key that names it differently
_FIELDS = {"threshold": "align_threshold", "trigram_top": "trigram_top_k",
           "vocab_size": "bpe_vocab_size"}


def _read_config_file(path) -> dict[str, str]:
    """key=value lines; '#' comments and blank lines are skipped. A key that
    no command knows, or one given twice, is an error."""
    settings: dict[str, str] = {}
    for line_no, raw in content_lines(read_lines(path)):
        line = raw.strip()
        if "=" not in line:
            raise ParseError(path, line_no, f"expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SETTINGS:
            raise ParseError(path, line_no, f"unknown key {key!r}")
        if key in settings:
            raise ParseError(path, line_no, f"key {key!r} given twice")
        settings[key] = value
    return settings


def _resolve(args) -> dict:
    """Resolve the command's `args.settings` by the precedence flags >
    config file (`args.file_settings`, which `run` reads) > defaults.
    Converters run on raw strings only, so typed flag values pass through."""
    resolved = {}
    for key in args.settings:
        conv, default, _ = _SETTINGS[key]
        value = getattr(args, key, None)
        if value is None:
            value = args.file_settings.get(key, default)
        if isinstance(value, str) and conv is not str:
            try:
                value = conv(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        resolved[key] = value
    return resolved


def _resolve_config(args, cls):
    """The config dataclass `cls` of the resolved settings, and the settings
    by field name, which is what the manifest records."""
    applied = {_FIELDS.get(key, key): value for key, value in _resolve(args).items()}
    return cls(**applied), applied


def _parse_direction(raw: str) -> tuple[str, str]:
    parts = raw.split(":")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise ConfigError(f"direction must look like src:tgt, got {raw!r}")
    return (parts[0].strip(), parts[1].strip())


def _given(args, dests) -> list[str]:
    """The paths given to the flags `dests` of the running command."""
    return [getattr(args, dest) for dest in dests if getattr(args, dest)]


def _check_outputs(args) -> None:
    """Refuse, before anything is written, an output path that cannot be
    created; one naming an input file, which would replace the bytes the
    run reads, and the manifest would record the output's digest as the
    input's; and two outputs, the timing sidecar included, naming one file,
    of which only the last written would survive. Outputs may not exist
    yet, so they are compared by their resolved paths. The files are the
    ones the command declared with `_file_flags`, then --manifest."""
    outputs = [(f"--{dest}", getattr(args, dest)) for dest in args.outputs
               if getattr(args, dest)]
    outputs += [("--manifest", args.manifest),
                ("timing sidecar", timing_path_for(args.manifest))]
    claimed = {}
    for name, out in outputs:
        if os.path.exists(out):
            for path in _given(args, args.inputs):
                if os.path.exists(path) and os.path.samefile(out, path):
                    raise ConfigError(f"{name} {out} is the same file as input {path}")
        if os.path.isdir(out):
            raise InputError(f"cannot write {out}: {os.strerror(errno.EISDIR)}")
        if not os.path.isdir(os.path.dirname(out) or os.curdir):
            raise InputError(f"cannot write {out}: {os.strerror(errno.ENOENT)}")
        real = os.path.realpath(out)
        if real in claimed:
            raise ConfigError(f"{name} {out} is the same file as {claimed[real]}")
        claimed[real] = f"{name} {out}"


def _emit_report(args, payload: dict, summary_line: str) -> None:
    """Report goes to --out as JSON when given, else to stdout."""
    if args.out:
        atomic_write_json(args.out, payload)
        print(summary_line)
    else:
        print(format_json(payload), end="")


# -- dict ----------------------------------------------------------------------

def _cmd_dict_build(args) -> tuple[dict, dict]:
    cfg = _resolve(args)
    direction = _parse_direction(cfg["direction"])
    dictionary = load_dictionary(args.in_path, direction)
    save_dictionary(dictionary, args.out)
    print(f"wrote {len(dictionary)} entries to {args.out}", file=sys.stderr)
    return {"direction": list(direction)}, {"entries": len(dictionary)}


def _cmd_dict_filter(args) -> tuple[dict, dict]:
    dictionary = load_dictionary(args.dict)
    lexicon = load_lexicon(args.lexicon)
    filtered = filter_by_lexicon(dictionary, lexicon)
    save_dictionary(filtered, args.out)
    print(f"kept {len(filtered)} of {len(dictionary)} entries", file=sys.stderr)
    return {"lexicon": str(args.lexicon)}, {"entries_before": len(dictionary),
                                            "entries_after": len(filtered),
                                            "lexicon_words": len(lexicon)}


def _cmd_dict_invert(args) -> tuple[dict, dict]:
    dictionary = load_dictionary(args.dict)
    inverted = invert(dictionary)
    save_dictionary(inverted, args.out)
    print(f"wrote {len(inverted)} inverted entries to {args.out}", file=sys.stderr)
    return ({"direction": list(inverted.direction)},
            {"entries_before": len(dictionary), "entries_after": len(inverted)})


def _cmd_dict_stats(args) -> tuple[dict, dict]:
    stats = dictionary_stats(load_dictionary(args.dict))
    _emit_report(args, stats, f"wrote stats to {args.out}")
    return {}, {"entries": stats["entries"]}


# -- w2w -----------------------------------------------------------------------

def _cmd_w2w(args) -> tuple[dict, dict]:
    cfg = _resolve(args)
    if cfg["max_len"] < 0:
        raise ConfigError(f"max-len must be >= 0, got {cfg['max_len']}")
    dictionary = load_dictionary(args.dict)
    sentences = oov_tokens = total_tokens = 0
    translated = []
    for line in read_lines(args.in_path):
        tokens = tokenize(line)
        if not tokens:
            translated.append("")
            continue
        if cfg["max_len"]:
            tokens = tokens[:cfg["max_len"]]
        result = translate_tokens(dictionary, tokens)
        sentences += 1
        oov_tokens += result.oov_count
        total_tokens += result.total_count
        translated.append(result.text)
    summary = {"sentences": sentences, "oov_tokens": oov_tokens, "total_tokens": total_tokens,
               "oov_rate": oov_tokens / total_tokens if total_tokens else 0.0,
               "zero_denominator": total_tokens == 0}
    atomic_write_text(args.out, "\n".join(translated) + "\n" if translated else "")
    atomic_write_json(args.summary, summary)
    print(f"translated {sentences} sentences, "
          f"{oov_tokens}/{total_tokens} tokens OOV", file=sys.stderr)
    return {"max_len": cfg["max_len"]}, summary


# -- mine ----------------------------------------------------------------------

def _cmd_mine_docs(args) -> tuple[dict, dict]:
    src_docs = read_documents(args.src)
    tgt_docs = read_documents(args.tgt)
    pairs = align_documents(src_docs, tgt_docs)
    rows = [f"{src.id}\t{tgt.id}\t{normalize_title(src.title)}" for src, tgt in pairs]
    atomic_write_text(args.out, "\n".join(rows) + "\n" if rows else "")
    print(f"paired {len(pairs)} documents", file=sys.stderr)
    return {}, {"source_documents": len(src_docs), "target_documents": len(tgt_docs),
                "document_pairs": len(pairs)}


def _run_mining(args, apply_filter: bool) -> tuple[dict, dict]:
    mining_cfg, config = _resolve_config(args, MiningConfig)
    src_docs = read_documents(args.src)
    tgt_docs = read_documents(args.tgt)
    dictionary = load_dictionary(args.dict)
    pairs, counts = mine(src_docs, tgt_docs, dictionary, mining_cfg, apply_filter=apply_filter)
    write_corpus(pairs, args.out)
    print(f"paired {counts['document_pairs']} documents, "
          f"aligned {counts['aligned_pairs']} sentence pairs, "
          f"kept {counts['final_pairs']}", file=sys.stderr)
    return config, counts


def _cmd_mine_sents(args) -> tuple[dict, dict]:
    return _run_mining(args, apply_filter=False)


def _cmd_mine_all(args) -> tuple[dict, dict]:
    return _run_mining(args, apply_filter=True)


def _cmd_mine_filter(args) -> tuple[dict, dict]:
    mining_cfg, config = _resolve_config(args, MiningConfig)
    pairs = read_corpus(args.in_path)
    kept = diversity_filter(pairs, mining_cfg)
    write_corpus(kept, args.out)
    print(f"kept {len(kept)} of {len(pairs)} pairs", file=sys.stderr)
    return config, {"pairs_before": len(pairs), "pairs_after": len(kept)}


# -- eval ----------------------------------------------------------------------

def _parallel_tokens(args, pretokenized: bool, lowercase: bool):
    """The line count shared by --hyp and --ref, and one lazy token-list
    iterator per file, so a line's tokens live only while it is scored.

    A first pass counts each file's lines, so an undecodable file, a line
    count mismatch and an empty file fail before anything is scored.
    """
    hyp_count = sum(1 for _ in read_lines(args.hyp))
    ref_count = sum(1 for _ in read_lines(args.ref))
    if hyp_count != ref_count:
        raise InputError(f"{args.hyp} has {hyp_count} lines but {args.ref} has {ref_count}")
    if not hyp_count:
        raise InputError(f"{args.hyp} is empty")

    def split(line):
        tokens = line.split() if pretokenized else tokenize(line)
        return normalize(tokens) if lowercase else tokens

    return hyp_count, map(split, read_lines(args.hyp)), map(split, read_lines(args.ref))


def _cmd_eval_bleu(args) -> tuple[dict, dict]:
    cfg = _resolve(args)
    segments, hyps, refs = _parallel_tokens(args, cfg["no_tokenize"], cfg["lowercase"])
    report = bleu(hyps, refs)
    if args.out:
        atomic_write_json(args.out, {**report.to_dict(), "lowercased": cfg["lowercase"]})
    print(f"bleu {report.bleu:.2f}")
    return cfg, {"segments": segments}


def _cmd_eval_rouge(args) -> tuple[dict, dict]:
    cfg = _resolve(args)
    _, hyps, refs = _parallel_tokens(args, pretokenized=False, lowercase=cfg["lowercase"])
    scores = [rouge1_f1(h, r) for h, r in zip(hyps, refs)]
    payload = {
        "lines": len(scores),
        "mean_precision": sum_in_order(s.precision for s in scores) / len(scores),
        "mean_recall": sum_in_order(s.recall for s in scores) / len(scores),
        "mean_f1": sum_in_order(s.f1 for s in scores) / len(scores),
        "lowercased": cfg["lowercase"],
    }
    if args.out:
        atomic_write_json(args.out, payload)
    print(f"rouge1_f1 {payload['mean_f1']:.4f}")
    return cfg, {"segments": len(scores)}


def _cmd_eval_stats(args) -> tuple[dict, dict]:
    if args.corpus:
        if args.side_a or args.side_b:
            raise ConfigError("give either --corpus or --side-a/--side-b, not both")
        pairs = read_corpus(args.corpus)
        side_a = [p.source_sentence for p in pairs]
        side_b = [p.target_sentence for p in pairs]
    elif args.side_a and args.side_b:
        side_a = [line for line in read_lines(args.side_a) if line.strip()]
        side_b = [line for line in read_lines(args.side_b) if line.strip()]
    else:
        raise ConfigError("stats needs --corpus or both --side-a and --side-b")
    stats = corpus_stats(side_a, side_b)
    _emit_report(args, asdict(stats), f"wrote stats to {args.out}")
    return {}, {"sentences_a": stats.side_a.sentences, "sentences_b": stats.side_b.sentences}


def _read_scores(path) -> list[int]:
    scores = []
    for line_no, raw in content_lines(read_lines(path)):
        line = raw.strip()
        try:
            score = int(line)
        except ValueError as exc:
            raise ParseError(path, line_no, f"expected an integer, got {line!r}") from exc
        if not 1 <= score <= 5:
            raise ParseError(path, line_no, f"expected a score in 1..5, got {score}")
        scores.append(score)
    return scores


def _cmd_eval_judge(args) -> tuple[dict, dict]:
    scores_a = _read_scores(args.scores_a)
    scores_b = _read_scores(args.scores_b)
    if len(scores_a) != len(scores_b):
        raise InputError(f"{args.scores_a} has {len(scores_a)} scores but "
                         f"{args.scores_b} has {len(scores_b)}")
    summary = judgment_summary(scores_a, scores_b)
    if args.out:
        atomic_write_json(args.out, asdict(summary))
    agreement = f"{summary.pearson:.4f}" if summary.pearson_defined else "undefined"
    print(f"mean {summary.mean_score:.2f} pearson {agreement}")
    return {}, {"items": summary.items}


# -- sent ----------------------------------------------------------------------

def _cmd_sent_bpe(args) -> tuple[dict, dict]:
    cfg = _resolve(args)
    lines = [line for line in read_lines(args.in_path) if line.strip()]
    if not lines:
        raise InputError(f"{args.in_path} has no text")
    model = bpe_train(lines, vocab_size=cfg["vocab_size"])
    atomic_write_json(args.out, model.to_dict())
    print(f"learned {len(model.merges)} merges from {len(lines)} lines", file=sys.stderr)
    return cfg, {"lines": len(lines), "merges": len(model.merges)}


def _cmd_sent_cv(args) -> tuple[dict, dict]:
    config, applied = _resolve_config(args, CvConfig)
    rows = load_labeled_tsv(args.data)
    dictionary = load_dictionary(args.dict, ("tgt", "src")) if args.dict else None
    report = cross_validate(rows, config, args.mode, dictionary)
    _emit_report(args, asdict(report), f"wrote report to {args.out}")
    print(f"mean_f1_positive {report.mean_f1_positive:.4f} "
          f"mean_f1_macro {report.mean_f1_macro:.4f}", file=sys.stderr)
    return {"mode": args.mode, **applied}, {"rows": len(rows), "folds": config.folds}


# -- parser --------------------------------------------------------------------

def _file_flags(parser, files) -> None:
    """Add to `parser` a flag for each (flag, role, help) of `files`, and
    record its dest among the files the command reads (role "in") or writes
    ("out"); a role ending in "?" makes the flag optional. The manifest and
    `_check_outputs` take exactly these files."""
    inputs = parser.get_default("inputs") or ()
    outputs = parser.get_default("outputs") or ()
    for flag, role, help_text in files:
        # `in` is a keyword, so --in cannot keep its own dest
        dest = parser.add_argument(flag, dest="in_path" if flag == "--in" else None,
                                   required=not role.endswith("?"), help=help_text).dest
        if role.startswith("in"):
            inputs += (dest,)
        else:
            outputs += (dest,)
    parser.set_defaults(inputs=inputs, outputs=outputs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Mine a parallel corpus from comparable documents and "
                    "run dictionary-based translation baselines.")
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    groups = parser.add_subparsers(dest="group", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    _file_flags(common, [("--config", "in?", "key=value settings file")])
    common.add_argument("--manifest", help="manifest output path")

    def leaf(subparsers, name, handler, help_text, settings=(), files=()):
        """A command parser that resolves `settings`, with their flags, and
        takes the file flags `files`."""
        sub = subparsers.add_parser(name, parents=[common], help=help_text)
        for key in settings:
            conv, default, flag_help = _SETTINGS[key]
            if flag_help is None:  # no flag, or a hand-written one
                continue
            flag = "--" + key.replace("_", "-")
            if conv is _conv_bool:
                sub.add_argument(flag, dest=key, action="store_true", default=None,
                                 help=flag_help)
            else:
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
                sub.add_argument(flag, dest=key, type=conv if conv in (int, float) else None,
                                 help=f"{flag_help} (default {shown})")
        _file_flags(sub, files)
        sub.set_defaults(handler=handler, settings=settings)
        return sub

    report = ("--out", "out?", "JSON report (default: stdout)")
    summary = ("--out", "out?", "JSON report; without it only the summary line is printed")

    dict_group = groups.add_parser("dict", help="bilingual dictionary tools")
    dict_subs = dict_group.add_subparsers(dest="sub", required=True, metavar="action")
    leaf(dict_subs, "build", _cmd_dict_build, "normalize a raw dictionary TSV", ("direction",),
         [("--in", "in", "raw dictionary TSV"), ("--out", "out", "canonical dictionary TSV")])
    leaf(dict_subs, "filter", _cmd_dict_filter, "drop translations missing from a lexicon",
         files=[("--dict", "in", "dictionary TSV"),
                ("--lexicon", "in", "one registered word per line"), ("--out", "out", None)])
    leaf(dict_subs, "invert", _cmd_dict_invert, "swap source and target sides",
         files=[("--dict", "in", None), ("--out", "out", None)])
    leaf(dict_subs, "stats", _cmd_dict_stats, "entry counts and identity overlap",
         files=[("--dict", "in", None), ("--out", "out?", "JSON output (default: stdout)")])

    leaf(groups, "w2w", _cmd_w2w, "word-for-word translation, one sentence per line",
         ("max_len",), [("--dict", "in", None), ("--in", "in", "input sentences"),
                        ("--out", "out", "translated sentences"),
                        ("--summary", "out?", "OOV summary JSON (default: <out>.oov.json)")])

    mine_group = groups.add_parser("mine", help="parallel corpus construction")
    mine_subs = mine_group.add_subparsers(dest="sub", required=True, metavar="stage")
    mining_files = [("--src", "in", "source documents JSONL"),
                    ("--tgt", "in", "target documents JSONL"),
                    ("--dict", "in", "source->target dictionary TSV"),
                    ("--out", "out", "corpus TSV")]

    def pairing_flags(sub):
        pairing = sub.add_mutually_exclusive_group()
        pairing.add_argument("--one-to-one", dest="one_to_one", action="store_true",
                             default=None, help="unique targets per document (default)")
        pairing.add_argument("--many-to-one", dest="one_to_one", action="store_false",
                             default=None, help="allow target sentence reuse")

    leaf(mine_subs, "docs", _cmd_mine_docs, "pair documents by normalized title",
         files=[("--src", "in", None), ("--tgt", "in", None),
                ("--out", "out", "TSV: src_id, tgt_id, title")])
    pairing_flags(leaf(mine_subs, "sents", _cmd_mine_sents, "align sentences (no trigram filter)",
                       ("threshold", "one_to_one"), mining_files))
    leaf(mine_subs, "filter", _cmd_mine_filter,
         "apply the trigram diversity filter to a corpus TSV", ("trigram_top", "trigram_cap"),
         [("--in", "in", "corpus TSV"), ("--out", "out", None)])
    pairing_flags(leaf(mine_subs, "all", _cmd_mine_all, "full pipeline: pair, align, filter",
                       ("threshold", "trigram_top", "trigram_cap", "one_to_one"), mining_files))

    eval_group = groups.add_parser("eval", help="metrics over line-aligned files")
    eval_subs = eval_group.add_subparsers(dest="sub", required=True, metavar="metric")
    leaf(eval_subs, "bleu", _cmd_eval_bleu, "corpus-level BLEU", ("lowercase", "no_tokenize"),
         [("--hyp", "in", "hypothesis file, one segment per line"),
          ("--ref", "in", "reference file, line-aligned"), summary])
    leaf(eval_subs, "rouge", _cmd_eval_rouge, "mean ROUGE-1 F1", ("lowercase",),
         [("--hyp", "in", None), ("--ref", "in", None), summary])
    leaf(eval_subs, "stats", _cmd_eval_stats, "descriptive statistics of a parallel corpus",
         files=[("--corpus", "in?", "corpus TSV from mine"),
                ("--side-a", "in?", "sentences, one per line"),
                ("--side-b", "in?", "sentences, one per line"), report])
    leaf(eval_subs, "judge", _cmd_eval_judge, "aggregate two annotators' 1-5 scores",
         files=[("--scores-a", "in", None), ("--scores-b", "in", None), summary])

    sent_group = groups.add_parser("sent", help="sentiment classification harness")
    sent_subs = sent_group.add_subparsers(dest="sub", required=True, metavar="action")
    leaf(sent_subs, "bpe", _cmd_sent_bpe, "learn a subword merge table", ("vocab_size",),
         [("--in", "in", "training text"), ("--out", "out", "model JSON")])
    sub = leaf(sent_subs, "cv", _cmd_sent_cv, "stratified k-fold cross-validation",
               ("algorithm", "folds", "ratios", "seed", "vocab_size", "nb_alpha_grid",
                "lr_epoch_grid", "lr_l2_grid", "lr_learning_rate"),
               [("--data", "in", "TSV: label, src text, optional tgt text")])
    sub.add_argument("--mode", required=True, choices=MODES)
    sub.add_argument("--algorithm", choices=["nb", "lr"],
                     help=f"classifier (default {CvConfig.algorithm})")
    _file_flags(sub, [("--dict", "in?", "tgt->src dictionary TSV (needed for test-w2w)"),
                      report])

    return parser


def run(argv) -> int:
    """Run one command and record it.

    The handler returns the settings it applied and its counts; the
    manifest adds the files given to the flags that the command declared
    with `_file_flags`. It goes to --manifest, else next to --out, else to
    `lexmine-<command>.manifest.json` in the working directory, and its
    timing sidecar next to it. Every output path is checked before the
    command writes anything.

    The cyclic garbage collector is paused while the command runs, and the
    caller's collector state is restored afterwards. Reference counting
    still frees every object the command drops; the pause only skips the
    collector's passes over the tuples, sets and lists a command builds.
    That is safe while lexmine's data forms no reference cycles, which
    `tests/test_cli.py::TestNoReferenceCycles` keeps true: the cyclic
    garbage a command leaves does not grow with its input.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    for arg in argv:  # undecodable bytes arrive as lone surrogates
        try:
            arg.encode("utf-8")
        except UnicodeEncodeError:
            print(f"{PROG}: argument {arg!r} is not valid UTF-8", file=sys.stderr)
            return 1
    started = time.perf_counter()
    slug = "-".join(filter(None, [args.group, getattr(args, "sub", None)]))
    if not args.manifest:
        args.manifest = (f"{args.out}.manifest.json" if args.out
                         else f"{PROG}-{slug}.manifest.json")
    if "summary" in args and not args.summary:
        args.summary = f"{args.out}.oov.json"
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check_outputs(args)
        # every command parses its --config, so a malformed file fails alike
        args.file_settings = _read_config_file(args.config) if args.config else {}
        config, counts = args.handler(args)
        write_manifest(
            args.manifest, slug.replace("-", " "), config,
            inputs=_given(args, args.inputs), counts=counts,
            outputs=_given(args, args.outputs),
            timing={"total_s": round(time.perf_counter() - started, 6)})
        return 0
    except LexmineError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = exc.filename or ""
        print(f"{PROG}: {name}: {exc.strerror}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
