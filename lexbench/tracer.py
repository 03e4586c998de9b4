"""Run one lexmine command in this process with its layers traced.

    python3 tracer.py OUT_PREFIX LEXMINE_ARG...

Wraps the public functions named in SPANS from outside, in every lexmine
module that imported them (``cli`` imports ``tokenize`` directly, for
example), then calls ``lexmine.cli.run``. Each call becomes a span with
its start, end and parent span, kept in memory and written at exit:
OUT_PREFIX.json holds the span names, counters and exit code, and
OUT_PREFIX.spans the span columns as native arrays (name index, parent
index, start, end). Counters are read at the same boundaries from the
wrapped calls' arguments and results, or count the calls of the methods
named in COUNTED.
"""
from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

# counter name -> (module, class, method): calls counted, not timed
COUNTED = {
    # one call per gradient-descent step the LR trainer takes
    "sentiment.models.lr_steps": ("lexmine.sentiment.models", "_LrProblem", "gradient"),
}

# span name -> (module, function)
SPANS = {
    "textproc.split_sentences": ("lexmine.textproc", "split_sentences"),
    "textproc.tokenize": ("lexmine.textproc", "tokenize"),
    "dictionary.load_dictionary": ("lexmine.dictionary", "load_dictionary"),
    "w2w.translate_tokens": ("lexmine.w2w", "translate_tokens"),
    "metrics.rouge1_f1": ("lexmine.metrics", "rouge1_f1"),
    "metrics.bleu": ("lexmine.metrics", "bleu"),
    "mining.read_documents": ("lexmine.mining", "read_documents"),
    "mining.read_corpus": ("lexmine.mining", "read_corpus"),
    "mining.align_documents": ("lexmine.mining", "align_documents"),
    "mining.align_sentences": ("lexmine.mining", "align_sentences"),
    "mining.diversity_filter": ("lexmine.mining", "diversity_filter"),
    "mining.write_corpus": ("lexmine.mining", "write_corpus"),
    "sentiment.bpe.bpe_train": ("lexmine.sentiment.bpe", "bpe_train"),
    "sentiment.bpe.featurize": ("lexmine.sentiment.bpe", "featurize"),
    "sentiment.models.nb_train": ("lexmine.sentiment.models", "nb_train"),
    "sentiment.models.nb_predict": ("lexmine.sentiment.models", "nb_predict"),
    "sentiment.models.lr_train_checkpoints": ("lexmine.sentiment.models", "lr_train_checkpoints"),
    "sentiment.models.lr_predict": ("lexmine.sentiment.models", "lr_predict"),
    "sentiment.cv.stratified_folds": ("lexmine.sentiment.cv", "stratified_folds"),
    "sentiment.cv.cross_validate": ("lexmine.sentiment.cv", "cross_validate"),
    "manifest.sha256_file": ("lexmine.manifest", "sha256_file"),
    "manifest.atomic_write_text": ("lexmine.manifest", "atomic_write_text"),
    "cli.run": ("lexmine.cli", "run"),
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_oov(counters, args, kwargs, result):
    counters["w2w.oov_tokens"] += result.oov_count
    counters["w2w.tokens"] += result.total_count


def _count_aligned(counters, args, kwargs, result):
    counters["mining.aligned_pairs"] += len(result)


def _count_filtered(counters, args, kwargs, result):
    counters["mining.filter.pairs_in"] += len(_arg(args, kwargs, 0, "pairs"))
    counters["mining.filter.pairs_out"] += len(result)


def _count_hyp_ngrams(counters, args, kwargs, result):
    for hyp in _arg(args, kwargs, 0, "hypotheses"):
        counters["metrics.bleu.hyp_ngrams"] += sum(max(0, len(hyp) - n + 1)
                                                   for n in range(1, 5))


def _count_merges(counters, args, kwargs, result):
    counters["sentiment.bpe.merges"] += len(result.merges)


def _check_folds(counters, args, kwargs, result):
    # a correctness check on the library's output: the k test buckets
    # must partition the row indices
    n_rows = len(_arg(args, kwargs, 0, "data"))
    tested = sorted(idx for fold in result for idx in fold.test)
    counters["sentiment.cv.partition_failures"] += tested != list(range(n_rows))


def _count_hashed(counters, args, kwargs, result):
    counters["manifest.bytes_hashed"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "w2w.translate_tokens": _count_oov,
    "mining.align_sentences": _count_aligned,
    "mining.diversity_filter": _count_filtered,
    "metrics.bleu": _count_hyp_ngrams,
    "sentiment.bpe.bpe_train": _count_merges,
    "sentiment.cv.stratified_folds": _check_folds,
    "manifest.sha256_file": _count_hashed,
}


class Recorder:
    """Spans as parallel columns; `current` is the innermost open span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.counters: Counter = Counter()

    def wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        counters = self.counters
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = recorder.current
            name_ids.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            recorder.current = idx
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                recorder.current = parent
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, func):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return func(*args, **kwargs)

        return counted

    def write(self, prefix: str, extra: dict) -> None:
        with open(prefix + ".spans", "wb") as handle:
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": len(self.starts),
                       "counters": self.counters, **extra}, handle)


def install(recorder: Recorder) -> None:
    """Replace every SPANS function wherever a lexmine module holds it.

    Also counts the calls of every COUNTED method. A name the library no
    longer defines is skipped; its span or counter reads 0.
    """
    modules = {name: module for name, module in sys.modules.items()
               if module is not None and (name == "lexmine" or name.startswith("lexmine."))}
    for span, (module_name, attr) in SPANS.items():
        original = getattr(modules.get(module_name), attr, None)
        if original is None:
            continue
        traced = recorder.wrap(span, original)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    for counter, (module_name, cls_name, attr) in COUNTED.items():
        cls = getattr(modules.get(module_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is not None:
            setattr(cls, attr, recorder.count(counter, original))


def main(argv: list[str]) -> int:
    prefix, lexmine_args = argv[0], argv[1:]
    started = time.perf_counter()
    import lexmine.cli
    import_s = time.perf_counter() - started
    recorder = Recorder()
    install(recorder)
    code = lexmine.cli.run(lexmine_args)
    recorder.write(prefix, {"exit_code": code, "import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
