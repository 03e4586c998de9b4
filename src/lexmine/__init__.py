"""lexmine: mine a parallel sentence corpus from comparable document
collections with a bilingual dictionary, and evaluate what you built.

The package splits into small, independently usable layers:

- ``textproc``: tokenization, sentence segmentation, n-grams
- ``dictionary``: bilingual dictionary load/filter/invert
- ``w2w``: word-for-word translation with OOV accounting
- ``mining``: title pairing, sentence alignment, trigram diversity filter
- ``metrics``: ROUGE-1 F1, corpus BLEU, Pearson, corpus statistics
- ``sentiment``: BPE features, naive Bayes / logistic regression, k-fold CV
- ``cli``: the ``lexmine`` command
"""

from .version import __version__

from .dictionary import (
    BilingualDictionary,
    dictionary_stats,
    filter_by_lexicon,
    invert,
    load_dictionary,
    load_lexicon,
    parse_dictionary,
    save_dictionary,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InputError,
    LexmineError,
    ParseError,
)
from .metrics import (
    BleuReport,
    CorpusStats,
    JudgmentSummary,
    RougeScore,
    bleu,
    corpus_stats,
    judgment_summary,
    pearson,
    rouge1_f1,
)
from .mining import (
    AlignedPair,
    Document,
    MiningConfig,
    MiningStats,
    align_documents,
    align_sentences,
    diversity_filter,
    mine,
    normalize_title,
    read_corpus,
    read_documents,
    write_corpus,
)
from .textproc import (
    is_punctuation,
    ngrams,
    normalize,
    split_sentences,
    tokenize,
)
from .w2w import TranslationResult, translate_tokens

__all__ = [
    "__version__",
    "LexmineError", "InputError", "ParseError", "ConfigError", "DivergenceError",
    "tokenize", "normalize", "split_sentences", "ngrams", "is_punctuation",
    "BilingualDictionary",
    "parse_dictionary", "load_dictionary", "save_dictionary", "load_lexicon",
    "filter_by_lexicon", "invert", "dictionary_stats",
    "TranslationResult", "translate_tokens",
    "Document", "AlignedPair", "MiningConfig", "MiningStats",
    "normalize_title", "align_documents", "align_sentences",
    "diversity_filter", "mine", "read_documents", "read_corpus", "write_corpus",
    "RougeScore", "BleuReport", "JudgmentSummary", "CorpusStats",
    "rouge1_f1", "bleu", "pearson", "judgment_summary",
    "corpus_stats",
]
