"""lexmine: mine a parallel sentence corpus from comparable document
collections with a bilingual dictionary, and evaluate what you built.

The package splits into small, independently usable modules. Import each
name from its module; ``import lexmine`` gives only ``__version__``.

- ``textproc``: tokenization, sentence segmentation, n-grams
- ``dictionary``: bilingual dictionary load/filter/invert
- ``w2w``: word-for-word translation with OOV accounting
- ``mining``: title pairing, sentence alignment, trigram diversity filter
- ``metrics``: ROUGE-1 F1, corpus BLEU, Pearson, corpus statistics
- ``sentiment``: BPE features, naive Bayes / logistic regression, k-fold CV
- ``cli``: the ``lexmine`` command
"""

__version__ = "0.1.0"
