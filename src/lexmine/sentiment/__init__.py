"""Binary sentiment classification harness.

Subword features (byte-pair encoding unigrams + bigrams), hand-rolled
naive Bayes and logistic regression, stratified k-fold cross-validation,
and the three train/test language configurations used for zero-shot
evaluation.
"""

from .bpe import BpeModel, bpe_train, featurize
from .models import (
    LrConfig,
    LrModel,
    NbModel,
    f1_score,
    lr_predict,
    macro_f1,
    nb_log_posteriors,
    nb_predict,
    nb_train,
)
from .cv import (
    MODES,
    CvConfig,
    CvReport,
    FoldAssignment,
    LabeledPair,
    cross_validate,
    load_labeled_tsv,
    stratified_folds,
)

__all__ = [
    "BpeModel", "bpe_train", "featurize",
    "LrConfig", "LrModel", "NbModel",
    "f1_score", "macro_f1",
    "lr_predict",
    "nb_log_posteriors", "nb_predict", "nb_train",
    "MODES", "CvConfig", "CvReport", "FoldAssignment",
    "LabeledPair",
    "cross_validate", "load_labeled_tsv", "stratified_folds",
]
