"""Binary sentiment classification harness.

Subword features (byte-pair encoding unigrams + bigrams), hand-rolled
naive Bayes and logistic regression, stratified k-fold cross-validation,
and the three train/test language configurations used for zero-shot
evaluation.
"""
