"""Session setup shared by every test module.

CI runs the tests with `-W error`. When a hypothesis test fails, hypothesis
builds its failure report with `hypothesis.extra._patching`, which imports
libcst, and that import raises a DeprecationWarning from
`mypy_extensions.TypedDict`. Under `-W error` the warning escapes the
reporting hook: pytest prints INTERNALERROR instead of the failure and stops
the session. Importing the module once here, with only that import's
DeprecationWarnings ignored, leaves it cached for the reporter; every other
warning, lexmine's own included, is still an error.

Every test also runs sentiment cross-validation's folds in the test process
(`folds_in_this_process`).
"""
import os
import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: hypothesis reports without it
        pass


@pytest.fixture(autouse=True, scope="session")
def folds_in_this_process():
    """Pin `cross_validate` to its in-process path in this process.

    It forks fold workers only from a process with one OS thread, and
    whether pytest's process has a second one depends on which earlier test
    imported numpy (its BLAS pool starts threads). One CPU keeps every test
    here on one path, so a test that patches a function sees every call;
    `tests/test_sentiment_cv.py::TestForkedFolds` drives the worker path from
    fresh interpreters.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        yield
