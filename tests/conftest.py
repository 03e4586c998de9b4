"""Session setup shared by every test module.

CI runs the tests with `-W error`. When a hypothesis test fails, hypothesis
builds its failure report with `hypothesis.extra._patching`, which imports
libcst, and that import raises a DeprecationWarning from
`mypy_extensions.TypedDict`. Under `-W error` the warning escapes the
reporting hook: pytest prints INTERNALERROR instead of the failure and stops
the session. Importing the module once here, with only that import's
DeprecationWarnings ignored, leaves it cached for the reporter; every other
warning, lexmine's own included, is still an error.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: hypothesis reports without it
        pass
