"""Exception types shared across the toolkit.

Every error raised on bad user input derives from LexmineError so the CLI
can map it to exit status 1 with a one-line diagnostic.
"""


class LexmineError(Exception):
    """Base class for all toolkit errors."""


class InputError(LexmineError):
    """Invalid argument values or inconsistent inputs (lengths, ranges)."""


class ParseError(InputError):
    """Malformed input file; carries the offending path and line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


class ConfigError(LexmineError):
    """Invalid or incomplete run configuration."""


class DivergenceError(LexmineError):
    """Numeric optimization produced a non-finite loss."""
