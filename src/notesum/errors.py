"""Exception hierarchy shared by all notesum modules.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, everything else (an internal error) exits 3.
"""


class NotesumError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(NotesumError):
    """Invalid configuration: bad probability, missing path, unknown scorer.

    ``problems`` holds one message per offending field, so callers that
    validate several configs can report every problem at once.
    """

    def __init__(self, *problems: str):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


class DataError(NotesumError):
    """Malformed or inconsistent input data (bad record, missing section, ...)."""


class ParseError(DataError):
    """A line-delimited file could not be parsed; carries file and line context."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(where + message)


class InternalError(NotesumError):
    """A violated internal contract, e.g. overlapping spans reaching the masker."""

