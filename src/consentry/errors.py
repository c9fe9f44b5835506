"""Exception taxonomy shared across the engine.

Everything raised on purpose derives from ConsentryError, so callers (the
CLI in particular) can distinguish engine-level rejections from genuine
bugs. Script and log errors carry the source line they refer to.
"""

from __future__ import annotations


class ConsentryError(Exception):
    """Base class for every error the engine raises deliberately."""


class OntologyError(ConsentryError):
    pass


class UnknownConceptError(OntologyError):
    def __init__(self, name: object):
        super().__init__(f"unknown concept: {name!r}")
        self.name = name


class KindMismatchError(OntologyError):
    """A data concept was used where a recipient role was required, or vice versa."""


class ConsistencyError(OntologyError):
    """The declaration would contradict facts already on record."""


class DeclarationError(OntologyError):
    """The declaration is malformed on its own, e.g. names too few concepts."""


class InvalidValueError(ConsentryError, ValueError):
    """A value handed in from outside is malformed or out of range: a
    timestamp, a step duration, a repetition count, a bench scenario or a
    consent's `retroactive` flag, which must be a bool.

    It is a ValueError too, so a caller may catch it as one.
    """


class IntervalError(ConsentryError):
    """A step interval was constructed or used with impossible bounds."""


class LedgerError(ConsentryError):
    pass


class UnknownSubjectError(LedgerError):
    def __init__(self, subject: object):
        super().__init__(f"unknown data subject: {subject!r}")
        self.subject = subject


class UnknownConsentError(LedgerError):
    def __init__(self, consent: object):
        super().__init__(f"unknown consent: {consent!r}")
        self.consent = consent


class DuplicateLabelError(LedgerError):
    pass


class AlreadyWithdrawnError(LedgerError):
    pass


class QueryError(LedgerError):
    """An authorization query was malformed (bad interval, wrong shape)."""


class ScriptError(ConsentryError):
    """Base for script-processing failures. Carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class LexError(ScriptError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(line, f"column {column}: {message}")
        self.column = column


class ParseError(ScriptError):
    pass


class ExecutionError(ScriptError):
    """A statement was grammatical but impossible to apply."""


class MonitorError(ConsentryError):
    """Base for log-scanning failures. Carries the offending log line if known."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        where = f"{source or 'log'} line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.message = message  # without the place, to report it elsewhere
        self.line = line
        self.source = source


class LogFormatError(MonitorError):
    pass


class LogOrderError(MonitorError):
    pass


class EpochError(MonitorError, ValueError):
    """A record's instant precedes the epoch. The instant is out of range,
    so it is a ValueError too, and a caller may catch it as one."""
