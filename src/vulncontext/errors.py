"""Exception hierarchy shared across the package."""

from __future__ import annotations


class VulnContextError(Exception):
    """Base class for all package errors."""


class UnsupportedLanguageError(VulnContextError):
    """The function's language is not C, the only one the frontend reads."""


class SourceSyntaxError(VulnContextError):
    """The grammar rejected the input source text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class SourceTooDeepError(SourceSyntaxError):
    """The input nests deeper than the C frontend's recursion can follow."""


class MissingPlaceholderError(VulnContextError):
    """A verbalization template field has no source value and no omission rule."""


class CorpusFormatError(VulnContextError):
    """The knowledge corpus export could not be parsed."""


class LlmError(VulnContextError):
    """Base class for chat-completion failures."""


class LlmTimeoutError(LlmError):
    """The request exceeded its timeout."""


class LlmTransportError(LlmError):
    """The request failed at the transport layer."""


class LlmRateLimitedError(LlmError):
    """The backend rejected the request due to rate limiting."""


class LlmBadResponseError(LlmError):
    """The backend returned a malformed or empty response."""


class VerdictParseError(VulnContextError):
    """No verdict line could be parsed from the judgment response."""


class TriageError(VulnContextError):
    """The final judgment call failed after retries; no verdict is available."""


class MissingPredictionError(VulnContextError):
    """A pair references a function with no recorded prediction."""


class DatasetFormatError(VulnContextError):
    """A dataset, manifest, or verdict file is malformed."""


class ConfigError(VulnContextError):
    """Invalid run configuration."""
