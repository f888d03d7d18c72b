"""Exception types shared across the harxlab package."""

from __future__ import annotations


class HarxlabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HarxlabError):
    """A vector or matrix operand has the wrong length for the operation."""


class BadLength(HarxlabError):
    """A requested sequence length is too short to produce any data."""


class EmptyDataset(HarxlabError):
    """Correlation estimation needs at least one (regressor, output) pair."""


class SingularCorrelation(HarxlabError):
    """The (ridge-adjusted) correlation matrix is numerically singular."""


class DataOverflow(HarxlabError):
    """Simulated data overflow float64, so no estimate built from them is finite."""


class DomainError(HarxlabError):
    """Inputs leave the real domain of the requested computation."""


class UnboundSymbol(HarxlabError):
    """A symbol in a shape expression has no binding in the environment."""


class ParseError(HarxlabError):
    """Shape-expression text failed to parse.

    Carries the character offset of the failure and a short description of
    what was expected there.
    """

    def __init__(self, position: int, expected: str):
        super().__init__(f"parse error at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


class _LocatedFileError(HarxlabError):
    """File-format error that remembers where in which file it happened."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        prefix = ""
        if path is not None:
            prefix = f"{path}:" + (f"{line}:" if line is not None else "")
            prefix += " "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)
        self.path = path
        self.line = line


class ScenarioError(_LocatedFileError):
    """A plant scenario file is malformed or fails validation."""


class ExperimentSpecError(_LocatedFileError):
    """An experiment spec file is malformed or fails validation."""
