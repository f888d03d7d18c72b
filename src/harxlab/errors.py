"""Exception types shared across the harxlab package, and :func:`record`,
the class decorator of its frozen records."""

from __future__ import annotations

from dataclasses import FrozenInstanceError


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


def record(cls=None, *, eq=False):
    """Make ``cls`` the class ``@dataclass(frozen=True, eq=eq)`` would make,
    from functions written once here, so building a class compiles nothing.

    The fields are the class's own annotations, in order, with its
    class-level defaults; ``__match_args__`` names them.  The constructor
    takes them positionally or by keyword, raises TypeError for a missing,
    unknown or repeated argument, sets them and then calls
    ``__post_init__``, which may set a field with ``object.__setattr__``.
    Assignment and ``del`` raise FrozenInstanceError, and ``repr`` is the
    dataclass form (:func:`_repr`).  With ``eq``, ``==`` and ``hash`` go by
    the tuple of the fields, as a dataclass's do; without, by identity.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__annotations__)
    known = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args))
        values = {**defaults, **given, **kwargs}
        if len(args) > len(names) or values.keys() != known or not given.keys().isdisjoint(kwargs):
            raise TypeError(_call_faults(cls.__name__, names, defaults, args, kwargs))
        self.__dict__.update(values)
        post_init(self)

    cls.__init__, cls.__setattr__, cls.__delattr__, cls.__match_args__ = __init__, _frozen, _frozen, names
    cls.__repr__ = _repr
    if eq:
        fields = lambda self: tuple(getattr(self, name) for name in names)  # noqa: E731
        cls.__eq__ = lambda self, other: fields(self) == fields(other) if type(other) is type(self) else NotImplemented
        cls.__hash__ = lambda self: hash(fields(self))
    return cls


def _repr(self) -> str:
    """The dataclass form, ``Add(a=Sym(name='x'), b=...)``.  A field that is
    itself a record is written inline by the same loop, with a stack of its
    own, so a tree of records prints at any depth."""
    parts, todo = [], [self]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        pieces = [f"{type(item).__qualname__}("]
        for i, name in enumerate(item.__match_args__):
            value = getattr(item, name)
            pieces += [f"{', ' if i else ''}{name}=", value if type(value).__repr__ is _repr else repr(value)]
        todo.extend(reversed([*pieces, ")"]))
    return "".join(parts)


def _call_faults(name, names, defaults, args, kwargs) -> str:
    """What is wrong with the call ``name(*args, **kwargs)`` of a record with fields ``names``."""
    faults = [f"takes {len(names)} positional arguments but {len(args)} were given"] if len(args) > len(names) else []
    faults += [f"got an unexpected keyword argument {key!r}" for key in kwargs if key not in names]
    faults += [f"got multiple values for argument {key!r}" for key in names[:len(args)] if key in kwargs]
    faults += [f"missing required argument {key!r}" for key in names[len(args):] if key not in kwargs | defaults]
    return f"{name}() " + "; ".join(faults)


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
