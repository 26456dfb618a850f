"""Exception hierarchy, which the CLI maps onto exit codes, and the option rule."""

import dataclasses
import math
import sys


class TcpciError(Exception):
    """Base class for all package errors."""


class InputError(TcpciError):
    """Bad user input: schemas, paths, configuration (CLI exit code 2)."""


class SchemaError(InputError):
    """A dataset file violates the documented schema."""


class DuplicateRecordError(SchemaError):
    """The same (build, job, test) execution, commit hash or file of a commit appears twice."""


class RepoNotFoundError(InputError):
    pass


class UnresolvableRefError(InputError):
    pass


class InvalidConfigError(InputError, ValueError):
    """A bad option; a ValueError too, so file readers report it as SchemaError."""


class DegenerateCorpusError(InputError):
    """A training corpus contains a single class."""


class UnknownTestError(TcpciError):
    pass


class UnknownFeatureError(InputError):
    pass


class CatalogMismatchError(TcpciError):
    """Model and feature matrix were built against different catalogs."""


class NoFailedBuildsError(TcpciError):
    """Training requires at least one prior failed build."""


class NoFailuresError(TcpciError):
    """APFD_C is undefined for a build without failures."""


class InsufficientHistoryError(TcpciError):
    """Too few failed builds for the requested evaluation (exit code 3)."""


def check_option(name: str, value, kind: type, low, high=math.inf, low_open: bool = False):
    """Raise InvalidConfigError unless ``value`` is a ``kind`` (``int``: an
    int; ``float``: a finite int or float), not a bool, in [``low``,
    ``high``], or in (``low``, ``high``] when ``low_open``."""
    if kind is int:
        what, ok = "an integer", isinstance(value, int)
    else:
        what = "a finite real number"
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    ok = ok and not isinstance(value, bool)
    if not (ok and (low < value if low_open else low <= value) and value <= high):
        span = f"{'(' if low_open or low == -math.inf else '['}{low}, {high}"
        span += ")" if high == math.inf else "]"
        raise InvalidConfigError(f"{name} must be {what} in {span}, got {value!r}")


def check_fields(config, ranges: dict[str, tuple]) -> None:
    """:func:`check_option` on each field of the dataclass ``config``: of
    its annotated kind, in ``ranges[name]`` (``check_option``'s ``low``,
    ``high`` and ``low_open``) or else in [0, inf)."""
    for f in dataclasses.fields(config):
        kind = int if f.type in ("int", int) else float
        check_option(f.name, getattr(config, f.name), kind, *ranges.get(f.name, (0,)))
