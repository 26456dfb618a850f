"""Exception hierarchy; the CLI maps these onto exit codes."""


class TcpciError(Exception):
    """Base class for all package errors."""


class InputError(TcpciError):
    """Bad user input: schemas, paths, configuration (CLI exit code 2)."""


class SchemaError(InputError):
    """A dataset file violates the documented schema."""


class DuplicateRecordError(SchemaError):
    """The same (build, job, test) execution, or the same commit hash, appears twice."""


class RepoNotFoundError(InputError):
    pass


class UnresolvableRefError(InputError):
    pass


class InvalidConfigError(InputError):
    pass


class EmptyBuildError(TcpciError):
    """A build has no jobs to select from."""


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
