"""Exception types shared across the package."""


class CertificationError(Exception):
    """Base class for everything this package raises on purpose."""


class DomainError(CertificationError):
    """An operation was applied outside its mathematical domain."""


class InputError(CertificationError):
    """Malformed or schema-violating user input.

    ``path`` points at the offending location inside the input document,
    e.g. ``matrices.g[0][1]``.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class PrecisionExhaustedError(CertificationError):
    """A p-adic computation no longer has a single known digit."""


class PreconditionError(CertificationError):
    """A quantitative hypothesis of a construction does not hold."""


class NotContractingError(PreconditionError):
    """The matrix does not certify as contracting (coefficient >= 1/4)."""


class UndecidedError(PreconditionError):
    """The falsifier cannot decide past ``decided_len``: every reduced word of
    at most that length acts nontrivially, and ``word`` (a letter tuple, or
    None when the word budget stopped the search) is the first longer word
    it could not decide."""

    def __init__(self, message: str, decided_len: int, word=None):
        self.decided_len = decided_len
        self.word = word
        super().__init__(message)


class NoSeparatorError(CertificationError):
    """No element of the separating set passes the requested margin."""


class DecompositionError(CertificationError):
    """The Cartan decomposition could not be computed."""


class ConstructionError(CertificationError):
    """A built certificate failed its own consistency checks."""
