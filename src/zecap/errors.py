"""Exception types shared across the package."""


class ZecapError(Exception):
    """Base class for errors raised by this package."""


class CapExceededError(ZecapError):
    """An enumeration or graph size exceeded its configured cap."""


class PreconditionError(ZecapError):
    """An operation precondition was violated (e.g. replacement containment)."""
