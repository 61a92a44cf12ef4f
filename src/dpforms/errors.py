"""Exception types shared across the package.

Everything user-facing derives from ToolkitError so the CLI can map the whole
family to exit code 1, except InternalInvariantError which signals a broken
internal invariant and maps to exit code 2.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ToolkitError, ValueError):
    """Invalid (m, n, kind, j, ...) parameters; the message names the violated bound."""


class BasisMismatchError(ToolkitError, ValueError):
    """Arithmetic or pairing attempted between classes written in different bases."""


class UnsupportedModelError(ToolkitError, ValueError):
    """The requested operation has no meaning for this model (wrong kind or n range)."""


class InvalidActionError(ToolkitError, ValueError):
    """A purported Galois action does not preserve the curve system."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SystemSizeError(ToolkitError, ValueError):
    """A guarded exhaustive routine was offered more curves than it accepts."""


class InfeasibleEllError(ToolkitError, ValueError):
    """An ell value outside the feasible set for (m, n)."""

    def __init__(self, message: str, feasible=None):
        super().__init__(message)
        self.feasible = feasible


class InputFormatError(ToolkitError, ValueError):
    """A JSON document failed schema validation or semantic checks."""


class InternalInvariantError(ToolkitError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
