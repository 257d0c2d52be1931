"""Shared exception types."""


class StructuralError(Exception):
    """Input data is structurally incomplete or ill-formed."""


class ContractError(Exception):
    """A documented precondition does not hold for the given input."""


class ResourceCapError(Exception):
    """An enumeration exceeded its configured size cap."""


class UsageError(Exception):
    """Bad command-line or registry usage (unknown id, unsupported combination)."""

