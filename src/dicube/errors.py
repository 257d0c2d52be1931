"""Shared exception types and the size check of the builders."""


class StructuralError(Exception):
    """Input data is structurally incomplete or ill-formed."""


class ContractError(Exception):
    """A documented precondition does not hold for the given input."""


class ResourceCapError(Exception):
    """An enumeration exceeded its configured size cap."""


class UsageError(Exception):
    """Bad command-line or registry usage (unknown id, unsupported combination)."""


def require_size(value, name: str) -> None:
    """ContractError unless value is an int; a bool is not a size."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractError(f"{name} must be an int, not {type(value).__name__}")
