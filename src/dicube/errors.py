"""Shared exception types and enumeration caps."""

import os


class StructuralError(Exception):
    """Input data is structurally incomplete or ill-formed."""


class ContractError(Exception):
    """A documented precondition does not hold for the given input."""


class ResourceCapError(Exception):
    """An enumeration exceeded its configured size cap."""


class UsageError(Exception):
    """Bad command-line or registry usage (unknown id, unsupported combination)."""


def enumeration_cap() -> int:
    """Global node cap for open-ended searches, 1,000,000 unless
    DICUBE_MAX_CELLS overrides it."""
    raw = os.environ.get("DICUBE_MAX_CELLS")
    if raw is None:
        return 1_000_000
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"DICUBE_MAX_CELLS must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise UsageError("DICUBE_MAX_CELLS must be positive")
    return value
