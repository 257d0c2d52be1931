"""Shared exception types, the size check of the builders, and the run-scoped
memo of the model builders: a plain dict per thread, with no lock, since a
run's checks all run on the thread that opened it."""

import functools
from _thread import _local
from contextlib import contextmanager


class StructuralError(Exception):
    """Input data is structurally incomplete or ill-formed."""


class ContractError(Exception):
    """A documented precondition does not hold for the given input."""


class ResourceCapError(Exception):
    """An enumeration exceeded its configured size cap."""


class UsageError(Exception):
    """Bad command-line or registry usage (unknown id, unsupported combination)."""


def require_size(value, name: str, low: int = 0, cap=None) -> None:
    """The one size gate of the builders: ContractError unless value is an
    int (a bool is not a size) of at least low, ResourceCapError above cap."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractError(f"{name} must be an int, not {type(value).__name__}")
    if value < low:
        raise ContractError(f"{name} must be at least {low}, not {value}")
    if cap is not None and value > cap:
        raise ResourceCapError(f"{name} is capped at {cap}, not {value}")


# its memo, (builder, args) -> model, is set while a run is open on this thread
_run = _local()


@contextmanager
def models_shared():
    """Inside, each ``shared_in_run`` builder builds a model once per argument
    tuple and hands every later call that same object.  The memo belongs to
    the thread that opens the scope: a nested scope shares it, a run on
    another thread keeps its own, and it goes when the outermost scope exits,
    also when its body raises."""
    if getattr(_run, "memo", None) is not None:
        yield
        return
    _run.memo = {}
    try:
        yield
    finally:
        del _run.memo


def shared_in_run(builder):
    """Memoizes ``builder`` inside ``models_shared`` and leaves it as it is
    outside.  Callers pass positional arguments that already hash as the
    builder's normalized input; a build that raises caches nothing."""

    @functools.wraps(builder)
    def shared(*args):
        memo = getattr(_run, "memo", None)
        if memo is None:
            return builder(*args)
        key = (builder, args)
        if key not in memo:
            memo[key] = builder(*args)
        return memo[key]

    return shared
