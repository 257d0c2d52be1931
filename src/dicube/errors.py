"""Shared exception types, the size check of the builders, and the run-scoped
memo of the model builders."""

import functools
from _thread import allocate_lock
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


# (builder, args) -> [lock] until the build returns, then [lock, model];
# None while no run is open
_shared_models = None
_open_runs = 0
_memo_lock = allocate_lock()


@contextmanager
def models_shared():
    """Inside, each ``shared_in_run`` builder builds a model once per argument
    tuple and hands every later caller that same object.  The memo is one
    for the process: scopes may nest or overlap on several threads, a call
    from any thread while one is open reads it, and it goes when the last
    scope exits, also when its body raises."""
    global _shared_models, _open_runs
    with _memo_lock:
        if not _open_runs:
            _shared_models = {}
        _open_runs += 1
    try:
        yield
    finally:
        with _memo_lock:
            _open_runs -= 1
            if not _open_runs:
                _shared_models = None


def shared_in_run(builder):
    """Memoizes ``builder`` inside ``models_shared`` and leaves it as it is
    outside.  Callers pass positional arguments that already hash as the
    builder's normalized input; a build that raises caches nothing, and two
    threads asking for one model wait for a single build."""

    @functools.wraps(builder)
    def shared(*args):
        memo = _shared_models
        if memo is None:
            return builder(*args)
        with _memo_lock:
            slot = memo.setdefault((builder, args), [allocate_lock()])
        with slot[0]:
            if len(slot) == 1:
                slot.append(builder(*args))
        return slot[1]

    return shared
