"""Traced dicube CLI run: wraps the public functions of each dicube module
with timing spans, runs ``dicube.cli.main`` and writes the aggregated spans
and counters as JSON.

Usage: python3 perfbench/tracer.py STATS_OUT.json <dicube cli arguments...>

The wrappers live here, outside the program, so the program itself is
unchanged.  Each span records its calls, inclusive time and self time (its
duration minus the time of the spans it encloses on the same thread).
Times are thread CPU times, so a span does not count the time its thread
waits for the CPU or for the interpreter lock.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import threading
import time

# (module, attribute, span name).  Attributes with a dot name a method; the
# class attribute is replaced, so calls through ``self`` are seen as well.
SPANS = [
    ("dicube.orders", "enumerate_orders", "orders.enumerate"),
    ("dicube.orders", "DoubleOrder.act", "orders.act"),
    ("dicube.orders", "DoubleOrder.__post_init__", "orders.init"),
    ("dicube.orders", "union_bar", "orders.union_bar"),
    ("dicube.complexes", "build_ordered_cover", "complexes.ordered_cover"),
    ("dicube.precubical", "is_non_self_linked", "precubical.non_self_linked"),
    ("dicube.precubical", "quotient_by_automorphisms", "precubical.quotient"),
    ("dicube.chains", "enumerate_chains", "chains.enumerate"),
    ("dicube.posets", "Poset.__init__", "posets.init"),
    ("dicube.posets", "Poset.chains", "posets.chains"),
    ("dicube.categories", "poset_category", "categories.poset_category"),
    ("dicube.categories", "GroupAction.validate", "categories.group_action_validate"),
    ("dicube.categories", "quotient_category", "categories.quotient"),
    ("dicube.categories", "build_break_category", "categories.break_build"),
    ("dicube.categories", "nerve_complex", "categories.nerve"),
    ("dicube.homology", "ChainComplex.check_boundary_squares_to_zero", "homology.d2_check"),
    ("dicube.homology", "_rank_and_divisors", "homology.elim"),
    ("dicube.homology", "_dense_smith", "homology.dense"),
    ("dicube.homology", "homology", "homology.homology"),
    ("dicube.cover", "verify_cover", "cover.verify"),
]


def _add(counters: dict, name: str, value: int) -> None:
    counters[name] = counters.get(name, 0) + value


def _count_union(counters, parent, args, result):
    _add(counters, "orders.union_bar_defined", result is not None)


def _count_poset_category(counters, parent, args, result):
    _add(counters, "categories.poset_category_pairs", len(result._compose))
    _add(counters, "categories.poset_category_scanned", result.n_morphisms**2)


def _count_nerve(counters, parent, args, result):
    _add(counters, "categories.nerve_generators", sum(result.ranks))
    for k in range(1, result.top_degree + 1):
        _add(counters, "categories.nerve_nnz", sum(map(len, result.boundary_columns(k))))


def _count_chains(counters, parent, args, result):
    _add(counters, "chains.count", len(result))


def _count_elim(counters, parent, args, result):
    _add(counters, "homology.elim_rank", result[0])


def _count_dense(counters, parent, args, result):
    # only the fallback blocks of the sparse elimination count; the public
    # smith_normal_form also lands here
    if parent != "homology.elim":
        return
    _a, m, n, _want = args
    _add(counters, "homology.dense_rank", len(result[0]))
    counters["homology.dense_block"] = max(counters.get("homology.dense_block", [0, 0, 0]), [m * n, m, n])


def _count_cover(counters, parent, args, result):
    _add(counters, "cover.intersections", result.intersections_checked)


HOOKS = {
    "orders.union_bar": _count_union,
    "categories.poset_category": _count_poset_category,
    "categories.nerve": _count_nerve,
    "chains.enumerate": _count_chains,
    "homology.elim": _count_elim,
    "homology.dense": _count_dense,
    "cover.verify": _count_cover,
}


class Tracer:
    """Per-thread span stacks and tables, merged when the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[tuple[dict, dict]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # stack entries are [span name, time of enclosed spans]
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._tables.append(state[1:])
        return state

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, counters = self._state()
            entry = [name, 0.0]
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - entry[1]
            if hook is not None:
                hook(counters, stack[-1][0] if stack else None, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wraps every span target and every binding of it across the
        loaded dicube modules, plus the suite's registered checks."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dicube" or n.startswith("dicube.")]
        for module_name, attr, name in SPANS:
            # sys.modules, not attribute access: the package re-exports the
            # function homology under the name of the module dicube.homology
            owner = sys.modules[module_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapped = self.wrap(name, original)
            setattr(owner, path[-1], wrapped)
            if len(path) == 1:
                # rebinding covers `from .x import f` names in other modules
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        registry = sys.modules["dicube.suite"].REGISTRY
        for check_id, spec in list(registry.items()):
            registry[check_id] = dataclasses.replace(
                spec, fn=self.wrap(f"suite.check.{check_id}", spec.fn)
            )

    def summary(self) -> dict:
        spans: dict[str, list] = {}
        counters: dict[str, object] = {}
        with self._lock:
            tables = list(self._tables)
        for table_spans, table_counters in tables:
            for name, (calls, total, own) in table_spans.items():
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for name, value in table_counters.items():
                if isinstance(value, list):
                    counters[name] = max(counters.get(name, value), value)
                else:
                    counters[name] = counters.get(name, 0) + value
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in spans.items()},
            "counters": counters,
        }


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    import dicube.cli

    tracer = Tracer()
    tracer.install()
    try:
        return dicube.cli.main(cli_args)
    finally:
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
