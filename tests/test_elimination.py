"""The sparse unit elimination against the set-based kernel it replaced.

``set_based_rank_and_divisors`` keeps one exact set of rows per column and
reads each set's length; ``_rank_and_divisors`` lists a column's rows in its
own input tuple, appends fill-in, skips stale and repeated entries, and reads
an exact count.  Both must make the same pivots, so they are compared on
(rank, divisors, pivot rows), degree by degree with top-down clearing.
"""

import importlib
import inspect
import random

import pytest

from dicube.homology import ChainComplex, _dense_smith, _rank_and_divisors, homology
from test_homology import face_table_complex, kernel_columns, random_sparse_matrix, sparse_columns


def set_based_rank_and_divisors(columns, cleared=frozenset()):
    """The elimination with one set of rows per column, kept exact by every
    pivot and fill-in: the oracle for the pivot order."""
    rows = {}
    col_rows = {}
    for c, (keys, values) in enumerate(columns):
        if c not in cleared:
            col_rows[c] = rowset = set()
            for r, v in zip(keys, values):
                rows.setdefault(r, {})[c] = v
                rowset.add(r)

    pivot_rows = set()
    pivoted = True
    while pivoted:
        pivoted = False
        for r, row in sorted(rows.items(), key=lambda item: len(item[1])):
            units = [(len(col_rows[c]), c) for c, v in row.items() if v == 1 or v == -1]
            if not units:
                continue
            c = min(units)[1]
            del rows[r]
            piv = row.pop(c)
            for cc in row:
                col_rows[cc].discard(r)
            others = col_rows.pop(c)
            others.discard(r)
            for rr in others:
                other = rows[rr]
                f = other.pop(c) * piv
                for cc, vv in row.items():
                    new = other.get(cc, 0) - f * vv
                    if new:
                        other[cc] = new
                        col_rows[cc].add(rr)
                    else:
                        del other[cc]
                        col_rows[cc].discard(rr)
                if not other:
                    del rows[rr]
            pivot_rows.add(r)
            pivoted = True

    unit_rank = len(pivot_rows)
    if not rows:
        return unit_rank, (1,) * unit_rank, frozenset(pivot_rows)
    live_rows = sorted(rows)
    live_cols = sorted({c for row in rows.values() for c in row})
    cpos = {c: j for j, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for i, r in enumerate(live_rows):
        for c, v in rows[r].items():
            dense[i][cpos[c]] = v
    diag, _, _ = _dense_smith(dense, len(live_rows), len(live_cols), False)
    return unit_rank + len(diag), (1,) * unit_rank + tuple(diag), frozenset(pivot_rows)


def reductions(cx, kernel):
    """(rank, divisors, pivot rows) of each boundary, top degree first,
    each boundary clearing the pivot rows of the one above, as ``homology`` does."""
    out, cleared = [], frozenset()
    for k in range(cx.top_degree, 0, -1):
        out.append(kernel(cx._columns(k), cleared))
        cleared = out[-1][2]
    return out


def regained_column():
    """Row 3 loses column 2 to the pivot of row 0 and regains it from the
    pivot of row 1, so column 2 lists row 3 twice when row 2 pivots on it,
    and row 3 still holds column 3 then."""
    columns = [{0: 1, 3: 1}, {1: 1, 3: 1}, {0: 1, 1: 2, 2: 1, 3: 1}, {2: 1, 4: 1}, {4: 3}]
    return kernel_columns(columns)


def random_cases():
    """Seeded sparse matrices with fill-in, each with and without cleared columns."""
    for seed in range(40):
        rng = random.Random(5000 + seed)
        a, n = random_sparse_matrix(rng)
        cols = kernel_columns(sparse_columns(a, n))
        yield cols, frozenset()
        yield cols, frozenset(j for j in range(n) if rng.random() < 0.3)


@pytest.mark.parametrize(
    "model, n",
    [("en", n) for n in range(1, 6)]
    + [(m, n) for m in ("quotient", "r-poset", "chain-poset", "rplus-poset") for n in range(1, 5)],
)
def test_pivots_match_the_set_based_kernel_on_model_nerves(model, n):
    cx = face_table_complex(model, n)
    assert reductions(cx, _rank_and_divisors) == reductions(cx, set_based_rank_and_divisors)


def test_pivots_match_the_set_based_kernel_on_random_sparse_matrices():
    for cols, cleared in random_cases():
        assert _rank_and_divisors(cols, cleared) == set_based_rank_and_divisors(cols, cleared)


def test_a_column_lost_and_regained_is_cleared_once():
    cols = regained_column()
    want = set_based_rank_and_divisors(cols)
    assert want == (5, (1, 1, 1, 1, 6), frozenset({0, 1, 2, 4}))
    assert _rank_and_divisors(cols) == want
    with pytest.raises(KeyError):
        planted_kernel("other.pop(c, 0)", "other.pop(c)")(cols)


def planted_kernel(old, new):
    """``_rank_and_divisors`` with the one occurrence of ``old`` in its source
    replaced by ``new``, compiled in the module's namespace."""
    module = importlib.import_module("dicube.homology")
    source = inspect.getsource(module._rank_and_divisors)
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace["_rank_and_divisors"]


def mismatches(kernel):
    """The cases on which ``kernel`` raises or differs from the oracle."""
    cases = [(regained_column(), frozenset()), *random_cases()]
    found = []
    for cols, cleared in cases:
        try:
            got = kernel(cols, cleared)
        except KeyError:
            got = None
        if got != set_based_rank_and_divisors(cols, cleared):
            found.append((cols, cleared))
    return found


@pytest.mark.parametrize(
    "old, new",
    [
        # trusts every listed row to still hold the column
        pytest.param("other.pop(c, 0)", "other.pop(c)", id="trusts-listed-rows"),
        # the count misses fill-in, so the sparsest unit column is misjudged
        pytest.param("count[cc] += 1", "pass", id="uncounted-fill-in"),
    ],
)
def test_planted_kernel_faults_are_caught(old, new):
    assert mismatches(planted_kernel(old, new))
    assert not mismatches(planted_kernel(old, old))


def test_homology_leaves_its_complex_as_it_was():
    # fill-in must never append to a face tuple's row list shared with the table
    cx = face_table_complex("en", 4)
    faces = [list(level) for level in cx._faces]
    columns = [cx.boundary_columns(k) for k in range(1, cx.top_degree + 1)]
    copies = [[dict(col) for col in level] for level in columns]
    first = homology(cx)
    assert homology(cx) == first
    assert [list(level) for level in cx._faces] == faces
    assert [cx.boundary_columns(k) for k in range(1, cx.top_degree + 1)] == copies
    dict_form = ChainComplex(cx.ranks, columns)
    assert homology(dict_form) == homology(dict_form) == first
    assert columns == copies
