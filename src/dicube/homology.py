"""Exact integer linear algebra for finite chain complexes.

Smith normal form over Z with optional unimodular transforms, and integral
homology (Betti numbers plus torsion coefficients in divisibility order).
The dense form pivots on the smallest nonzero entry in one loop, so entries
stay near the size of the invariant factors; transforms are carried as
identity columns and rows of the same matrix.  A boundary is reduced by
passes of sparse +-1 pivots, shortest row first, until a pass makes none;
the unit-free rest goes to the dense form.
Homology reduces the boundaries top-down and clears: a unit pivot of d_{k+1}
pairs a degree-k generator with a degree-(k+1) one, the pivot block has
determinant +-1, and d^2 = 0 makes d_k vanish on its image, so d_k is reduced
without the pivot rows of d_{k+1} and keeps its rank and invariant factors
(Kaczynski-Mrozek-Slusarek reduction; the clearing of Chen-Kerber).
All arithmetic uses Python's arbitrary-precision integers; there is no
floating point and no modular shortcut anywhere.
``homology`` and ``poset_category``, ``nerve_complex`` and ``nerve_orbit_complex``
run with the cyclic collector suspended: their millions of dicts, tuples and sets
form no reference cycle, so reference counting frees them and scans find nothing.
Results are ``typing.NamedTuple`` records, here and package-wide: no method code
is generated at import, and a record builds as one tuple, equal to the plain
tuple of its fields.  ``CheckSpec`` and ``DoubleOrder`` stay dataclasses for
the benchmark tracer (see ``dicube.suite``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Sequence

from .errors import ContractError

# A sparse column: row index -> nonzero integer coefficient.
Column = dict


@contextmanager
def collector_suspended() -> Iterator[None]:
    """Disables the cyclic collector for the body and, also when it raises,
    re-enables it if it was on at entry; on two threads a window may end early."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class HomologyGroup(NamedTuple):
    """One integral homology group: free rank plus torsion d1 | d2 | ..."""

    betti: int
    torsion: tuple[int, ...] = ()

    def to_json_dict(self, dim: int) -> dict:
        return {"dim": dim, "betti": self.betti, "torsion": list(self.torsion)}


class ChainComplex:
    """Chain complex of free Z-modules with explicit integer boundaries.

    ``ranks[k]`` is the rank of the degree-k module.  ``boundaries[k-1]``
    is the matrix of the boundary map from degree k to degree k-1, stored
    column-sparse: a list (one entry per degree-k generator) of
    ``{row: coefficient}`` dicts.  Dense ``list[list[int]]`` input is
    accepted and converted.  Rows and coefficients must be ``int`` (``bool``
    excluded); a plain dict column of nonzero entries is kept, not copied.
    Construction checks that every composite of consecutive boundaries is
    zero.
    """

    def __init__(self, ranks: Sequence[int], boundaries: Sequence):
        if not isinstance(ranks, (list, tuple)) or not isinstance(boundaries, (list, tuple)):
            raise ContractError("ranks and boundaries must be lists")
        self.ranks = tuple(ranks)
        if any(type(r) is not int or r < 0 for r in self.ranks):
            raise ContractError(f"ranks must be nonnegative ints, got {list(self.ranks)!r}")
        if len(boundaries) != max(len(self.ranks) - 1, 0):
            raise ContractError(
                f"expected {max(len(self.ranks) - 1, 0)} boundary matrices, got {len(boundaries)}"
            )
        self._cols: list[list[Column]] = []
        for k, raw in enumerate(boundaries, start=1):
            self._cols.append(self._normalize(raw, nrows=self.ranks[k - 1], ncols=self.ranks[k]))
        self.check_boundary_squares_to_zero()

    @staticmethod
    def _normalize(raw, nrows: int, ncols: int) -> list[Column]:
        cols: list[Column] = []
        if not isinstance(raw, (list, tuple)):
            raise ContractError(f"a boundary must be a list of columns or rows, got {raw!r}")
        source = raw
        if raw and isinstance(raw[0], (list, tuple)) or not raw and nrows == 0:
            # dense rows -> sparse columns; [] is also the dense form with no rows
            if len(raw) != nrows:
                raise ContractError(f"boundary has {len(raw)} rows, expected {nrows}")
            if any(not isinstance(row, (list, tuple)) or len(row) != ncols for row in raw):
                raise ContractError(f"dense boundary rows must be lists of {ncols} entries")
            source = [{i: raw[i][j] for i in range(nrows)} for j in range(ncols)]
        if len(source) != ncols:
            raise ContractError(f"boundary has {len(source)} columns, expected {ncols}")
        for col in source:
            if not isinstance(col, dict):
                raise ContractError(f"boundary columns must be dicts, got {col!r}")
            for r, v in col.items():
                # a type test, not int(): int(0.5) is 0 and int(True) is 1
                if type(r) is not int or type(v) is not int:
                    raise ContractError(f"boundary entries must be ints, got {r!r}: {v!r}")
                if not (0 <= r < nrows):
                    raise ContractError(f"row index {r} out of range 0..{nrows - 1}")
            if type(col) is not dict or not all(col.values()):
                col = {r: v for r, v in col.items() if v}
            cols.append(col)
        return cols

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def boundary_columns(self, k: int) -> list[Column]:
        """Sparse columns of the boundary map degree k -> k-1 (1 <= k <= top)."""
        return self._cols[k - 1]

    def boundary_dense(self, k: int) -> list[list[int]]:
        rows = [[0] * self.ranks[k] for _ in range(self.ranks[k - 1])]
        for j, col in enumerate(self._cols[k - 1]):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def check_boundary_squares_to_zero(self) -> None:
        for k in range(2, len(self.ranks)):
            lower = self._cols[k - 2]
            for j, col in enumerate(self._cols[k - 1]):
                acc: Column = {}
                for mid, v in col.items():
                    for r, w in lower[mid].items():
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    raise ContractError(
                        f"boundary composite is nonzero on degree-{k} generator {j}"
                    )


class SmithNormalForm(NamedTuple):
    """Diagonal of the Smith normal form, plus transforms when requested.

    ``diagonal`` lists the positive invariant factors d1 | d2 | ...; zero
    rows/columns are dropped.  When transforms are requested, U (m x m) and
    V (n x n) are unimodular with U * M * V equal to ``padded()``, the
    diagonal in an m x n matrix of zeros; otherwise both are None.
    """

    diagonal: tuple[int, ...]
    shape: tuple[int, int]
    U: tuple[tuple[int, ...], ...] | None = None
    V: tuple[tuple[int, ...], ...] | None = None

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def padded(self) -> list[list[int]]:
        m, n = self.shape
        out = [[0] * n for _ in range(m)]
        for t, d in enumerate(self.diagonal):
            out[t][t] = d
        return out


def smith_normal_form(matrix: Sequence[Sequence[int]], transforms: bool = False) -> SmithNormalForm:
    """Smith normal form of an integer matrix, which is left unchanged.

    Each pivot is the smallest nonzero absolute value left, and a pivot that
    does not divide the rest is replaced by a smaller one, so the diagonal is
    a divisibility chain and entries stay near its size.  With
    ``transforms=True`` the row and column operations are returned as
    unimodular U and V.  ContractError unless the matrix is a list of
    equal-length rows of ints (not bools).
    """
    if not isinstance(matrix, list | tuple) or not all(isinstance(r, list | tuple) for r in matrix):
        raise ContractError("matrix must be a list of rows")
    a = [list(row) for row in matrix]
    if any(type(v) is not int for row in a for v in row):
        raise ContractError("matrix entries must be ints")
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ContractError("ragged matrix")
    diag, U, V = _dense_smith(a, m, n, transforms)
    return SmithNormalForm(
        diagonal=tuple(diag),
        shape=(m, n),
        U=tuple(map(tuple, U)) if U is not None else None,
        V=tuple(map(tuple, V)) if V is not None else None,
    )


def _dense_smith(a, m, n, want_transforms):
    """Dense SNF of the m x n rows ``a``: (diagonal, U or None, V or None).

    Each round swaps the smallest nonzero |entry| of the trailing block to
    (t, t) and subtracts quotient multiples of its row and column.  A
    remainder left in row or column t is a smaller pivot for the next round;
    a trailing entry the pivot does not divide has its row added into row t
    first.  ``a`` is reduced in place unless transforms are asked for: then
    row i of a copy is extended by row i of the m x m identity (becoming U)
    and n identity rows are appended (becoming V), so that row operations
    update U and column operations update V.
    """
    if want_transforms:
        a = [row + [int(i == k) for k in range(m)] for i, row in enumerate(a)]
        a += [[int(i == k) for k in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        block = ((abs(v), i, j) for i in range(t, m) for j, v in enumerate(a[i][t:n], t) if v)
        pivot = min(block, default=None)
        if pivot is None:
            break
        _, i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            q = a[t][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[t]
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1 : n]):
            continue
        offender = next((i for i in range(t + 1, m) if any(v % p for v in a[i][t + 1 : n])), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        if p < 0:
            a[t] = [-v for v in a[t]]
        t += 1
    diagonal = [a[k][k] for k in range(t)]
    if not want_transforms:
        return diagonal, None, None
    return diagonal, [row[n:] for row in a[:m]], a[m:]


def _rank_and_divisors(
    columns: list[Column], nrows: int, cleared: frozenset[int] = frozenset()
) -> tuple[int, tuple[int, ...], frozenset[int]]:
    """Rank, invariant factors and unit-pivot rows of a column-sparse matrix.

    Unit pivots are eliminated sparsely in passes over the live rows, shortest
    first as the pass starts (ties in insertion order); a row still holding a
    +-1 entry pivots on the one whose column has the fewest rows.  Passes
    repeat until one makes no pivot, so no +-1 entry reaches the dense
    routine.  Unimodular row/column operations preserve the invariant
    factors, so the result equals the dense SNF diagonal.
    Columns hold nonzero entries, as ``ChainComplex`` keeps them; those
    listed in ``cleared`` are left out before elimination.  The
    third value is the set of rows used as unit pivots; rows that reach the
    dense block are never in it.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for c, col in enumerate(columns):
        if col and c not in cleared:
            col_rows[c] = set(col)
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v

    pivot_rows: set[int] = set()
    pivoted = True
    while pivoted:
        pivoted = False
        for r, row in sorted(rows.items(), key=lambda item: len(item[1])):
            units = [(len(col_rows[c]), c) for c, v in row.items() if v == 1 or v == -1]
            if not units:
                continue  # also a row emptied earlier in this pass
            c = min(units)[1]
            del rows[r]
            piv = row.pop(c)  # +-1, its own inverse
            for cc in row:
                col_rows[cc].discard(r)
            # column c leaves the matrix with its pivot: clear it from the other rows
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


def boundary_rank_and_divisors(complex: ChainComplex, k: int) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors of d_k on its own, without clearing; (0, ())
    for a degree out of range.  ContractError unless k is an int (not a bool)."""
    if type(k) is not int:
        raise ContractError(f"degree must be an int, got {k!r}")
    if k <= 0 or k > complex.top_degree:
        return 0, ()
    return _rank_and_divisors(complex.boundary_columns(k), complex.ranks[k - 1])[:2]


def homology(complex: ChainComplex) -> tuple[HomologyGroup, ...]:
    """Integral homology of a validated chain complex.

    H_k has free rank rank(C_k) - rank(d_k) - rank(d_{k+1}) and torsion the
    invariant factors > 1 of d_{k+1}.  Boundaries are reduced from the top
    degree down, and d_k skips the columns that d_{k+1} used as unit-pivot
    rows: those rows R and their pivot columns S span a block of det +-1, so
    d_{k+1}(S) plus the other unit vectors is a basis of C_k on which
    d_k vanishes (d^2 = 0), and dropping R keeps rank and invariant factors.
    """
    with collector_suspended():
        complex.check_boundary_squares_to_zero()
        info = {}
        cleared: frozenset[int] = frozenset()
        for k in range(complex.top_degree, 0, -1):
            rank, divisors, cleared = _rank_and_divisors(
                complex.boundary_columns(k), complex.ranks[k - 1], cleared
            )
            info[k] = rank, divisors
        groups = []
        for k, rk in enumerate(complex.ranks):
            rank_in = info.get(k, (0, ()))[0]
            rank_out, divisors = info.get(k + 1, (0, ()))
            betti = rk - rank_in - rank_out
            if betti < 0:
                raise ContractError(f"negative Betti number in degree {k}; boundaries inconsistent")
            torsion = tuple(d for d in divisors if d > 1)
            groups.append(HomologyGroup(betti, torsion))
        return tuple(groups)


def euler_characteristic(complex: ChainComplex) -> int:
    """Alternating sum of the chain ranks, cross-checked against homology."""
    chi = sum((-1) ** k * r for k, r in enumerate(complex.ranks))
    chi_h = sum((-1) ** k * g.betti for k, g in enumerate(homology(complex)))
    if chi != chi_h:
        raise ContractError(f"rank Euler characteristic {chi} != homological {chi_h}")
    return chi


def homology_to_json(groups: Sequence[HomologyGroup]) -> list[dict]:
    return [g.to_json_dict(k) for k, g in enumerate(groups)]


def homology_signature(groups: Sequence[HomologyGroup]) -> list[tuple[int, tuple[int, ...]]]:
    """(betti, sorted torsion) per degree, with trailing zero groups trimmed."""
    out = [(g.betti, tuple(sorted(g.torsion))) for g in groups]
    while out and out[-1] == (0, ()):
        out.pop()
    return out


def same_homology(a: Sequence[HomologyGroup], b: Sequence[HomologyGroup]) -> bool:
    """Equal Betti numbers and torsion multisets degreewise (trailing zeros ignored)."""
    return homology_signature(a) == homology_signature(b)
