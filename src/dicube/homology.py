"""Exact integer linear algebra for finite chain complexes.

Integral homology (Betti numbers plus torsion coefficients in divisibility
order) of a complex given by sparse boundary columns or by the face tables of
a nerve, whose d^2 = 0 is checked by the simplicial identities and whose
elimination reads its rows from the faces.  A boundary is reduced by passes of
sparse +-1 pivots, shortest row first, until a pass makes none; the unit-free
rest goes to a dense Smith normal form, which pivots on the smallest nonzero
entry in one loop, so entries stay near the size of the invariant factors.
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
"""

from __future__ import annotations

import gc
import itertools
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    ``{row: coefficient}`` dicts.  Rows and coefficients must be ``int``
    (``bool`` excluded); a plain dict column of nonzero entries is kept, not
    copied.  ``ChainComplex.simplicial`` takes face tables instead.
    Construction checks that every composite of consecutive boundaries is
    zero.
    """

    def __init__(self, ranks: Sequence[int], boundaries: Sequence):
        self._set_ranks(ranks, boundaries)
        self._faces = None
        self._cols = [self._normalize(b, self.ranks[k - 1], self.ranks[k]) for k, b in enumerate(boundaries, 1)]
        self.check_boundary_squares_to_zero()

    @classmethod
    def simplicial(cls, ranks: Sequence[int], faces: Sequence) -> ChainComplex:
        """The face-table form of a nerve: ``faces[k-1]`` holds one tuple per degree-k
        generator, its faces d_0..d_k as distinct ids one degree down; d_i has sign (-1)^i."""
        cx = cls.__new__(cls)
        cx._set_ranks(ranks, faces)
        cx._faces = [cls._face_level(f, k, cx.ranks[k - 1], cx.ranks[k]) for k, f in enumerate(faces, 1)]
        cx.check_boundary_squares_to_zero()
        return cx

    def _set_ranks(self, ranks, boundaries) -> None:
        if not isinstance(ranks, (list, tuple)) or not isinstance(boundaries, (list, tuple)):
            raise ContractError("ranks and boundaries must be lists")
        self.ranks = tuple(ranks)
        if any(type(r) is not int or r < 0 for r in self.ranks):
            raise ContractError(f"ranks must be nonnegative ints, got {list(self.ranks)!r}")
        if len(boundaries) != max(len(self.ranks) - 1, 0):
            raise ContractError(f"expected {max(len(self.ranks) - 1, 0)} boundaries, got {len(boundaries)}")

    @staticmethod
    def _normalize(raw, nrows: int, ncols: int) -> list[Column]:
        cols: list[Column] = []
        if not isinstance(raw, (list, tuple)):
            raise ContractError(f"a boundary must be a list of columns, got {raw!r}")
        if len(raw) != ncols:
            raise ContractError(f"boundary has {len(raw)} columns, expected {ncols}")
        for col in raw:
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

    @staticmethod
    def _face_level(level, k: int, nrows: int, ncols: int) -> list[tuple[int, ...]]:
        if not isinstance(level, (list, tuple)) or len(level) != ncols or set(map(type, level)) - {tuple}:
            raise ContractError(f"degree {k} needs a list of {ncols} face tuples")
        ids = list(itertools.chain.from_iterable(level))
        if set(map(type, ids)) - {int} or ids and (min(ids) < 0 or max(ids) >= nrows):
            raise ContractError(f"degree-{k} faces must be ints in 0..{nrows - 1}")
        # k+1 distinct ids in each tuple and (k+1) ncols in all: exactly k+1 in each
        if len(ids) != (k + 1) * ncols or not set(map(len, map(set, level))) <= {k + 1}:
            raise ContractError(f"each degree-{k} generator needs {k + 1} distinct faces")
        return level

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def _entries(self, k: int) -> Iterator[Iterable[tuple[int, int]]]:
        """The columns of d_k as (row, coefficient) pairs, in column order."""
        if self._faces is None:
            return map(dict.items, self._cols[k - 1])
        signs = tuple((-1) ** i for i in range(k + 1))
        return map(zip, self._faces[k - 1], itertools.repeat(signs))

    def boundary_columns(self, k: int) -> list[Column]:
        """Sparse columns of d_k (1 <= k <= top), built anew from face tables."""
        return self._cols[k - 1] if self._faces is None else list(map(dict, self._entries(k)))

    def check_boundary_squares_to_zero(self) -> None:
        """Face tables by the simplicial identities d_i d_j = d_{j-1} d_i (i < j),
        which cancel d^2 in pairs; dict columns by multiplying the boundaries."""
        if self._faces is not None:
            lower = []  # d_0..d_{k-1} of level k-1, one list each; none when it is empty
            for k, level in enumerate(self._faces, 1):
                upper = [list(column) for column in zip(*level)]
                for i, j in itertools.combinations(range(len(lower) + 1), 2):
                    left = list(map(lower[i].__getitem__, upper[j]))
                    right = list(map(lower[j - 1].__getitem__, upper[i]))
                    if left != right:
                        raise ContractError(f"d_{i} d_{j} != d_{j - 1} d_{i} in degree {k}")
                lower = upper
            return
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
    columns: Iterable[Iterable[tuple[int, int]]], nrows: int, cleared: frozenset[int] = frozenset()
) -> tuple[int, tuple[int, ...], frozenset[int]]:
    """Rank, invariant factors and unit-pivot rows of a column-sparse matrix.

    Unit pivots are eliminated sparsely in passes over the live rows, shortest
    first as the pass starts (ties in insertion order); a row still holding a
    +-1 entry pivots on the one whose column has the fewest rows.  Passes
    repeat until one makes no pivot, so no +-1 entry reaches the dense
    routine.  Unimodular row/column operations preserve the invariant
    factors, so the result equals the dense SNF diagonal.
    Each column comes as (row, coefficient) pairs, nonzero and one per row;
    columns listed in ``cleared`` are left out before elimination.  The
    third value is the set of rows used as unit pivots; rows that reach the
    dense block are never in it.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for c, col in enumerate(columns):
        if c not in cleared:
            col_rows[c] = keys = set()
            for r, v in col:
                rows.setdefault(r, {})[c] = v
                keys.add(r)

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
                complex._entries(k), complex.ranks[k - 1], cleared
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
    """Alternating sum of the chain ranks.  ``ChainComplex`` has checked
    d^2 = 0, so by Euler-Poincare it is also the alternating Betti sum."""
    return sum((-1) ** k * r for k, r in enumerate(complex.ranks))


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
