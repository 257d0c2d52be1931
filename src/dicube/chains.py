"""Cube chains: enumeration on complexes with an altitude labeling, the
face-refinement order on them (valid for non-self-linked complexes), and the
constructive face-swap identity on standard cubes."""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_
from typing import NamedTuple, Sequence

from .complexes import build_standard_cube
from .errors import ContractError, require_size
from .posets import Poset, reachable
from .precubical import (
    Cell,
    PrecubicalComplex,
    compute_altitude,
    is_non_self_linked,
)


class CubeChain(NamedTuple):
    """A run of positive-dimensional cubes joined final-vertex-to-initial-vertex."""

    cells: tuple[Cell, ...]

    def text(self, K: PrecubicalComplex) -> str:
        return ";".join(K.label(c) for c in self.cells)


def enumerate_chains(K: PrecubicalComplex) -> list[CubeChain]:
    """All cube chains from the initial to the final vertex, in lexicographic
    cell order.  ``reachable`` walks the (vertex, prefix) states from the
    initial vertex.  The complex must have an altitude labeling: altitudes
    rise strictly along a chain, so a state stops at the final vertex's
    altitude, and a complex without one (a loop, say) raises ContractError.
    """
    if K.base is None:
        raise ContractError("cube chains need a bipointed complex")
    alt = compute_altitude(K)
    if alt is None:
        raise ContractError("cube chains need an altitude labeling")
    start, stop = K.base
    outgoing: dict[Cell, list[Cell]] = {}
    for d in range(1, K.max_dim + 1):
        for cell in K.cells_of_dim(d):
            outgoing.setdefault(K.initial_vertex(cell), []).append(cell)

    def extend(state: tuple[Cell, tuple[Cell, ...]]) -> list[tuple[Cell, tuple[Cell, ...]]]:
        vertex, prefix = state
        if alt[vertex] >= alt[stop]:
            return []
        return [(K.final_vertex(cell), prefix + (cell,)) for cell in outgoing.get(vertex, ())]

    states = reachable([(start, ())], extend)
    return sorted((CubeChain(p) for v, p in states if v == stop), key=lambda c: c.cells)


class ChainOrder:
    """Comparison context for cube chains of one complex.

    The face-refinement criterion (`every cube of a is an iterated face of
    some cube of b`) characterises the chain order only for non-self-linked
    complexes with an altitude labeling, so both are checked once here and a
    ContractError is raised otherwise.
    """

    def __init__(self, K: PrecubicalComplex):
        self.K = K
        if compute_altitude(K) is None:
            raise ContractError("chain order needs an altitude labeling")
        report = is_non_self_linked(K)
        if not report.ok:
            raise ContractError(
                f"chain order needs a non-self-linked complex; canonical map of "
                f"{K.label(report.cell)!r} is not injective"
            )
        self._faces = {cell: K.all_faces(cell) for cell in K.cells()}

    def leq(self, a: CubeChain, b: CubeChain) -> bool:
        return all(any(cube in self._faces[big] for big in b.cells) for cube in a.cells)

    def rows(self, chains: Sequence[CubeChain]) -> list[int]:
        """Row i has bit j iff chains[i] <= chains[j]: an AND, over the cubes
        of chains[i], of the chains with a cube having it as a face."""
        above: dict[Cell, int] = {}
        for j, b in enumerate(chains):
            for cell in {face for big in b.cells for face in self._faces[big]}:
                above[cell] = above.get(cell, 0) | 1 << j
        everyone = (1 << len(chains)) - 1
        return [reduce(and_, (above.get(c, 0) for c in a.cells), everyone) for a in chains]


def chain_poset(K: PrecubicalComplex) -> tuple[Poset, list[CubeChain]]:
    """The poset of cube chains under face refinement (``Poset`` checks it)."""
    order = ChainOrder(K)
    chains = enumerate_chains(K)
    poset = Poset([tuple(K.label(cell) for cell in c.cells) for c in chains], order.rows(chains))
    return poset, chains


# -- the face-swap identity ----------------------------------------------------


@lru_cache(maxsize=None)
def _cube(n: int) -> PrecubicalComplex:
    return build_standard_cube(n)


def _face_swap_holds(p: int, V: frozenset, W: frozenset, Vp: frozenset, Wp: frozenset) -> bool:
    """Checks d^1_V d^0_{W'} = d^0_W d^1_{V'} on the top cell of the standard
    s-cube; composites of face maps are determined by their value there."""
    s = p + len(W)
    cube = _cube(s)
    top = (s, 0)
    left = cube.mixed_face(cube.mixed_face(top, [(i, 0) for i in Wp]), [(i, 1) for i in V])
    right = cube.mixed_face(cube.mixed_face(top, [(i, 1) for i in Vp]), [(i, 0) for i in W])
    return left == right


def face_swap(p: int, q: int, V, W) -> tuple[frozenset, frozenset]:
    """Index sets (V', W') with |V'| = |V|, |W'| = |W| making
    d^1_V d^0_{W'} = d^0_W d^1_{V'} a precubical identity on the (p+|W|)-cube.

    Computed by recursion on s = p + |W| and verified symbolically on the
    standard cube before returning.
    """
    require_size(p, "p")
    require_size(q, "q")
    try:
        V, W = frozenset(V), frozenset(W)
    except TypeError:  # not iterable, or an unhashable member
        raise ContractError("V and W must be iterables of hashables") from None
    if not V <= frozenset(range(1, p + 1)):
        raise ContractError(f"V must be a subset of 1..{p}")
    if not W <= frozenset(range(1, q + 1)):
        raise ContractError(f"W must be a subset of 1..{q}")
    if p - len(V) != q - len(W):
        raise ContractError("need p - |V| = q - |W|")
    Vp, Wp = _face_swap_rec(p, q, V, W)
    if not _face_swap_holds(p, V, W, Vp, Wp):
        raise AssertionError("face swap recursion produced a non-identity")
    return Vp, Wp


def _face_swap_rec(p: int, q: int, V: frozenset, W: frozenset) -> tuple[frozenset, frozenset]:
    s = p + len(W)
    if p == 0 or q == 0:
        # forced: V' = V and W' = W (one of them is everything, the other empty)
        return V, W
    if q in W:
        Vp, Wp = _face_swap_rec(p, q - 1, V, W - {q})
        return Vp, Wp | {s}
    if p in V:
        Vp, Wp = _face_swap_rec(p - 1, q, V - {p}, W)
        return Vp | {s}, Wp
    return _face_swap_rec(p - 1, q - 1, V, W)
