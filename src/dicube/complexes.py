"""Constructors for the named complexes the library verifies things about:
standard cubes, serial wedge cubes, the one-cube-per-dimension final complex,
its length coverings, and the ordered cover with its symmetric-group action.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ContractError, ResourceCapError, require_size
from .precubical import Cell, PrecubicalComplex, PrecubicalMap, complex_from_cells, serial_wedge

STAR = "*"


def default_labels(n: int) -> tuple[str, ...]:
    """Canonical index names a, b, c, ... for ground sets of size 0..26."""
    require_size(n, "n")
    if not 0 <= n <= 26:
        raise ContractError(f"default labels name 0 to 26 elements, not {n}")
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n])


def label_tuple(labels) -> tuple:
    """A label set as a tuple.  ContractError unless it is an iterable of
    distinct hashable labels; the entry points that take a label set check
    it here, before a cache takes it as a key."""
    try:
        labels = tuple(labels)
        distinct = len(set(labels)) == len(labels)
    except TypeError:  # not iterable, or an unhashable label
        distinct = False
    if not distinct:
        raise ContractError(f"not an iterable of distinct hashable labels: {labels!r}")
    return labels


# -- standard cubes -----------------------------------------------------------


def build_standard_cube(arity) -> PrecubicalComplex:
    """The standard cube on an ordered finite set (or on 1..n for an int).

    Cells are functions to {0, 1, *} written positionally, e.g. "01*"; the
    i-th face direction of a cell is its i-th star in position order.
    """
    n = len(tuple(arity)) if isinstance(arity, Iterable) else arity
    require_size(n, "arity")
    if n < 0:
        raise ContractError("arity must be nonnegative")
    by_dim: list[list[tuple[str, ...]]] = [[] for _ in range(n + 1)]
    for values in itertools.product("01" + STAR, repeat=n):
        by_dim[values.count(STAR)].append(values)
    for layer in by_dim:
        layer.sort()

    def face(values: tuple[str, ...], i: int, eps: int) -> tuple[str, ...]:
        pos = [p for p, v in enumerate(values) if v == STAR][i - 1]
        return values[:pos] + (str(eps),) + values[pos + 1 :]

    return complex_from_cells(by_dim, face, "".join, (("0",) * n, ("1",) * n))


def build_wedge_cube(dims: Sequence[int]) -> PrecubicalComplex:
    """Serial wedge of standard cubes, final vertex glued to next initial one."""
    if not isinstance(dims, Sequence):
        raise ContractError(f"wedge cube dimensions must be a sequence, not {type(dims).__name__}")
    for d in dims:
        require_size(d, "wedge cube dimension")
    if not dims:
        return build_standard_cube(0)
    if any(d <= 0 for d in dims):
        raise ContractError("wedge cube dimensions must be positive")
    out = build_standard_cube(dims[0])
    for d in dims[1:]:
        out = serial_wedge(out, build_standard_cube(d))
    return out


# -- the final complex and its length coverings -------------------------------


def build_final_complex(max_dim: int) -> PrecubicalComplex:
    """One cube per dimension up to max_dim; all faces collapse one level down."""
    require_size(max_dim, "max_dim")
    if max_dim < 0:
        raise ContractError("max_dim must be nonnegative")
    layers = [[m] for m in range(max_dim + 1)]
    return complex_from_cells(layers, lambda m, i, eps: m - 1, "z{}".format, (0, 0))


def unique_map_to_final(K: PrecubicalComplex, Z: PrecubicalComplex) -> PrecubicalMap:
    """The only map into the final complex: every cell goes to its dimension's cube."""
    if Z.max_dim < K.max_dim:
        raise ContractError("final complex is truncated below the source dimension")
    if Z.dims != tuple(1 for _ in range(Z.max_dim + 1)):
        raise ContractError("target is not the final complex")
    return PrecubicalMap(K, Z, [[0] * K.dims[d] for d in range(K.max_dim + 1)])


def build_final_covering(n: int) -> tuple[PrecubicalComplex, dict[Cell, int]]:
    """Length-n covering of the final complex, built directly.

    Dimension k holds cells z{k}_{j} for 0 <= j <= n-k; every face in
    direction eps lands on z{k-1}_{j+eps}; the base runs from z0_0 to z0_n
    and the altitude of z{k}_{j} is j.
    """
    require_size(n, "length")
    if n < 0:
        raise ContractError("length must be nonnegative")
    cells = [[(k, j) for j in range(n - k + 1)] for k in range(n + 1)]  # item (k, j) is cell (k, j)
    K = complex_from_cells(
        cells, lambda c, i, eps: (c[0] - 1, c[1] + eps), lambda c: "z%d_%d" % c, ((0, 0), (0, n))
    )
    return K, {c: c[1] for layer in cells for c in layer}


# -- the ordered cover ---------------------------------------------------------


class CoverCell(NamedTuple):
    """A cell of the ordered cover: a partition of the ground set into
    finished elements (`ones`), unstarted elements (`zeros`), and a totally
    ordered tuple of active elements (`mid`)."""

    ones: frozenset
    mid: tuple
    zeros: frozenset

    @property
    def dim(self) -> int:
        return len(self.mid)

    @property
    def altitude(self) -> int:
        return len(self.ones)

    def ground_set(self) -> frozenset:
        return self.ones | frozenset(self.mid) | self.zeros

    def face(self, i: int, eps: int) -> "CoverCell":
        if not (1 <= i <= len(self.mid)):
            raise ContractError(f"face index {i} out of range for {self.text()}")
        element = self.mid[i - 1]
        mid = self.mid[: i - 1] + self.mid[i:]
        if eps == 0:
            return CoverCell(self.ones, mid, self.zeros | {element})
        return CoverCell(self.ones | {element}, mid, self.zeros)

    def act(self, sigma: Mapping) -> "CoverCell":
        """Right action by a permutation of the ground set: preimage on all parts.
        ContractError unless sigma maps the cell's labels one to one onto them."""
        if isinstance(sigma, Mapping):
            try:
                inv = {v: k for k, v in sigma.items()}
                if len(inv) == len(sigma):
                    return CoverCell(
                        frozenset(inv[x] for x in self.ones),
                        tuple(inv[x] for x in self.mid),
                        frozenset(inv[x] for x in self.zeros),
                    )
            except (KeyError, TypeError):  # a label without preimage, or an unhashable image
                pass
        raise ContractError(f"relabelling {sigma!r} does not permute the labels of {self.text()}")

    def text(self) -> str:
        return "({}|{}|{})".format(
            "".join(sorted(self.ones)), "<".join(self.mid), "".join(sorted(self.zeros))
        )

    def sort_key(self):
        return (tuple(sorted(self.ones)), self.mid)


def is_cover_face(c1: CoverCell, c2: CoverCell) -> bool:
    """Face criterion: active elements nest with matching order, finished and
    unstarted elements nest the other way round."""
    if c1.ground_set() != c2.ground_set():
        raise ContractError("cells live over different ground sets")
    m1, m2 = set(c1.mid), set(c2.mid)
    if not (m1 <= m2 and c2.zeros <= c1.zeros and c2.ones <= c1.ones):
        return False
    return tuple(x for x in c2.mid if x in m1) == c1.mid


class OrderedCover(NamedTuple):
    """The ordered cover complex over a ground set, with cell bookkeeping."""

    ground: tuple
    complex: PrecubicalComplex
    cells: list  # per dimension: list[CoverCell] aligned with complex indices

    def cell_of(self, cover_cell: CoverCell) -> Cell:
        return self.complex.cell_of_label(cover_cell.text())

    def cover_cell(self, cell: Cell) -> CoverCell:
        return self.cells[cell[0]][cell[1]]

    def automorphism(self, sigma: Mapping) -> PrecubicalMap:
        assign = [[self.cell_of(c.act(sigma))[1] for c in layer] for layer in self.cells]
        return PrecubicalMap(self.complex, self.complex, assign, check=False)

    def symmetric_group(self) -> list[PrecubicalMap]:
        """Generators of the relabelling group: the adjacent transpositions."""
        return [self.automorphism(s) for s in adjacent_transpositions(self.ground)]

    def projection(self) -> tuple[PrecubicalMap, PrecubicalComplex, dict[Cell, int]]:
        """The altitude-indexed map onto the length-n covering of the final complex."""
        target, alt = build_final_covering(len(self.ground))
        assign = [[c.altitude for c in layer] for layer in self.cells]  # z{d}_{j} is (d, j)
        return PrecubicalMap(self.complex, target, assign), target, alt


def permutations_of(labels: Sequence) -> list[dict]:
    """Every relabelling as a dict, the identity first as itertools lists it."""
    base = label_tuple(labels)
    return [dict(zip(base, image)) for image in itertools.permutations(base)]


def adjacent_transpositions(labels: Sequence) -> list[dict]:
    """The n-1 swaps of neighbouring labels, the Coxeter generators of Σ_n."""
    base = label_tuple(labels)
    return [{**dict(zip(base, base)), a: b, b: a} for a, b in zip(base, base[1:])]


def build_ordered_cover(labels) -> OrderedCover:
    """The ordered cover over a ground set (or over a, b, c, ... for an int).

    Dimension-k cells pick k active elements with a total order on them and
    split the rest into finished/unstarted; removing the i-th active element
    in its order gives the faces.  Capped at 6 labels because every
    downstream check is exponential in the arity anyway.
    """
    ground = label_tuple(labels) if isinstance(labels, Iterable) else default_labels(labels)
    if len(ground) > 6:
        raise ResourceCapError(f"ground set size {len(ground)} above cap 6")
    n = len(ground)
    cells: list[list[CoverCell]] = [[] for _ in range(n + 1)]
    for k in range(n + 1):
        for mid_set in itertools.combinations(ground, k):
            rest = [x for x in ground if x not in mid_set]
            for mid in itertools.permutations(mid_set):
                for ones_size in range(len(rest) + 1):
                    for ones in itertools.combinations(rest, ones_size):
                        zeros = frozenset(rest) - set(ones)
                        cells[k].append(CoverCell(frozenset(ones), tuple(mid), zeros))
        cells[k].sort(key=CoverCell.sort_key)
    init = CoverCell(frozenset(), (), frozenset(ground))
    final = CoverCell(frozenset(ground), (), frozenset())
    K = complex_from_cells(cells, CoverCell.face, CoverCell.text, (init, final))
    return OrderedCover(ground, K, cells)
