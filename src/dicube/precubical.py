"""Finite precubical sets: graded cells, face tables, maps, and the
structural operations on them (validation, altitude, accessibility,
non-self-linkedness, pullbacks, quotients, length coverings).

Cells are identified by (dimension, index) pairs; face data is stored as
dense per-dimension tables so lookups are O(1) and iteration order is
canonical.  All values are immutable after construction.

Face tables are walked in one way only: ``face_slots(dims)`` yields every
slot (d, k, i, eps) of a complex with those cell counts, and
``PrecubicalComplex.face_entries()`` adds the target index of each slot.
Every construction (cubes, final complexes, the ordered cover, restrictions,
pullbacks, quotients, coverings, wedges) lists its cells per dimension
as hashable items with a face rule, and ``complex_from_cells`` fills the table.

Every search over cells (faces, altitude labelings, accessibility, orbits) is
a call to ``dicube.posets.reachable``.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import ContractError, StructuralError, require_size
from .posets import dot_digraph, reachable

Cell = tuple[int, int]  # (dimension, index within dimension)


def face_slots(dims: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """Every face slot (d, k, i, eps) of a complex with ``dims[d]`` cells of
    dimension d, ordered by dimension, cell, direction 1..d, then eps."""
    for d in range(1, len(dims)):
        for k in range(dims[d]):
            for i in range(1, d + 1):
                for eps in (0, 1):
                    yield d, k, i, eps


class PrecubicalComplex:
    """A finite precubical set with optional base points.

    ``labels[d][k]`` names the k-th cell of dimension d (labels must be
    globally unique).  ``faces`` maps (d, k, i, eps) with 1 <= i <= d and
    eps in {0, 1} to the index of the target cell in dimension d-1; every
    entry must be present.
    """

    __slots__ = ("_labels", "_faces", "_base", "_by_label", "_dims")

    def __init__(
        self,
        labels: Sequence[Sequence[str]],
        faces: Mapping[tuple[int, int, int, int], int],
        base: Optional[tuple[int, int]] = None,
    ):
        try:
            lab = [tuple(str(x) for x in layer) for layer in labels]
        except TypeError:
            raise StructuralError("labels must be a sequence of label sequences") from None
        if not isinstance(faces, Mapping):
            raise StructuralError(f"faces must be a mapping, not {type(faces).__name__}")
        while lab and not lab[-1]:
            lab.pop()
        self._labels = tuple(lab)
        self._dims = tuple(len(layer) for layer in self._labels)
        by_label: dict[str, Cell] = {}
        for d, layer in enumerate(self._labels):
            for k, name in enumerate(layer):
                if name in by_label:
                    raise StructuralError(f"duplicate cell label {name!r}")
                by_label[name] = (d, k)
        self._by_label = by_label

        # per cell, the targets of its slots in face_slots order: d^0_1, d^1_1, d^0_2, ...
        flat: list[list[list[int]]] = [[[] for _ in range(count)] for count in self._dims]
        for key in face_slots(self._dims):
            d, k, i, eps = key
            if key not in faces:
                raise StructuralError(
                    f"missing face entry d^{eps}_{i} for cell {self._labels[d][k]!r}"
                )
            target = faces[key]
            if type(target) is not int or not (0 <= target < self._dims[d - 1]):
                raise StructuralError(
                    f"face d^{eps}_{i} of cell {self._labels[d][k]!r} points outside dimension {d - 1}"
                )
            flat[d][k].append(target)
        if len(faces) != sum(2 * d * count for d, count in enumerate(self._dims)):
            slots = set(face_slots(self._dims))
            extra = next(key for key in faces if key not in slots)
            raise StructuralError(
                f"face entry {extra} is not a face slot of a complex with dims {list(self._dims)}"
            )
        self._faces = tuple(
            tuple(tuple(zip(cell[0::2], cell[1::2])) for cell in layer) for layer in flat
        )

        if base is not None:
            if not isinstance(base, Sequence) or len(base) != 2:
                raise StructuralError("base must be a pair of vertex indices")
            init, final = base
            if not self._labels or type(init) is not int or not (0 <= init < len(self._labels[0])):
                raise StructuralError("initial base vertex out of range")
            if type(final) is not int or not (0 <= final < len(self._labels[0])):
                raise StructuralError("final base vertex out of range")
            self._base = (init, final)
        else:
            self._base = None

    # -- shape ----------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def max_dim(self) -> int:
        return len(self._labels) - 1

    @property
    def base(self) -> Optional[tuple[Cell, Cell]]:
        if self._base is None:
            return None
        return ((0, self._base[0]), (0, self._base[1]))

    @property
    def is_bipointed(self) -> bool:
        return self._base is not None

    def cells(self) -> Iterator[Cell]:
        for d, layer in enumerate(self._labels):
            for k in range(len(layer)):
                yield (d, k)

    def cells_of_dim(self, d: int) -> list[Cell]:
        if 0 <= d <= self.max_dim:
            return [(d, k) for k in range(len(self._labels[d]))]
        return []

    def label(self, cell: Cell) -> str:
        return self._labels[cell[0]][cell[1]]

    def cell_of_label(self, name: str) -> Cell:
        try:
            return self._by_label[name]
        except KeyError:
            raise StructuralError(f"no cell labeled {name!r}") from None

    # -- faces ----------------------------------------------------------

    def face(self, cell: Cell, i: int, eps: int) -> Cell:
        d, k = cell
        if not (1 <= i <= d):
            raise ContractError(f"face index {i} out of range 1..{d} for {self.label(cell)!r}")
        if eps not in (0, 1):
            raise ContractError("eps must be 0 or 1")
        return (d - 1, self._faces[d][k][i - 1][eps])

    def mixed_face(self, cell: Cell, assignments: Iterable[tuple[int, int]]) -> Cell:
        """Apply single faces (i, eps) in decreasing index order."""
        for i, eps in sorted(assignments, reverse=True):
            cell = self.face(cell, i, eps)
        return cell

    def initial_vertex(self, cell: Cell) -> Cell:
        return self.mixed_face(cell, [(i, 0) for i in range(1, cell[0] + 1)])

    def final_vertex(self, cell: Cell) -> Cell:
        return self.mixed_face(cell, [(i, 1) for i in range(1, cell[0] + 1)])

    def face_entries(self) -> Iterator[tuple[int, int, int, int, int]]:
        """(d, k, i, eps, target) for every slot, in ``face_slots`` order:
        d^eps_i of cell (d, k) is cell (d - 1, target)."""
        faces = self._faces
        for d, k, i, eps in face_slots(self._dims):
            yield d, k, i, eps, faces[d][k][i - 1][eps]

    def all_faces(self, cell: Cell) -> frozenset[Cell]:
        """Every iterated face of the cell, including the cell itself."""
        faces = self._faces
        return frozenset(
            reachable([cell], lambda c: [(c[0] - 1, t) for pair in faces[c[0]][c[1]] for t in pair])
        )

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        faces = [
            {"dim": d, "cell": k, "i": i, "eps": eps, "to": target}
            for d, k, i, eps, target in self.face_entries()
        ]
        base = None
        if self._base is not None:
            base = {"init": self._base[0], "final": self._base[1]}
        return {"dims": list(self.dims), "faces": faces, "base": base}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PrecubicalComplex":
        """Inverse of ``to_json_dict``; StructuralError names the field at
        fault (every slot must appear exactly once, and nothing else) or the
        first precubical identity the faces violate."""
        if not isinstance(data, Mapping):
            raise StructuralError("complex must be a JSON object")
        dims = data.get("dims")
        if not isinstance(dims, list) or not all(_is_json_int(c) and c >= 0 for c in dims):
            raise StructuralError("field 'dims' must be a list of nonnegative integers")
        require_size(sum(dims), "cell count", cap=3**12)  # the 12-cube, the largest built
        labels = [[f"c{d}_{k}" for k in range(count)] for d, count in enumerate(dims)]
        entries = data.get("faces", [])
        if not isinstance(entries, list):
            raise StructuralError("field 'faces' must be a list")
        faces = {}
        for entry in entries:
            if not isinstance(entry, Mapping):
                raise StructuralError("field 'faces' must hold JSON objects")
            key = tuple(_json_int_field(entry, name) for name in ("dim", "cell", "i", "eps"))
            if key in faces:
                raise StructuralError(f"field 'faces' repeats the slot {key}")
            faces[key] = _json_int_field(entry, "to")
        raw_base = data.get("base")
        base = None
        if raw_base is not None:
            if not isinstance(raw_base, Mapping):
                raise StructuralError("field 'base' must be a JSON object or null")
            base = (_json_int_field(raw_base, "init"), _json_int_field(raw_base, "final"))
        K = cls(labels, faces, base)
        bad = validate_complex(K)
        if bad:
            raise StructuralError(f"field 'faces' violates a precubical identity: {bad[0]}")
        return K

    @classmethod
    def from_json(cls, text: str) -> "PrecubicalComplex":
        if not isinstance(text, (str, bytes, bytearray)):
            raise StructuralError(f"complex text must be a string, not {type(text).__name__}")
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StructuralError(f"complex text is not JSON: {exc}") from None
        return cls.from_json_dict(data)

    def to_dot(self, name: str = "complex") -> str:
        """One-skeleton: vertices as nodes, edges as arrows from their lower
        to their upper endpoint, labeled by the edge cell."""
        dims = self.dims + (0, 0)
        labels = [self.label((0, k)) for k in range(dims[0])]
        edges = [(*self._faces[1][k][0], self.label((1, k))) for k in range(dims[1])]
        return dot_digraph(name, "v", labels, edges)

    def __repr__(self) -> str:
        return f"PrecubicalComplex(dims={list(self.dims)}, base={self._base})"


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int_field(obj: Mapping, name: str) -> int:
    if name not in obj:
        raise StructuralError(f"missing field {name!r}")
    if not _is_json_int(obj[name]):
        raise StructuralError(f"field {name!r} must be an integer")
    return obj[name]


def complex_from_cells(
    layers: Sequence[Sequence[Hashable]],
    face: Callable[[Hashable, int, int], Hashable],
    label: Callable[[Hashable], str],
    base: Optional[tuple[Hashable, Hashable]] = None,
) -> PrecubicalComplex:
    """The complex whose cells of dimension d are the items of ``layers[d]``,
    in order: d^eps_i c is ``face(c, i, eps)``, an item of ``layers[d - 1]``,
    c is named ``label(c)``, and ``base`` is a pair of items of ``layers[0]``.
    ContractError when a face or a base item is not in that layer."""
    index = [{item: k for k, item in enumerate(layer)} for layer in layers]
    faces = {}
    for d, k, i, eps in face_slots([len(layer) for layer in layers]):
        target = index[d - 1].get(face(layers[d][k], i, eps))
        if target is None:
            raise ContractError(
                f"face d^{eps}_{i} of {label(layers[d][k])!r} is not a cell of dimension {d - 1}"
            )
        faces[(d, k, i, eps)] = target
    if base is not None:
        vertices = index[0] if index else {}
        if base[0] not in vertices or base[1] not in vertices:
            raise ContractError(f"base {base} is not a pair of vertices")
        base = (vertices[base[0]], vertices[base[1]])
    return PrecubicalComplex([[label(c) for c in layer] for layer in layers], faces, base)


class RelationViolation(NamedTuple):
    """One failed precubical identity on a cell."""

    cell: Cell
    label: str
    i: int
    j: int
    eps: int
    eta: int
    left: Cell
    right: Cell

    def __str__(self) -> str:
        return (
            f"cell {self.label!r}: d^{self.eps}_{self.i} d^{self.eta}_{self.j} gives {self.left}, "
            f"d^{self.eta}_{self.j - 1} d^{self.eps}_{self.i} gives {self.right}"
        )


def validate_complex(K: PrecubicalComplex) -> list[RelationViolation]:
    """All violated precubical identities; empty iff K is a precubical set."""
    out = []
    for d in range(2, K.max_dim + 1):
        for cell in K.cells_of_dim(d):
            for j in range(2, d + 1):
                for i in range(1, j):
                    for eps in (0, 1):
                        for eta in (0, 1):
                            left = K.face(K.face(cell, j, eta), i, eps)
                            right = K.face(K.face(cell, i, eps), j - 1, eta)
                            if left != right:
                                out.append(
                                    RelationViolation(
                                        cell, K.label(cell), i, j, eps, eta, left, right
                                    )
                                )
    return out


class PrecubicalMap:
    """A dimension-preserving cell map commuting with all face maps.

    Every construction checks both, so a map is valid by its type: the
    functions that build maps (identities, pullback projections, quotient
    projections, automorphisms) and those that take them check neither again.
    """

    __slots__ = ("source", "target", "_assign")

    def __init__(
        self,
        source: PrecubicalComplex,
        target: PrecubicalComplex,
        assignment: Sequence[Sequence[int]],
    ):
        self.source = source
        self.target = target
        assign = []
        if not isinstance(assignment, Sequence):
            raise StructuralError("assignment must be a sequence of index layers")
        if len(assignment) != source.max_dim + 1:
            raise StructuralError(
                f"assignment covers {len(assignment)} dimensions, source has {source.max_dim + 1}"
            )
        for d, layer in enumerate(assignment):
            count = source.dims[d]
            if not isinstance(layer, Sequence) or len(layer) != count:
                raise StructuralError(f"assignment in dimension {d} must list {count} indices")
            if d > target.max_dim and layer:
                raise StructuralError(f"target has no cells in dimension {d}")
            for k in layer:  # an index is an int, not a bool, float or str
                if type(k) is not int or not (0 <= k < target.dims[d]):
                    raise StructuralError(f"assignment out of range in dimension {d}")
            assign.append(tuple(layer))
        self._assign = tuple(assign)
        for d, k, i, eps, face in source.face_entries():
            expected = self((d - 1, face))
            got = target.face(self((d, k)), i, eps)
            if expected != got:
                raise ContractError(
                    "map does not commute with faces: "
                    f"f(d^{eps}_{i} {source.label((d, k))!r}) = "
                    f"{target.label(expected)!r} but d^{eps}_{i} f = {target.label(got)!r}"
                )

    def __call__(self, cell: Cell) -> Cell:
        return (cell[0], self._assign[cell[0]][cell[1]])

    @property
    def is_bipointed(self) -> bool:
        sb, tb = self.source.base, self.target.base
        if sb is None or tb is None:
            return False
        return self(sb[0]) == tb[0] and self(sb[1]) == tb[1]

    @property
    def is_bijective(self) -> bool:
        if self.source.dims != self.target.dims:
            return False
        return all(len(set(layer)) == len(layer) for layer in self._assign)

    @staticmethod
    def identity(K: PrecubicalComplex) -> "PrecubicalMap":
        return PrecubicalMap(K, K, [list(range(c)) for c in K.dims])


# -- altitude -------------------------------------------------------------


def compute_altitude(K: PrecubicalComplex) -> Optional[dict[Cell, int]]:
    """The altitude labeling alt(d^eps_i c) = alt(c) + eps, if there is one.

    Each connected component of the undirected cell incidence graph is
    searched with ``reachable`` from its anchor at 0 (the initial base vertex
    first, then the least unlabelled cell), and a cell takes the value its
    first neighbour gives it.  The result stands only if it is an altitude
    labeling; otherwise some constraint closes inconsistently and the answer
    is None.
    """
    neighbors: dict[Cell, list[tuple[Cell, int]]] = {c: [] for c in K.cells()}
    for d, k, _i, eps, face in K.face_entries():
        neighbors[(d, k)].append(((d - 1, face), eps))
        neighbors[(d - 1, face)].append(((d, k), -eps))
    alt: dict[Cell, int] = {}

    def label(cell: Cell) -> Iterator[Cell]:
        for other, offset in neighbors[cell]:
            if other not in alt:
                alt[other] = alt[cell] + offset
                yield other

    for anchor in ([K.base[0]] if K.base is not None else []) + list(K.cells()):
        if anchor not in alt:
            alt[anchor] = 0
            reachable([anchor], label)
    return alt if is_altitude_labeling(K, alt) else None


def is_altitude_labeling(K: PrecubicalComplex, alt: Mapping[Cell, int]) -> bool:
    """Every face constraint holds, and the initial base vertex is at 0."""
    if any(alt[(d - 1, face)] != alt[(d, k)] + eps for d, k, _i, eps, face in K.face_entries()):
        return False
    if K.base is not None and alt[K.base[0]] != 0:
        return False
    return True


# -- accessibility --------------------------------------------------------


def _accessible_indices(K: PrecubicalComplex) -> set[Cell]:
    if K.base is None:
        raise ContractError("accessibility needs a bipointed complex")
    fwd: dict[Cell, list[Cell]] = {c: [] for c in K.cells()}
    for d, k, _i, eps, face in K.face_entries():
        if eps:
            fwd[(d, k)].append((d - 1, face))  # c <= d1_i(c)
        else:
            fwd[(d - 1, face)].append((d, k))  # d0_i(c) <= c
    start, stop = K.base
    back: dict[Cell, list[Cell]] = {c: [] for c in K.cells()}
    for c, outs in fwd.items():
        for o in outs:
            back[o].append(c)
    return set(reachable([start], fwd.__getitem__)) & set(reachable([stop], back.__getitem__))


def _restrict(K: PrecubicalComplex, keep: set[Cell]) -> PrecubicalComplex:
    """Sub-complex on `keep`, which must be face-closed; its cells keep their
    order in K, and its base is K's when `keep` holds both base vertices."""
    layers = [[c for c in K.cells_of_dim(d) if c in keep] for d in range(K.max_dim + 1)]
    base = K.base if K.base is not None and set(K.base) <= keep else None
    return complex_from_cells(layers, K.face, K.label, base)


def accessible_part(K: PrecubicalComplex) -> PrecubicalComplex:
    """Sub-complex of cells between the base points in the step preorder."""
    return _restrict(K, _accessible_indices(K))


# -- non-self-linkedness ---------------------------------------------------


class NonSelfLinkedReport(NamedTuple):
    ok: bool
    cell: Optional[Cell] = None
    collision: Optional[tuple[tuple, tuple]] = None

    def __bool__(self) -> bool:
        return self.ok


def is_non_self_linked(K: PrecubicalComplex) -> NonSelfLinkedReport:
    """Checks injectivity of the canonical map of every cell.

    The canonical map of an n-cell is evaluated on all 3^n cells of the
    standard n-cube, so dimensions above 12 raise ResourceCapError.
    """
    require_size(K.max_dim, "dimension", low=-1, cap=12)  # -1: the empty complex
    for d in range(0, K.max_dim + 1):
        for cell in K.cells_of_dim(d):
            images: dict[Cell, tuple] = {}
            for values in itertools.product((0, 1, STAR), repeat=d):
                fixed = [(i + 1, v) for i, v in enumerate(values) if v != STAR]
                image = K.mixed_face(cell, fixed)
                if image in images:
                    return NonSelfLinkedReport(False, cell, (images[image], values))
                images[image] = values
    return NonSelfLinkedReport(True)


STAR = 2  # internal marker for a free coordinate of a standard-cube cell


# -- pullback ---------------------------------------------------------------


def pullback(
    p: PrecubicalMap, q: PrecubicalMap
) -> tuple[PrecubicalComplex, PrecubicalMap, PrecubicalMap]:
    """Levelwise pullback of p: K -> M and q: L -> M, with its projections."""
    if p.target is not q.target:
        raise ContractError("pullback needs maps into a common target")
    K, L = p.source, q.source
    pairs = [
        [(a, b) for a in K.cells_of_dim(d) for b in L.cells_of_dim(d) if p(a) == q(b)]
        for d in range(min(K.max_dim, L.max_dim) + 1)
    ]
    base = None
    if K.base is not None and L.base is not None:
        (k0, k1), (l0, l1) = K.base, L.base
        if p(k0) == q(l0) and p(k1) == q(l1):
            base = ((k0, l0), (k1, l1))
    P = complex_from_cells(
        pairs,
        lambda c, i, eps: (K.face(c[0], i, eps), L.face(c[1], i, eps)),
        lambda c: f"({K.label(c[0])},{L.label(c[1])})",
        base,
    )
    pairs = pairs[: P.max_dim + 1]  # P drops the empty top layers, where no images meet
    proj1 = PrecubicalMap(P, K, [[a[1] for a, _ in layer] for layer in pairs])
    proj2 = PrecubicalMap(P, L, [[b[1] for _, b in layer] for layer in pairs])
    return P, proj1, proj2


# -- quotient by automorphisms ----------------------------------------------


def quotient_by_automorphisms(
    K: PrecubicalComplex, generators: Sequence[PrecubicalMap]
) -> tuple[PrecubicalComplex, PrecubicalMap]:
    """Orbit quotient of K by the automorphism group the generators span.

    Each generator is checked to be a bijection K -> K; as a map it commutes
    with faces by construction, and products of automorphisms are
    automorphisms, so the spanned group needs no check.  An orbit is found by
    search along generator images from its least cell, which represents it.
    The faces of an orbit are read off its representative: automorphisms
    commute with faces, so every member gives the same face orbits and the
    quotient keeps the precubical identities of K.  The projection is checked
    as every map is.  Nothing here assumes freeness.
    """
    for g in generators:
        if g.source is not K or g.target is not K:
            raise ContractError("generators must be maps K -> K")
        if not g.is_bijective:
            raise ContractError("generator is not bijective")

    orbit_of: dict[Cell, Cell] = {}
    reps: list[list[Cell]] = [[] for _ in range(K.max_dim + 1)]
    for cell in K.cells():  # in order, so each orbit is first met at its least cell
        if cell in orbit_of:
            continue
        reps[cell[0]].append(cell)
        for member in reachable([cell], lambda c: [g(c) for g in generators]):
            orbit_of[member] = cell
    base = None if K.base is None else (orbit_of[K.base[0]], orbit_of[K.base[1]])
    Q = complex_from_cells(reps, lambda c, i, eps: orbit_of[K.face(c, i, eps)], K.label, base)
    new_index = {rep: k for layer in reps for k, rep in enumerate(layer)}
    assign = [[new_index[orbit_of[c]] for c in K.cells_of_dim(d)] for d in range(K.max_dim + 1)]
    return Q, PrecubicalMap(K, Q, assign)


# -- length covering ---------------------------------------------------------


class LengthCovering(NamedTuple):
    complex: PrecubicalComplex
    projection: PrecubicalMap  # onto the covered complex
    altitude: dict[Cell, int]


def length_covering(K: PrecubicalComplex, n: int) -> LengthCovering:
    """The length-n covering, n at most 26: pairs (cell, height), labelled
    ``{label}_{height}``, restricted to the accessible part, with base
    ((0,0), (1,n)).

    Heights are generated with 0 <= h and h + dim <= n; accessible cells of
    the unbounded covering satisfy both bounds (altitude and altitude+dim are
    monotone along accessibility witness chains), so nothing is lost and the
    face table stays total.
    """
    if K.base is None:
        raise ContractError("length covering needs a bipointed complex")
    require_size(n, "length", cap=26)
    layers = [
        [(cell, h) for cell in K.cells_of_dim(d) for h in range(n - d + 1)]
        for d in range(K.max_dim + 1)
    ]
    bounded = complex_from_cells(
        layers,
        lambda c, i, eps: (K.face(c[0], i, eps), c[1] + eps),
        lambda c: f"{K.label(c[0])}_{c[1]}",
        ((K.base[0], 0), (K.base[1], n)),
    )
    keep = _accessible_indices(bounded)
    kept = [[c for k, c in enumerate(layer) if (d, k) in keep] for d, layer in enumerate(layers)]
    restricted = _restrict(bounded, keep)  # its cell (d, k) is kept[d][k]
    assign = [[cell[1] for cell, _ in layer] for layer in kept if layer]
    altitude = {(d, k): h for d, layer in enumerate(kept) for k, (_, h) in enumerate(layer)}
    return LengthCovering(restricted, PrecubicalMap(restricted, K, assign), altitude)


# -- serial wedges ------------------------------------------------------------


def serial_wedge(K: PrecubicalComplex, L: PrecubicalComplex) -> PrecubicalComplex:
    """K wedge L: glue the final vertex of K to the initial vertex of L.
    K's cells come first, then L's, in each dimension, labelled "L:..." and
    "R:..."; the base runs from K's initial vertex to L's final one."""
    if K.base is None or L.base is None:
        raise ContractError("serial wedge needs bipointed complexes")
    sides = {"L": K, "R": L}
    glued = ("R", L.base[0])

    def item(side: str, cell: Cell) -> tuple[str, Cell]:
        return ("L", K.base[1]) if (side, cell) == glued else (side, cell)

    layers = [
        [(s, c) for s, M in sides.items() for c in M.cells_of_dim(d) if (s, c) != glued]
        for d in range(max(K.max_dim, L.max_dim) + 1)
    ]
    return complex_from_cells(
        layers,
        lambda c, i, eps: item(c[0], sides[c[0]].face(c[1], i, eps)),
        lambda c: f"{c[0]}:{sides[c[0]].label(c[1])}",
        (("L", K.base[0]), item("R", L.base[1])),
    )
