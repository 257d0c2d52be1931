"""Finite precubical sets: graded cells, face tables, maps, and the
structural operations on them (validation, altitude, accessibility,
non-self-linkedness, pullbacks, quotients, length coverings).

Cells are identified by (dimension, index) pairs; face data is stored as
dense per-dimension tables so lookups are O(1) and iteration order is
canonical.  All values are immutable after construction.

Face tables are walked in one way only: ``face_slots(dims)`` yields every
slot (d, k, i, eps) of a complex with those cell counts, and
``PrecubicalComplex.face_entries()`` adds the target index of each slot.
Builders fill a face mapping over ``face_slots`` of the new complex;
relabelling operations (unions, wedges, re-basing, restrictions) renumber
the ``face_entries`` of their inputs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ContractError, ResourceCapError, StructuralError

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
        lab = [tuple(str(x) for x in layer) for layer in labels]
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
            if not (0 <= target < self._dims[d - 1]):
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
            init, final = base
            if not self._labels or not (0 <= init < len(self._labels[0])):
                raise StructuralError("initial base vertex out of range")
            if not (0 <= final < len(self._labels[0])):
                raise StructuralError("final base vertex out of range")
            self._base = (int(init), int(final))
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

    def iterated_face(self, cell: Cell, indices: Iterable[int], eps: int) -> Cell:
        """Apply d^eps at the given direction set, largest index first."""
        idx = sorted(set(indices), reverse=True)
        d = cell[0]
        if idx and (idx[0] > d or idx[-1] < 1):
            raise ContractError(
                f"index set {sorted(set(indices))} out of range 1..{d} for {self.label(cell)!r}"
            )
        for i in idx:
            cell = self.face(cell, i, eps)
        return cell

    def mixed_face(self, cell: Cell, assignments: Iterable[tuple[int, int]]) -> Cell:
        """Apply single faces (i, eps) in decreasing index order."""
        for i, eps in sorted(assignments, reverse=True):
            cell = self.face(cell, i, eps)
        return cell

    def initial_vertex(self, cell: Cell) -> Cell:
        return self.iterated_face(cell, range(1, cell[0] + 1), 0)

    def final_vertex(self, cell: Cell) -> Cell:
        return self.iterated_face(cell, range(1, cell[0] + 1), 1)

    def face_entries(self) -> Iterator[tuple[int, int, int, int, int]]:
        """(d, k, i, eps, target) for every slot, in ``face_slots`` order:
        d^eps_i of cell (d, k) is cell (d - 1, target)."""
        faces = self._faces
        for d, k, i, eps in face_slots(self._dims):
            yield d, k, i, eps, faces[d][k][i - 1][eps]

    def all_faces(self, cell: Cell) -> frozenset[Cell]:
        """Every iterated face of the cell, including the cell itself."""
        seen = {cell}
        frontier = [cell]
        while frontier:
            nxt = []
            for c in frontier:
                for i in range(1, c[0] + 1):
                    for eps in (0, 1):
                        f = self.face(c, i, eps)
                        if f not in seen:
                            seen.add(f)
                            nxt.append(f)
            frontier = nxt
        return frozenset(seen)

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
        return cls.from_json_dict(json.loads(text))

    def to_dot(self, name: str = "complex") -> str:
        """One-skeleton: vertices as nodes, edges as arrows from their lower
        to their upper endpoint, labeled by the edge cell."""
        def esc(text: str) -> str:
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = [f"digraph {name} {{"]
        for k in range(self.dims[0] if self.max_dim >= 0 else 0):
            lines.append(f'  v{k} [label="{esc(self.label((0, k)))}"];')
        if self.max_dim >= 1:
            for k in range(self.dims[1]):
                lo = self._faces[1][k][0][0]
                hi = self._faces[1][k][0][1]
                lines.append(f'  v{lo} -> v{hi} [label="{esc(self.label((1, k)))}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

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


@dataclass(frozen=True)
class RelationViolation:
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
    """A dimension-preserving cell map commuting with all face maps."""

    __slots__ = ("source", "target", "_assign")

    def __init__(
        self,
        source: PrecubicalComplex,
        target: PrecubicalComplex,
        assignment: Sequence[Sequence[int]],
        check: bool = True,
    ):
        self.source = source
        self.target = target
        assign = []
        if len(assignment) != source.max_dim + 1:
            raise StructuralError(
                f"assignment covers {len(assignment)} dimensions, source has {source.max_dim + 1}"
            )
        for d, layer in enumerate(assignment):
            if len(layer) != source.dims[d]:
                raise StructuralError(f"assignment in dimension {d} has wrong length")
            if d > target.max_dim and layer:
                raise StructuralError(f"target has no cells in dimension {d}")
            for k in layer:
                if not (0 <= k < target.dims[d]):
                    raise StructuralError(f"assignment out of range in dimension {d}")
            assign.append(tuple(int(k) for k in layer))
        self._assign = tuple(assign)
        if check:
            bad = self.violations()
            if bad:
                raise ContractError(f"map does not commute with faces: {bad[0]}")

    def __call__(self, cell: Cell) -> Cell:
        return (cell[0], self._assign[cell[0]][cell[1]])

    def violations(self) -> list[str]:
        out = []
        for d, k, i, eps, face in self.source.face_entries():
            expected = self((d - 1, face))
            got = self.target.face(self((d, k)), i, eps)
            if expected != got:
                out.append(
                    f"f(d^{eps}_{i} {self.source.label((d, k))!r}) = "
                    f"{self.target.label(expected)!r} but d^{eps}_{i} f = "
                    f"{self.target.label(got)!r}"
                )
        return out

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

    def is_isomorphism(self) -> bool:
        return self.is_bijective and not self.violations()

    def inverse(self) -> "PrecubicalMap":
        if not self.is_bijective:
            raise ContractError("map is not bijective")
        assign = []
        for layer in self._assign:
            inv = [0] * len(layer)
            for k, v in enumerate(layer):
                inv[v] = k
            assign.append(inv)
        return PrecubicalMap(self.target, self.source, assign, check=False)

    def compose(self, other: "PrecubicalMap") -> "PrecubicalMap":
        """self after other (other's target must be self's source)."""
        if other.target is not self.source:
            raise ContractError("maps are not composable")
        assign = [
            [self._assign[d][k] for k in layer] for d, layer in enumerate(other._assign)
        ]
        return PrecubicalMap(other.source, self.target, assign, check=False)

    def assignment_key(self) -> tuple:
        return self._assign

    @staticmethod
    def identity(K: PrecubicalComplex) -> "PrecubicalMap":
        return PrecubicalMap(K, K, [list(range(c)) for c in K.dims], check=False)


# -- altitude -------------------------------------------------------------


def compute_altitude(K: PrecubicalComplex) -> Optional[dict[Cell, int]]:
    """The altitude labeling alt(d^eps_i c) = alt(c) + eps, if consistent.

    Constraints are propagated breadth-first over the undirected cell
    incidence graph; each connected component is anchored at a single cell
    (the initial base vertex for its component when K is bipointed, the
    least cell otherwise).  Returns None when any constraint closes
    inconsistently.
    """
    neighbors: dict[Cell, list[tuple[Cell, int]]] = {c: [] for c in K.cells()}
    for d, k, _i, eps, face in K.face_entries():
        neighbors[(d, k)].append(((d - 1, face), eps))
        neighbors[(d - 1, face)].append(((d, k), -eps))
    alt: dict[Cell, int] = {}
    anchors: list[Cell] = []
    if K.base is not None:
        anchors.append(K.base[0])
    anchors.extend(K.cells())
    for anchor in anchors:
        if anchor in alt:
            continue
        alt[anchor] = 0
        frontier = [anchor]
        while frontier:
            nxt = []
            for cell in frontier:
                here = alt[cell]
                for other, offset in neighbors[cell]:
                    want = here + offset
                    if other in alt:
                        if alt[other] != want:
                            return None
                    else:
                        alt[other] = want
                        nxt.append(other)
            frontier = nxt
    return alt


def is_altitude_labeling(K: PrecubicalComplex, alt: Mapping[Cell, int]) -> bool:
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

    def reach(source, graph):
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for c in frontier:
                for o in graph[c]:
                    if o not in seen:
                        seen.add(o)
                        nxt.append(o)
            frontier = nxt
        return seen

    from_start = reach(start, fwd)
    back: dict[Cell, list[Cell]] = {c: [] for c in K.cells()}
    for c, outs in fwd.items():
        for o in outs:
            back[o].append(c)
    to_stop = reach(stop, back)
    return from_start & to_stop


def _restrict(K: PrecubicalComplex, keep: set[Cell]) -> tuple[PrecubicalComplex, dict[Cell, Cell]]:
    """Sub-complex on `keep`, which must be face-closed; returns (L, old cell of new)."""
    labels: list[list[str]] = [[] for _ in range(K.max_dim + 1)]
    new_index: dict[Cell, Cell] = {}
    for d in range(K.max_dim + 1):
        for cell in K.cells_of_dim(d):
            if cell in keep:
                new_index[cell] = (d, len(labels[d]))
                labels[d].append(K.label(cell))
    faces = {}
    for d, k, i, eps, face in K.face_entries():
        if (d, k) not in keep:
            continue
        if (d - 1, face) not in keep:
            raise ContractError(
                f"cell set is not face-closed: {K.label((d, k))!r} keeps, "
                f"{K.label((d - 1, face))!r} does not"
            )
        faces[(d, new_index[(d, k)][1], i, eps)] = new_index[(d - 1, face)][1]
    base = None
    if K.base is not None and K.base[0] in keep and K.base[1] in keep:
        base = (new_index[K.base[0]][1], new_index[K.base[1]][1])
    L = PrecubicalComplex(labels, faces, base)
    old_of_new = {v: k for k, v in new_index.items()}
    return L, old_of_new


def accessible_part(K: PrecubicalComplex) -> PrecubicalComplex:
    """Sub-complex of cells between the base points in the step preorder."""
    return _restrict(K, _accessible_indices(K))[0]


# -- non-self-linkedness ---------------------------------------------------


@dataclass(frozen=True)
class NonSelfLinkedReport:
    ok: bool
    cell: Optional[Cell] = None
    collision: Optional[tuple[tuple, tuple]] = None

    def __bool__(self) -> bool:
        return self.ok


def is_non_self_linked(K: PrecubicalComplex, dim_cap: int = 12) -> NonSelfLinkedReport:
    """Checks injectivity of the canonical map of every cell.

    The canonical map of an n-cell is evaluated on all 3^n cells of the
    standard n-cube, so dimensions above `dim_cap` raise ResourceCapError.
    """
    if K.max_dim > dim_cap:
        raise ResourceCapError(
            f"complex has dimension {K.max_dim}, above the 3^n enumeration cap {dim_cap}"
        )
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
    top = min(K.max_dim, L.max_dim)
    labels: list[list[str]] = [[] for _ in range(top + 1)]
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    index: dict[tuple[int, int, int], int] = {}
    for d in range(top + 1):
        for kk in range(K.dims[d]):
            for lk in range(L.dims[d]):
                if p((d, kk)) == q((d, lk)):
                    index[(d, kk, lk)] = len(pairs[d])
                    pairs[d].append((kk, lk))
                    labels[d].append(f"({K.label((d, kk))},{L.label((d, lk))})")
    faces = {}
    for d, n, i, eps in face_slots([len(layer) for layer in pairs]):
        kk, lk = pairs[d][n]
        fk = K.face((d, kk), i, eps)[1]
        fl = L.face((d, lk), i, eps)[1]
        faces[(d, n, i, eps)] = index[(d - 1, fk, fl)]
    base = None
    if K.base is not None and L.base is not None:
        (k0, k1), (l0, l1) = K.base, L.base
        if p(k0) == q(l0) and p(k1) == q(l1):
            base = (index[(0, k0[1], l0[1])], index[(0, k1[1], l1[1])])
    P = PrecubicalComplex(labels, faces, base)
    proj1 = PrecubicalMap(P, K, [[kk for kk, _ in layer] for layer in pairs], check=False)
    proj2 = PrecubicalMap(P, L, [[lk for _, lk in layer] for layer in pairs], check=False)
    return P, proj1, proj2


# -- quotient by automorphisms ----------------------------------------------


def quotient_by_automorphisms(
    K: PrecubicalComplex, group: Sequence[PrecubicalMap]
) -> tuple[PrecubicalComplex, PrecubicalMap]:
    """Orbit quotient of K by a finite automorphism group.

    The group must act by automorphisms of K and be closed under composition
    and inverse (checked).  Induced faces are verified to be orbit-independent;
    genuine automorphism groups always pass, but the check is kept because
    nothing here assumes freeness.
    """
    if not group:
        raise ContractError("automorphism group must be nonempty")
    keys = set()
    for g in group:
        if g.source is not K or g.target is not K:
            raise ContractError("group elements must be maps K -> K")
        if not g.is_bijective:
            raise ContractError("group element is not bijective")
        if g.violations():
            raise ContractError("group element does not commute with faces")
        keys.add(g.assignment_key())
    ident = PrecubicalMap.identity(K).assignment_key()
    if ident not in keys:
        raise ContractError("group does not contain the identity")
    maps = {g.assignment_key(): g for g in group}
    # composition is checked on the raw assignment tuples
    for a, g in maps.items():
        if g.inverse().assignment_key() not in keys:
            raise ContractError("group is not closed under inverse")
        for b in keys:
            composed = tuple(
                tuple(a_layer[k] for k in b_layer) for a_layer, b_layer in zip(a, b)
            )
            if composed not in keys:
                raise ContractError("group is not closed under composition")

    orbit_of: dict[Cell, Cell] = {}
    orbits: dict[Cell, list[Cell]] = {}
    for cell in K.cells():
        if cell in orbit_of:
            continue
        members = sorted({g(cell) for g in maps.values()})
        rep = members[0]
        orbits[rep] = members
        for m in members:
            orbit_of[m] = rep

    reps: list[list[Cell]] = [[] for _ in range(K.max_dim + 1)]
    for rep in sorted(orbits):
        reps[rep[0]].append(rep)
    new_index = {rep: (d, k) for d in range(K.max_dim + 1) for k, rep in enumerate(reps[d])}

    faces = {}
    for d, k, i, eps in face_slots([len(layer) for layer in reps]):
        rep = reps[d][k]
        targets = {orbit_of[K.face(m, i, eps)] for m in orbits[rep]}
        if len(targets) != 1:
            raise ContractError(
                f"induced face d^{eps}_{i} of orbit {K.label(rep)!r} is ill-defined"
            )
        faces[(d, k, i, eps)] = new_index[targets.pop()][1]

    labels = [[K.label(rep) for rep in layer] for layer in reps]
    base = None
    if K.base is not None:
        base = (new_index[orbit_of[K.base[0]]][1], new_index[orbit_of[K.base[1]]][1])
    Q = PrecubicalComplex(labels, faces, base)
    bad = validate_complex(Q)
    if bad:
        raise ContractError(f"quotient violates precubical identities: {bad[0]}")
    assign = [[0] * K.dims[d] for d in range(K.max_dim + 1)]
    for cell in K.cells():
        assign[cell[0]][cell[1]] = new_index[orbit_of[cell]][1]
    projection = PrecubicalMap(K, Q, assign)
    return Q, projection


# -- length covering ---------------------------------------------------------


@dataclass(frozen=True)
class LengthCovering:
    complex: PrecubicalComplex
    projection: PrecubicalMap  # onto the covered complex
    altitude: dict[Cell, int]


def length_covering(K: PrecubicalComplex, n: int) -> LengthCovering:
    """The length-n covering: pairs (cell, height) restricted to the
    accessible part, with base ((0,0), (1,n)).

    Heights are generated with 0 <= h and h + dim <= n; accessible cells of
    the unbounded covering satisfy both bounds (altitude and altitude+dim are
    monotone along accessibility witness chains), so nothing is lost and the
    face table stays total.
    """
    if K.base is None:
        raise ContractError("length covering needs a bipointed complex")
    if n < 0:
        raise ContractError("length must be nonnegative")
    labels: list[list[str]] = [[] for _ in range(K.max_dim + 1)]
    index: dict[tuple[int, int, int], int] = {}
    members: list[list[tuple[int, int]]] = [[] for _ in range(K.max_dim + 1)]
    for d in range(K.max_dim + 1):
        for k in range(K.dims[d]):
            for h in range(0, n - d + 1):
                index[(d, k, h)] = len(members[d])
                members[d].append((k, h))
                labels[d].append(f"{K.label((d, k))}@{h}")
    faces = {}
    for d, m, i, eps in face_slots([len(layer) for layer in members]):
        k, h = members[d][m]
        faces[(d, m, i, eps)] = index[(d - 1, K.face((d, k), i, eps)[1], h + eps)]
    init = index.get((0, K.base[0][1], 0))
    final = index.get((0, K.base[1][1], n))
    bounded = PrecubicalComplex(labels, faces, (init, final))
    keep = _accessible_indices(bounded)
    if not keep:
        empty = PrecubicalComplex([], {}, None)
        return LengthCovering(empty, PrecubicalMap(empty, K, [], check=False), {})
    restricted, old_of_new = _restrict(bounded, keep)
    assign: list[list[int]] = [[0] * c for c in restricted.dims]
    altitude: dict[Cell, int] = {}
    for cell in restricted.cells():
        d, _ = cell
        old = old_of_new[cell]
        k, h = members[d][old[1]]
        assign[d][cell[1]] = k
        altitude[cell] = h
    projection = PrecubicalMap(restricted, K, assign)
    return LengthCovering(restricted, projection, altitude)


# -- sums and wedges ----------------------------------------------------------


def _renumbered_faces(K: PrecubicalComplex, move) -> dict[tuple[int, int, int, int], int]:
    """K's face mapping with every cell (d, k) renumbered to (d, move(d, k))."""
    return {(d, move(d, k), i, eps): move(d - 1, face) for d, k, i, eps, face in K.face_entries()}


def _count(K: PrecubicalComplex, d: int) -> int:
    return K.dims[d] if d <= K.max_dim else 0


def disjoint_union(K: PrecubicalComplex, L: PrecubicalComplex) -> PrecubicalComplex:
    """Disjoint union; labels are prefixed to stay unique, no base is set."""
    labels = [
        [f"L:{K.label((d, k))}" for k in range(_count(K, d))]
        + [f"R:{L.label((d, k))}" for k in range(_count(L, d))]
        for d in range(max(K.max_dim, L.max_dim) + 1)
    ]
    right = _renumbered_faces(L, lambda d, k: _count(K, d) + k)
    return PrecubicalComplex(labels, _renumbered_faces(K, lambda d, k: k) | right, None)


def with_base(K: PrecubicalComplex, init_label: str, final_label: str) -> PrecubicalComplex:
    init = K.cell_of_label(init_label)
    final = K.cell_of_label(final_label)
    if init[0] != 0 or final[0] != 0:
        raise ContractError("base cells must be vertices")
    labels = [[K.label((d, k)) for k in range(K.dims[d])] for d in range(K.max_dim + 1)]
    return PrecubicalComplex(labels, _renumbered_faces(K, lambda d, k: k), (init[1], final[1]))


def serial_wedge(K: PrecubicalComplex, L: PrecubicalComplex) -> PrecubicalComplex:
    """K wedge L: glue the final vertex of K to the initial vertex of L."""
    if K.base is None or L.base is None:
        raise ContractError("serial wedge needs bipointed complexes")
    glue_k = K.base[1][1]  # final vertex index of K
    glue_l = L.base[0][1]  # initial vertex index of L

    def l_cell(d: int, k: int) -> int:
        # L's cells follow K's; its glued initial vertex becomes K's final one
        if d > 0:
            return _count(K, d) + k
        if k == glue_l:
            return glue_k
        return K.dims[0] + (k if k < glue_l else k - 1)

    labels: list[list[str]] = []
    for d in range(max(K.max_dim, L.max_dim) + 1):
        layer = [f"L:{K.label((d, k))}" for k in range(_count(K, d))]
        layer += [f"R:{L.label((d, k))}" for k in range(_count(L, d)) if (d, k) != (0, glue_l)]
        labels.append(layer)
    faces = _renumbered_faces(K, lambda d, k: k) | _renumbered_faces(L, l_cell)
    return PrecubicalComplex(labels, faces, (K.base[0][1], l_cell(0, L.base[1][1])))
