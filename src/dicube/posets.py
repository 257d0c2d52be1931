"""Finite relations as row bitmasks, the one format of double orders and
posets; families of relations read by bit; breadth-first reachability, the
one graph search of the package (faces, accessible parts, orbits,
relabelling groups, altitude labelings, loop-freeness, poset chains and cube
chains all go through ``reachable``); and finite posets: validation, strict
chains, covering pairs, JSON export, and ``dot_digraph``, the one DOT writer.
The order complex is the nerve of the poset category (``dicube.categories``)."""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, or_
from typing import Callable, Iterable, Optional, Sequence

from .errors import ContractError
from .homology import ChainComplex

Rel = tuple[int, ...]  # row bitmasks: rel[i] >> j & 1 relates element i to element j


def rel_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Rel:
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
    return tuple(rows)


def bit_positions(row: int) -> list[int]:
    """Positions of the set bits of a row, ascending."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def rel_pairs(rel: Rel) -> list[tuple[int, int]]:
    """The related pairs in lexicographic order."""
    return [(i, j) for i, row in enumerate(rel) for j in bit_positions(row)]


@lru_cache(maxsize=None)
def rel_transpose(rel: Rel) -> Rel:
    """The converse relation: row i holds the elements related to i."""
    return tuple(sum((row >> i & 1) << j for j, row in enumerate(rel)) for i in range(len(rel)))


def rel_below_counts(rel: Rel) -> tuple[int, ...]:
    """Entry j counts the elements related to j.  It grows strictly along a
    strict order, so sorting by it gives a linear extension, and a weak order
    is exactly a relation equal to the order its counts induce."""
    return tuple(col.bit_count() for col in rel_transpose(rel))


def rel_comparable_rows(rel: Rel) -> Rel:
    """Row i holds the elements related to i either way, and i itself."""
    return tuple(row | col | 1 << i for i, (row, col) in enumerate(zip(rel, rel_transpose(rel))))


def rel_closure(rel: Rel) -> Rel:
    rows = list(rel)
    for k in range(len(rows)):
        mask = 1 << k
        for i in range(len(rows)):
            if rows[i] & mask:
                rows[i] |= rows[k]
    return tuple(rows)


def rel_is_irreflexive(rel: Rel) -> bool:
    return all(not (row >> i & 1) for i, row in enumerate(rel))


def rel_is_transitive(rel: Rel) -> bool:
    return rel_closure(rel) == rel


def rel_is_bitmasks(rows, n: int) -> bool:
    """True for n rows, each an int (a bool is not one) below 2**n."""
    return len(rows) == n and all(type(row) is int and 0 <= row < 1 << n for row in rows)


def rel_is_strict_order(rel: Rel) -> bool:
    """True for irreflexive, transitive bitmasks of len(rel) bits."""
    return rel_is_bitmasks(rel, len(rel)) and rel_is_irreflexive(rel) and rel_is_transitive(rel)


def rel_subset(a: Rel, b: Rel) -> bool:
    return all(ra & ~rb == 0 for ra, rb in zip(a, b))


def reachable(sources: Iterable, step: Callable[[object], Iterable]) -> list:
    """Every item reachable from the sources along ``step``, each once: the
    sources first, then the rest breadth-first."""
    out = list(dict.fromkeys(sources))
    seen = set(out)
    for item in out:  # grows while it is read
        for nxt in step(item):
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    return out


class RelFamily:
    """A family of relations on n elements, read by relation bit:
    ``holders[i][j]`` is the bitmask of the members k with ``rels[k][i] >> j
    & 1``.  Sets of members are bitmasks too, so the members containing a
    relation, or lying inside one, are ANDs of these masks."""

    def __init__(self, rels: Sequence[Rel], n: int):
        self.everyone = (1 << len(rels)) - 1
        # one ASCII digit per member, the last member first, read in base 2
        self.holders = [
            [int(b"0" + bytes(48 + (rel[i] >> j & 1) for rel in reversed(rels)), 2) for j in range(n)]
            for i in range(n)
        ]

    def containing(self, rel: Rel) -> int:
        return reduce(and_, self._masks(rel, 1), self.everyone)

    def within(self, rel: Rel) -> int:
        return self.everyone & ~reduce(or_, self._masks(rel, 0), 0)

    def _masks(self, rel: Rel, held: int):
        """The member masks of the bits that rel holds (1) or lacks (0)."""
        rows = zip(self.holders, rel)
        return (m for masks, row in rows for j, m in enumerate(masks) if row >> j & 1 == held)

    def union(self, members: int) -> Rel:
        """Each bit that some member in ``members`` holds."""
        return tuple(sum(1 << j for j, m in enumerate(masks) if m & members) for masks in self.holders)


class Poset:
    """A finite poset: element labels and its reflexive order as row
    bitmasks, ``leq[i] >> j & 1`` meaning element i <= element j."""

    def __init__(self, elements: Sequence, leq: Sequence[int]):
        try:
            self.elements = list(elements)
        except TypeError:
            raise ContractError("elements must be a sequence") from None
        n = len(self.elements)
        try:
            self.leq: Rel = tuple(leq)
        except TypeError:
            raise ContractError("leq must be a sequence of row bitmasks") from None
        if not rel_is_bitmasks(self.leq, n):
            raise ContractError(f"leq must be {n} bitmasks of {n} bits")
        self.validate()

    def __len__(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        """Reflexive rows, then one pass over the related pairs i <= j:
        j <= i only if i == j, and everything above j lies above i."""
        leq = self.leq
        for i, row in enumerate(leq):
            if not row >> i & 1:
                raise ContractError(f"leq not reflexive at {self.elements[i]!r}")
        for i, j in rel_pairs(leq):
            if i != j and leq[j] >> i & 1:
                raise ContractError(
                    f"leq not antisymmetric on {self.elements[i]!r}, {self.elements[j]!r}"
                )
            if leq[j] & ~leq[i]:
                raise ContractError("leq not transitive")

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with i < j and nothing strictly between."""
        above = [row & ~(1 << i) for i, row in enumerate(self.leq)]
        out = []
        for i, up in enumerate(above):
            beyond = 0
            for k in bit_positions(up):
                beyond |= above[k]
            out += [(i, j) for j in bit_positions(up & ~beyond)]
        return out

    def chains(self) -> list[tuple[int, ...]]:
        """All nonempty strictly increasing chains in (length, tuple) order:
        breadth-first from the one-element chains, each extended by the
        elements above its top in ascending order."""
        above = [bit_positions(row & ~(1 << i)) for i, row in enumerate(self.leq)]
        singletons = [(i,) for i in range(len(self.elements))]
        return reachable(singletons, lambda chain: [chain + (j,) for j in above[chain[-1]]])

    def order_complex(self) -> ChainComplex:
        """Chain complex of the order complex (simplices = strict chains): the
        nerve of the poset category, whose runs of non-identity morphisms are
        the strict chains in (length, tuple) order."""
        from .categories import nerve_complex, poset_category

        return nerve_complex(poset_category(self))

    def element_label(self, i: int) -> str:
        return label_text(self.elements[i], ";")

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram: one node per element, one edge per covering pair."""
        labels = [self.element_label(i) for i in range(len(self.elements))]
        return dot_digraph(name, "n", labels, [(i, j, None) for i, j in self.covers()])

    def to_json_dict(self) -> dict:
        # tuple elements (e.g. chains of cell labels) serialize as arrays
        return {
            "elements": [
                list(e) if isinstance(e, tuple) else self.element_label(i)
                for i, e in enumerate(self.elements)
            ],
            "leq_pairs": [[i, j] for i, j in rel_pairs(self.leq)],
        }


def label_text(item, sep: str = ",", brackets: str = "") -> str:
    """An element, object or morphism name as text: a string as it is, a
    tuple's entries joined by ``sep`` inside ``brackets``, else ``str``."""
    if isinstance(item, str):
        return item
    if isinstance(item, tuple):
        return brackets[:1] + sep.join(map(str, item)) + brackets[1:]
    return str(item)


def dot_digraph(name: str, node: str, labels: Sequence[str], edges: Iterable[tuple]) -> str:
    """A DOT digraph: nodes ``{node}{i}`` labelled ``labels[i]``, then one
    arrow per edge (i, j, label), unlabelled where the label is None."""
    lines = [f"digraph {name} {{"]
    lines += [f"  {node}{i}{_dot_label(label)};" for i, label in enumerate(labels)]
    lines += [f"  {node}{i} -> {node}{j}{_dot_label(label)};" for i, j, label in edges]
    return "\n".join(lines + ["}"]) + "\n"


def _dot_label(text: Optional[str]) -> str:
    if text is None:
        return ""
    return ' [label="' + text.replace("\\", "\\\\").replace('"', '\\"') + '"]'
