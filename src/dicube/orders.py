"""Double orders on a finite label set: a pair of strict partial orders with
every pair of distinct elements comparable in at least one of them.
Relations are row bitmasks, handled by the relation primitives of
``dicube.posets``; ground sets stay tiny (<= 6), so all is exhaustive and exact.

A regular double order is an ordered sequence of blocks, each totally
ordered by y: ``regular_from_blocks`` builds the order and ``regular_blocks``
reads the blocks back.  Each family is one key table, its rows ``(x, y)`` in
canonical order, cached per size (``order_keys``); ``enumerate_orders`` builds
its orders once per label tuple.  The strict orders pick one of three states
per pair; the regular keys come from block sequences, and the double and
semi-regular families are read off the strict and the regular orders by bit
(``RelFamily``), so neither compares orders pairwise: an order is
semi-regular exactly when it closes the union of the regulars below.

The relation kernels the order checks share are memoized: the closure of a
union component, or None when it cycles (``union_bar``), and semi-regularity
by key.  One relabelling kernel, ``relabelling(labels, sigma)``, maps keys
``(x, y)``: it moves each row through ``_bit_permutation(s)``, a 2**n-entry
table built once per position tuple ``s`` that moves bit ``s[j]`` of a row to
bit ``j``.  ``act`` wraps it, and the free-action check applies it to the key
table alone.  Every ``DoubleOrder`` a caller receives is validated, but the
strict-order test is memoized by relation and the label test by label tuple,
so each costs a cache lookup after the first order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .chains import CubeChain
from .complexes import CoverCell, OrderedCover, label_tuple
from .errors import ContractError, ResourceCapError, StructuralError
from .posets import (
    Rel,
    RelFamily,
    bit_positions,
    rel_below_counts,
    rel_closure,
    rel_comparable_rows,
    rel_from_pairs,
    rel_is_irreflexive,
    rel_is_strict_order,
    rel_is_transitive,
    rel_pairs,
    rel_subset,
)


@dataclass(frozen=True, slots=True)
class DoubleOrder:
    """A pair of strict partial orders (x, y) covering every distinct pair."""

    labels: tuple
    x: Rel
    y: Rel

    def __post_init__(self):
        labels, x, y = self.labels, self.x, self.y
        if type(labels) is not tuple or not _distinct(labels):
            raise ContractError("labels must be a tuple of distinct hashable labels")
        n = len(labels)
        try:
            ok = type(x) is tuple is type(y) and len(x) == n == len(y)
            ok = ok and _is_strict_order(*x) and _is_strict_order(*y)
        except TypeError:  # an unhashable row, so not a bitmask
            ok = False
        if not ok:
            raise ContractError(f"x and y must be strict orders given as {n} row bitmasks each")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_double(self) -> bool:
        rows = zip(rel_comparable_rows(self.x), rel_comparable_rows(self.y))
        return all(a | b == (1 << self.n) - 1 for a, b in rows)

    @property
    def is_regular(self) -> bool:
        return _read_blocks(self.n, self.x, self.y) is not None

    def act(self, sigma: Mapping) -> "DoubleOrder":
        """Right action: i < j in the image iff sigma(i) < sigma(j) originally.
        ContractError unless sigma permutes the labels."""
        return DoubleOrder(self.labels, *relabelling(self.labels, sigma)(self.key()))

    def key(self):
        return (self.x, self.y)

    def text(self) -> str:
        def part(rel: Rel) -> str:
            items = ",".join(
                f"{self.labels[i]}<{self.labels[j]}" for i, j in rel_pairs(rel)
            )
            return "{" + items + "}"

        return f"x{part(self.x)};y{part(self.y)}"

    def to_json_dict(self) -> dict:
        n = self.n
        return {
            "x": [[bool(self.x[i] >> j & 1) for j in range(n)] for i in range(n)],
            "y": [[bool(self.y[i] >> j & 1) for j in range(n)] for i in range(n)],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DoubleOrder":
        """Inverse of ``to_json_dict``; StructuralError names the field at
        fault, ContractError reports relations that are not strict orders."""
        if not isinstance(data, Mapping):
            raise StructuralError("double order must be a JSON object")
        for field in ("labels", "x", "y"):
            if field not in data:
                raise StructuralError(f"double order is missing field {field!r}")
        if not isinstance(data["labels"], list):
            raise StructuralError("field 'labels' must be a list")
        labels = tuple(data["labels"])
        if not _distinct(labels):
            raise StructuralError("field 'labels' must hold distinct hashable labels")
        x, y = (_rel_from_bool_matrix(data[field], len(labels), field) for field in ("x", "y"))
        return cls(labels, x, y)


def _rel_from_bool_matrix(matrix, n: int, field: str) -> Rel:
    """The relation whose row i, column j is ``matrix[i][j]``; StructuralError
    names ``field`` unless ``matrix`` is an n x n list of lists of booleans."""
    if not isinstance(matrix, list) or len(matrix) != n or any(
        not isinstance(row, list) or len(row) != n for row in matrix
    ):
        raise StructuralError(f"field {field!r} must be a {n}x{n} list of lists")
    if any(not isinstance(v, bool) for row in matrix for v in row):
        raise StructuralError(f"field {field!r} must hold only booleans")
    return rel_from_pairs(n, [(i, j) for i in range(n) for j in range(n) if matrix[i][j]])


@lru_cache(maxsize=None, typed=True)
def _is_strict_order(*rows) -> bool:
    # one row per argument, so that the typed cache keeps an int row apart
    # from an equal bool or float, which rel_is_strict_order rejects
    return rel_is_strict_order(rows)


@lru_cache(maxsize=None)
def _positions(labels: tuple) -> dict:
    return {lab: k for k, lab in enumerate(labels)}


def _distinct(labels: tuple) -> bool:
    """True for hashable, pairwise distinct labels, at a cache lookup per call."""
    try:
        return len(_positions(labels)) == len(labels)
    except TypeError:  # an unhashable label
        return False


@lru_cache(maxsize=None)
def _bit_permutation(s: tuple[int, ...]) -> tuple[int, ...]:
    """table[mask] has bit j set iff mask has bit s[j] set.  ContractError
    unless s is a permutation of its positions; the cache checks each s once."""
    if sorted(s) != list(range(len(s))):
        raise ContractError(f"relabelling positions {s} are not a permutation")
    image = [0] * len(s)
    for j, k in enumerate(s):
        image[k] |= 1 << j
    table = [0] * (1 << len(s))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | image[low.bit_length() - 1]
    return tuple(table)


Key = tuple[Rel, Rel]  # the rows (x, y) of a double order


def relabelling(labels: tuple, sigma: Mapping) -> Callable[[Key], Key]:
    """The relabelling by sigma of the keys of orders on ``labels``: the
    image relates i to j iff the key relates sigma(i) to sigma(j).  Its
    position tuple and bit table are built once, for any number of keys.
    ContractError unless sigma permutes the labels."""
    try:
        pos = _positions(labels)
        s = tuple([pos[sigma[lab]] for lab in labels])
    except (KeyError, TypeError):
        raise ContractError(f"relabelling {sigma!r} does not map the labels to labels") from None
    table = _bit_permutation(s)

    def relabel(key: Key) -> Key:
        x, y = key
        return tuple([table[x[k]] for k in s]), tuple([table[y[k]] for k in s])

    return relabel


def level_function(rel: Rel) -> Optional[tuple[int, ...]]:
    """The 1-based level map inducing rel (a < b iff level(a) < level(b)),
    or None when rel is not semi-linear: the levels rank the distinct below
    counts, and rel is semi-linear exactly when it equals their order."""
    counts = rel_below_counts(rel)
    rank = {c: k for k, c in enumerate(sorted(set(counts)), start=1)}
    induced = tuple(sum(1 << j for j, c in enumerate(counts) if c > ci) for ci in counts)
    return tuple(rank[c] for c in counts) if induced == rel else None


def union_bar(o1: DoubleOrder, o2: DoubleOrder) -> Optional[DoubleOrder]:
    """Componentwise transitive closure of the union; None when a closure
    picks up a cycle (reflexive entry)."""
    if o1.labels != o2.labels:
        raise ContractError("union needs a common ground set")
    x = _acyclic_closure(*map(or_, o1.x, o2.x))
    y = None if x is None else _acyclic_closure(*map(or_, o1.y, o2.y))
    return None if y is None else DoubleOrder(o1.labels, x, y)


@lru_cache(maxsize=None)
def _acyclic_closure(*rows: int) -> Optional[Rel]:
    """The closure of rows, or None when it is reflexive: rows hold a cycle."""
    closure = rel_closure(rows)
    return closure if rel_is_irreflexive(closure) else None


# -- regular orders as block sequences -------------------------------------------


def regular_from_blocks(labels: Sequence, blocks: Iterable[Sequence]) -> DoubleOrder:
    """The regular order whose x-levels are ``blocks`` in the given order,
    each block totally ordered by y in its listed order.  ContractError
    unless the blocks are nonempty and partition ``labels``."""
    labels = tuple(labels)
    try:
        pos = {lab: k for k, lab in enumerate(labels)}
        index_blocks = [[pos[lab] for lab in block] for block in blocks]
    except (KeyError, TypeError):
        raise ContractError("blocks must hold labels of the ground set") from None
    listed = sorted(i for block in index_blocks for i in block)
    if not all(index_blocks) or listed != list(range(len(labels))):
        raise ContractError("blocks must be nonempty and partition the labels")
    return DoubleOrder(labels, *_block_rows(len(labels), index_blocks))


def _block_rows(n: int, index_blocks: Sequence[Sequence[int]]) -> tuple[Rel, Rel]:
    """The rows (x, y) of the regular order on n labels whose x-levels are
    the index blocks, each totally ordered by y as listed."""
    x, y = [0] * n, [0] * n
    after = 0  # the labels of the blocks after the current one
    for block in reversed(index_blocks):
        above = 0  # the labels later in the current block
        for i in reversed(block):
            x[i], y[i] = after, above
            above |= 1 << i
        after |= above
    return tuple(x), tuple(y)


@lru_cache(maxsize=None)
def _read_blocks(n: int, x: Rel, y: Rel) -> Optional[tuple[tuple[int, ...], ...]]:
    """The index blocks of the order (x, y) on n labels, or None unless it is
    regular, memoized.  A label's block is fixed by its x below count, its place
    in the block by its y below count; regular means equal to the order so read."""
    x_below, y_below = rel_below_counts(x), rel_below_counts(y)
    listing = sorted(range(n), key=lambda i: (x_below[i], y_below[i]))
    blocks = tuple(tuple(group) for _, group in itertools.groupby(listing, key=x_below.__getitem__))
    return blocks if _block_rows(n, blocks) == (x, y) else None


def regular_blocks(o: DoubleOrder) -> tuple[tuple, ...]:
    """The x-levels of a regular order in order, each in ascending y order:
    the inverse of ``regular_from_blocks``.  ContractError unless regular."""
    blocks = _read_blocks(o.n, o.x, o.y)
    if blocks is None:
        raise ContractError("order is not regular")
    return tuple(tuple(o.labels[i] for i in block) for block in blocks)


# -- classification -------------------------------------------------------------


class Classification(NamedTuple):
    ok: bool
    diagnostic: str = ""
    order: Optional[DoubleOrder] = None
    is_double: bool = False
    is_regular: bool = False
    is_semi_regular: Optional[bool] = None
    level: Optional[dict] = None


def classify(labels: Sequence, x_matrix, y_matrix) -> Classification:
    """Validates a pair of relation matrices and computes the class flags.

    Each matrix must be an n x n list of lists of booleans (StructuralError
    names the argument otherwise); relations that are not strict orders give
    a Classification with ``ok`` false.  Semi-regularity is decided up to 4
    labels by the membership test of ``is_semi_regular``; above that it is
    reported as None rather than guessed.
    """
    labels = label_tuple(labels)
    n = len(labels)
    x = _rel_from_bool_matrix(x_matrix, n, "x_matrix")
    y = _rel_from_bool_matrix(y_matrix, n, "y_matrix")
    for name, rel in (("x", x), ("y", y)):
        if not rel_is_irreflexive(rel):
            return Classification(False, f"{name} relation is reflexive")
        if not rel_is_transitive(rel):
            return Classification(False, f"{name} relation is not transitive")
    order = DoubleOrder(labels, x, y)
    semi = is_semi_regular(order) if n <= 4 else None
    levels = level_function(x)
    level = dict(zip(labels, levels)) if levels is not None else None
    return Classification(
        True,
        "",
        order,
        order.is_double,
        order.is_regular,
        semi,
        level,
    )


# -- enumeration ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _strict_orders(n: int) -> tuple[Rel, ...]:
    """The strict orders on n positions, sorted: the transitive ones among
    the choices, for each pair i < j, of no relation or either direction."""
    if n > 4:
        raise ResourceCapError("strict-order filter enumerations are capped at 4 labels")
    choices = [((), ((i, j),), ((j, i),)) for i, j in itertools.combinations(range(n), 2)]
    candidates = (rel_from_pairs(n, itertools.chain(*picked)) for picked in itertools.product(*choices))
    return tuple(sorted(rel for rel in candidates if rel_is_transitive(rel)))


def _double_keys(n: int) -> list[Key]:
    """Pairs (x, y) of strict orders with every distinct pair comparable in
    x or y: the comparable rows of y hold what those of x lack.  Walking x,
    then its partners, in sorted order lists them in key order."""
    strict = _strict_orders(n)
    full = (1 << n) - 1
    comparable = RelFamily([rel_comparable_rows(rel) for rel in strict], n)
    keys = []
    for x in strict:
        partners = comparable.containing(tuple(full & ~row for row in rel_comparable_rows(x)))
        keys += [(x, strict[k]) for k in bit_positions(partners)]
    return keys


def _regular_keys(n: int) -> list[Key]:
    """Direct construction: the cuts of each permutation of the positions
    give an ordered block sequence, and ``_block_rows`` is a bijection from
    those onto the regular orders."""
    if n == 0:
        return [((), ())]
    keys = []
    for perm in itertools.permutations(range(n)):
        for cut_bits in range(1 << (n - 1)):
            bounds = [0] + [c for c in range(1, n) if cut_bits >> (c - 1) & 1] + [n]
            keys.append(_block_rows(n, [perm[a:b] for a, b in zip(bounds, bounds[1:])]))
    return sorted(keys)


def order_keys(labels: Sequence, kind: str) -> tuple[Key, ...]:
    """The keys ``(x, y)`` of ``enumerate_orders(labels, kind)``, in its
    order and with its caps and errors, from a table cached per size and
    kind; no order is built."""
    labels = label_tuple(labels)
    # the caches below take kind as part of their key, so it must hash
    if not isinstance(kind, str):
        raise ContractError(f"unknown order class {kind!r}")
    return _family_keys(len(labels), kind)


def enumerate_orders(labels: Sequence, kind: str) -> list[DoubleOrder]:
    """The double ("double"), regular ("regular") or semi-regular
    ("semi-regular") orders on a label set, in canonical order.

    Caps: 4 labels for the filtered families ("double", "semi-regular"),
    6 for the direct regular construction.
    """
    labels = label_tuple(labels)
    order_keys(labels, kind)  # raises the caps and errors before a cache sees kind
    return list(_enumerate_cached(labels, kind))


@lru_cache(maxsize=None)
def _enumerate_cached(labels: tuple, kind: str) -> tuple[DoubleOrder, ...]:
    return tuple(DoubleOrder(labels, x, y) for x, y in _family_keys(len(labels), kind))


@lru_cache(maxsize=None)
def _family_keys(n: int, kind: str) -> tuple[Key, ...]:
    if kind == "double":
        if n > 4:
            raise ResourceCapError("double-order enumeration is capped at 4 labels")
        return tuple(_double_keys(n))
    if kind == "regular":
        if n > 6:
            raise ResourceCapError("regular-order enumeration is capped at 6 labels")
        return tuple(_regular_keys(n))
    if kind == "semi-regular":
        if n > 4:
            raise ResourceCapError("semi-regular enumeration is capped at 4 labels")
        return tuple(key for key in _family_keys(n, "double") if _is_semi_regular(n, *key))
    raise ContractError(f"unknown order class {kind!r}")


@lru_cache(maxsize=None)
def _order_families(n: int, kind: str) -> tuple[RelFamily, RelFamily]:
    """The x parts and the y parts of an order family, each read by bit, for
    a size and kind that ``order_keys`` has accepted."""
    keys = _family_keys(n, kind)
    return RelFamily([x for x, _ in keys], n), RelFamily([y for _, y in keys], n)


# -- the two partial orders on double orders ---------------------------------------


def poset_leq(o1: DoubleOrder, o2: DoubleOrder, variant: str) -> bool:
    """"subseteq": both components grow; "sqsubseteq": x grows, y shrinks."""
    if o1.labels != o2.labels:
        raise ContractError("comparison needs a common ground set")
    if variant == "subseteq":
        return rel_subset(o1.x, o2.x) and rel_subset(o1.y, o2.y)
    if variant == "sqsubseteq":
        return rel_subset(o1.x, o2.x) and rel_subset(o2.y, o1.y)
    raise ContractError(f"unknown order variant {variant!r}")


# -- the retraction to regular orders and the chain union ---------------------------


def is_semi_regular(o: DoubleOrder) -> bool:
    """Whether o is the closed union of the regular orders below it.  A union
    of regulars giving o is made of orders below o, and adding the others
    closes inside the transitive o, so this is exactly semi-regularity.
    Memoized by key."""
    if o.n > 4:
        if o.is_regular:
            return True
        raise ResourceCapError("semi-regularity decision is capped at 4 labels")
    return _is_semi_regular(o.n, o.x, o.y)


@lru_cache(maxsize=None)
def _is_semi_regular(n: int, x: Rel, y: Rel) -> bool:
    xs, ys = _order_families(n, "regular")
    below = xs.within(x) & ys.within(y)
    return below != 0 and rel_closure(xs.union(below)) == x and rel_closure(ys.union(below)) == y


def to_regular(o: DoubleOrder) -> DoubleOrder:
    """Drops the y comparisons already decided by x; regular on semi-regular
    input, the identity on regular input, and monotone from the componentwise
    order to the mixed one."""
    if not is_semi_regular(o):
        raise ContractError("input is not semi-regular")
    y = tuple(row & ~c for row, c in zip(o.y, rel_comparable_rows(o.x)))
    return DoubleOrder(o.labels, o.x, y)


def chain_union(chain: Sequence[DoubleOrder]) -> DoubleOrder:
    """Closure union of a strictly increasing mixed-order chain of regular
    orders, folded with ``union_bar``; such a union never cycles."""
    if not chain:
        raise ContractError("chain must be nonempty")
    for o in chain:
        if not o.is_regular:
            raise ContractError("chain entries must be regular")
    for a, b in zip(chain, chain[1:]):
        if a.key() == b.key() or not poset_leq(a, b, "sqsubseteq"):
            raise ContractError("chain must be strictly increasing in the mixed order")
    return reduce(union_bar, chain)


# -- cube chains of the ordered cover <-> regular double orders ----------------------


def chain_to_double_order(cover: OrderedCover, chain: CubeChain) -> DoubleOrder:
    """Reads off the regular order of a chain: its blocks are the elements
    each step activates, in the step's within-cell order.  ContractError
    when the steps do not activate every element exactly once."""
    return regular_from_blocks(cover.ground, [cover.cover_cell(c).mid for c in chain.cells])


def double_order_to_chain(cover: OrderedCover, o: DoubleOrder) -> CubeChain:
    """The cube chain whose step-j cell activates the j-th block of the
    regular order o, with earlier blocks finished and later ones unstarted."""
    if tuple(o.labels) != cover.ground:
        raise ContractError("order and cover have different ground sets")
    cells = []
    done, rest = frozenset(), frozenset(o.labels)
    for block in regular_blocks(o):
        rest -= set(block)
        cells.append(cover.cell_of(CoverCell(done, block, rest)))
        done |= set(block)
    return CubeChain(tuple(cells))
