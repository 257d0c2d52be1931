"""Finite categories and their nerves: composition tables, loop-freeness
(Kahn peeling through ``reachable``), quotients by free group actions (both
read off one orbit table, ``GroupAction.orbits``), the break category on
{1..n-1}, and the functor from regular double orders onto it.

Each builder hands ``FiniteCategory`` one composition function; the
constructor calls it once per composable pair and keeps the table, and
every law check walks the same ``composable_pairs`` order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple, Sequence

from .complexes import adjacent_transpositions, label_tuple
from .errors import ContractError, require_size, shared_in_run
from .homology import ChainComplex, collector_suspended
from .orders import DoubleOrder, _order_families, enumerate_orders, regular_blocks, relabelling
from .posets import Poset, dot_digraph, label_text, reachable, rel_pairs


class Morphism(NamedTuple):
    src: int
    tgt: int
    payload: object = None


class FiniteCategory:
    """Objects, an indexed morphism list, identities, and composition.

    ``compose(g, f)`` gives the index of g∘f; it is called once on every
    composable pair, in ``composable_pairs`` order, and the results form the
    table that the ``compose`` method reads.  ``out_of[obj]`` lists the
    morphisms with source ``obj`` in index order.
    """

    def __init__(
        self,
        objects: Sequence,
        morphisms: Sequence[Morphism],
        identity: Sequence[int],
        compose: Callable[[int, int], int],
    ):
        try:
            self.objects, self.morphisms = list(objects), list(morphisms)
            self.identity = list(identity)
        except TypeError:  # one of them is not iterable
            raise ContractError("objects, morphisms and identities must be sequences") from None
        if len(self.identity) != len(self.objects):
            raise ContractError("one identity per object required")
        n_obj, n_mor = len(self.objects), len(self.morphisms)  # an index is an int, not a bool
        self.out_of: list[list[int]] = [[] for _ in self.objects]
        for m, mor in enumerate(self.morphisms):
            if not isinstance(mor, Morphism):
                raise ContractError(f"morphism {m} is not a Morphism")
            if not all(type(v) is int and 0 <= v < n_obj for v in (mor.src, mor.tgt)):
                raise ContractError(f"morphism {m} has an endpoint that is not an object index")
            self.out_of[mor.src].append(m)
        for obj, m in enumerate(self.identity):
            mor = self.morphisms[m] if type(m) is int and 0 <= m < n_mor else None
            if mor is None or mor.src != obj or mor.tgt != obj:
                raise ContractError(f"identity of object {obj} is not a morphism {obj} -> {obj}")
        self._compose = {(g, f): compose(g, f) for g, f in self.composable_pairs()}

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def non_identity(self) -> list[int]:
        idset = set(self.identity)
        return [m for m in range(len(self.morphisms)) if m not in idset]

    def composable_pairs(self) -> Iterator[tuple[int, int]]:
        """Every (g, f) with tgt(f) = src(g): f in index order, then g in
        index order among the morphisms out of tgt(f)."""
        for f, mor in enumerate(self.morphisms):
            for g in self.out_of[mor.tgt]:
                yield g, f

    def compose(self, g: int, f: int) -> int:
        """g after f; tgt(f) must equal src(g)."""
        try:
            return self._compose[g, f]
        except KeyError:
            raise ContractError(f"morphisms {g} and {f} are not composable") from None

    def validate(self) -> None:
        """Identity and associativity laws over the full composition table."""
        for m, mor in enumerate(self.morphisms):
            if self.compose(m, self.identity[mor.src]) != m:
                raise ContractError(f"right identity fails at morphism {m}")
            if self.compose(self.identity[mor.tgt], m) != m:
                raise ContractError(f"left identity fails at morphism {m}")
        for g, f in self.composable_pairs():
            gf = self.compose(g, f)
            g_tgt = self.morphisms[g].tgt
            if self.morphisms[gf].src != self.morphisms[f].src or self.morphisms[gf].tgt != g_tgt:
                raise ContractError("composite has wrong endpoints")
            for h in self.out_of[g_tgt]:
                if self.compose(h, gf) != self.compose(self.compose(h, g), f):
                    raise ContractError("associativity fails")

    def is_loop_free(self) -> bool:
        """No non-identity endomorphisms and no directed cycles through them:
        Kahn peeling releases an object once every non-identity entering it
        comes from a peeled object, and the category is loop-free iff every
        object is peeled."""
        targets: list[list[int]] = [[] for _ in self.objects]
        entering = [0] * self.n_objects
        for m in self.non_identity():
            mor = self.morphisms[m]
            targets[mor.src].append(mor.tgt)
            entering[mor.tgt] += 1

        def release(obj: int) -> Iterator[int]:
            for tgt in targets[obj]:
                entering[tgt] -= 1
                if not entering[tgt]:
                    yield tgt

        sources = [obj for obj, count in enumerate(entering) if not count]
        return len(reachable(sources, release)) == self.n_objects

    def object_label(self, i: int) -> str:
        return label_text(self.objects[i], brackets="{}")

    def morphism_label(self, m: int) -> str:
        return label_text(self.morphisms[m].payload, brackets="()")

    def to_dot(self, name: str = "category") -> str:
        """Objects as nodes, non-identity morphisms as labeled edges."""
        mors = self.morphisms
        edges = [(mors[m].src, mors[m].tgt, self.morphism_label(m)) for m in self.non_identity()]
        return dot_digraph(name, "n", [self.object_label(i) for i in range(self.n_objects)], edges)

    def to_json_dict(self) -> dict:
        return {
            "objects": [self.object_label(i) for i in range(len(self.objects))],
            "morphisms": [
                {"src": m.src, "tgt": m.tgt, "name": self.morphism_label(i)}
                for i, m in enumerate(self.morphisms)
            ],
            "identity": list(self.identity),
            "compose": sorted([g, f, gf] for (g, f), gf in self._compose.items()),
        }


def poset_category(P: Poset) -> FiniteCategory:
    """A poset as a category: one morphism per related pair, composed by
    looking up the pair (src f, tgt g).  Its nerve is the order complex of P:
    the runs of non-identity morphisms are the strict chains, in (length,
    tuple) order."""
    with collector_suspended():
        morphisms = []
        index = {}
        for i, j in rel_pairs(P.leq):
            index[(i, j)] = len(morphisms)
            morphisms.append(Morphism(i, j, f"{P.element_label(i)}->{P.element_label(j)}"))
        identity = [index[(i, i)] for i in range(len(P.elements))]
        return FiniteCategory(
            P.elements,
            morphisms,
            identity,
            lambda g, f: index[(morphisms[f].src, morphisms[g].tgt)],
        )


# -- nerves ---------------------------------------------------------------------


def _nerve_levels(
    C: FiniteCategory,
) -> Iterator[tuple[list[int], list[tuple[int, ...]], Callable[[int, int], int]]]:
    """The nerve on integer run ids, one level of runs of k >= 1 non-identity
    morphisms at a time.  Level 1 lists the morphisms in index order, and
    the runs p.m extending a run p get consecutive ids in the order of m, so
    ids follow the lexicographic order of runs.  Each level yields every
    run's last morphism, its faces d_0..d_k as ids one level down (objects
    for k = 1), and ``child(q, m)``, the id of q.m for q one level down.
    The faces of p.m are those of p extended by m, the last one by m after
    last(p), and then p; in a loop-free category they are distinct.
    """
    if not C.is_loop_free():
        raise ContractError("nerve is infinite: category has loops")
    idset = set(C.identity)
    steps = [[m for m in out if m not in idset] for out in C.out_of]
    pos = {m: i for out in steps for i, m in enumerate(out)}
    tgt = [mor.tgt for mor in C.morphisms]
    last = C.non_identity()
    objects, here = list(range(C.n_objects)), list(range(len(last)))  # one int object per id
    id_of = dict(zip(last, here))
    kids: list[Sequence[int]] = [[id_of[m] for m in out] for out in steps]
    faces = [(objects[tgt[m]], objects[C.morphisms[m].src]) for m in last]
    # for each morphism f: the non-identities g out of tgt f, and the
    # positions of the composites g f among the non-identities out of src f
    next_steps = [steps[t] for t in tgt]
    after = [[pos[C.compose(g, f)] for g in next_steps[f]] for f in range(C.n_morphisms)]
    while last:
        yield last, faces, lambda q, m, kids=kids: kids[q][pos[m]]
        above = list(range(sum(len(next_steps[f]) for f in last)))
        next_last, next_faces, next_kids = [], [], []
        for p, f, face in zip(here, last, faces):
            out = next_steps[f]
            if out:
                tail = kids[face[-1]]
                inner = [kids[q] for q in face[:-1]]
                next_faces.extend(zip(*inner, [tail[j] for j in after[f]], itertools.repeat(p)))
                next_kids.append(above[len(next_last) : len(next_last) + len(out)])
                next_last.extend(out)
            else:
                next_kids.append(())
        last, faces, kids, here = next_last, next_faces, next_kids, above


def nerve_chains(C: FiniteCategory) -> list[list[tuple[int, ...]]]:
    """Composable runs of non-identity morphisms, one level per run length;
    level 0 lists the objects as empty runs tagged by object index."""
    levels: list[list[tuple[int, ...]]] = [[(o,) for o in range(C.n_objects)]]
    prev: list[tuple[int, ...]] = [()] * C.n_objects  # the last face of a morphism is its source
    for last, faces, _ in _nerve_levels(C):
        prev = [prev[face[-1]] + (m,) for m, face in zip(last, faces)]
        levels.append(prev)
    return levels


def nerve_complex(C: FiniteCategory) -> ChainComplex:
    """Normalized chain complex of the nerve, as face tables.

    For a loop-free category no composite of non-identity morphisms is an
    identity, so the chains are freely generated by the runs from
    ``nerve_chains`` and the boundary alternates drop/compose faces:
    d(f1, ..., fk) = (f2, ..., fk) + sum_i (-1)^i (..., f(i+1) f(i), ...)
    + (-1)^k (f1, ..., f(k-1)).  The faces d_0..d_k that ``_nerve_levels``
    yields as run ids go to ``ChainComplex.simplicial`` as they are.
    """
    with collector_suspended():
        levels = [faces for _, faces, _ in _nerve_levels(C)]
        return ChainComplex.simplicial([C.n_objects, *map(len, levels)], levels)


def composable_run_counts(C: FiniteCategory) -> list[int]:
    """Run counts per length via powers of the non-identity count matrix;
    pure counting, no materialization (the matrix is nilpotent)."""
    n = C.n_objects
    counts = [[0] * n for _ in range(n)]
    for m in C.non_identity():
        mor = C.morphisms[m]
        counts[mor.src][mor.tgt] += 1
    out = [n]
    power = [row[:] for row in counts]
    while any(any(row) for row in power):
        out.append(sum(map(sum, power)))
        power = [
            [sum(power[i][k] * counts[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return out


# -- group actions and quotients ---------------------------------------------------


class GroupAction:
    """A finite group acting from the right on a poset category through
    object permutations, given by generator tables.  A poset category has one
    morphism a -> b per related pair, so a table keeping related pairs related
    (checked on the generators, so true of all their products) moves it to
    g(a) -> g(b), preserving endpoints, identities and composition.
    ``on_objects`` lists every element's table, the identity first."""

    def __init__(self, C: FiniteCategory, generators: Sequence[Sequence[int]]):
        self.C = C
        try:
            self.generators = [tuple(row) for row in generators]
        except TypeError:  # the tables, or one of them, are not iterable
            raise ContractError("action tables must permute the objects") from None
        self._hom: list[dict[int, int]] = [{} for _ in C.objects]  # _hom[a][b] is a -> b
        for m, mor in enumerate(C.morphisms):
            if self._hom[mor.src].setdefault(mor.tgt, m) != m:
                raise ContractError("action needs a poset category: parallel morphisms found")
        self.validate()
        self.on_objects = reachable(
            [tuple(range(C.n_objects))],
            lambda objs: [tuple([gen[o] for o in objs]) for gen in self.generators],
        )

    def validate(self) -> None:
        """Each generator permutes the objects, as ints, and keeps related pairs related."""
        n = self.C.n_objects
        for objs in self.generators:
            if len(objs) != n or {v for v in objs if type(v) is int} != set(range(n)):
                raise ContractError("action tables must permute the objects")
            for mor in self.C.morphisms:
                if objs[mor.tgt] not in self._hom[objs[mor.src]]:
                    raise ContractError("action does not preserve the order")

    def act_morphism(self, g: int, m: int) -> int:
        """The image g(a) -> g(b) of the morphism m: a -> b under element g."""
        objs, mor = self.on_objects[g], self.C.morphisms[m]
        return self._hom[objs[mor.src]][objs[mor.tgt]]

    def orbits(self) -> tuple[list[int], list[int], list[int]]:
        """The object orbits of a free action, read off their least members:
        the least object of each orbit in ascending order, each object's
        orbit index, and for each object the element moving its orbit's least
        object to it.  ContractError unless the action is free on objects."""
        least: list[int] = []
        orbit_of, away = [-1] * self.C.n_objects, [0] * self.C.n_objects
        for o in range(self.C.n_objects):  # in order: an orbit is first met at its least object
            if orbit_of[o] == -1:
                for g, objs in enumerate(self.on_objects):
                    if orbit_of[objs[o]] == -1:
                        orbit_of[objs[o]], away[objs[o]] = len(least), g
                least.append(o)
        if len(least) * len(self.on_objects) != self.C.n_objects:  # some orbit is short
            raise ContractError("orbits need a free action on objects")
        return least, orbit_of, away


def quotient_category(
    C: FiniteCategory, act: GroupAction
) -> tuple[FiniteCategory, list[int], list[int]]:
    """Quotient by a free action: objects are orbits, morphisms are orbits,
    each represented by its one member out of the least object of its source
    orbit.  Composition moves the second factor's representative, which
    starts at the least object of its orbit, to the target of the first by
    that object's ``away`` element, so the two always compose.  Returns
    (quotient, object map, morphism map); the nerve-quotient check tests the
    quotient's laws and orbit counts.
    """
    if act.C is not C:
        raise ContractError("action is attached to a different category")
    least, obj_map, away = act.orbits()
    mor_reps = [m for m, mor in enumerate(C.morphisms) if least[obj_map[mor.src]] == mor.src]
    mor_map = [-1] * C.n_morphisms
    for i, r in enumerate(mor_reps):
        for g in range(len(act.on_objects)):
            mor_map[act.act_morphism(g, r)] = i
    if -1 in mor_map:
        m = mor_map.index(-1)
        raise ContractError(f"orbit of morphism {m} has no member at its representative")

    objects = [C.objects[r] for r in least]
    morphisms = [C.morphisms[r] for r in mor_reps]
    morphisms = [Morphism(obj_map[mor.src], obj_map[mor.tgt], mor.payload) for mor in morphisms]
    identity = [mor_map[C.identity[r]] for r in least]

    def compose(g: int, f: int) -> int:
        f_rep = mor_reps[f]
        g_member = act.act_morphism(away[C.morphisms[f_rep].tgt], mor_reps[g])
        return mor_map[C.compose(g_member, f_rep)]

    return FiniteCategory(objects, morphisms, identity, compose), obj_map, mor_map


# -- the break category -------------------------------------------------------------


def _blocks(breaks: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    bounds = [0] + list(breaks) + [n]
    return [(bounds[i] + 1, bounds[i + 1]) for i in range(len(bounds) - 1)]


def _shuffles(free: tuple[int, ...], sizes: Sequence[int]) -> list[tuple[int, ...]]:
    """The maps of consecutive runs of the given sizes onto the sorted ``free``
    that increase on each run, as image tuples in lexicographic order."""
    if not sizes:
        return [()]
    return [
        pick + rest
        for pick in itertools.combinations(free, sizes[0])
        for rest in _shuffles(tuple(v for v in free if v not in pick), sizes[1:])
    ]


def build_break_category(n: int) -> FiniteCategory:
    """The category of break sets: objects are subsets of {1..n-1}; morphisms
    from B to a coarser B' are the permutations of {1..n} preserving each
    B'-block setwise and increasing within each B-block, that is the
    shuffles of the B-blocks inside each B'-block, listed in lexicographic
    order.  Composition is composition of permutations (CLI model id: en).
    """
    require_size(n, "break category size", low=1, cap=7)
    return _break_category(n)


@shared_in_run
def _break_category(n: int) -> FiniteCategory:
    objects = []
    for size in range(n):
        for combo in itertools.combinations(range(1, n), size):
            objects.append(combo)
    objects.sort(key=lambda b: (len(b), b))
    obj_index = {b: i for i, b in enumerate(objects)}

    morphisms: list[Morphism] = []
    mor_index: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for b_idx, breaks in enumerate(objects):
        fine = _blocks(breaks, n)
        for b2_idx, coarser in enumerate(objects):
            if not set(coarser) <= set(breaks):
                continue
            # a shuffle of the fine blocks in each coarse block, blocks left to right
            per_block = [
                _shuffles(tuple(range(lo, hi + 1)), [b - a + 1 for a, b in fine if lo <= a <= hi])
                for lo, hi in _blocks(coarser, n)
            ]
            for parts in itertools.product(*per_block):
                phi = sum(parts, ())
                mor_index[(b_idx, b2_idx, phi)] = len(morphisms)
                morphisms.append(Morphism(b_idx, b2_idx, phi))
    ident = tuple(range(1, n + 1))
    identity = [mor_index[(i, i, ident)] for i in range(len(objects))]

    def compose(g: int, f: int) -> int:
        fm, gm = morphisms[f], morphisms[g]
        phi = tuple(gm.payload[i - 1] for i in fm.payload)
        key = (fm.src, gm.tgt, phi)
        if key not in mor_index:
            raise ContractError("composite permutation leaves the category")
        return mor_index[key]

    return FiniteCategory(objects, morphisms, identity, compose)


# -- the functor from regular double orders ------------------------------------------


class BreakFunctor(NamedTuple):
    """The functor from (regular orders, reverse mixed order) to the break
    category as object and morphism tables; its source is the poset category
    of ``quotient``, which also holds the relabeling action and orbit maps."""

    quotient: SymmetricOrderQuotient
    target: FiniteCategory
    object_map: list[int]
    morphism_map: list[int]


def break_set(o: DoubleOrder) -> tuple[int, ...]:
    """Cumulative block sizes of a regular order, the last one dropped."""
    return tuple(itertools.accumulate(len(block) for block in regular_blocks(o)))[:-1]


def monotone_numbering(o: DoubleOrder) -> tuple:
    """The unique listing of a regular order with its blocks in order and
    each block listed in ascending y order."""
    return tuple(lab for block in regular_blocks(o) for lab in block)


def regular_orders_poset(labels, variant: str) -> tuple[Poset, list[DoubleOrder]]:
    """(R, variant) as a poset; variant "sqsupseteq" is the reverse mixed order."""
    if variant not in ("sqsubseteq", "sqsupseteq"):  # a tuple test: a list is no dict key
        raise ContractError(f"unknown variant {variant!r}")
    x_grows = variant == "sqsubseteq"
    return _orders_poset(label_tuple(labels), "regular", (x_grows, not x_grows))


def semi_regular_orders_poset(labels) -> tuple[Poset, list[DoubleOrder]]:
    """(semi-regular orders, componentwise inclusion) as a poset."""
    return _orders_poset(label_tuple(labels), "semi-regular", (True, True))


@shared_in_run
def _orders_poset(labels, kind: str, grows: tuple[bool, bool]) -> tuple[Poset, list[DoubleOrder]]:
    """The orders of a kind with a <= b iff b's x contains a's x, or lies
    inside it, as ``grows[0]`` is true or false, and likewise for y: each
    row ANDs member masks of the two components, comparing no two orders."""
    orders = enumerate_orders(labels, kind)  # first, as it checks the labels
    families = _order_families(len(labels), kind)
    up_x, up_y = (f.containing if g else f.within for f, g in zip(families, grows))
    return Poset([o.text() for o in orders], [up_x(o.x) & up_y(o.y) for o in orders]), orders


def break_functor(labels) -> BreakFunctor:
    """Builds the functor on the symmetric quotient of the regular orders, on
    objects and on every reverse-mixed-order pair, checking that each
    assigned permutation lands in the break category.  The pair o -> o2
    goes to the phi with numbering(o2)[phi(i)] = numbering(o)[i]."""
    q = symmetric_order_quotient(labels, "regular")
    target = build_break_category(len(q.labels))
    target_obj_index = {b: i for i, b in enumerate(target.objects)}
    object_map = [target_obj_index[break_set(o)] for o in q.orders]
    numberings = [monotone_numbering(o) for o in q.orders]
    positions = [{lab: i for i, lab in enumerate(num, start=1)} for num in numberings]
    mor_index = {(mor.src, mor.tgt, mor.payload): m for m, mor in enumerate(target.morphisms)}
    morphism_map = []
    for mor in q.category.morphisms:
        phi = tuple(positions[mor.tgt][lab] for lab in numberings[mor.src])
        key = (object_map[mor.src], object_map[mor.tgt], phi)
        if key not in mor_index:
            raise ContractError("assigned permutation is not a break-category morphism")
        morphism_map.append(mor_index[key])
    return BreakFunctor(q, target, object_map, morphism_map)


class SymmetricOrderQuotient(NamedTuple):
    """A family of double orders as a poset category, the symmetric-group
    action on it, and the quotient category."""

    labels: tuple
    orders: list[DoubleOrder]
    category: FiniteCategory
    action: GroupAction
    quotient: FiniteCategory
    object_map: list[int]
    morphism_map: list[int]


def symmetric_order_quotient(labels, kind: str) -> SymmetricOrderQuotient:
    """Quotient of (regular orders, reverse mixed order) or (semi-regular
    orders, inclusion) by the relabelings the adjacent transpositions span."""
    labels = label_tuple(labels)
    if kind not in ("regular", "semi-regular"):
        raise ContractError(f"unknown order family {kind!r}")
    return _symmetric_order_quotient(labels, kind)


@shared_in_run
def _symmetric_order_quotient(labels: tuple, kind: str) -> SymmetricOrderQuotient:
    if kind == "regular":
        poset, orders = regular_orders_poset(labels, "sqsupseteq")
    else:
        poset, orders = semi_regular_orders_poset(labels)
    C = poset_category(poset)
    keys = [o.key() for o in orders]
    key_index = {key: i for i, key in enumerate(keys)}
    swaps = [relabelling(labels, s) for s in adjacent_transpositions(labels)]
    act = GroupAction(C, [[key_index[swap(key)] for key in keys] for swap in swaps])
    Q, obj_map, mor_map = quotient_category(C, act)
    return SymmetricOrderQuotient(labels, orders, C, act, Q, obj_map, mor_map)


def nerve_orbit_complex(
    C: FiniteCategory, act: GroupAction
) -> tuple[ChainComplex, list[list[tuple[int, ...]]]]:
    """Orbit complex of the nerve: generators are orbits of composable runs,
    boundaries induced by their representatives, whose faces map to orbits.

    The action must be free on objects, hence on runs, so the faces of a run
    stay in distinct orbits: a face moved onto a sibling would force a cycle.
    An orbit's representative is its one run out of the least object of its
    source orbit; a run starts where its prefix does, so these are the runs
    extending a representative.  Where morphisms are listed by source, as
    ``poset_category`` lists them, it is the orbit's least run.
    """
    if act.C is not C:
        raise ContractError("action is attached to a different category")
    with collector_suspended():
        least, orbit_of, _ = act.orbits()
        reps, runs = least, [()] * len(least)
        image = [[objs[o] for o in least] for objs in act.on_objects]  # image[g][i]: of reps[i]
        rep_levels: list[list[tuple[int, ...]]] = [[(o,) for o in least]]
        levels = []
        for last, faces, child in _nerve_levels(C):
            # each representative run with the orbit index of its prefix
            prefix = {p: orbit_of[f[-1]] for p, f in enumerate(faces) if reps[orbit_of[f[-1]]] == f[-1]}
            reps, runs = list(prefix), [runs[i] + (last[p],) for p, i in prefix.items()]
            rep_levels.append(runs)
            levels.append([tuple(map(orbit_of.__getitem__, faces[p])) for p in reps])
            image = [
                [child(row[i], act.act_morphism(g, last[p])) for p, i in prefix.items()]
                for g, row in enumerate(image)
            ]
            orbit_of = [0] * len(last)
            for row in image:
                for i, run in enumerate(row):
                    orbit_of[run] = i
        return ChainComplex.simplicial([len(level) for level in rep_levels], levels), rep_levels


def check_functoriality(func: BreakFunctor) -> None:
    C, D = func.quotient.category, func.target
    for i in range(C.n_objects):
        if func.morphism_map[C.identity[i]] != D.identity[func.object_map[i]]:
            raise ContractError("functor does not preserve identities")
    for g, f in C.composable_pairs():
        if func.morphism_map[C.compose(g, f)] != D.compose(
            func.morphism_map[g], func.morphism_map[f]
        ):
            raise ContractError("functor does not preserve composition")
