"""Finite categories and their nerves: composition tables, loop-freeness,
quotients by free group actions, the break category on {1..n-1}, and the
functor from regular double orders onto it.

Each builder hands ``FiniteCategory`` one composition function; the
constructor calls it once per composable pair and keeps the table, and
every law check walks the same ``composable_pairs`` order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .errors import ContractError, ResourceCapError
from .homology import ChainComplex
from .orders import DoubleOrder, enumerate_orders, level_function, poset_leq
from .posets import Poset, _dot_escape


@dataclass(frozen=True)
class Morphism:
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
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.identity = list(identity)
        if len(self.identity) != len(self.objects):
            raise ContractError("one identity per object required")
        for obj, m in enumerate(self.identity):
            if self.morphisms[m].src != obj or self.morphisms[m].tgt != obj:
                raise ContractError(f"identity of object {obj} has wrong endpoints")
        self.out_of: list[list[int]] = [[] for _ in self.objects]
        for m, mor in enumerate(self.morphisms):
            self.out_of[mor.src].append(m)
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

    def hom(self, a: int, b: int) -> list[int]:
        return [m for m in self.out_of[a] if self.morphisms[m].tgt == b]

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
        """No non-identity endomorphisms and no directed cycles through them."""
        edges: dict[int, set[int]] = {}
        for m in self.non_identity():
            mor = self.morphisms[m]
            if mor.src == mor.tgt:
                return False
            edges.setdefault(mor.src, set()).add(mor.tgt)
        seen: dict[int, int] = {}  # 1 = on stack, 2 = done

        def dfs(v: int) -> bool:
            seen[v] = 1
            for w in edges.get(v, ()):
                state = seen.get(w)
                if state == 1:
                    return False
                if state is None and not dfs(w):
                    return False
            seen[v] = 2
            return True

        return all(dfs(v) for v in range(len(self.objects)) if v not in seen)

    def object_label(self, i: int) -> str:
        o = self.objects[i]
        if isinstance(o, str):
            return o
        if isinstance(o, tuple):
            return "{" + ",".join(map(str, o)) + "}"
        return str(o)

    def morphism_label(self, m: int) -> str:
        p = self.morphisms[m].payload
        if isinstance(p, str):
            return p
        if isinstance(p, tuple):
            return "(" + ",".join(map(str, p)) + ")"
        return str(p)

    def to_dot(self, name: str = "category") -> str:
        """Objects as nodes, non-identity morphisms as labeled edges."""
        lines = [f"digraph {name} {{"]
        for i in range(len(self.objects)):
            lines.append(f'  n{i} [label="{_dot_escape(self.object_label(i))}"];')
        for m in self.non_identity():
            mor = self.morphisms[m]
            lines.append(
                f'  n{mor.src} -> n{mor.tgt} [label="{_dot_escape(self.morphism_label(m))}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

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
    looking up the pair (src f, tgt g)."""
    morphisms = []
    index = {}
    for i in range(len(P.elements)):
        for j in range(len(P.elements)):
            if P.leq[i][j]:
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


def nerve_chains(C: FiniteCategory) -> list[list[tuple[int, ...]]]:
    """Composable runs of non-identity morphisms, one level per run length;
    level 0 lists the objects as empty runs tagged by object index."""
    if not C.is_loop_free():
        raise ContractError("nerve is infinite: category has loops")
    idset = set(C.identity)
    steps = [[m for m in out if m not in idset] for out in C.out_of]
    levels: list[list[tuple[int, ...]]] = [[(o,) for o in range(C.n_objects)]]
    current = [(m,) for m in C.non_identity()]
    while current:
        levels.append(current)
        current = [run + (m,) for run in current for m in steps[C.morphisms[run[-1]].tgt]]
    return levels


def nerve_complex(C: FiniteCategory) -> ChainComplex:
    """Normalized chain complex of the nerve.

    For a loop-free category no composite of non-identity morphisms is an
    identity, so the chains are freely generated by the runs from
    ``nerve_chains`` and the boundary alternates drop/compose faces.
    """
    levels = nerve_chains(C)
    rows = [{run: i for i, run in enumerate(level)} for level in levels[:-1]]
    return ChainComplex([len(level) for level in levels], _nerve_boundaries(C, levels, rows))


def _nerve_boundaries(
    C: FiniteCategory,
    levels: Sequence[Sequence[tuple[int, ...]]],
    rows: Sequence[Mapping[tuple[int, ...], int]],
) -> list[list[dict[int, int]]]:
    """Sparse boundary columns of the runs in ``levels[k]`` for k >= 1:
    d(f1, ..., fk) = (f2, ..., fk) + sum_i (-1)^i (..., f(i+1) f(i), ...)
    + (-1)^k (f1, ..., f(k-1)), and d(f) = tgt f - src f on single
    morphisms; ``rows[k - 1]`` maps each face run to its row index."""
    boundaries = []
    for k in range(1, len(levels)):
        row_of = rows[k - 1]
        cols = []
        for run in levels[k]:
            col: dict[int, int] = {}

            def add(face: tuple[int, ...], sign: int):
                row = row_of[face]
                col[row] = col.get(row, 0) + sign

            if k == 1:
                add((C.morphisms[run[0]].tgt,), 1)
                add((C.morphisms[run[0]].src,), -1)
            else:
                add(run[1:], 1)
                for i in range(1, k):
                    add(
                        run[: i - 1] + (C.compose(run[i], run[i - 1]),) + run[i + 1 :],
                        (-1) ** i,
                    )
                add(run[:-1], (-1) ** k)
            cols.append({r: v for r, v in col.items() if v})
        boundaries.append(cols)
    return boundaries


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
    """A finite group acting on a category from the right, elementwise on
    objects and morphisms; functoriality is validated."""

    def __init__(
        self,
        C: FiniteCategory,
        names: Sequence,
        on_objects: Sequence[Sequence[int]],
        on_morphisms: Sequence[Sequence[int]],
    ):
        self.C = C
        self.names = list(names)
        self.on_objects = [tuple(row) for row in on_objects]
        self.on_morphisms = [tuple(row) for row in on_morphisms]
        if not (len(self.names) == len(self.on_objects) == len(self.on_morphisms)):
            raise ContractError("ragged action tables")
        self._identity_index = None
        for g, (objs, mors) in enumerate(zip(self.on_objects, self.on_morphisms)):
            if sorted(objs) != list(range(C.n_objects)) or sorted(mors) != list(
                range(C.n_morphisms)
            ):
                raise ContractError("action tables must be permutations")
            if objs == tuple(range(C.n_objects)) and mors == tuple(range(C.n_morphisms)):
                self._identity_index = g
        if self._identity_index is None:
            raise ContractError("group must contain the identity")
        self.validate()

    def validate(self) -> None:
        C = self.C
        for objs, mors in zip(self.on_objects, self.on_morphisms):
            for m, mor in enumerate(C.morphisms):
                image = C.morphisms[mors[m]]
                if image.src != objs[mor.src] or image.tgt != objs[mor.tgt]:
                    raise ContractError("action does not preserve endpoints")
            for obj, ident in enumerate(C.identity):
                if mors[ident] != C.identity[objs[obj]]:
                    raise ContractError("action does not preserve identities")
        for mors in self.on_morphisms:
            for g, f in C.composable_pairs():
                if mors[C.compose(g, f)] != C.compose(mors[g], mors[f]):
                    raise ContractError("action does not preserve composition")

    def is_free_on_objects(self) -> bool:
        for g, objs in enumerate(self.on_objects):
            if g == self._identity_index:
                continue
            if any(objs[o] == o for o in range(self.C.n_objects)):
                return False
        return True

    def act_run(self, g: int, run: tuple[int, ...]) -> tuple[int, ...]:
        mors = self.on_morphisms[g]
        return tuple(mors[m] for m in run)


def group_action_on_poset_category(
    C: FiniteCategory, P: Poset, names: Sequence, element_perms: Sequence[Sequence[int]]
) -> GroupAction:
    """Lifts permutations of the poset's elements to the poset category."""
    pair_index = {}
    for m, mor in enumerate(C.morphisms):
        pair_index[(mor.src, mor.tgt)] = m
    on_morphisms = []
    for perm in element_perms:
        on_morphisms.append(
            [pair_index[(perm[mor.src], perm[mor.tgt])] for mor in C.morphisms]
        )
    return GroupAction(C, names, element_perms, on_morphisms)


def quotient_category(
    C: FiniteCategory, act: GroupAction
) -> tuple[FiniteCategory, list[int], list[int]]:
    """Quotient by a free action: objects are orbits, morphisms are orbits.

    Freeness on objects makes every morphism orbit hit each source object of
    its source orbit exactly once, which pins down canonical representatives
    and the composition rule.  Returns (quotient, object map, morphism map).
    """
    if act.C is not C:
        raise ContractError("action is attached to a different category")
    if not act.is_free_on_objects():
        raise ContractError("quotient construction requires a free action on objects")

    def orbit(table, start):
        return sorted({row[start] for row in table})

    obj_orbit_rep: list[int] = [-1] * C.n_objects
    reps = []
    for o in range(C.n_objects):
        if obj_orbit_rep[o] == -1:
            members = orbit(act.on_objects, o)
            rep = members[0]
            for m in members:
                obj_orbit_rep[m] = rep
            reps.append(rep)
    reps.sort()
    obj_map = [reps.index(obj_orbit_rep[o]) for o in range(C.n_objects)]

    mor_orbit_rep: list[int] = [-1] * C.n_morphisms
    mor_reps = []
    for m in range(C.n_morphisms):
        if mor_orbit_rep[m] == -1:
            members = orbit(act.on_morphisms, m)
            # canonical representative: the unique member whose source is the
            # canonical object of the source orbit, least index breaking ties
            anchored = [
                x for x in members if C.morphisms[x].src == obj_orbit_rep[C.morphisms[x].src]
            ]
            rep = min(anchored)
            for x in members:
                mor_orbit_rep[x] = rep
            mor_reps.append(rep)
    mor_reps.sort()
    mor_map = [mor_reps.index(mor_orbit_rep[m]) for m in range(C.n_morphisms)]

    objects = [C.objects[r] for r in reps]
    morphisms = []
    for r in mor_reps:
        mor = C.morphisms[r]
        morphisms.append(Morphism(obj_map[mor.src], obj_map[mor.tgt], C.morphisms[r].payload))
    identity = [mor_map[C.identity[r]] for r in reps]

    # composition: anchor the second factor at the target object of the first
    member_at_source: dict[int, dict[int, int]] = {}
    for q, r in enumerate(mor_reps):
        members = orbit(act.on_morphisms, r)
        table = {}
        for x in members:
            src = C.morphisms[x].src
            if src in table:
                raise ContractError("action is not free on morphisms")
            table[src] = x
        member_at_source[q] = table

    def compose(g: int, f: int) -> int:
        f_rep = mor_reps[f]
        g_member = member_at_source[g].get(C.morphisms[f_rep].tgt)
        if g_member is None:
            raise ContractError("quotient composition found no anchored factor")
        return mor_map[C.compose(g_member, f_rep)]

    Q = FiniteCategory(objects, morphisms, identity, compose)
    Q.validate()
    # orbit-count identity: |Q(cG, c'G)| must equal the number of group
    # elements sending some C(c, c'g) morphism here, counted via fibers
    for a in range(Q.n_objects):
        for b in range(Q.n_objects):
            direct = len(Q.hom(a, b))
            c = reps[a]
            fiber = sum(1 for m in C.out_of[c] if obj_map[C.morphisms[m].tgt] == b)
            if direct != fiber:
                raise ContractError("orbit morphism count identity fails")
    return Q, obj_map, mor_map


# -- the break category -------------------------------------------------------------


def _blocks(breaks: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    bounds = [0] + list(breaks) + [n]
    return [(bounds[i] + 1, bounds[i + 1]) for i in range(len(bounds) - 1)]


def _cond_blockwise(phi: tuple[int, ...], breaks: tuple[int, ...], n: int) -> bool:
    # each target block is permuted into itself
    for lo, hi in _blocks(breaks, n):
        if {phi[i - 1] for i in range(lo, hi + 1)} != set(range(lo, hi + 1)):
            return False
    return True


def _cond_monotone(phi: tuple[int, ...], breaks: tuple[int, ...], n: int) -> bool:
    # increasing within each source block
    for lo, hi in _blocks(breaks, n):
        for i in range(lo, hi):
            if not phi[i - 1] < phi[i]:
                return False
    return True


def build_break_category(n: int) -> FiniteCategory:
    """The category of break sets: objects are subsets of {1..n-1}; morphisms
    from B to a coarser B' are the permutations of {1..n} preserving each
    B'-block setwise and increasing within each B-block.  Composition is
    composition of permutations (CLI model id: en).
    """
    if not (1 <= n <= 7):
        raise ResourceCapError("break category is capped at 1 <= n <= 7")
    objects = []
    for size in range(n):
        for combo in itertools.combinations(range(1, n), size):
            objects.append(combo)
    objects.sort(key=lambda b: (len(b), b))
    obj_index = {b: i for i, b in enumerate(objects)}

    morphisms: list[Morphism] = []
    mor_index: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for b_idx, breaks in enumerate(objects):
        for b2_idx, coarser in enumerate(objects):
            if not set(coarser) <= set(breaks):
                continue
            for phi in itertools.permutations(range(1, n + 1)):
                if _cond_blockwise(phi, coarser, n) and _cond_monotone(phi, breaks, n):
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


def break_hom_count_oracle(breaks: tuple[int, ...], coarser: tuple[int, ...], n: int) -> int:
    """Independent count of block-respecting shuffles: per coarse block, the
    multinomial of the sizes of the fine blocks inside it."""
    import math

    if not set(coarser) <= set(breaks):
        return 0
    fine = _blocks(breaks, n)
    total = 1
    for lo, hi in _blocks(coarser, n):
        sizes = [b_hi - b_lo + 1 for b_lo, b_hi in fine if lo <= b_lo and b_hi <= hi]
        total *= math.factorial(hi - lo + 1)
        for s in sizes:
            total //= math.factorial(s)
    return total


# -- the functor from regular double orders ------------------------------------------


@dataclass
class BreakFunctor:
    """The functor from (regular orders, reverse mixed order) to the break
    category, its object and morphism tables, and the source structure."""

    labels: tuple
    source_category: FiniteCategory
    source_poset: Poset
    orders: list[DoubleOrder]
    target: FiniteCategory
    object_map: list[int]
    morphism_map: list[int]


def break_set(o: DoubleOrder) -> tuple[int, ...]:
    """Cumulative level-block sizes, the last one dropped."""
    levels = level_function(o.x)
    if levels is None:
        raise ContractError("order has no level decomposition")
    top = max(levels) if levels else 0
    out = []
    acc = 0
    for lev in range(1, top):
        acc += sum(1 for v in levels if v == lev)
        out.append(acc)
    return tuple(out)


def monotone_numbering(o: DoubleOrder) -> tuple:
    """The unique listing with blocks in level order and each block listed in
    ascending y order."""
    if not o.is_regular:
        raise ContractError("monotone numbering needs a regular order")
    levels = level_function(o.x)
    top = max(levels) if levels else 0
    out = []
    for lev in range(1, top + 1):
        block = [i for i, v in enumerate(levels) if v == lev]
        members = sorted(block, key=lambda i: sum(1 for j in block if o.y[j] >> i & 1))
        out.extend(o.labels[i] for i in members)
    return tuple(out)


def morphism_permutation(o: DoubleOrder, o2: DoubleOrder) -> tuple[int, ...]:
    """For o above o2 in the reverse mixed order: the permutation phi with
    numbering2[phi(i)] = numbering[i]."""
    if not poset_leq(o2, o, "sqsubseteq"):
        raise ContractError("morphisms exist only along the reverse mixed order")
    num1 = monotone_numbering(o)
    num2 = monotone_numbering(o2)
    pos2 = {lab: i + 1 for i, lab in enumerate(num2)}
    return tuple(pos2[lab] for lab in num1)


def regular_orders_poset(labels, variant: str) -> tuple[Poset, list[DoubleOrder]]:
    """(R, variant) as a poset; variant "sqsupseteq" is the reverse mixed order."""
    orders = enumerate_orders(labels, "regular")
    if variant == "sqsubseteq":
        leq = [[poset_leq(a, b, "sqsubseteq") for b in orders] for a in orders]
    elif variant == "sqsupseteq":
        leq = [[poset_leq(b, a, "sqsubseteq") for b in orders] for a in orders]
    else:
        raise ContractError(f"unknown variant {variant!r}")
    return Poset([o.text() for o in orders], leq), list(orders)


def semi_regular_orders_poset(labels) -> tuple[Poset, list[DoubleOrder]]:
    """(semi-regular orders, componentwise inclusion) as a poset."""
    orders = enumerate_orders(labels, "semi-regular")
    leq = [[poset_leq(a, b, "subseteq") for b in orders] for a in orders]
    return Poset([o.text() for o in orders], leq), list(orders)


def break_functor(labels) -> BreakFunctor:
    """Builds the functor on objects and on every reverse-mixed-order pair,
    checking that each assigned permutation lands in the break category."""
    labels = tuple(labels)
    n = len(labels)
    target = build_break_category(n)
    poset, orders = regular_orders_poset(labels, "sqsupseteq")
    source = poset_category(poset)
    target_obj_index = {b: i for i, b in enumerate(target.objects)}
    object_map = [target_obj_index[break_set(o)] for o in orders]
    mor_index = {}
    for m, mor in enumerate(target.morphisms):
        mor_index[(mor.src, mor.tgt, mor.payload)] = m
    morphism_map = []
    for mor in source.morphisms:
        o, o2 = orders[mor.src], orders[mor.tgt]
        phi = morphism_permutation(o, o2)
        key = (object_map[mor.src], object_map[mor.tgt], phi)
        if key not in mor_index:
            raise ContractError("assigned permutation is not a break-category morphism")
        morphism_map.append(mor_index[key])
    return BreakFunctor(labels, source, poset, orders, target, object_map, morphism_map)


@dataclass
class SymmetricOrderQuotient:
    """A family of double orders as a poset category, the symmetric-group
    action on it, and the quotient category."""

    labels: tuple
    orders: list[DoubleOrder]
    poset: Poset
    category: FiniteCategory
    action: GroupAction
    quotient: FiniteCategory
    object_map: list[int]
    morphism_map: list[int]


def symmetric_order_quotient(labels, kind: str) -> SymmetricOrderQuotient:
    """Quotient of (regular orders, reverse mixed order) or (semi-regular
    orders, inclusion) by all relabelings of the ground set."""
    from .complexes import permutations_of

    labels = tuple(labels)
    if kind == "regular":
        poset, orders = regular_orders_poset(labels, "sqsupseteq")
    elif kind == "semi-regular":
        poset, orders = semi_regular_orders_poset(labels)
    else:
        raise ContractError(f"unknown order family {kind!r}")
    C = poset_category(poset)
    key_index = {o.key(): i for i, o in enumerate(orders)}
    sigmas = permutations_of(labels)
    element_perms = [[key_index[o.act(s).key()] for o in orders] for s in sigmas]
    act = group_action_on_poset_category(
        C, poset, [str(tuple(s.values())) for s in sigmas], element_perms
    )
    Q, obj_map, mor_map = quotient_category(C, act)
    return SymmetricOrderQuotient(labels, orders, poset, C, act, Q, obj_map, mor_map)


def nerve_orbit_complex(
    C: FiniteCategory, act: GroupAction
) -> tuple[ChainComplex, list[list[tuple[int, ...]]]]:
    """Orbit complex of the nerve: generators are orbits of composable runs
    (least run as representative), boundaries induced by any representative.

    Free action on objects makes the action on runs free as well, so orbits
    never merge signed faces.
    """
    levels = nerve_chains(C)
    group = range(len(act.on_objects))

    def act_level0(g: int, run: tuple[int, ...]) -> tuple[int, ...]:
        return (act.on_objects[g][run[0]],)

    rep_levels: list[list[tuple[int, ...]]] = []
    rep_of: list[dict[tuple[int, ...], tuple[int, ...]]] = []
    for k, level in enumerate(levels):
        act_fn = act_level0 if k == 0 else act.act_run
        reps: dict[tuple[int, ...], tuple[int, ...]] = {}
        for run in level:
            orbit = sorted(act_fn(g, run) for g in group)
            reps[run] = orbit[0]
        rep_of.append(reps)
        rep_levels.append(sorted(set(reps.values())))

    rows = []
    for level, reps in zip(rep_levels[:-1], rep_of[:-1]):
        index = {run: i for i, run in enumerate(level)}
        rows.append({run: index[rep] for run, rep in reps.items()})
    boundaries = _nerve_boundaries(C, rep_levels, rows)
    return ChainComplex([len(level) for level in rep_levels], boundaries), rep_levels


def check_functoriality(func: BreakFunctor) -> None:
    C, D = func.source_category, func.target
    for i in range(C.n_objects):
        if func.morphism_map[C.identity[i]] != D.identity[func.object_map[i]]:
            raise ContractError("functor does not preserve identities")
    for g, f in C.composable_pairs():
        if func.morphism_map[C.compose(g, f)] != D.compose(
            func.morphism_map[g], func.morphism_map[f]
        ):
            raise ContractError("functor does not preserve composition")
