import gc
import itertools
import math
import random

import pytest

from dicube.categories import (
    FiniteCategory,
    Morphism,
    break_functor,
    break_set,
    build_break_category,
    check_functoriality,
    composable_run_counts,
    monotone_numbering,
    nerve_chains,
    nerve_complex,
    nerve_orbit_complex,
    poset_category,
    quotient_category,
    regular_orders_poset,
    semi_regular_orders_poset,
    symmetric_order_quotient,
)
from dicube.complexes import adjacent_transpositions, default_labels, permutations_of
from dicube.cover import nerve_retraction_check, point_to_order, random_configuration, verify_cover
from dicube.errors import ContractError
from dicube.homology import euler_characteristic, homology, homology_signature
from dicube.orders import DoubleOrder, enumerate_orders, poset_leq, rel_from_pairs
from dicube.posets import (
    Poset,
    RelFamily,
    bit_positions,
    reachable,
    rel_closure,
    rel_pairs,
    rel_subset,
)

from test_orders import level_function


def order(labels, x_pairs, y_pairs):
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    return DoubleOrder(
        labels,
        rel_from_pairs(n, [(pos[a], pos[b]) for a, b in x_pairs]),
        rel_from_pairs(n, [(pos[a], pos[b]) for a, b in y_pairs]),
    )


def hom(C, a, b):
    """The morphisms a -> b of the category C."""
    return [m for m in C.out_of[a] if C.morphisms[m].tgt == b]


def lt(P, i, j):
    """i < j in the poset P."""
    return i != j and bool(P.leq[i] >> j & 1)


# -- posets -------------------------------------------------------------------


def chain_poset_two():
    return Poset(["p", "q"], [0b11, 0b10])


def test_poset_category_laws():
    C = poset_category(chain_poset_two())
    C.validate()
    assert C.n_objects == 2 and C.n_morphisms == 3
    assert C.is_loop_free()


def poset_category_by_pair_scan(P):
    """Morphisms and composition table from the plain O(M^2) pair scan."""
    index = {}
    for i in range(len(P.elements)):
        for j in range(len(P.elements)):
            if P.leq[i] >> j & 1:
                index[(i, j)] = len(index)
    compose = {}
    for (i, j), f in index.items():
        for (j2, k), g in index.items():
            if j2 == j:
                compose[(g, f)] = index[(i, k)]
    return list(index), compose


def random_poset(rng, size, density):
    """A random poset on `size` elements: a random DAG, transitively closed."""
    rank = list(range(size))
    rng.shuffle(rank)
    leq = [
        [i == j or (rank[i] < rank[j] and rng.random() < density) for j in range(size)]
        for i in range(size)
    ]
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                leq[i] = [a or b for a, b in zip(leq[i], leq[k])]
    rows = [sum(1 << j for j, v in enumerate(row) if v) for row in leq]
    return Poset([f"p{i}" for i in range(size)], rows)


def assert_poset_category_matches_pair_scan(P):
    C = poset_category(P)
    pairs, compose = poset_category_by_pair_scan(P)
    assert [(m.src, m.tgt) for m in C.morphisms] == pairs
    assert list(C._compose.items()) == list(compose.items())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["sqsubseteq", "sqsupseteq"])
def test_poset_category_matches_pair_scan_on_regular_orders(n, variant):
    P, _ = regular_orders_poset(default_labels(n), variant)
    assert_poset_category_matches_pair_scan(P)


@pytest.mark.parametrize("seed", range(8))
def test_poset_category_matches_pair_scan_on_random_posets(seed):
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 14), rng.choice([0.1, 0.3, 0.6]))
    assert_poset_category_matches_pair_scan(P)


@pytest.mark.parametrize("seed", range(8))
def test_poset_chains_match_the_itertools_oracle_on_random_posets(seed):
    # every index tuple of each length in itertools order, kept when each
    # entry lies strictly below the next: (length, tuple) order by construction
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 7), rng.choice([0.1, 0.3, 0.6]))
    oracle = [
        chain
        for length in range(1, len(P) + 1)
        for chain in itertools.permutations(range(len(P)), length)
        if all(lt(P, a, b) for a, b in zip(chain, chain[1:]))
    ]
    assert P.chains() == oracle


# -- order posets and relation families read by bit ----------------------------------


def pairwise_rows(orders, leq):
    """The leq rows of the orders by one comparison per ordered pair."""
    return [sum(1 << j for j, b in enumerate(orders) if leq(a, b)) for a in orders]


ORDER_POSET_LEQ = {
    "sqsubseteq": lambda a, b: poset_leq(a, b, "sqsubseteq"),
    "sqsupseteq": lambda a, b: poset_leq(b, a, "sqsubseteq"),
    "subseteq": lambda a, b: poset_leq(a, b, "subseteq"),
}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("variant", ["sqsubseteq", "sqsupseteq"])
def test_regular_orders_poset_rows_match_the_pairwise_fill(n, variant):
    P, orders = regular_orders_poset(default_labels(n), variant)
    assert orders == enumerate_orders(default_labels(n), "regular")
    assert list(P.leq) == pairwise_rows(orders, ORDER_POSET_LEQ[variant])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda labels: regular_orders_poset(labels, "sqsubseteq"), id="regular"),
        pytest.param(semi_regular_orders_poset, id="semi-regular"),
        pytest.param(lambda labels: symmetric_order_quotient(labels, "regular"), id="quotient"),
    ],
)
def test_order_posets_of_unhashable_labels_are_a_contract_error(build):
    with pytest.raises(ContractError):
        build([[1], [2]])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: enumerate_orders(5, "regular"), id="enumerate_orders"),
        pytest.param(lambda: verify_cover(5), id="verify_cover"),
        pytest.param(lambda: point_to_order({}, 5), id="point_to_order"),
        pytest.param(lambda: random_configuration(5, random.Random(0)), id="random_configuration"),
        pytest.param(lambda: permutations_of(5), id="permutations_of"),
        pytest.param(lambda: adjacent_transpositions(5), id="adjacent_transpositions"),
        pytest.param(lambda: nerve_retraction_check(5), id="nerve_retraction_check"),
        pytest.param(lambda: regular_orders_poset(5, "sqsubseteq"), id="regular_orders_poset"),
        pytest.param(lambda: semi_regular_orders_poset(5), id="semi_regular_orders_poset"),
        pytest.param(lambda: symmetric_order_quotient(5, "regular"), id="symmetric_order_quotient"),
    ],
)
def test_a_label_set_that_is_not_iterable_is_a_contract_error(call):
    with pytest.raises(ContractError, match="iterable"):
        call()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_semi_regular_orders_poset_rows_match_the_pairwise_fill(n):
    P, orders = semi_regular_orders_poset(default_labels(n))
    assert orders == enumerate_orders(default_labels(n), "semi-regular")
    assert list(P.leq) == pairwise_rows(orders, ORDER_POSET_LEQ["subseteq"])


@pytest.mark.parametrize("variant", ["sqsubseteq", "sqsupseteq"])
def test_regular_orders_poset_rows_at_five_labels_on_sampled_pairs(variant):
    # 1,920 orders: half the pairs uniform (mostly unrelated), half drawn
    # from the row of their first order (related as far as the row says)
    P, orders = regular_orders_poset(default_labels(5), variant)
    rng = random.Random(5)
    for k in range(2000):
        a = rng.randrange(len(orders))
        b = rng.randrange(len(orders)) if k % 2 else rng.choice(bit_positions(P.leq[a]))
        assert bool(P.leq[a] >> b & 1) == ORDER_POSET_LEQ[variant](orders[a], orders[b])


def random_rel(rng, n, density):
    return tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n))


@pytest.mark.parametrize("seed", range(6))
def test_rel_family_matches_member_by_member_tests(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 4)
    rels = [random_rel(rng, n, rng.choice([0.2, 0.5, 0.8])) for _ in range(rng.randint(0, 60))]
    family = RelFamily(rels, n)
    queries = [random_rel(rng, n, d) for d in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(8)]
    queries += rels[:20]
    for rel in queries:
        assert family.containing(rel) == sum(
            1 << k for k, r in enumerate(rels) if rel_subset(rel, r)
        )
        assert family.within(rel) == sum(1 << k for k, r in enumerate(rels) if rel_subset(r, rel))
    for _ in range(20):
        members = rng.getrandbits(len(rels)) if rels else 0
        union = [0] * n
        for k in bit_positions(members):
            union = [a | b for a, b in zip(union, rels[k])]
        assert family.union(members) == tuple(union)


def test_reachable_lists_sources_first_then_each_item_once_breadth_first():
    # a cycle 1 -> 2 -> 3 -> 1, a branch 2 -> 4 -> 5 and an unreached 6 -> 1
    graph = {1: [2], 2: [3, 4], 3: [1], 4: [5], 5: [], 6: [1], 7: [4]}
    steps = []
    got = reachable([3, 7, 3], lambda v: steps.append(v) or graph[v])
    assert got == [3, 7, 1, 4, 2, 5]  # the sources once, then breadth-first
    assert sorted(steps) == sorted(got)  # each item is stepped from once
    assert reachable([], graph.__getitem__) == []
    assert reachable([5], graph.__getitem__) == [5]


def test_poset_validation_rejects_cycles():
    with pytest.raises(ContractError):
        Poset(["p", "q"], [0b11, 0b11])


@pytest.mark.parametrize(
    "leq",
    [
        pytest.param([0b001, 0b010], id="row-count"),
        pytest.param(
            [[True, False, False], [False, True, False], [False, False, True]], id="bool-matrix"
        ),
        pytest.param([True, 0b010, 0b100], id="bool-row"),
        pytest.param([1.0, 0b010, 0b100], id="float-row"),
        pytest.param([-1, 0b010, 0b100], id="negative-row"),
        pytest.param([0b1001, 0b010, 0b100], id="bit-beyond-n"),
        pytest.param([0b000, 0b010, 0b100], id="missing-reflexive-bit"),
        pytest.param([0b011, 0b110, 0b100], id="missing-transitive-edge"),
        pytest.param(5, id="not-a-sequence"),
    ],
)
def test_poset_rejects_malformed_rows(leq):
    with pytest.raises(ContractError):
        Poset(["p", "q", "r"], leq)


def triple_loop_accepts(rows):
    """The poset test on a bool matrix, one scan per triple of elements."""
    n = len(rows)
    leq = [[bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        if not leq[i][i]:
            return False
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return False
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        return False
    return True


def random_relations(rng, size):
    """A random poset; copies with one diagonal bit cleared, one related
    pair cleared (intransitive unless it covers) and one pair reversed; a
    preorder (closed, may have cycles); an arbitrary reflexive relation."""
    rows = list(random_poset(rng, size, rng.choice([0.2, 0.5])).leq)
    out = [rows]
    i = rng.randrange(size)
    out.append(rows[:i] + [rows[i] & ~(1 << i)] + rows[i + 1 :])
    pairs = [(i, j) for i, j in rel_pairs(tuple(rows)) if i != j]
    if pairs:
        i, j = rng.choice(pairs)
        out.append(rows[:i] + [rows[i] & ~(1 << j)] + rows[i + 1 :])
        out.append(rows[:j] + [rows[j] | 1 << i] + rows[j + 1 :])
    sparse = [sum(1 << j for j in range(size) if rng.random() < 0.15) for _ in range(size)]
    out.append(list(rel_closure(tuple(row | 1 << i for i, row in enumerate(sparse)))))
    out.append([1 << i | rng.getrandbits(size) for i in range(size)])
    return out


@pytest.mark.parametrize("seed", range(4))
def test_poset_validation_matches_the_triple_loop(seed):
    rng = random.Random(seed)
    verdicts = []
    for _ in range(40):
        for rows in random_relations(rng, rng.randint(1, 9)):
            try:
                Poset([f"p{i}" for i in range(len(rows))], rows)
                accepted = True
            except ContractError:
                accepted = False
            assert accepted == triple_loop_accepts(rows), rows
            verdicts.append(accepted)
    assert True in verdicts and False in verdicts


def strict_chain_complex(P):
    """The order complex from strict element chains in (length, tuple)
    order, each boundary column summing (-1)^i times the chain without its
    i-th element: an independent route to ``nerve_complex(poset_category(P))``."""
    levels = []
    for chain in P.chains():
        while len(levels) < len(chain):
            levels.append([])
        levels[len(chain) - 1].append(chain)
    if not levels:
        return [0], []
    index = [{chain: i for i, chain in enumerate(level)} for level in levels]
    boundaries = []
    for k in range(1, len(levels)):
        cols = []
        for chain in levels[k]:
            col = {}
            for drop in range(len(chain)):
                row = index[k - 1][chain[:drop] + chain[drop + 1 :]]
                col[row] = col.get(row, 0) + (-1) ** drop
            cols.append([(r, v) for r, v in col.items() if v])
        boundaries.append(cols)
    return [len(level) for level in levels], boundaries


def test_order_complex_equals_category_nerve_on_posets():
    # the nerve of the poset category against strict chains: same
    # generators in the same order, same columns with the same entry order
    rng = random.Random(5)
    posets = [Poset([], []), chain_poset_two()]
    for n in (2, 3):
        posets += [regular_orders_poset(default_labels(n), v)[0] for v in ("sqsubseteq", "sqsupseteq")]
    posets += [random_poset(rng, rng.randint(1, 12), rng.choice([0.2, 0.5])) for _ in range(6)]
    for P in posets:
        cx = nerve_complex(poset_category(P))
        ranks, boundaries = strict_chain_complex(P)
        assert list(cx.ranks) == ranks
        for k, cols in enumerate(boundaries, start=1):
            assert [list(col.items()) for col in cx.boundary_columns(k)] == cols


def test_mixed_order_poset_on_two_labels_is_a_circle():
    P, _ = regular_orders_poset(default_labels(2), "sqsubseteq")
    assert len(P) == 4 and len(P.covers()) == 4
    assert tuple(g.betti for g in homology(nerve_complex(poset_category(P)))) == (1, 1)


# -- nerves of categories -----------------------------------------------------------


def test_nerve_of_one_object_category():
    table = {(0, 0): 0}
    C = FiniteCategory(["*"], [Morphism(0, 0, "id")], [0], lambda g, f: table[g, f])
    groups = homology(nerve_complex(C))
    assert groups == tuple([groups[0]]) and groups[0].betti == 1


def test_nerve_rejects_loops():
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    C = FiniteCategory(
        ["*"],
        [Morphism(0, 0, "id"), Morphism(0, 0, "loop")],
        [0],
        lambda g, f: table[g, f],
    )
    with pytest.raises(ContractError):
        nerve_complex(C)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_bulk_builders_hand_back_the_collector_state(enabled):
    # poset_category, the nerve builders and homology run without the cyclic
    # collector and leave it as the caller had it, also when the loop check
    # raises inside
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    loop = FiniteCategory(
        ["*"], [Morphism(0, 0, "id"), Morphism(0, 0, "loop")], [0], lambda g, f: table[g, f]
    )
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        q = symmetric_order_quotient(default_labels(2), "regular")  # a poset category
        assert gc.isenabled() is enabled
        homology(nerve_complex(build_break_category(3)))
        assert gc.isenabled() is enabled
        nerve_orbit_complex(q.category, q.action)
        assert gc.isenabled() is enabled
        with pytest.raises(ContractError, match="loops"):
            nerve_complex(loop)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_isomorphism_pair_is_a_loop_without_endomorphisms():
    # f: a -> b and g: b -> a with g f = id_a and f g = id_b: a cycle of two
    # objects, each with only its identity as endomorphism
    table = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 1): 3, (0, 3): 3, (3, 2): 0, (2, 3): 1}
    names = [(0, 0, "id_a"), (1, 1, "id_b"), (0, 1, "f"), (1, 0, "g")]
    C = FiniteCategory(["a", "b"], [Morphism(*m) for m in names], [0, 1], lambda g, f: table[g, f])
    C.validate()
    assert not C.is_loop_free()
    with pytest.raises(ContractError, match="loops"):
        nerve_complex(C)


@pytest.mark.parametrize(
    "morphisms, identity",
    [
        pytest.param([Morphism(0, 0), Morphism(5, 0)], [0], id="source-out-of-range"),
        pytest.param([Morphism(0, 0), Morphism(0, 1)], [0], id="target-out-of-range"),
        pytest.param([Morphism(0, 0), Morphism(-1, 0)], [0], id="negative-endpoint"),
        pytest.param([Morphism(0, 0)], [3], id="identity-out-of-range"),
        pytest.param([Morphism(0, 0)], [-1], id="negative-identity"),
    ],
)
def test_finite_category_rejects_indices_out_of_range(morphisms, identity):
    with pytest.raises(ContractError):
        FiniteCategory(["*"], morphisms, identity, lambda g, f: 0)


# the tuple-run nerve: runs as tuples of morphism indices, faces looked up by tuple


def nerve_chains_by_tuples(C):
    idset = set(C.identity)
    steps = [[m for m in out if m not in idset] for out in C.out_of]
    levels = [[(o,) for o in range(C.n_objects)]]
    current = [(m,) for m in C.non_identity()]
    while current:
        levels.append(current)
        current = [run + (m,) for run in current for m in steps[C.morphisms[run[-1]].tgt]]
    return levels


def nerve_boundaries_by_tuples(C, levels, rows):
    """d(f1, ..., fk) = (f2, ..., fk) + sum_i (-1)^i (..., f(i+1) f(i), ...)
    + (-1)^k (f1, ..., f(k-1)), and d(f) = tgt f - src f; ``rows[k - 1]``
    maps each face run to its row index."""
    boundaries = []
    for k in range(1, len(levels)):
        row_of = rows[k - 1]
        cols = []
        for run in levels[k]:
            col = {}

            def add(face, sign):
                row = row_of[face]
                col[row] = col.get(row, 0) + sign

            if k == 1:
                add((C.morphisms[run[0]].tgt,), 1)
                add((C.morphisms[run[0]].src,), -1)
            else:
                add(run[1:], 1)
                for i in range(1, k):
                    add(run[: i - 1] + (C.compose(run[i], run[i - 1]),) + run[i + 1 :], (-1) ** i)
                add(run[:-1], (-1) ** k)
            cols.append({r: v for r, v in col.items() if v})
        boundaries.append(cols)
    return boundaries


def nerve_by_tuples(C):
    levels = nerve_chains_by_tuples(C)
    rows = [{run: i for i, run in enumerate(level)} for level in levels[:-1]]
    return [len(level) for level in levels], nerve_boundaries_by_tuples(C, levels, rows)


def nerve_orbits_by_tuples(C, act):
    """Orbit ranks, boundaries and least runs, from the tuple-run nerve."""
    levels = nerve_chains_by_tuples(C)
    rep_levels, rows = [], []
    for k, level in enumerate(levels):
        reps = {}
        for run in level:
            if run not in reps:
                orbit = [
                    (act.on_objects[g][run[0]],)
                    if k == 0
                    else tuple(act.act_morphism(g, m) for m in run)
                    for g in range(len(act.on_objects))
                ]
                reps.update(dict.fromkeys(orbit, min(orbit)))
        rep_levels.append(sorted(set(reps.values())))
        index = {run: i for i, run in enumerate(rep_levels[-1])}
        rows.append({run: index[rep] for run, rep in reps.items()})
    ranks = [len(level) for level in rep_levels]
    return ranks, nerve_boundaries_by_tuples(C, rep_levels, rows), rep_levels


def columns_of(cx):
    return [cx.boundary_columns(k) for k in range(1, cx.top_degree + 1)]


def assert_nerve_matches_the_tuple_runs(C):
    ranks, boundaries = nerve_by_tuples(C)
    cx = nerve_complex(C)
    assert list(cx.ranks) == ranks
    assert columns_of(cx) == boundaries
    assert nerve_chains(C) == nerve_chains_by_tuples(C)


def shuffled_poset_category(P, rng):
    """A poset as a category with its morphisms listed in random order, so
    the morphisms out of one object need not be consecutive."""
    pairs = rel_pairs(P.leq)
    rng.shuffle(pairs)
    index = {pair: m for m, pair in enumerate(pairs)}
    return FiniteCategory(
        P.elements,
        [Morphism(i, j) for i, j in pairs],
        [index[(i, i)] for i in range(len(P.elements))],
        lambda g, f: index[(pairs[f][0], pairs[g][1])],
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_break_nerve_matches_the_tuple_runs(n):
    assert_nerve_matches_the_tuple_runs(build_break_category(n))


@pytest.mark.parametrize("seed", range(8))
def test_random_poset_nerves_match_the_tuple_runs(seed):
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.7]))
    assert_nerve_matches_the_tuple_runs(poset_category(P))
    assert_nerve_matches_the_tuple_runs(shuffled_poset_category(P, rng))


QUOTIENT_SIZES = [("regular", n) for n in (1, 2, 3, 4)] + [("semi-regular", n) for n in (1, 2, 3)]


def test_regular_quotient_nerve_and_orbit_complex_match_the_tuple_runs():
    for kind, n in QUOTIENT_SIZES:
        q = symmetric_order_quotient(default_labels(n), kind)
        assert_nerve_matches_the_tuple_runs(q.quotient)
        orbit_cx, orbit_levels = nerve_orbit_complex(q.category, q.action)
        ranks, boundaries, rep_levels = nerve_orbits_by_tuples(q.category, q.action)
        assert list(orbit_cx.ranks) == ranks
        assert columns_of(orbit_cx) == boundaries
        assert orbit_levels == rep_levels


def test_nerve_quotient_check_at_four_labels():
    # the suite's cap of 3 stops short of this size
    from dicube.suite import check_nerve_quotient

    assert check_nerve_quotient(4, 4) == [8, 112, 248, 144]


@pytest.mark.parametrize("size", [0, 1, 3])
def test_nerve_of_a_category_with_only_identities_is_its_objects(size):
    C = poset_category(Poset([f"p{i}" for i in range(size)], [1 << i for i in range(size)]))
    assert nerve_complex(C).ranks == (size,)
    assert nerve_chains(C) == [[(o,) for o in range(size)]]
    assert_nerve_matches_the_tuple_runs(C)


IDENTITIES_OF_U_AND_V = [Morphism(0, 0), Morphism(1, 1)]


@pytest.mark.parametrize(
    "objects, morphisms, identity",
    [
        pytest.param(["u", "v"], IDENTITIES_OF_U_AND_V + [Morphism(1.0, 1.0)], [0, 1], id="float-endpoint"),
        pytest.param(["u", "v"], IDENTITIES_OF_U_AND_V + [Morphism(True, True)], [0, 1], id="bool-endpoint"),
        pytest.param(["u", "v"], IDENTITIES_OF_U_AND_V, [0, 1.0], id="float-identity"),
        pytest.param(["u", "v"], IDENTITIES_OF_U_AND_V, [0, True], id="bool-identity"),
        # a plain pair has no src or tgt to read
        pytest.param([0], [(0, 0)], [0], id="tuple-morphism"),
        pytest.param(5, IDENTITIES_OF_U_AND_V, [0, 1], id="int-objects"),
        pytest.param(["u", "v"], 5, [0, 1], id="int-morphisms"),
        pytest.param(["u", "v"], IDENTITIES_OF_U_AND_V, 5, id="int-identity"),
    ],
)
def test_finite_category_rejects_indices_that_are_not_ints(objects, morphisms, identity):
    with pytest.raises(ContractError):
        FiniteCategory(objects, morphisms, identity, lambda g, f: g)


def test_break_category_two_is_a_circle():
    E = build_break_category(2)
    cx = nerve_complex(E)
    assert cx.ranks == (2, 2)
    assert cx.boundary_columns(1) == [{0: 1, 1: -1}, {0: 1, 1: -1}]
    assert tuple(g.betti for g in homology(cx)) == (1, 1)


# -- the break category ----------------------------------------------------------------


def test_break_category_two():
    E = build_break_category(2)
    assert E.objects == [(), (1,)]
    assert len(hom(E, 1, 0)) == 2
    for i in range(E.n_objects):
        assert hom(E, i, i) == [E.identity[i]]


def test_break_category_three_hom_counts():
    E = build_break_category(3)
    idx = {b: i for i, b in enumerate(E.objects)}
    assert len(hom(E, idx[(1, 2)], idx[()])) == 6
    assert len(hom(E, idx[(1,)], idx[()])) == 3
    assert len(hom(E, idx[(1, 2)], idx[(1,)])) == 2
    E.validate()


def blocks(breaks, n):
    bounds = [0, *breaks, n]
    return [(bounds[i] + 1, bounds[i + 1]) for i in range(len(bounds) - 1)]


def break_hom_count_oracle(breaks, coarser, n):
    """Independent count of block-respecting shuffles: per coarse block, the
    multinomial of the sizes of the fine blocks inside it."""
    if not set(coarser) <= set(breaks):
        return 0
    fine = blocks(breaks, n)
    total = 1
    for lo, hi in blocks(coarser, n):
        sizes = [b_hi - b_lo + 1 for b_lo, b_hi in fine if lo <= b_lo and b_hi <= hi]
        total *= math.factorial(hi - lo + 1)
        for s in sizes:
            total //= math.factorial(s)
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_break_hom_counts_match_multinomial_oracle(n):
    E = build_break_category(n)
    for a, src in enumerate(E.objects):
        for b, tgt in enumerate(E.objects):
            got = len(hom(E, a, b))
            want = break_hom_count_oracle(src, tgt, n) if set(tgt) <= set(src) else 0
            assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_break_category_loop_free_with_trivial_endos(n):
    E = build_break_category(n)
    assert E.is_loop_free()
    for i in range(E.n_objects):
        assert hom(E, i, i) == [E.identity[i]]


def cond_blockwise(phi, breaks, n):
    # each target block is permuted into itself
    for lo, hi in blocks(breaks, n):
        if {phi[i - 1] for i in range(lo, hi + 1)} != set(range(lo, hi + 1)):
            return False
    return True


def cond_monotone(phi, breaks, n):
    # increasing within each source block
    for lo, hi in blocks(breaks, n):
        for i in range(lo, hi):
            if not phi[i - 1] < phi[i]:
                return False
    return True


def break_category_by_filter(n):
    """The break category from its definition: for each pair of break sets
    B, B' with B' inside B, every permutation of {1..n} in lexicographic
    order that keeps each B'-block and increases on each B-block; composed
    as permutations.  Returns the objects, the (src, tgt, phi) morphisms,
    the identities and the composition table in ``composable_pairs`` order."""
    objects = sorted(
        (b for size in range(n) for b in itertools.combinations(range(1, n), size)),
        key=lambda b: (len(b), b),
    )
    morphisms = []
    for a, breaks in enumerate(objects):
        for b, coarser in enumerate(objects):
            if set(coarser) <= set(breaks):
                morphisms.extend(
                    (a, b, phi)
                    for phi in itertools.permutations(range(1, n + 1))
                    if cond_blockwise(phi, coarser, n) and cond_monotone(phi, breaks, n)
                )
    index = {mor: i for i, mor in enumerate(morphisms)}
    ident = tuple(range(1, n + 1))
    identity = [index[(a, a, ident)] for a in range(len(objects))]
    out_of = [[] for _ in objects]
    for g, (a, _, _) in enumerate(morphisms):
        out_of[a].append(g)
    compose = {}
    for f, (a, b, phi) in enumerate(morphisms):
        for g in out_of[b]:
            _, c, psi = morphisms[g]
            compose[(g, f)] = index[(a, c, tuple(psi[i - 1] for i in phi))]
    return objects, morphisms, identity, compose


def assert_break_category_matches_its_definition(n):
    E = build_break_category(n)
    objects, morphisms, identity, compose = break_category_by_filter(n)
    assert E.objects == objects
    assert [(mor.src, mor.tgt, mor.payload) for mor in E.morphisms] == morphisms
    assert E.identity == identity
    assert list(E._compose.items()) == list(compose.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_break_category_matches_the_permutation_filter(n):
    assert_break_category_matches_its_definition(n)


def test_break_category_euler_characteristic_zero():
    for n in (2, 3, 4):
        assert euler_characteristic(nerve_complex(build_break_category(n))) == 0
    counts = composable_run_counts(build_break_category(5))
    assert sum((-1) ** k * c for k, c in enumerate(counts)) == 0


# -- the functor into the break category ----------------------------------------------------


def cond_blockwise_by_pairs(phi, breaks, n):
    """A break between i < j forces phi(i) < phi(j)."""
    return all(
        phi[i - 1] < phi[j - 1]
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if any(i <= b < j for b in breaks)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_blockwise_condition_matches_the_pairwise_form(n):
    for size in range(n):
        for breaks in itertools.combinations(range(1, n), size):
            for phi in itertools.permutations(range(1, n + 1)):
                assert cond_blockwise(phi, breaks, n) == cond_blockwise_by_pairs(phi, breaks, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_break_composition_table_composes_payload_permutations(n):
    E = build_break_category(n)
    for (g, f), gf in E._compose.items():
        fm, gm = E.morphisms[f], E.morphisms[g]
        phi = tuple(gm.payload[i - 1] for i in fm.payload)
        assert E.morphisms[gf] == Morphism(fm.src, gm.tgt, phi)


def composable_pairs_by_scan(C):
    """All (g, f) with tgt f = src g from the plain scan over all pairs."""
    return [
        (g, f)
        for f in range(C.n_morphisms)
        for g in range(C.n_morphisms)
        if C.morphisms[g].src == C.morphisms[f].tgt
    ]


def test_composable_pairs_follow_the_pair_scan():
    categories = [build_break_category(n) for n in (2, 3, 4)]
    categories += [symmetric_order_quotient(default_labels(n), "regular").quotient for n in (2, 3)]
    for C in categories:
        pairs = composable_pairs_by_scan(C)
        assert list(C.composable_pairs()) == pairs
        assert list(C._compose) == pairs
        everything = itertools.product(range(C.n_morphisms), repeat=2)
        g, f = next(pair for pair in everything if pair not in C._compose)
        with pytest.raises(ContractError, match="not composable"):
            C.compose(g, f)


def test_validate_rejects_a_non_associative_table():
    # redirect one composite g f to another morphism with the same
    # endpoints; some h after g then tells h (g f) from (h g) f
    E = build_break_category(4)
    ident = set(E.identity)
    g, f = next(
        (g, f)
        for g, f in E.composable_pairs()
        if g not in ident
        and f not in ident
        and len(hom(E, E.morphisms[f].src, E.morphisms[g].tgt)) > 1
        and any(h not in ident for h in E.out_of[E.morphisms[g].tgt])
    )
    table = dict(E._compose)
    table[g, f] = next(m for m in hom(E, E.morphisms[f].src, E.morphisms[g].tgt) if m != table[g, f])
    bad = FiniteCategory(E.objects, E.morphisms, E.identity, lambda g, f: table[g, f])
    with pytest.raises(ContractError, match="associativity"):
        bad.validate()


def test_break_set_and_numbering_example():
    o = order(("a", "b", "c"), [("a", "c"), ("b", "c")], [("a", "b")])
    assert break_set(o) == (2,)
    assert monotone_numbering(o) == ("a", "b", "c")


def level_break_set(o):
    """Cumulative sizes of the levels of x, the last one dropped."""
    levels = level_function(o.x)
    top = max(levels, default=0)
    return tuple(sum(1 for v in levels if v <= lev) for lev in range(1, top))


def level_numbering(o):
    """Levels of x in order, each sorted by its count of y-predecessors in
    the level."""
    assert o.is_regular
    levels = level_function(o.x)
    out = []
    for lev in range(1, max(levels, default=0) + 1):
        block = [i for i, v in enumerate(levels) if v == lev]
        out += sorted(block, key=lambda i: sum(1 for j in block if o.y[j] >> i & 1))
    return tuple(o.labels[i] for i in out)


def pairwise_permutation(o, o2):
    """phi with numbering(o2)[phi(i)] = numbering(o)[i], for o2 below o in
    the mixed order."""
    assert poset_leq(o2, o, "sqsubseteq")
    pos2 = {lab: i + 1 for i, lab in enumerate(level_numbering(o2))}
    return tuple(pos2[lab] for lab in level_numbering(o))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_break_set_and_numbering_match_the_level_read_off(n):
    for o in enumerate_orders(default_labels(n), "regular"):
        assert break_set(o) == level_break_set(o)
        assert monotone_numbering(o) == level_numbering(o)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_break_functor_matches_per_morphism_permutations(n):
    func = break_functor(default_labels(n))
    q, D = func.quotient, func.target
    D_index = {(m.src, m.tgt, m.payload): i for i, m in enumerate(D.morphisms)}
    assert [D.objects[b] for b in func.object_map] == [level_break_set(o) for o in q.orders]
    expected = []
    for mor in q.category.morphisms:
        phi = pairwise_permutation(q.orders[mor.src], q.orders[mor.tgt])
        expected.append(D_index[(func.object_map[mor.src], func.object_map[mor.tgt], phi)])
    assert func.morphism_map == expected


def test_break_functor_small():
    for n in (1, 2, 3):
        func = break_functor(default_labels(n))
        check_functoriality(func)


def test_quotient_functor_bijective_at_two():
    func = break_functor(default_labels(2))
    q = symmetric_order_quotient(default_labels(2), "regular")
    assert q.quotient.n_objects == 2 == func.target.n_objects
    assert q.quotient.n_morphisms == 4 == func.target.n_morphisms


# -- quotient categories ----------------------------------------------------------------------


def test_quotient_by_trivial_group_is_the_category():
    P, _ = regular_orders_poset(default_labels(2), "sqsupseteq")
    C = poset_category(P)
    from dicube.categories import GroupAction

    act = GroupAction(C, [list(range(C.n_objects))])
    Q, omap, mmap = quotient_category(C, act)
    assert Q.n_objects == C.n_objects and Q.n_morphisms == C.n_morphisms


def test_symmetric_quotient_on_two_labels():
    q = symmetric_order_quotient(default_labels(2), "regular")
    assert q.quotient.n_objects == 2
    # morphisms between the two orbit objects: two of them, plus identities
    x_class = next(
        i for i in range(2) if "x{" in str(q.quotient.objects[i]) and "y{}" in str(q.quotient.objects[i])
    )
    other = 1 - x_class
    assert len(hom(q.quotient, x_class, other)) == 2
    for i in range(2):
        assert hom(q.quotient, i, i) == [q.quotient.identity[i]]


def test_quotient_requires_free_action():
    # on a three-element antichain, swapping u and v fixes w: not free
    P = Poset(["u", "v", "w"], [0b001, 0b010, 0b100])
    C = poset_category(P)
    from dicube.categories import GroupAction

    act = GroupAction(C, [[1, 0, 2]])
    with pytest.raises(ContractError, match="free action"):
        act.orbits()
    with pytest.raises(ContractError, match="free action"):
        quotient_category(C, act)
    with pytest.raises(ContractError, match="free action"):
        nerve_orbit_complex(C, act)


def test_quotients_refuse_an_action_on_another_category():
    # the action swaps the objects of a two-element antichain, not those of C2
    from dicube.categories import GroupAction

    C = poset_category(Poset(["u", "v"], [0b01, 0b10]))
    C2 = poset_category(Poset(["p", "q", "r", "s"], [0b0001, 0b0010, 0b0100, 0b1000]))
    act = GroupAction(C, [[1, 0]])
    with pytest.raises(ContractError, match="different category"):
        nerve_orbit_complex(C2, act)
    with pytest.raises(ContractError, match="different category"):
        quotient_category(C2, act)


def quotient_by_orbit_sets(C, act):
    """Object map, morphism map and quotient JSON with every orbit taken as
    the set of its images under every element, represented by its member
    out of the least object of its source orbit."""
    group = range(len(act.on_objects))
    least = [min(objs[o] for objs in act.on_objects) for o in range(C.n_objects)]
    orbits = [{act.act_morphism(g, m) for g in group} for m in range(C.n_morphisms)]
    rep = []
    for orbit in orbits:
        (member,) = [x for x in orbit if least[C.morphisms[x].src] == C.morphisms[x].src]
        rep.append(member)
    obj_reps, mor_reps = sorted(set(least)), sorted(set(rep))
    obj_map = [obj_reps.index(r) for r in least]
    mor_map = [mor_reps.index(r) for r in rep]
    ends = [(obj_map[C.morphisms[r].src], obj_map[C.morphisms[r].tgt]) for r in mor_reps]
    compose = []
    for (f, (_, b)), (g, (a, _)) in itertools.product(enumerate(ends), repeat=2):
        if a == b:
            f_rep = mor_reps[f]
            (g_member,) = [
                x for x in orbits[mor_reps[g]] if C.morphisms[x].src == C.morphisms[f_rep].tgt
            ]
            compose.append([g, f, mor_map[C.compose(g_member, f_rep)]])
    as_json = {
        "objects": [C.object_label(r) for r in obj_reps],
        "morphisms": [
            {"src": a, "tgt": b, "name": C.morphism_label(r)} for r, (a, b) in zip(mor_reps, ends)
        ],
        "identity": [mor_map[C.identity[r]] for r in obj_reps],
        "compose": sorted(compose),
    }
    return obj_map, mor_map, as_json


@pytest.mark.parametrize("kind, n", QUOTIENT_SIZES)
def test_quotient_category_matches_the_orbit_sets(kind, n):
    q = symmetric_order_quotient(default_labels(n), kind)
    Q, obj_map, mor_map = quotient_category(q.category, q.action)
    assert (obj_map, mor_map, Q.to_json_dict()) == quotient_by_orbit_sets(q.category, q.action)


# -- group actions by object permutations ----------------------------------------------------

ANTICHAIN = Poset(["u", "v"], [0b01, 0b10])
CHAIN = Poset(["u", "v"], [0b11, 0b10])


@pytest.mark.parametrize(
    "category, on_objects",
    [
        pytest.param(build_break_category(2), [[0, 1]], id="parallel-morphisms"),
        pytest.param(poset_category(ANTICHAIN), [[0, 1], [0, 0]], id="repeated-object"),
        pytest.param(poset_category(ANTICHAIN), [[0, 1], [0, 2]], id="object-out-of-range"),
        pytest.param(poset_category(ANTICHAIN), [[0, 1], [1]], id="short-table"),
        pytest.param(poset_category(ANTICHAIN), [[0, 1], [1, 0, 2]], id="long-table"),
        pytest.param(poset_category(ANTICHAIN), [[0, 1], [[1], 0]], id="unhashable-entry"),
        pytest.param(poset_category(ANTICHAIN), [[0, 1], [1.0, 0]], id="float-entry"),
        pytest.param(poset_category(ANTICHAIN), [[0, 1], [True, 0]], id="bool-entry"),
        pytest.param(poset_category(CHAIN), [[0, 1], [1, 0]], id="related-to-unrelated"),
        pytest.param(poset_category(ANTICHAIN), 5, id="int-tables"),
        pytest.param(poset_category(ANTICHAIN), [[0, 1], 7], id="int-table"),
    ],
)
def test_group_action_rejects_with_contract_error(category, on_objects):
    from dicube.categories import GroupAction

    with pytest.raises(ContractError):
        GroupAction(category, on_objects)


@pytest.mark.parametrize(
    "generators, elements",
    [
        pytest.param([[1, 0]], [(0, 1), (1, 0)], id="no-identity"),
        pytest.param([], [(0, 1)], id="empty-group"),
        pytest.param([[0, 1], [1, 0], [1, 0]], [(0, 1), (1, 0)], id="repeated-generators"),
    ],
)
def test_group_action_accepts_any_generating_set(generators, elements):
    # the tables are generators, not a group: the identity comes first and
    # the rest are their products, so no group axiom is asked of the input
    from dicube.categories import GroupAction

    C = poset_category(ANTICHAIN)
    act = GroupAction(C, generators)
    assert act.on_objects == elements
    Q, omap, mmap = quotient_category(C, act)
    if not generators:  # the trivial group: its quotient is the category itself
        assert (Q.n_objects, Q.n_morphisms) == (C.n_objects, C.n_morphisms)
        assert omap == list(range(C.n_objects)) and mmap == list(range(C.n_morphisms))
        assert [(m.src, m.tgt) for m in Q.morphisms] == [(m.src, m.tgt) for m in C.morphisms]
    else:
        assert (Q.n_objects, Q.n_morphisms) == (1, 1)


def test_group_action_derives_the_morphism_tables():
    # u < w and v < w; swapping u and v moves u -> w to v -> w
    P = Poset(["u", "v", "w"], [0b101, 0b110, 0b100])
    C = poset_category(P)
    from dicube.categories import GroupAction

    act = GroupAction(C, [[0, 1, 2], [1, 0, 2]])
    pairs = [(mor.src, mor.tgt) for mor in C.morphisms]
    tables = _morphism_tables(act)
    assert tables[0] == tuple(range(C.n_morphisms))
    assert [pairs[m] for m in tables[1]] == [(1, 1), (1, 2), (0, 0), (0, 2), (2, 2)]
    with pytest.raises(ContractError, match="free action"):
        act.orbits()  # the swap fixes w


def _morphism_tables(act):
    # one table per group element, read through act_morphism
    morphisms = range(act.C.n_morphisms)
    return [tuple(act.act_morphism(g, m) for m in morphisms) for g in range(len(act.on_objects))]


def _pair_index_tables(C, on_objects):
    # reference tables read off a pair index: a -> b goes to g(a) -> g(b)
    pair_index = {(mor.src, mor.tgt): m for m, mor in enumerate(C.morphisms)}
    return [
        tuple(pair_index[(perm[mor.src], perm[mor.tgt])] for mor in C.morphisms)
        for perm in on_objects
    ]


def _check_functorial(C, on_objects, on_morphisms):
    # reference functoriality check: endpoints, identities and composition
    for objs, mors in zip(on_objects, on_morphisms):
        assert sorted(mors) == list(range(C.n_morphisms))
        for m, mor in enumerate(C.morphisms):
            image = C.morphisms[mors[m]]
            assert (image.src, image.tgt) == (objs[mor.src], objs[mor.tgt])
        for obj, ident in enumerate(C.identity):
            assert mors[ident] == C.identity[objs[obj]]
        for g, f in C.composable_pairs():
            assert mors[C.compose(g, f)] == C.compose(mors[g], mors[f])


@pytest.mark.parametrize(
    "kind, n",
    [("regular", 1), ("regular", 2), ("regular", 3), ("regular", 4)]
    + [("semi-regular", 1), ("semi-regular", 2), ("semi-regular", 3)],
)
def test_relabelling_tables_match_pair_index_and_are_functorial(kind, n):
    q = symmetric_order_quotient(default_labels(n), kind)
    act = q.action
    tables = _morphism_tables(act)
    assert tables == _pair_index_tables(q.category, act.on_objects)
    _check_functorial(q.category, act.on_objects, tables)


@pytest.mark.parametrize(
    "kind, n",
    [("regular", 1), ("regular", 2), ("regular", 3), ("regular", 4)]
    + [("semi-regular", 1), ("semi-regular", 2), ("semi-regular", 3)],
)
def test_adjacent_transpositions_generate_every_relabelling_table(kind, n):
    # the tables composed from the n-1 generators are exactly the n! tables
    # read off every relabelling, with no table repeated
    from dicube.complexes import permutations_of

    labels = default_labels(n)
    q = symmetric_order_quotient(labels, kind)
    key_index = {o.key(): i for i, o in enumerate(q.orders)}
    every = {tuple(key_index[o.act(s).key()] for o in q.orders) for s in permutations_of(labels)}
    assert len(q.action.on_objects) == len(set(q.action.on_objects)) == math.factorial(n)
    assert set(q.action.on_objects) == every
    assert q.action.on_objects[0] == tuple(range(len(q.orders)))


@pytest.mark.parametrize(
    "kind, n", [("regular", 4)] + [("semi-regular", 1), ("semi-regular", 2), ("semi-regular", 3)]
)
def test_quotients_outside_the_nerve_quotient_check_keep_the_category_laws(kind, n):
    # the nerve-quotient check runs these laws on the regular quotients at n <= 3
    from dicube.suite import quotient_law_failure

    assert quotient_law_failure(symmetric_order_quotient(default_labels(n), kind)) is None


def test_quotient_nerve_matches_break_category_homology():
    q3 = symmetric_order_quotient(default_labels(3), "regular")
    h_quot = homology(nerve_complex(q3.quotient))
    h_break = homology(nerve_complex(build_break_category(3)))
    assert homology_signature(h_quot) == homology_signature(h_break)


def test_semi_regular_quotient_agrees_at_small_sizes():
    for n in (2, 3):
        q = symmetric_order_quotient(default_labels(n), "semi-regular")
        h = homology(nerve_complex(q.quotient))
        h_break = homology(nerve_complex(build_break_category(n)))
        assert homology_signature(h) == homology_signature(h_break)


def test_orbit_complex_matches_quotient_nerve_generators():
    q = symmetric_order_quotient(default_labels(2), "regular")
    orbit_cx, orbit_levels = nerve_orbit_complex(q.category, q.action)
    quot_cx = nerve_complex(q.quotient)
    assert orbit_cx.ranks == quot_cx.ranks
    assert homology_signature(homology(orbit_cx)) == homology_signature(homology(quot_cx))


# -- exports ------------------------------------------------------------------------------------


def test_category_dot_export():
    E = build_break_category(2)
    dot = E.to_dot("en")
    assert dot.count("->") == 2  # the two non-identity morphisms
    assert dot.count("[label=") == 2 + 2  # nodes and edges both labeled


def test_category_json_export():
    E = build_break_category(2)
    data = E.to_json_dict()
    assert data["objects"] == ["{}", "{1}"]
    assert len(data["morphisms"]) == 4
    assert ["identity" in data, "compose" in data] == [True, True]


def test_poset_dot_hasse():
    P, _ = regular_orders_poset(default_labels(2), "sqsubseteq")
    dot = P.to_dot("r_poset")
    assert dot.count("->") == 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_break_functor_source_is_the_regular_quotient(n):
    func = break_functor(default_labels(n))
    q = symmetric_order_quotient(default_labels(n), "regular")
    assert [o.key() for o in func.quotient.orders] == [o.key() for o in q.orders]

    def ends(C):
        return [(m.src, m.tgt) for m in C.morphisms]

    assert ends(func.quotient.category) == ends(q.category)
    assert func.quotient.object_map == q.object_map
    assert func.quotient.morphism_map == q.morphism_map
    assert len(func.object_map) == len(q.orders)
    assert len(func.morphism_map) == q.category.n_morphisms
