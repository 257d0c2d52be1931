import itertools
import random

import pytest

from dicube.categories import (
    FiniteCategory,
    Morphism,
    _cond_blockwise,
    break_functor,
    break_hom_count_oracle,
    break_set,
    build_break_category,
    check_functoriality,
    composable_run_counts,
    monotone_numbering,
    morphism_permutation,
    nerve_complex,
    nerve_orbit_complex,
    poset_category,
    quotient_category,
    regular_orders_poset,
    symmetric_order_quotient,
)
from dicube.complexes import default_labels
from dicube.errors import ContractError
from dicube.homology import euler_characteristic, homology, same_homology
from dicube.orders import DoubleOrder, rel_from_pairs
from dicube.posets import Poset


def order(labels, x_pairs, y_pairs):
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    return DoubleOrder(
        labels,
        rel_from_pairs(n, [(pos[a], pos[b]) for a, b in x_pairs]),
        rel_from_pairs(n, [(pos[a], pos[b]) for a, b in y_pairs]),
    )


# -- posets -------------------------------------------------------------------


def chain_poset_two():
    return Poset(["p", "q"], [[True, True], [False, True]])


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
            if P.leq[i][j]:
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
    return Poset([f"p{i}" for i in range(size)], leq)


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


def test_poset_validation_rejects_cycles():
    with pytest.raises(ContractError):
        Poset(["p", "q"], [[True, True], [True, True]])


def test_subdivision_of_point_and_chain():
    point, max_map = Poset(["p"], [[True]]).subdivision()
    assert len(point) == 1 and max_map == [0]
    sd, max_map = chain_poset_two().subdivision()
    assert len(sd) == 3  # {p}, {q}, {p,q}
    assert chain_poset_two().is_monotone(chain_poset_two(), [0, 1])
    assert sd.is_monotone(chain_poset_two(), max_map)


def strict_chain_complex(P):
    """The order complex from strict element chains in (length, tuple)
    order, each boundary column summing (-1)^i times the chain without its
    i-th element: an independent route to ``Poset.order_complex``."""
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
        cx = P.order_complex()
        ranks, boundaries = strict_chain_complex(P)
        assert list(cx.ranks) == ranks
        for k, cols in enumerate(boundaries, start=1):
            assert [list(col.items()) for col in cx.boundary_columns(k)] == cols


def test_mixed_order_poset_on_two_labels_is_a_circle():
    P, _ = regular_orders_poset(default_labels(2), "sqsubseteq")
    assert len(P) == 4 and len(P.covers()) == 4
    assert tuple(g.betti for g in homology(P.order_complex())) == (1, 1)


def test_subdivision_preserves_homology():
    for P in (
        chain_poset_two(),
        regular_orders_poset(default_labels(2), "sqsubseteq")[0],
        regular_orders_poset(default_labels(3), "sqsubseteq")[0],
    ):
        sd, _ = P.subdivision()
        assert same_homology(homology(P.order_complex()), homology(sd.order_complex()))


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


def test_break_category_two_is_a_circle():
    E = build_break_category(2)
    cx = nerve_complex(E)
    assert cx.ranks == (2, 2)
    assert cx.boundary_dense(1) == [[1, 1], [-1, -1]]
    assert tuple(g.betti for g in homology(cx)) == (1, 1)


# -- the break category ----------------------------------------------------------------


def test_break_category_two():
    E = build_break_category(2)
    assert E.objects == [(), (1,)]
    assert len(E.hom(1, 0)) == 2
    for i in range(E.n_objects):
        assert E.hom(i, i) == [E.identity[i]]


def test_break_category_three_hom_counts():
    E = build_break_category(3)
    idx = {b: i for i, b in enumerate(E.objects)}
    assert len(E.hom(idx[(1, 2)], idx[()])) == 6
    assert len(E.hom(idx[(1,)], idx[()])) == 3
    assert len(E.hom(idx[(1, 2)], idx[(1,)])) == 2
    E.validate()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_break_hom_counts_match_multinomial_oracle(n):
    E = build_break_category(n)
    for a, src in enumerate(E.objects):
        for b, tgt in enumerate(E.objects):
            got = len(E.hom(a, b))
            want = break_hom_count_oracle(src, tgt, n) if set(tgt) <= set(src) else 0
            assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_break_category_loop_free_with_trivial_endos(n):
    E = build_break_category(n)
    assert E.is_loop_free()
    for i in range(E.n_objects):
        assert E.hom(i, i) == [E.identity[i]]


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
                assert _cond_blockwise(phi, breaks, n) == cond_blockwise_by_pairs(phi, breaks, n)


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
        and len(E.hom(E.morphisms[f].src, E.morphisms[g].tgt)) > 1
        and any(h not in ident for h in E.out_of[E.morphisms[g].tgt])
    )
    table = dict(E._compose)
    table[g, f] = next(m for m in E.hom(E.morphisms[f].src, E.morphisms[g].tgt) if m != table[g, f])
    bad = FiniteCategory(E.objects, E.morphisms, E.identity, lambda g, f: table[g, f])
    with pytest.raises(ContractError, match="associativity"):
        bad.validate()


def test_break_set_and_numbering_example():
    o = order(("a", "b", "c"), [("a", "c"), ("b", "c")], [("a", "b")])
    assert break_set(o) == (2,)
    assert monotone_numbering(o) == ("a", "b", "c")


def test_morphism_permutation_identity_pair():
    o = order(("a", "b"), [("a", "b")], [])
    assert morphism_permutation(o, o) == (1, 2)


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

    act = GroupAction(
        C,
        ["id"],
        [list(range(C.n_objects))],
        [list(range(C.n_morphisms))],
    )
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
    assert len(q.quotient.hom(x_class, other)) == 2
    for i in range(2):
        assert q.quotient.hom(i, i) == [q.quotient.identity[i]]


def test_quotient_requires_free_action():
    # a two-element antichain with the flip action is free; collapsing one
    # element of the pair to itself is not
    P = Poset(["u", "v"], [[True, False], [False, True]])
    C = poset_category(P)
    from dicube.categories import GroupAction

    with pytest.raises(ContractError):
        act = GroupAction(C, ["id", "g"], [[0, 1], [0, 1]], [[0, 1], [0, 1]])
        quotient_category(C, act)  # "g" acts trivially: not free


def test_quotient_nerve_matches_break_category_homology():
    q3 = symmetric_order_quotient(default_labels(3), "regular")
    h_quot = homology(nerve_complex(q3.quotient))
    h_break = homology(nerve_complex(build_break_category(3)))
    assert same_homology(h_quot, h_break)


def test_semi_regular_quotient_agrees_at_small_sizes():
    for n in (2, 3):
        q = symmetric_order_quotient(default_labels(n), "semi-regular")
        h = homology(nerve_complex(q.quotient))
        assert same_homology(h, homology(nerve_complex(build_break_category(n))))


def test_orbit_complex_matches_quotient_nerve_generators():
    q = symmetric_order_quotient(default_labels(2), "regular")
    orbit_cx, orbit_levels = nerve_orbit_complex(q.category, q.action)
    quot_cx = nerve_complex(q.quotient)
    assert orbit_cx.ranks == quot_cx.ranks
    assert same_homology(homology(orbit_cx), homology(quot_cx))


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
