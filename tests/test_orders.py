import itertools
import random
from types import SimpleNamespace

import pytest

from dicube.chains import CubeChain, enumerate_chains
from dicube.complexes import build_ordered_cover, default_labels, permutations_of
from dicube.errors import ContractError, ResourceCapError
from dicube.orders import (
    DoubleOrder,
    _strict_orders,
    chain_to_double_order,
    chain_union,
    double_order_to_chain,
    enumerate_orders,
    is_semi_regular,
    order_keys,
    poset_leq,
    regular_blocks,
    regular_from_blocks,
    rel_from_pairs,
    relabelling,
    self_meetings,
    to_regular,
    union_bar,
    union_keys,
)
from dicube.posets import bit_positions, reachable, rel_below_counts, rel_closure

AB = ("a", "b")
ABC = ("a", "b", "c")


def order(labels, x_pairs, y_pairs):
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    return DoubleOrder(
        labels,
        rel_from_pairs(n, [(pos[a], pos[b]) for a, b in x_pairs]),
        rel_from_pairs(n, [(pos[a], pos[b]) for a, b in y_pairs]),
    )


# -- the level function ------------------------------------------------------------


def level_function(rel):
    """The 1-based level map inducing rel (a < b iff level(a) < level(b)),
    or None when rel is not semi-linear: the levels rank the distinct below
    counts, and rel is semi-linear exactly when it equals their order."""
    counts = rel_below_counts(rel)
    rank = {c: k for k, c in enumerate(sorted(set(counts)), start=1)}
    induced = tuple(sum(1 << j for j, c in enumerate(counts) if c > ci) for ci in counts)
    return tuple(rank[c] for c in counts) if induced == rel else None


def test_level_function_detects_semi_linearity():
    assert level_function(rel_from_pairs(2, [])) == (1, 1)
    assert level_function(rel_from_pairs(2, [(0, 1)])) == (1, 2)
    # a poset that is not semi-linear: one comparable pair among three
    rel = rel_from_pairs(3, [(0, 1)])
    assert level_function(rel) is None


# -- the closure union ------------------------------------------------------------


def _has_cycle(rel):
    """True when the digraph with edge rows ``rel`` has a directed cycle: a
    graph without one empties when its sinks are removed over and over."""
    left = (1 << len(rel)) - 1
    while left:
        sinks = [i for i in range(len(rel)) if left >> i & 1 and not rel[i] & left]
        if not sinks:
            return True
        for i in sinks:
            left &= ~(1 << i)
    return False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_union_undefined_exactly_when_one_component_has_a_label_cycle(n):
    # cover-complete takes an empty intersection to be a union_bar of None
    family = enumerate_orders(default_labels(n), "double")
    for o1, o2 in itertools.product(family, repeat=2):
        cycle = any(
            _has_cycle(tuple(a | b for a, b in zip(r1, r2)))
            for r1, r2 in ((o1.x, o2.x), (o1.y, o2.y))
        )
        assert (union_bar(o1, o2) is None) == cycle


def test_union_combines_components():
    o1 = order(AB, [("a", "b")], [])
    o2 = order(AB, [], [("a", "b")])
    u = union_bar(o1, o2)
    assert u.key() == order(AB, [("a", "b")], [("a", "b")]).key()


def test_union_idempotent():
    o = order(ABC, [("a", "b")], [("a", "c"), ("b", "c")])
    assert union_bar(o, o).key() == o.key()
    # the identity case that union-sigma skips
    for n in range(1, 5):
        for o in enumerate_orders(default_labels(n), "regular"):
            assert union_bar(o, o) == o


def test_union_takes_transitive_closure():
    o1 = order(ABC, [("a", "b")], [])
    o2 = order(ABC, [("b", "c")], [])
    u = union_bar(o1, o2)
    assert u.x == rel_from_pairs(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize(
    "n, kind", [(1, "semi-regular"), (2, "semi-regular"), (3, "semi-regular"), (4, "regular")]
)
def test_key_union_is_the_key_of_union_bar(n, kind):
    # union-sigma and cover-proper join keys, so each ordered pair must give
    # the key of the order union_bar builds, or None with it
    family = enumerate_orders(default_labels(n), kind)
    for a, b in itertools.product(family, repeat=2):
        u = union_bar(a, b)
        assert union_keys(a.key(), b.key()) == (None if u is None else u.key()), (a.text(), b.text())


def test_key_union_refuses_keys_of_different_sizes():
    two, three = (enumerate_orders(default_labels(n), "regular")[0].key() for n in (2, 3))
    for k1, k2 in ((two, three), (three, two), (two, (two[0], three[1]))):
        with pytest.raises(ContractError, match="keys of one size"):
            union_keys(k1, k2)


def union_triples(n, rng):
    """Every triple of double orders for n <= 2.  Above that a seeded sample:
    random triples, whose union is mostly undefined, and triples below one
    random order, whose union is always defined."""
    orders = enumerate_orders(default_labels(n), "double")
    if n <= 2:
        return list(itertools.product(orders, repeat=3))
    triples = [tuple(rng.choice(orders) for _ in range(3)) for _ in range(150)]
    for _ in range(15):
        top = rng.choice(orders)
        below = [o for o in orders if poset_leq(o, top, "subseteq")]
        triples += [tuple(rng.choice(below) for _ in range(3)) for _ in range(10)]
    return triples


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_union_bar_is_associative(n):
    defined = 0
    for a, b, c in union_triples(n, random.Random(n)):
        ab, bc = union_bar(a, b), union_bar(b, c)
        left = None if ab is None else union_bar(ab, c)
        right = None if bc is None else union_bar(a, bc)
        assert (left is None) == (right is None), (a.text(), b.text(), c.text())
        if left is not None:
            defined += 1
            assert left.key() == right.key(), (a.text(), b.text(), c.text())
    assert defined > 0


# -- the relation kernels against reachability ---------------------------------------


def closure_by_reachability(rel):
    """Row i holds every element reached from i in one step or more."""

    def step(v):
        return bit_positions(rel[v])

    return tuple(sum(1 << j for j in reachable(step(i), step)) for i in range(len(rel)))


def random_relation(n, rng):
    density = rng.choice([0.1, 0.25, 0.5])
    return tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n))


@pytest.mark.parametrize("seed", range(6))
def test_rel_closure_matches_reachability_on_random_relations(seed):
    rng = random.Random(seed)
    cyclic = 0
    for _ in range(200):
        rel = random_relation(rng.randint(0, 6), rng)
        expected = closure_by_reachability(rel)
        assert rel_closure(rel) == expected, rel
        cyclic += any(row >> i & 1 for i, row in enumerate(expected))
    assert 0 < cyclic < 200


def test_rel_closure_gives_int_rows_for_int_rows_after_equal_bool_rows():
    # a cache keyed on the tuple alone would hand the bool rows back
    for bools in [(True, False), (False, True, True, False, False, False, True)]:
        assert rel_closure(bools) == bools
        ints = tuple(map(int, bools))
        closed = rel_closure(ints)
        assert closed == ints and all(type(row) is int for row in closed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_union_bar_is_symmetric_and_undefined_exactly_on_a_cyclic_closure(n):
    defined = undefined = 0
    for a, b, _ in union_triples(n, random.Random(n)):
        closures = [
            closure_by_reachability(tuple(r1 | r2 for r1, r2 in zip(c1, c2)))
            for c1, c2 in ((a.x, b.x), (a.y, b.y))
        ]
        cyclic = any(row >> i & 1 for rel in closures for i, row in enumerate(rel))
        u = union_bar(a, b)
        assert u == union_bar(b, a), (a.text(), b.text())
        if cyclic:
            assert u is None, (a.text(), b.text())
            undefined += 1
        else:
            assert u.key() == tuple(closures), (a.text(), b.text())
            defined += 1
    assert defined > 0 and (undefined > 0) == (n > 1)  # one label never cycles


# -- enumeration --------------------------------------------------------------------


def test_counts_for_two_labels():
    assert len(enumerate_orders(AB, "double")) == 8
    assert len(enumerate_orders(AB, "regular")) == 4
    assert len(enumerate_orders(AB, "semi-regular")) == 8


def test_counts_for_one_label():
    for kind in ("double", "regular", "semi-regular"):
        assert len(enumerate_orders(("a",), kind)) == 1


def test_regular_count_formula():
    import math

    for n in (1, 2, 3, 4):
        labels = default_labels(n)
        assert len(enumerate_orders(labels, "regular")) == math.factorial(n) * 2 ** (n - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_construction_matches_definitional_filter(n):
    labels = default_labels(n)
    by_blocks = {o.key() for o in enumerate_orders(labels, "regular")}
    by_filter = {o.key() for o in enumerate_orders(labels, "double") if o.is_regular}
    assert by_blocks == by_filter


# -- regular orders as block sequences -----------------------------------------------


def block_sequences(labels):
    """Every ordered sequence of nonempty blocks partitioning ``labels``, each
    block an ordered tuple: pick the first block, then recurse on the rest."""
    if not labels:
        yield ()
        return
    for size in range(1, len(labels) + 1):
        for first in itertools.permutations(labels, size):
            rest = tuple(lab for lab in labels if lab not in first)
            for tail in block_sequences(rest):
                yield (first,) + tail


def test_block_example():
    # a and b share the lower block with b below a in y; c sits above both
    o = order(ABC, [("a", "c"), ("b", "c")], [("b", "a")])
    assert regular_blocks(o) == (("b", "a"), ("c",))
    assert regular_from_blocks(ABC, [["b", "a"], ["c"]]) == o
    assert regular_blocks(DoubleOrder((), (), ())) == ()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_blocks_of_every_regular_order_rebuild_it(n):
    for o in enumerate_orders(default_labels(n), "regular"):
        assert regular_from_blocks(o.labels, regular_blocks(o)) == o


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_every_block_sequence_is_read_back(n):
    import math

    labels = default_labels(n)
    seen = set()
    for blocks in block_sequences(labels):
        o = regular_from_blocks(labels, blocks)
        assert o.is_regular
        assert regular_blocks(o) == blocks
        seen.add(o.key())
    assert len(seen) == math.factorial(n) * 2 ** max(n - 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_regular_blocks_rejects_exactly_the_non_regular_orders(n):
    for o in enumerate_orders(default_labels(n), "double"):
        if o.is_regular:
            regular_blocks(o)
        else:
            with pytest.raises(ContractError):
                regular_blocks(o)


@pytest.mark.parametrize(
    "blocks",
    [
        [["a", "b"], ["a", "c"]],  # repeated label
        [["a", "a", "b", "c"]],  # repeated within a block
        [["a"], ["c"]],  # missing label
        [["a", "b"], ["c", "d"]],  # unknown label
        [["a"], [], ["b", "c"]],  # empty block
        [[["a"]], ["b", "c"]],  # unhashable label
    ],
)
def test_regular_from_blocks_rejects_non_partitions(blocks):
    with pytest.raises(ContractError):
        regular_from_blocks(ABC, blocks)


def test_regular_blocks_rejects_non_regular_orders():
    for o in (
        order(AB, [("a", "b")], [("a", "b")]),  # double, pair decided twice
        order(AB, [], []),  # not double
        order(ABC, [("a", "b")], [("b", "c")]),  # x is not semi-linear
    ):
        with pytest.raises(ContractError):
            regular_blocks(o)


def test_semi_regular_family_contains_regulars_and_is_union_closed():
    family = enumerate_orders(ABC, "semi-regular")
    keys = {o.key() for o in family}
    for o in enumerate_orders(ABC, "regular"):
        assert o.key() in keys
    for a, b in itertools.product(family, repeat=2):
        u = union_bar(a, b)
        if u is not None:
            assert u.key() in keys


def _union_fixpoint(seed):
    # reference closure: unions against the whole growing family
    family = {o.key(): o for o in seed}
    frontier = list(seed)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(family.values()):
                u = union_bar(a, b)
                if u is not None and u.key() not in family:
                    family[u.key()] = u
                    fresh.append(u)
        frontier = fresh
    return sorted(family.values(), key=DoubleOrder.key)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_semi_regular_family_equals_the_full_union_fixpoint(n):
    labels = default_labels(n)
    family = enumerate_orders(labels, "semi-regular")
    expected = _union_fixpoint(enumerate_orders(labels, "regular"))
    assert [o.key() for o in family] == [o.key() for o in expected]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_semi_regular_is_membership_in_the_union_fixpoint(n):
    # every pair of strict orders, double or not, against the oracle family
    labels = default_labels(n)
    keys = {o.key() for o in _union_fixpoint(enumerate_orders(labels, "regular"))}
    strict = _strict_orders(n)
    for x, y in itertools.product(strict, repeat=2):
        assert is_semi_regular(DoubleOrder(labels, x, y)) == ((x, y) in keys)


def test_semi_regular_family_at_four_labels():
    # the union fixpoint oracle takes about as long as all of tier-1; CI compares the two
    family = enumerate_orders(default_labels(4), "semi-regular")
    assert len(family) == 3720
    assert [o.key() for o in family] == sorted(o.key() for o in family)
    keys = {o.key() for o in family}
    assert all(o.key() in keys for o in enumerate_orders(default_labels(4), "regular"))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_double_family_equals_the_filter_by_definition(n):
    # every pair of strict orders, kept when is_double holds, in pair order;
    # at n=4 for a seeded sample of the x rows, and the family size is pinned
    labels = default_labels(n)
    strict = _strict_orders(n)
    xs = strict if n <= 3 else sorted(random.Random(n).sample(strict, 24))
    expected = [
        o for o in (DoubleOrder(labels, x, y) for x in xs for y in strict) if o.is_double
    ]
    family = enumerate_orders(labels, "double")
    assert [o for o in family if o.x in set(xs)] == expected
    assert [o.key() for o in family] == sorted(o.key() for o in family)
    if n == 4:
        assert len(family) == 19440


def test_semi_regulars_are_double():
    for o in enumerate_orders(ABC, "semi-regular"):
        assert o.is_double


@pytest.mark.parametrize(
    "labels, kind",
    [
        pytest.param([[1], [2]], "regular", id="unhashable-labels"),
        pytest.param([[1], [2]], "double", id="unhashable-labels-double"),
        pytest.param(["a", "a"], "regular", id="repeated-label"),
        pytest.param(["a", "b"], ["regular"], id="unhashable-kind"),
        pytest.param(["a", "b"], "total", id="unknown-kind"),
    ],
)
def test_enumeration_rejects_bad_labels_and_kinds_with_a_contract_error(labels, kind):
    for _ in range(2):  # the second call would be served by the memo
        with pytest.raises(ContractError):
            enumerate_orders(labels, kind)
        with pytest.raises(ContractError):
            order_keys(labels, kind)


def test_enumeration_caps():
    for enumerate_family in (enumerate_orders, order_keys):
        for kind, cap in (("double", 4), ("semi-regular", 4), ("regular", 6)):
            with pytest.raises(ResourceCapError, match=f"capped at {cap}, not"):
                enumerate_family(default_labels(cap + 1), kind)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["double", "regular", "semi-regular"])
def test_order_keys_are_the_keys_of_the_enumerated_orders(kind, n):
    labels = default_labels(n)
    assert list(order_keys(labels, kind)) == [o.key() for o in enumerate_orders(labels, kind)]


def strict_orders_by_subsets(n):
    """Every set of off-diagonal pairs, kept when transitive, sorted."""
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    subsets = (
        rel_from_pairs(n, [p for k, p in enumerate(positions) if bits >> k & 1])
        for bits in range(1 << len(positions))
    )
    return tuple(sorted(rel for rel in subsets if rel_closure(rel) == rel))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_strict_orders_equal_the_transitive_relation_subsets(n):
    assert _strict_orders(n) == strict_orders_by_subsets(n)


def test_strict_orders_count_the_labelled_posets():
    # OEIS A001035
    assert [len(_strict_orders(n)) for n in range(5)] == [1, 1, 3, 19, 219]


# -- the two partial orders -------------------------------------------------------------


def test_poset_leq_variants():
    bottom = order(AB, [], [("a", "b")])
    top = order(AB, [("a", "b")], [])
    assert poset_leq(bottom, top, "sqsubseteq")
    assert poset_leq(top, top, "sqsubseteq")
    assert not poset_leq(top, bottom, "sqsubseteq")
    assert not poset_leq(top, bottom, "subseteq")
    both = order(AB, [("a", "b")], [("a", "b")])
    assert poset_leq(bottom, both, "subseteq") and poset_leq(top, both, "subseteq")


# -- retraction and chain union -----------------------------------------------------------


def test_to_regular_drops_decided_pairs():
    o = order(AB, [("a", "b")], [("a", "b")])
    assert to_regular(o).key() == order(AB, [("a", "b")], []).key()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_to_regular_keeps_exactly_the_x_incomparable_y_pairs(n):
    labels = default_labels(n)
    regulars = {o.key() for o in enumerate_orders(labels, "regular")}
    for o in enumerate_orders(labels, "semi-regular"):
        kept = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if o.y[i] >> j & 1 and not (o.x[i] >> j & 1 or o.x[j] >> i & 1)
        ]
        r = to_regular(o)
        assert r == DoubleOrder(labels, o.x, rel_from_pairs(n, kept))
        assert r.key() in regulars


def test_to_regular_identity_on_regulars():
    for o in enumerate_orders(ABC, "regular"):
        assert to_regular(o).key() == o.key()


def test_to_regular_rejects_non_semi_regular():
    # double but not semi-regular: the lone x pair c<a cannot arise from any
    # union of regulars whose y part stays inside {b<a, b<c}
    o = order(ABC, [("c", "a")], [("b", "a"), ("b", "c")])
    assert o.is_double and not is_semi_regular(o)
    with pytest.raises(ContractError):
        to_regular(o)


# -- semi-regularity above four labels --------------------------------------------
# decided up to 6 labels, the cap of the regular family that it reads

ABCDE = default_labels(5)
# the three-label counterexample above, with d and e put after a, b and c
LIFTED = order(
    ABCDE,
    [("c", "a"), *((p, q) for p in "abc" for q in "de"), ("d", "e")],
    [("b", "a"), ("b", "c")],
)


def test_every_regular_order_at_five_labels_is_semi_regular():
    regulars = enumerate_orders(ABCDE, "regular")
    assert len(regulars) == 1920
    assert all(is_semi_regular(o) for o in regulars)


def test_a_lifted_counterexample_stays_non_semi_regular():
    assert LIFTED.is_double and not is_semi_regular(LIFTED)
    with pytest.raises(ContractError):
        to_regular(LIFTED)


def test_semi_regularity_is_left_undecided_above_six_labels():
    # the membership test reads the regular family, which is capped at 6 labels
    empty = (0,) * 7
    with pytest.raises(ResourceCapError):
        is_semi_regular(DoubleOrder(default_labels(7), empty, empty))


def test_to_regular_is_equivariant():
    family = enumerate_orders(ABC, "semi-regular")
    for sigma in permutations_of(ABC):
        for o in family:
            assert to_regular(o.act(sigma)).key() == to_regular(o).act(sigma).key()


def test_to_regular_monotone_between_the_orders():
    family = enumerate_orders(ABC, "semi-regular")
    for a, b in itertools.product(family, repeat=2):
        if poset_leq(a, b, "subseteq"):
            assert poset_leq(to_regular(a), to_regular(b), "sqsubseteq")


def test_chain_union_single_entry():
    o = order(AB, [("a", "b")], [])
    assert chain_union([o]).key() == o.key()


def test_chain_union_two_entries():
    bottom = order(AB, [], [("a", "b")])
    top = order(AB, [("a", "b")], [])
    u = chain_union([bottom, top])
    assert u.key() == order(AB, [("a", "b")], [("a", "b")]).key()


def test_chain_union_requires_strict_mixed_chain():
    top = order(AB, [("a", "b")], [])
    with pytest.raises(ContractError):
        chain_union([top, top])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_union_is_top_x_with_bottom_y(n):
    from dicube.categories import regular_orders_poset

    labels = default_labels(n)
    poset, orders = regular_orders_poset(labels, "sqsubseteq")
    for chain_idx in poset.chains():
        chain = [orders[i] for i in chain_idx]
        assert chain_union(chain) == DoubleOrder(labels, chain[-1].x, chain[0].y)


def test_union_then_retract_recovers_chain_top():
    from dicube.categories import regular_orders_poset

    poset, orders = regular_orders_poset(ABC, "sqsubseteq")
    for chain_idx in poset.chains():
        chain = [orders[i] for i in chain_idx]
        assert to_regular(chain_union(chain)).key() == chain[-1].key()


# -- chains of the cover <-> regular orders ----------------------------------------------------


def test_chain_examples_to_orders():
    cover = build_ordered_cover(2)
    two_step = CubeChain(
        (cover.complex.cell_of_label("(|a|b)"), cover.complex.cell_of_label("(a|b|)"))
    )
    assert chain_to_double_order(cover, two_step).key() == order(AB, [("a", "b")], []).key()
    square = CubeChain((cover.complex.cell_of_label("(|a<b|)"),))
    assert chain_to_double_order(cover, square).key() == order(AB, [], [("a", "b")]).key()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trips_both_ways(n):
    cover = build_ordered_cover(n)
    chains = enumerate_chains(cover.complex)
    for c in chains:
        assert double_order_to_chain(cover, chain_to_double_order(cover, c)) == c
    for o in enumerate_orders(cover.ground, "regular"):
        assert chain_to_double_order(cover, double_order_to_chain(cover, o)).key() == o.key()


def test_order_to_chain_rejects_non_regular():
    cover = build_ordered_cover(2)
    with pytest.raises(ContractError):
        double_order_to_chain(cover, order(AB, [("a", "b")], [("a", "b")]))


# -- group action properties --------------------------------------------------------------------


def test_action_is_free_on_double_orders():
    for n in (1, 2, 3):
        labels = default_labels(n)
        for o in enumerate_orders(labels, "double"):
            for sigma in permutations_of(labels):
                if all(sigma[a] == a for a in labels):
                    continue
                assert o.act(sigma).key() != o.key()


def test_union_with_relabeled_self_fails_unless_identity():
    for n in (2, 3):
        labels = default_labels(n)
        for o in enumerate_orders(labels, "regular"):
            for sigma in permutations_of(labels):
                u = union_bar(o, o.act(sigma))
                if all(sigma[a] == a for a in labels):
                    assert u is not None and u.key() == o.key()
                else:
                    assert u is None


# -- the relabelling fast path against the plain definition --------------------------------------


def act_by_definition(o, sigma):
    """The O(n^2) bit loop: i < j in the image iff sigma(i) < sigma(j) in o."""
    pos = {lab: k for k, lab in enumerate(o.labels)}
    s = [pos[sigma[lab]] for lab in o.labels]

    def push(rel):
        rows = [0] * o.n
        for i in range(o.n):
            for j in range(o.n):
                if rel[s[i]] >> s[j] & 1:
                    rows[i] |= 1 << j
        return tuple(rows)

    return push(o.x), push(o.y)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_act_matches_the_definition_on_every_double_order(n):
    labels = default_labels(n)
    for o in enumerate_orders(labels, "double"):
        for sigma in permutations_of(labels):
            image = o.act(sigma)
            assert image.labels == o.labels
            assert image.key() == act_by_definition(o, sigma)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_relabelling_kernel_matches_act_on_every_double_order(n):
    labels = default_labels(n)
    family = enumerate_orders(labels, "double")
    for sigma in permutations_of(labels):
        relabel = relabelling(labels, sigma)
        for o in family:
            assert relabel(o.key()) == o.act(sigma).key() == act_by_definition(o, sigma)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_self_meetings_yield_the_keys_that_meet_a_relabelling_in_order(n):
    # keys of any two strict orders, so that some meet their images: the
    # empty pair meets every image, and no double order meets one
    labels = default_labels(n)
    keys = list(itertools.product(_strict_orders(n), repeat=2))
    rows = [SimpleNamespace(labels=labels, n=n, x=x, y=y) for x, y in keys]
    expected = [
        (key, sigma)
        for sigma in permutations_of(labels)[1:]
        for key, o in zip(keys, rows)
        if union_keys(key, act_by_definition(o, sigma)) is not None
    ]
    assert list(self_meetings(labels, keys)) == expected
    assert bool(expected) == (n > 1)
    assert not list(self_meetings(labels, order_keys(labels, "double")))


def test_act_is_a_right_action():
    # acting by sigma, then by tau, is acting once by l -> sigma(tau(l))
    labels = default_labels(3)
    sigmas = permutations_of(labels)
    for o in enumerate_orders(labels, "double"):
        for sigma in sigmas:
            for tau in sigmas:
                composite = {lab: sigma[tau[lab]] for lab in labels}
                assert o.act(sigma).act(tau).key() == o.act(composite).key()


@pytest.mark.parametrize(
    "sigma",
    [
        pytest.param({"a": "a", "b": "a", "c": "c"}, id="not-one-to-one"),
        pytest.param({"a": "b", "b": "a"}, id="misses-a-label"),
        pytest.param({"a": "d", "b": "b", "c": "c"}, id="not-a-label"),
        pytest.param({"a": ["a"], "b": "b", "c": "c"}, id="unhashable-image"),
        pytest.param(5, id="not-a-mapping"),
    ],
)
def test_act_by_a_map_that_is_not_a_permutation_is_a_contract_error(sigma):
    # the first used to map x{};y{b<a,c<a,c<b} to x{};y{c<a,c<b}, not a double order
    o = regular_from_blocks(ABC, [["c", "b", "a"]])
    with pytest.raises(ContractError):
        o.act(sigma)
    with pytest.raises(ContractError):
        relabelling(ABC, sigma)


@pytest.mark.parametrize(
    "labels",
    [
        pytest.param(["a", "b"], id="list"),
        pytest.param(("a", "a"), id="repeated-label"),
        pytest.param(("a", ["b"]), id="unhashable-label"),
        pytest.param("ab", id="string"),
        pytest.param(5, id="not-a-sequence"),
    ],
)
def test_double_order_rejects_labels_that_are_not_a_tuple_of_distinct_labels(labels):
    for _ in range(2):  # the second call may be served by the memo
        with pytest.raises(ContractError, match="labels"):
            DoubleOrder(labels, rel_from_pairs(2, [(0, 1)]), (0, 0))


def test_double_orders_are_frozen_and_keep_no_instance_dict():
    o = regular_from_blocks(ABC, [["c", "b", "a"]])
    assert not hasattr(o, "__dict__")
    with pytest.raises(AttributeError):
        o.x = (0, 0, 0)


def test_validation_memo_still_rejects_bad_relations():
    for o in enumerate_orders(ABC, "double"):
        DoubleOrder(o.labels, o.x, o.y)  # the memo has now seen valid relations
    valid = rel_from_pairs(3, [(0, 1)])
    reflexive = rel_from_pairs(3, [(0, 1), (2, 2)])
    non_transitive = rel_from_pairs(3, [(0, 1), (1, 2)])
    for bad in (reflexive, non_transitive):
        for _ in range(2):  # the second call is served by the memo
            with pytest.raises(ContractError):
                DoubleOrder(ABC, bad, valid)
            with pytest.raises(ContractError):
                DoubleOrder(ABC, valid, bad)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_semi_regular_membership_matches_the_enumeration(n):
    labels = default_labels(n)
    semi = {o.key() for o in enumerate_orders(labels, "semi-regular")}
    flags = []
    for o in enumerate_orders(labels, "double"):
        expected = o.key() in semi
        flags.append(expected)
        assert is_semi_regular(o) == expected
    assert flags.count(True) == len(semi)
    assert (False in flags) == (n == 3)


# -- the order shape read from below counts, against the earlier readers ----------------


def level_function_by_components(rel):
    """The earlier level reader: incomparability components that are
    cliques, totally and uniformly ordered between each other."""
    n = len(rel)
    comp = [-1] * n
    classes = []
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = len(classes)
        todo, members = [start], [start]
        while todo:
            i = todo.pop()
            for j in range(n):
                if comp[j] == -1 and not (rel[i] >> j & 1 or rel[j] >> i & 1):
                    comp[j] = comp[start]
                    todo.append(j)
                    members.append(j)
        classes.append(members)
    for members in classes:
        for i, j in itertools.combinations(members, 2):
            if rel[i] >> j & 1 or rel[j] >> i & 1:
                return None
    below = [0] * len(classes)
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            if a != b:
                votes = {bool(rel[i] >> j & 1) for i in ca for j in cb}
                if len(votes) != 1:
                    return None
                below[b] += votes == {True}
    order = sorted(range(len(classes)), key=below.__getitem__)
    if [below[c] for c in order] != list(range(len(classes))):
        return None
    levels = [0] * n
    for rank, c in enumerate(order, start=1):
        for i in classes[c]:
            levels[i] = rank
    return tuple(levels)


def is_double_by_pairs(o):
    return all(
        o.x[i] >> j & 1 or o.x[j] >> i & 1 or o.y[i] >> j & 1 or o.y[j] >> i & 1
        for i, j in itertools.combinations(range(o.n), 2)
    )


def is_regular_by_three_tests(o):
    """The earlier regularity test: a double order whose x is semi-linear
    and whose y relates no x-related pair."""
    if not is_double_by_pairs(o) or level_function_by_components(o.x) is None:
        return False
    return not any(
        o.y[i] >> j & 1 or o.y[j] >> i & 1
        for i in range(o.n)
        for j in range(o.n)
        if o.x[i] >> j & 1
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_level_function_matches_the_component_search_on_irreflexive_relations(n):
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    semi_linear = 0
    for bits in range(1 << len(positions)):
        rel = rel_from_pairs(n, [p for k, p in enumerate(positions) if bits >> k & 1])
        expected = level_function_by_components(rel)
        assert level_function(rel) == expected, rel
        semi_linear += expected is not None
    # the weak orders on n labels: the ordered Bell numbers
    assert semi_linear == [1, 1, 3, 13, 75][n]


def test_level_function_rejects_a_reflexive_relation():
    assert level_function((1,)) is None
    assert level_function(rel_from_pairs(2, [(0, 1), (1, 1)])) is None


def double_orders_to_compare():
    for n in range(4):
        strict = _strict_orders(n)
        for x in strict:
            for y in strict:
                yield DoubleOrder(default_labels(n), x, y)
    yield from enumerate_orders(default_labels(4), "double")


def test_is_regular_and_is_double_match_the_earlier_tests():
    regular = 0
    for o in double_orders_to_compare():
        assert o.is_double == is_double_by_pairs(o), o.text()
        expected = is_regular_by_three_tests(o)
        assert o.is_regular == expected, o.text()
        if expected:
            regular += 1
            assert regular_from_blocks(o.labels, regular_blocks(o)) == o
        else:
            with pytest.raises(ContractError):
                regular_blocks(o)
    # the regular orders: n! times the compositions of n, for n = 0..4
    assert regular == 1 + 1 + 4 + 24 + 192


@pytest.mark.parametrize(
    "x",
    [
        pytest.param((0b100, 0b00), id="bit-beyond-n"),
        pytest.param((-1, 0), id="negative-row"),
        pytest.param((0b10, False), id="bool-row"),
        pytest.param((2.0, 0), id="float-row"),
        pytest.param(([1], 0), id="unhashable-row"),
        pytest.param([0b10, 0], id="list-of-rows"),
        pytest.param((0b10,), id="row-count"),
        pytest.param(5, id="not-a-sequence"),
    ],
)
def test_double_order_rejects_rows_that_are_not_bitmasks(x):
    valid = rel_from_pairs(2, [(0, 1)])
    for _ in range(2):  # the second call may be served by the memo
        with pytest.raises(ContractError):
            DoubleOrder(AB, x, (0, 0))
        with pytest.raises(ContractError):
            DoubleOrder(AB, (0, 0), x)
    # a rejected row equal to a valid one must not spoil the valid relation
    assert DoubleOrder(AB, valid, (0, 0)).x == valid
