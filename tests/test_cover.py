import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest

from dicube.complexes import default_labels
from dicube.cover import (
    _linear_extension_ranks,
    config_to_json_dict,
    nerve_retraction_check,
    point_to_order,
    random_configuration,
    u_contains,
    verify_cover,
    witness_point,
)
from dicube.errors import ContractError, ResourceCapError
from dicube.orders import (
    DoubleOrder,
    _strict_orders,
    enumerate_orders,
    poset_leq,
    rel_from_pairs,
    union_bar,
)
from dicube.posets import rel_closure, rel_is_irreflexive, rel_pairs, rel_subset

from test_orders import level_function

AB = ("a", "b")


def order(labels, x_pairs, y_pairs):
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    return DoubleOrder(
        labels,
        rel_from_pairs(n, [(pos[a], pos[b]) for a, b in x_pairs]),
        rel_from_pairs(n, [(pos[a], pos[b]) for a, b in y_pairs]),
    )


def ordered_pair_counts(labels):
    """The completeness counts of verify_cover by an ordered-pair loop."""
    family = enumerate_orders(labels, "semi-regular")
    keys = {o.key() for o in family}
    checked = nonempty = 0
    ok = True
    for a in family:
        for b in family:
            checked += 1
            u = union_bar(a, b)
            if u is None:
                continue
            w = witness_point(u)
            if u.key() in keys and u_contains(a, w) and u_contains(b, w) and u_contains(u, w):
                nonempty += 1
            else:
                ok = False
    return checked, nonempty, ok


@pytest.mark.parametrize("n", [2, 3])
def test_verify_cover_counts_match_an_ordered_pair_loop(n):
    labels = default_labels(n)
    report = verify_cover(labels, samples=0)
    checked, nonempty, ok = ordered_pair_counts(labels)
    assert (report.intersections_checked, report.nonempty_intersections) == (checked, nonempty)
    assert report.ok == ok and report.failures == []


def test_witness_point_membership():
    for o in enumerate_orders(default_labels(3), "semi-regular"):
        w = witness_point(o)
        assert u_contains(o, w)
        assert len(set(w.values())) == len(w)


def test_witness_point_single_label():
    o = order(("a",), [], [])
    assert witness_point(o) == {"a": (Fraction(1), Fraction(1))}


def test_membership_rejects_violated_constraint():
    o = order(AB, [("b", "a")], [])
    f = {"a": (Fraction(0), Fraction(0)), "b": (Fraction(1), Fraction(0))}
    assert not u_contains(o, f)


def test_membership_is_antitone_in_the_order():
    family = enumerate_orders(AB, "semi-regular")
    rng = random.Random(3)
    samples = [random_configuration(AB, rng) for _ in range(40)]
    for o1, o2 in itertools.product(family, repeat=2):
        if poset_leq(o1, o2, "subseteq"):
            for f in samples:
                if u_contains(o2, f):
                    assert u_contains(o1, f)


def test_point_to_order_examples():
    f = {"a": (Fraction(0), Fraction(0)), "b": (Fraction(0), Fraction(1))}
    assert point_to_order(f, AB).key() == order(AB, [], [("a", "b")]).key()
    g = {"a": (Fraction(0), Fraction(0)), "b": (Fraction(1), Fraction(5))}
    assert point_to_order(g, AB).key() == order(AB, [("a", "b")], []).key()
    mixed = {"a": (0, Fraction(1, 2)), "b": (Fraction(0), 1)}  # ints and Fractions together
    assert point_to_order(mixed, AB).key() == order(AB, [], [("a", "b")]).key()


def test_point_to_order_rejects_collisions():
    f = {"a": (Fraction(1), Fraction(1)), "b": (Fraction(1), Fraction(1))}
    with pytest.raises(ContractError):
        point_to_order(f, AB)


def test_point_to_order_names_the_first_unplaced_label():
    f = {"b": (Fraction(0), Fraction(0))}
    with pytest.raises(ContractError, match="label 'a'"):
        point_to_order(f, ("a", "b", "c"))


@pytest.mark.parametrize(
    "coordinate",
    [0.5, True, type("Fraction", (), {})(), type("Fraction", (Fraction,), {})(1, 2)],
    ids=["float", "bool", "class-named-Fraction", "Fraction-subclass"],
)
def test_point_to_order_rejects_coordinates_that_are_not_ints_or_fractions(coordinate):
    f = {"a": (0, coordinate), "b": (1, 0)}
    with pytest.raises(ContractError, match="pair of rationals"):
        point_to_order(f, AB)


def pairwise_point_order(f, labels):
    """The read-off compared pair by pair: x by first coordinates, y by
    second coordinates among points with equal first coordinates."""
    n = len(labels)
    x_pairs, y_pairs = [], []
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if f[a][0] < f[b][0]:
                x_pairs.append((i, j))
            elif f[a][0] == f[b][0] and f[a][1] < f[b][1]:
                y_pairs.append((i, j))
    return DoubleOrder(labels, rel_from_pairs(n, x_pairs), rel_from_pairs(n, y_pairs))


def test_random_configuration_is_twelve_times_the_sampled_rationals():
    labels = default_labels(4)
    rng, oracle = random.Random(7), random.Random(7)
    for _ in range(200):
        while True:  # p then q for x, then for y, label by label, until injective
            points = {
                a: tuple(Fraction(oracle.randint(-12, 12), oracle.randint(1, 4)) for _ in "xy")
                for a in labels
            }
            if len(set(points.values())) == len(labels):
                break
        f = random_configuration(labels, rng)
        assert all(type(v) is int for xy in f.values() for v in xy)
        assert f == {a: (12 * x, 12 * y) for a, (x, y) in points.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_point_to_order_matches_pairwise_read_off(n):
    labels = default_labels(n)
    rng = random.Random(100 + n)
    for _ in range(300):
        f = random_configuration(labels, rng)
        o = point_to_order(f, labels)
        assert o == pairwise_point_order(f, labels)
        assert o.is_regular and u_contains(o, f)


def test_witness_of_its_own_order():
    for o in enumerate_orders(AB, "regular"):
        w = witness_point(o)
        assert u_contains(point_to_order(w, AB), w)


def test_intersection_rule_two_labels():
    x_ab = order(AB, [("a", "b")], [])
    x_ba = order(AB, [("b", "a")], [])
    assert union_bar(x_ab, x_ba) is None  # the two constraint sets conflict
    y_ab = order(AB, [], [("a", "b")])
    u = union_bar(x_ab, y_ab)
    assert u is not None
    w = witness_point(u)
    assert u_contains(x_ab, w) and u_contains(y_ab, w)


def test_verify_cover_two_labels():
    report = verify_cover(AB, samples=200, seed=1)
    assert report.ok
    assert report.family == "semi-regular"
    assert report.intersections_checked == 64
    assert report.samples_covered == 200


def test_verify_cover_three_labels_smoke():
    report = verify_cover(default_labels(3), samples=50, seed=2)
    assert report.ok


def test_verify_cover_four_labels_regular_subchecks():
    report = verify_cover(default_labels(4), samples=25, seed=3)
    assert report.ok and report.family == "regular"


@pytest.mark.parametrize(
    "labels", [[[1]], [[1], [2]], ["a", "a"]], ids=["unhashable", "unhashable-pair", "repeated"]
)
def test_verify_cover_rejects_labels_that_are_not_distinct_and_hashable(labels):
    with pytest.raises(ContractError):
        verify_cover(labels)


def test_verify_cover_cap():
    with pytest.raises(ResourceCapError):
        verify_cover(default_labels(5))


def test_nerve_retraction_two_labels_exhaustive():
    assert nerve_retraction_check(AB)


def test_nerve_retraction_three_labels_every_pair():
    assert nerve_retraction_check(default_labels(3))


def test_fold_of_pairwise_unions_is_the_closed_union_of_a_set():
    # the lemma that lets nerve_retraction_check test pairs only, sampled at 3 labels
    family = enumerate_orders(default_labels(3), "semi-regular")
    keys = {o.key() for o in family}
    rng = random.Random(28)
    defined = 0
    for _ in range(400):
        # half the sets lie below one member, so that their union is an order
        top = rng.choice(family)
        below = [o for o in family if rel_subset(o.x, top.x) and rel_subset(o.y, top.y)]
        pool = below if rng.random() < 0.5 else family
        group = rng.sample(pool, min(len(pool), rng.randint(2, 6)))
        joined = functools.reduce(lambda acc, o: acc if acc is None else union_bar(acc, o), group)
        closed = [
            rel_closure([functools.reduce(operator.or_, rows) for rows in zip(*parts)])
            for parts in zip(*(o.key() for o in group))
        ]
        if not all(map(rel_is_irreflexive, closed)):
            assert joined is None
            continue
        assert joined.key() == tuple(closed) and joined.key() in keys
        assert all(rel_subset(o.x, joined.x) and rel_subset(o.y, joined.y) for o in group)
        defined += 1
    assert defined >= 150  # the seed reaches many sets whose union is an order


def test_config_json_round_trip():
    f = {"a": (Fraction(1, 2), Fraction(-3)), "b": (Fraction(0), Fraction(7, 4))}
    data = config_to_json_dict(f)
    assert data["points"]["a"] == ["1/2", "-3/1"]
    assert {a: tuple(map(Fraction, xy)) for a, xy in data["points"].items()} == f


def extension_by_repeated_minimum(o, rel):
    """The earlier extension: the minimal remaining element with the
    smallest index goes next."""
    remaining = set(range(o.n))
    ranks = {}
    while remaining:
        i = min(i for i in remaining if not any(rel[j] >> i & 1 for j in remaining))
        ranks[o.labels[i]] = len(ranks) + 1
        remaining.discard(i)
    return ranks


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_linear_extension_ranks_extend_every_strict_order(n):
    labels = default_labels(n)
    for rel in _strict_orders(n):
        o = DoubleOrder(labels, rel, rel_from_pairs(n, []))
        ranks = _linear_extension_ranks(o, rel)
        assert sorted(ranks.values()) == list(range(1, n + 1))
        assert all(ranks[labels[i]] < ranks[labels[j]] for i, j in rel_pairs(rel))
        if level_function(rel) is not None:
            # on a weak order both list each level in index order
            assert ranks == extension_by_repeated_minimum(o, rel)
