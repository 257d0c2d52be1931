"""The constraint-set cover of plane configurations indexed by double orders,
in exact rational arithmetic: membership, witness points (integer ranks),
reading an order off a configuration, and the cover verification report, a
list of failures (completeness, properness, equivariance, coverage by random
configurations).  ``fractions`` is imported only to write a covering failure
and to test a coordinate that is not an int.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from functools import lru_cache, reduce

from .complexes import label_tuple, permutations_of
from .errors import ContractError, require_size
from .orders import (
    DoubleOrder,
    enumerate_orders,
    order_keys,
    regular_from_blocks,
    relabelling,
    self_meetings,
    union_bar,
)
from .posets import Rel, rel_below_counts, rel_from_pairs, rel_pairs, rel_subset

Config = dict  # label -> (x, y), exact rationals: Fractions, or ints for witness points
# and for random samples, points p/q of the 1/12 grid given as the integers 12 * p/q


def _rational_points(f: Config, labels: tuple) -> list:
    """The points of the labels in f, in label order.  ContractError unless f
    maps each label to a pair of ints or Fractions."""
    if not isinstance(f, Mapping):
        raise ContractError("a configuration must map labels to points")
    points = [f.get(a) for a in labels]
    for a, xy in zip(labels, points):
        rational = isinstance(xy, tuple) and len(xy) == 2
        if rational and not (type(xy[0]) is int is type(xy[1])):
            from fractions import Fraction
            rational = {type(v) for v in xy} <= {int, Fraction}
        if not rational:
            raise ContractError(f"configuration does not place label {a!r} at a pair of rationals")
    return points


@lru_cache(maxsize=None)
def _constraints(x: Rel, y: Rel) -> tuple[tuple[int, int, int], ...]:
    """The related pairs i, j of the components x (c = 0) and y (c = 1) as
    (c, i, j): the strict inequalities point i < point j on coordinate c."""
    return tuple((c, i, j) for c, rel in enumerate((x, y)) for i, j in rel_pairs(rel))


def u_contains(o: DoubleOrder, f: Config) -> bool:
    """True iff every ordered pair of o translates into a strict coordinate
    inequality of f; comparisons are exact rationals.  ContractError unless
    o is a double order and f places each of its labels as ``point_to_order``
    requires."""
    if not isinstance(o, DoubleOrder):
        raise ContractError("membership needs a DoubleOrder")
    points = _rational_points(f, o.labels)
    return all(points[i][c] < points[j][c] for c, i, j in _constraints(o.x, o.y))


def _linear_extension_ranks(o: DoubleOrder, rel: Rel) -> dict:
    """Ranks 1..n of a total extension of the strict order rel: labels
    sorted by below count, ties by index, so the extension is deterministic."""
    listing = sorted(range(o.n), key=rel_below_counts(rel).__getitem__)
    return {o.labels[i]: rank for rank, i in enumerate(listing, start=1)}


def witness_point(o: DoubleOrder) -> Config:
    """A configuration inside the constraint set: coordinates are the integer
    rank functions of total extensions of the two components."""
    if not isinstance(o, DoubleOrder):
        raise ContractError("a witness point needs a DoubleOrder")
    hx = _linear_extension_ranks(o, o.x)
    hy = _linear_extension_ranks(o, o.y)
    return {a: (hx[a], hy[a]) for a in o.labels}


def is_injective_configuration(f: Config) -> bool:
    points = list(f.values())
    return len(set(points)) == len(points)


def point_to_order(f: Config, labels: Sequence) -> DoubleOrder:
    """The regular order of an injective configuration: one block per first
    coordinate, in ascending order, each sorted by the second coordinate.
    ContractError unless f maps each label to a pair of ints or Fractions."""
    labels = label_tuple(labels)
    points = _rational_points(f, labels)
    if len(set(points)) != len(points):
        raise ContractError("configuration is not injective")
    columns: dict = {}
    for a in sorted(labels, key=lambda a: f[a]):
        columns.setdefault(f[a][0], []).append(a)
    return regular_from_blocks(labels, columns.values())


def random_configuration(labels: Sequence, rng: random.Random) -> Config:
    """Random injective configuration of points p/q (p from -12 to 12, q from
    1 to 4) given exactly as the integers 12 * p/q; small coordinate ranges
    make first-coordinate ties (and hence y comparisons) common."""
    labels = label_tuple(labels)
    while True:
        f = {
            a: (
                12 * rng.randint(-12, 12) // rng.randint(1, 4),
                12 * rng.randint(-12, 12) // rng.randint(1, 4),
            )
            for a in labels
        }
        if is_injective_configuration(f):
            return f


def config_to_json_dict(f: Config) -> dict:
    return {
        "points": {
            str(a): [f"{xy[0].numerator}/{xy[0].denominator}", f"{xy[1].numerator}/{xy[1].denominator}"]
            for a, xy in sorted(f.items())
        }
    }


class CoverReport:
    """The counts of the cover passes run so far and their failures, each a
    dict naming its check; the cover holds while there are none."""

    def __init__(self, labels: tuple, family: str):
        self.labels = labels
        self.family = family  # "semi-regular" or "regular"
        self.intersections_checked = 0
        self.nonempty_intersections = 0
        self.samples_covered = 0
        self.failures: list = []

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_cover(labels, samples: int = 1000, seed: int = 0) -> CoverReport:
    """Exact verification that the constraint sets of the semi-regular family
    (3 labels at most; the regular family at 4 labels) cover the configurations:
    the completeness and covering passes in turn.  Properness and equivariance
    are the separate ``cover_properness`` and ``cover_equivariance`` passes."""
    report, family = cover_report(labels)
    cover_completeness(report, family)
    cover_covering(report, samples, seed)
    return report


def cover_report(labels) -> tuple[CoverReport, list[DoubleOrder]]:
    """An empty report and the family the cover passes run over."""
    labels = label_tuple(labels)
    require_size(len(labels), "label count of a cover verification", cap=4)
    kind = "semi-regular" if len(labels) <= 3 else "regular"
    return CoverReport(labels, kind), enumerate_orders(labels, kind)


def cover_completeness(report: CoverReport, family: list[DoubleOrder]) -> None:
    """Completeness: pairwise intersections are again members (witnessed) or
    empty, which is ``union_bar`` finding a closure reflexive: a label cycle
    in one component makes the joint constraint set unsatisfiable.
    union_bar is symmetric, so each unordered pair is tested once and counted
    for both ordered pairs."""
    keys = {o.key() for o in family}
    for i, a in enumerate(family):
        for j in range(i, len(family)):
            b = family[j]
            pairs = 1 if j == i else 2
            report.intersections_checked += pairs
            u = union_bar(a, b)
            if u is None:
                continue
            if report.family == "semi-regular" and u.key() not in keys:
                report.failures.append(
                    {"check": "completeness", "pair": [a.text(), b.text()], "union": u.text()}
                )
                continue
            w = witness_point(u)
            if not (u_contains(a, w) and u_contains(b, w) and u_contains(u, w)):
                report.failures.append(
                    {"check": "intersection-witness", "pair": [a.text(), b.text()]}
                )
            else:
                report.nonempty_intersections += pairs


def cover_properness(report: CoverReport, family: list[DoubleOrder]) -> None:
    """Properness: a member and its image under a non-identity permutation
    never meet, so ``self_meetings`` of the members' keys yields none; each
    one it yields is a failure.  Its regular retraction never meets its image
    either; union-sigma checks that for every regular order."""
    for key, sigma in self_meetings(report.labels, [o.key() for o in family]):
        order = DoubleOrder(report.labels, *key).text()
        report.failures.append({"check": "properness-union", "order": order, "sigma": str(sigma)})


def cover_equivariance(report: CoverReport, family: list[DoubleOrder]) -> None:
    """Equivariance: permuting a member's constraints gives the constraints
    of its relabelled key, as constraint-set equality: i < j in the image
    iff sigma(i) < sigma(j) in the member."""
    labels = report.labels
    n = len(labels)
    constraints = [[rel_pairs(rel) for rel in o.key()] for o in family]
    for sigma in permutations_of(labels):
        relabel = relabelling(labels, sigma)
        inv = {v: k for k, v in sigma.items()}
        at = [labels.index(inv[a]) for a in labels]  # position of sigma^-1(a)
        for o, pairs in zip(family, constraints):
            expected = tuple(rel_from_pairs(n, [(at[i], at[j]) for i, j in ps]) for ps in pairs)
            if expected != relabel(o.key()):
                report.failures.append(
                    {"check": "equivariance", "order": o.text(), "sigma": str(sigma)}
                )


def cover_covering(report: CoverReport, samples: int, seed: int) -> None:
    """Covering: random injective configurations all lie in the set of the
    regular order they induce."""
    labels = report.labels
    rng = random.Random(seed)
    regulars = set(order_keys(labels, "regular"))
    for _ in range(samples):
        f = random_configuration(labels, rng)
        o = point_to_order(f, labels)
        if o.key() in regulars and u_contains(o, f):
            report.samples_covered += 1
        else:
            from fractions import Fraction
            unscaled = {a: (Fraction(x, 12), Fraction(y, 12)) for a, (x, y) in f.items()}  # p/q
            report.failures.append({"check": "covering", "config": config_to_json_dict(unscaled)})


def nerve_retraction_check(labels) -> bool:
    """The retraction between nonempty-intersection index sets and members:
    intersecting then collecting supersets is the identity on members
    (Phi(Psi(o)) = o, checked for every member), and every index set is
    contained in the collection of its intersection.

    Pairs are enough for the second: the closed union of a set J is the fold
    of pairwise ``union_bar``, as closing a union is associative and a cycle
    never closes away, so each step is the union of a member and a member,
    a member by the pair case, and contains every member folded in so far.
    """
    import itertools

    labels = label_tuple(labels)
    family = enumerate_orders(labels, "semi-regular")
    keys = {o.key() for o in family}
    for o in family:
        below = [u for u in family if rel_subset(u.x, o.x) and rel_subset(u.y, o.y)]
        joined = reduce(lambda acc, u: acc if acc is None else union_bar(acc, u), below)
        if joined is None or joined.key() != o.key():
            return False
    for a, b in itertools.combinations(family, 2):
        joined = union_bar(a, b)
        if joined is None:
            continue
        if joined.key() not in keys:
            return False
        for o in (a, b):
            if not (rel_subset(o.x, joined.x) and rel_subset(o.y, joined.y)):
                return False
    return True
