import random
from fractions import Fraction
from math import gcd

import pytest

from dicube.categories import build_break_category, nerve_complex, regular_orders_poset
from dicube.complexes import default_labels
from dicube.errors import ContractError
from dicube.homology import (
    ChainComplex,
    HomologyGroup,
    boundary_rank_and_divisors,
    euler_characteristic,
    homology,
    homology_signature,
    same_homology,
    smith_normal_form,
)


# -- independent oracles -----------------------------------------------------


def rational_rank(matrix):
    """Gaussian elimination over Q; independent of the integer SNF path."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def bareiss_determinant(matrix):
    """Exact integer determinant (fraction-free elimination)."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


# -- Smith normal form ---------------------------------------------------------


def test_snf_two_by_two_matches_gcd_det_oracle():
    m = [[2, 4], [6, 8]]
    # d1 is the gcd of all entries, d1*d2 the absolute determinant
    d1 = gcd(gcd(2, 4), gcd(6, 8))
    det = abs(bareiss_determinant(m))
    snf = smith_normal_form(m)
    assert snf.diagonal == (d1, det // d1) == (2, 4)


def test_snf_zero_and_identity():
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == ()
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).diagonal == (1, 1, 1)


def test_snf_empty_shapes():
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([[]]).diagonal == ()


@pytest.mark.parametrize("seed", range(8))
def test_snf_random_reconstruction_and_divisibility(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 12)
    n = rng.randint(1, 12)
    a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
    snf = smith_normal_form(a, transforms=True)
    for d1, d2 in zip(snf.diagonal, snf.diagonal[1:]):
        assert d1 > 0 and d2 % d1 == 0
    product = mat_mul(mat_mul([list(r) for r in snf.U], a), [list(r) for r in snf.V])
    assert product == snf.padded()
    assert abs(bareiss_determinant([list(r) for r in snf.U])) == 1
    assert abs(bareiss_determinant([list(r) for r in snf.V])) == 1


@pytest.mark.parametrize("seed", range(30, 42))
def test_snf_rank_matches_rational_rank(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 14)
    n = rng.randint(1, 14)
    # low-rank-ish matrices so the rank is interesting
    a = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(n)] for _ in range(m)]
    assert smith_normal_form(a).rank == rational_rank(a)


def test_sparse_divisors_match_dense_snf():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 10)
        n = rng.randint(1, 10)
        a = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(m)]
        cols = [
            {i: a[i][j] for i in range(m) if a[i][j]} for j in range(n)
        ]
        complex_ = ChainComplex([m, n], [cols])
        rank, divisors = boundary_rank_and_divisors(complex_, 1)
        assert divisors == smith_normal_form(a).diagonal
        assert rank == rational_rank(a)


# -- homology --------------------------------------------------------------------


def test_point_complex():
    assert homology(ChainComplex([1], [])) == (HomologyGroup(1),)


def test_two_parallel_edges_circle():
    # two vertices, two parallel edges: one circle
    boundary = [[1, 1], [-1, -1]]
    groups = homology(ChainComplex([2, 2], [boundary]))
    assert groups == (HomologyGroup(1), HomologyGroup(1))


def octahedron_complex():
    pairs = [(0, 1), (2, 3), (4, 5)]
    vertices = list(range(6))
    opposite = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    edges = [
        (i, j)
        for i in vertices
        for j in vertices
        if i < j and opposite[i] != j
    ]
    triangles = sorted(
        tuple(sorted((a, b, c)))
        for a in (0, 1)
        for b in (2, 3)
        for c in (4, 5)
    )
    edge_index = {e: k for k, e in enumerate(edges)}
    d1 = [{} for _ in edges]
    for k, (i, j) in enumerate(edges):
        d1[k] = {j: 1, i: -1}
    d2 = []
    for tri in triangles:
        col = {}
        for drop in range(3):
            face = tuple(v for t, v in enumerate(tri) if t != drop)
            col[edge_index[face]] = col.get(edge_index[face], 0) + (-1) ** drop
        d2.append(col)
    return ChainComplex([6, len(edges), len(triangles)], [d1, d2])


def test_octahedron_sphere():
    cx = octahedron_complex()
    # oracle: Betti numbers by rational rank counting
    b1 = rational_rank(cx.boundary_dense(1))
    b2 = rational_rank(cx.boundary_dense(2))
    expected = (6 - b1, 12 - b1 - b2, 8 - b2)
    groups = homology(cx)
    assert tuple(g.betti for g in groups) == expected == (1, 0, 1)
    assert all(g.torsion == () for g in groups)


def test_projective_plane_torsion():
    # minimal CW structure: one cell per dimension, degree-2 attaching map
    cx = ChainComplex([1, 1, 1], [[{0: 0}], [{0: 2}]])
    groups = homology(cx)
    assert groups == (HomologyGroup(1), HomologyGroup(0, (2,)), HomologyGroup(0))


def test_homology_signature_sorts_torsion_and_trims_trailing_zeros():
    groups = (HomologyGroup(1), HomologyGroup(0, (6, 2)), HomologyGroup(0), HomologyGroup(0))
    assert homology_signature(groups) == [(1, ()), (0, (2, 6))]
    assert homology_signature(()) == []


def test_boundary_square_check():
    with pytest.raises(ContractError):
        ChainComplex([1, 1, 1], [[{0: 1}], [{0: 1}]])


def test_euler_characteristic_checked_against_homology():
    assert euler_characteristic(ChainComplex([1], [])) == 1
    assert euler_characteristic(octahedron_complex()) == 2
    circle = ChainComplex([2, 2], [[[1, 1], [-1, -1]]])
    assert euler_characteristic(circle) == 0


def test_same_homology_ignores_trailing_zeros():
    a = (HomologyGroup(1), HomologyGroup(2, (2, 4)))
    b = (HomologyGroup(1), HomologyGroup(2, (4, 2)), HomologyGroup(0))
    assert same_homology(a, b)
    assert not same_homology(a, (HomologyGroup(1), HomologyGroup(2, (2,))))


def test_rank_nullity_consistency():
    rng = random.Random(99)
    for _ in range(10):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        rank = smith_normal_form(a).rank
        assert rank + (n - rank) == n  # kernel dimension complements the rank
        assert rank == rational_rank(a)


# -- seeded property test -----------------------------------------------------


def change_of_basis(cx, rng, steps):
    """``cx`` in a random basis.  Each step swaps or negates generators, or
    replaces generator i of one degree by e_i + c e_j; it acts on the
    columns of the boundary out of that degree and, inversely, on the rows
    of the boundary into it, so the result is isomorphic to ``cx``."""
    mats = [cx.boundary_dense(k) for k in range(1, cx.top_degree + 1)]
    for _ in range(steps):
        k = rng.randrange(len(cx.ranks))
        if cx.ranks[k] < 2:
            continue
        i, j = rng.sample(range(cx.ranks[k]), 2)
        out_of = mats[k - 1] if k >= 1 else []  # generator i is column i
        into = mats[k] if k < len(mats) else None  # generator i is row i
        op = rng.choice(("swap", "negate", "add"))
        c = rng.choice((-2, -1, 1, 2))
        for row in out_of:
            if op == "swap":
                row[i], row[j] = row[j], row[i]
            elif op == "negate":
                row[i] = -row[i]
            else:
                row[i] += c * row[j]
        if into is not None:
            if op == "swap":
                into[i], into[j] = into[j], into[i]
            elif op == "negate":
                into[i] = [-v for v in into[i]]
            else:
                into[j] = [a - c * b for a, b in zip(into[j], into[i])]
    return ChainComplex(cx.ranks, mats)


@pytest.mark.parametrize(
    "model, n",
    [("en", 3), ("en", 4), ("r-poset", 2), ("r-poset", 3)],
)
def test_homology_is_invariant_under_unimodular_change_of_basis(model, n):
    if model == "en":
        cx = nerve_complex(build_break_category(n))
    else:
        cx = regular_orders_poset(default_labels(n), "sqsubseteq")[0].order_complex()
    want = homology(cx)
    rng = random.Random(1000 * n + len(model))
    for _ in range(3):
        twisted = change_of_basis(cx, rng, 2 * sum(cx.ranks))
        assert twisted.ranks == cx.ranks
        assert homology(twisted) == want
