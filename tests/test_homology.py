import importlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from dicube.categories import (
    _nerve_levels,
    build_break_category,
    nerve_complex,
    nerve_orbit_complex,
    regular_orders_poset,
    symmetric_order_quotient,
)
from dicube.cli import MODELS
from dicube.complexes import default_labels
from dicube.errors import ContractError
from dicube.posets import Poset
from dicube.homology import (
    ChainComplex,
    HomologyGroup,
    _dense_smith,
    _rank_and_divisors,
    euler_characteristic,
    homology,
    homology_signature,
    same_homology,
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


def determinantal_divisors(a):
    """Invariant factors without elimination: D_k is the gcd of the k x k
    minors (Bareiss determinants) and d_k = D_k / D_(k-1), up to the rank."""
    m, n = len(a), len(a[0]) if a else 0
    factors, previous = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                d = gcd(d, bareiss_determinant([[a[i][j] for j in cols] for i in rows]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return tuple(factors)


# -- dense matrices --------------------------------------------------------------


def dense_rows(cx, k):
    """The boundary d_k of ``cx`` as a list of rows."""
    rows = [[0] * cx.ranks[k] for _ in range(cx.ranks[k - 1])]
    for j, col in enumerate(cx.boundary_columns(k)):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def sparse_columns(a, n):
    """The n columns of the rows ``a`` as ``{row: coefficient}`` dicts."""
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(n)]


def dense_smith(a, transforms=False):
    """The dense Smith normal form of the rows ``a``, which are left as they
    are: (diagonal, U, V), with U and V None unless transforms are asked for."""
    m, n = len(a), len(a[0]) if a else 0
    diagonal, U, V = _dense_smith([list(row) for row in a], m, n, transforms)
    return tuple(diagonal), U, V


def snf_diagonal(a):
    return dense_smith(a)[0]


def padded(diagonal, m, n):
    """The diagonal in an m x n matrix of zeros."""
    return [[diagonal[i] if i == j and i < len(diagonal) else 0 for j in range(n)] for i in range(m)]


# -- Smith normal form ---------------------------------------------------------


def test_snf_two_by_two_matches_gcd_det_oracle():
    m = [[2, 4], [6, 8]]
    # d1 is the gcd of all entries, d1*d2 the absolute determinant
    d1 = gcd(gcd(2, 4), gcd(6, 8))
    det = abs(bareiss_determinant(m))
    assert snf_diagonal(m) == (d1, det // d1) == (2, 4)


def test_snf_zero_and_identity():
    assert snf_diagonal([[0, 0], [0, 0]]) == ()
    assert snf_diagonal([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)


def test_snf_empty_shapes():
    assert snf_diagonal([]) == ()
    assert snf_diagonal([[]]) == ()


@pytest.mark.parametrize("seed", range(8))
def test_snf_random_reconstruction_and_divisibility(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 12)
    n = rng.randint(1, 12)
    a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
    diagonal, U, V = dense_smith(a, transforms=True)
    for d1, d2 in zip(diagonal, diagonal[1:]):
        assert d1 > 0 and d2 % d1 == 0
    assert mat_mul(mat_mul(U, a), V) == padded(diagonal, m, n)
    assert abs(bareiss_determinant(U)) == 1
    assert abs(bareiss_determinant(V)) == 1


def test_snf_diagonal_matches_the_determinantal_divisors():
    rng = random.Random(5)
    for _ in range(400):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        values = rng.choice(((0, 1, -1, 2), (0, 0, 2, -4, 6), tuple(range(-9, 10))))
        a = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            # a combination of two rows, so the rank falls short
            c = rng.randint(-3, 3)
            a[-1] = [x + c * y for x, y in zip(a[0], a[1 % (m - 1)])]
        assert snf_diagonal(a) == determinantal_divisors(a), a


def test_snf_of_a_dense_45_by_45_matrix_with_transforms():
    # pivoting that restarts on every remainder let intermediate entries grow
    # to millions of bits on this matrix and took over a minute
    rng = random.Random(45)
    a = [[rng.randint(-5, 5) for _ in range(45)] for _ in range(45)]
    diagonal, U, V = dense_smith(a, transforms=True)
    assert mat_mul(mat_mul(U, a), V) == padded(diagonal, 45, 45)
    assert abs(bareiss_determinant(U)) == 1
    assert abs(bareiss_determinant(V)) == 1
    assert prod(diagonal) == abs(bareiss_determinant(a))


@pytest.mark.parametrize("seed", range(30, 42))
def test_snf_rank_matches_rational_rank(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 14)
    n = rng.randint(1, 14)
    # low-rank-ish matrices so the rank is interesting
    a = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(n)] for _ in range(m)]
    assert len(snf_diagonal(a)) == rational_rank(a)


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
        rank, divisors = _rank_and_divisors([col.items() for col in complex_.boundary_columns(1)], complex_.ranks[0])[:2]
        assert divisors == snf_diagonal(a)
        assert rank == rational_rank(a)


def random_sparse_matrix(rng, max_size=40):
    """An m x n integer matrix with few entries per column, so that unit
    elimination fills in; +-1 and non-unit entries, and some empty rows and
    zero columns.  Returns the rows and the column count."""
    m, n = rng.randint(0, max_size), rng.randint(0, max_size)
    density = rng.choice((0.04, 0.08, 0.15))
    values = (1, -1, 1, -1, 2, -2, 3, -4, 6)
    a = [[rng.choice(values) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    for i in rng.sample(range(m), m // 6):
        a[i] = [0] * n
    for j in rng.sample(range(n), n // 6):
        for row in a:
            row[j] = 0
    return a, n


# on seed 173 a single pass over the rows would leave a +-1 entry for the dense block
@pytest.mark.parametrize("seed", [*range(40), 173])
def test_sparse_elimination_matches_dense_snf_on_random_sparse_matrices(seed, monkeypatch):
    rng = random.Random(seed)
    a, n = random_sparse_matrix(rng)
    m = len(a)
    dense_ranks = []
    # the package exports a function named homology, which hides the module
    module = importlib.import_module("dicube.homology")
    dense_smith = module._dense_smith

    def counting_dense_smith(block, rows, cols, want):
        # passes repeat until one makes no pivot, so no unit reaches the dense block
        assert not any(v == 1 or v == -1 for row in block for v in row)
        diag, u, v = dense_smith(block, rows, cols, want)
        dense_ranks.append(len(diag))
        return diag, u, v

    with monkeypatch.context() as patch:
        patch.setattr(module, "_dense_smith", counting_dense_smith)
        rank, divisors, pivot_rows = _rank_and_divisors([col.items() for col in sparse_columns(a, n)], m)
    assert divisors == snf_diagonal(a)
    assert rank == len(divisors) == rational_rank(a)
    # one pivot row per unit pivot; those rows carry a block of invariant factors 1
    assert len(pivot_rows) == rank - sum(dense_ranks)
    assert snf_diagonal([a[i] for i in sorted(pivot_rows)]) == (1,) * len(pivot_rows)


@pytest.mark.parametrize("seed", range(20))
def test_cleared_columns_reduce_like_deleted_columns(seed):
    rng = random.Random(1000 + seed)
    a, n = random_sparse_matrix(rng)
    m = len(a)
    cols = [col.items() for col in sparse_columns(a, n)]
    cleared = frozenset(j for j in range(n) if rng.random() < 0.3)
    kept = [col for j, col in enumerate(cols) if j not in cleared]
    assert _rank_and_divisors(cols, m, cleared) == _rank_and_divisors(kept, m)


# -- homology --------------------------------------------------------------------


def test_point_complex():
    assert homology(ChainComplex([1], [])) == (HomologyGroup(1),)


def test_two_parallel_edges_circle():
    # two vertices, two parallel edges: one circle
    boundary = [{0: 1, 1: -1}, {0: 1, 1: -1}]
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
    b1 = rational_rank(dense_rows(cx, 1))
    b2 = rational_rank(dense_rows(cx, 2))
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


@pytest.mark.parametrize(
    "boundary",
    [
        pytest.param([{0: 0.5}], id="half"),
        pytest.param([{0: 1.7}], id="float"),
        pytest.param([{0: True}], id="bool-coefficient"),
        pytest.param([{"0": 1}], id="string-row"),
        pytest.param([{False: 1}], id="bool-row"),
        pytest.param([[0.5]], id="dense-float"),
        pytest.param([5], id="column-not-a-dict"),
    ],
)
def test_chain_complex_rejects_entries_that_are_not_ints(boundary):
    with pytest.raises(ContractError):
        ChainComplex([1, 1], [boundary])


@pytest.mark.parametrize(
    "ranks, boundaries",
    [
        pytest.param([1.5], [], id="float"),
        pytest.param([True, 1], [[{0: 1}]], id="bool"),
        pytest.param(3, [], id="int"),
        pytest.param(None, [], id="none"),
    ],
)
def test_chain_complex_rejects_ranks_that_are_not_ints(ranks, boundaries):
    with pytest.raises(ContractError):
        ChainComplex(ranks, boundaries)


@pytest.mark.parametrize("ranks", [[0, 2], [2, 0], [0, 0]])
def test_dense_boundary_round_trips_through_a_zero_module(ranks):
    cx = ChainComplex(ranks, [[{} for _ in range(ranks[1])]])
    back = ChainComplex(cx.ranks, [sparse_columns(dense_rows(cx, 1), ranks[1])])
    assert back.boundary_columns(1) == cx.boundary_columns(1) == [{}] * ranks[1]
    assert homology(back) == homology(cx) == tuple(HomologyGroup(r) for r in ranks)


@pytest.mark.parametrize(
    "ranks, boundaries",
    [
        pytest.param([2, 2], [[[1, 0], [0]]], id="short-row"),
        pytest.param([2, 2], [[[1, 0], [0, 1, 0]]], id="long-row"),
        pytest.param([2, 2], [[[1, 0], 5]], id="row-not-a-list"),
        pytest.param([1, 1], None, id="boundaries-none"),
        pytest.param([1, 1], [None], id="boundary-none"),
        pytest.param([1, 1], [5], id="boundary-an-int"),
        # a boundary is a list of columns: rows, or no list over a zero module, are not
        pytest.param([2, 2], [[[1, 1], [-1, -1]]], id="dense-rows"),
        pytest.param([0, 2], [[]], id="no-rows-over-a-zero-module"),
    ],
)
def test_chain_complex_rejects_a_ragged_dense_boundary(ranks, boundaries):
    with pytest.raises(ContractError):
        ChainComplex(ranks, boundaries)


def test_euler_characteristic_checked_against_homology():
    assert euler_characteristic(ChainComplex([1], [])) == 1
    assert euler_characteristic(octahedron_complex()) == 2
    circle = ChainComplex([2, 2], [[{0: 1, 1: -1}, {0: 1, 1: -1}]])
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
        rank = len(snf_diagonal(a))
        assert rank + (n - rank) == n  # kernel dimension complements the rank
        assert rank == rational_rank(a)


# -- seeded property test -----------------------------------------------------


def change_of_basis(cx, rng, steps):
    """``cx`` in a random basis.  Each step swaps or negates generators, or
    replaces generator i of one degree by e_i + c e_j; it acts on the
    columns of the boundary out of that degree and, inversely, on the rows
    of the boundary into it, so the result is isomorphic to ``cx``."""
    mats = [dense_rows(cx, k) for k in range(1, cx.top_degree + 1)]
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
    return ChainComplex(cx.ranks, [sparse_columns(a, cx.ranks[k]) for k, a in enumerate(mats, 1)])


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


# -- top-down clearing ----------------------------------------------------------


def homology_per_degree(cx):
    """Homology from each boundary reduced on its own, without clearing."""
    info = [(0, ())]
    for k in range(1, cx.top_degree + 1):
        info.append(_rank_and_divisors([col.items() for col in cx.boundary_columns(k)], cx.ranks[k - 1])[:2])
    info.append((0, ()))
    return tuple(
        HomologyGroup(rk - info[k][0] - info[k + 1][0], tuple(d for d in info[k + 1][1] if d > 1))
        for k, rk in enumerate(cx.ranks)
    )


def test_dense_fallback_rows_are_not_cleared():
    # d2 = (2, 3) has no unit entry, so its rows reach the dense block; they
    # are not unit pivots, and clearing either column of d1 = (3, -2) would
    # leave a cyclic H0
    cx = ChainComplex([1, 2, 1], [[{0: 3}, {0: -2}], [{0: 2, 1: 3}]])
    assert homology(cx) == (HomologyGroup(0), HomologyGroup(0), HomologyGroup(0))
    assert homology(cx) == homology_per_degree(cx)


def elementary_sum(pieces):
    """Direct sum over degrees 0..4 of the complexes Z -> Z, x |-> d x, one
    per piece (k, d), with the source in degree k + 1 and the target in k."""
    ranks = [0] * 5
    columns = [{} for _ in ranks]  # degree j: generator -> its boundary column
    for k, d in pieces:
        target, source = ranks[k], ranks[k + 1]
        ranks[k] += 1
        ranks[k + 1] += 1
        columns[k + 1][source] = {target: d} if d else {}
    return ChainComplex(
        ranks, [[columns[j].get(i, {}) for i in range(ranks[j])] for j in range(1, 5)]
    )


def elementary_homology(pieces):
    """Known homology of ``elementary_sum(pieces)``: each d = 0 piece is a Z
    in both degrees, each |d| > 1 a Z/d in degree k; the cyclic parts are
    regrouped into invariant factors 2 | 2 | ... or 3 | ... followed by 6s."""
    groups = []
    for j in range(5):
        betti = sum(d == 0 and j in (k, k + 1) for k, d in pieces)
        twos = sum(k == j and d in (2, 6) for k, d in pieces)
        threes = sum(k == j and d in (3, 6) for k, d in pieces)
        sixes = min(twos, threes)
        torsion = (2,) * (twos - sixes) + (3,) * (threes - sixes) + (6,) * sixes
        groups.append(HomologyGroup(betti, torsion))
    return tuple(groups)


@pytest.mark.parametrize("seed", range(12))
def test_clearing_on_twisted_elementary_sums(seed):
    rng = random.Random(seed)
    # one piece per degree keeps every chain group nonzero
    pieces = [(k, rng.choice((0, 1, -1, 2, 3, 6))) for k in range(4)]
    pieces += [(rng.randrange(4), rng.choice((0, 1, -1, 2, 3, 6))) for _ in range(rng.randint(0, 12))]
    cx = elementary_sum(pieces)
    want = elementary_homology(pieces)
    assert homology(cx) == want
    for _ in range(3):
        twisted = change_of_basis(cx, rng, 2 * sum(cx.ranks))
        assert homology(twisted) == want
        assert homology_per_degree(twisted) == want


@pytest.mark.parametrize("n", range(1, 6))
def test_clearing_matches_per_degree_reduction_on_the_break_nerve(n):
    cx = nerve_complex(build_break_category(n))
    assert homology(cx) == homology_per_degree(cx)


def test_clearing_matches_per_degree_reduction_on_the_regular_quotient():
    cx = nerve_complex(symmetric_order_quotient(default_labels(4), "regular").quotient)
    assert homology(cx) == homology_per_degree(cx)


# -- face tables ---------------------------------------------------------------


def break_face_tables(n):
    """Ranks and face tables of the break-category nerve, as the builder yields them."""
    C = build_break_category(n)
    levels = [faces for _, faces, _ in _nerve_levels(C)]
    return [C.n_objects, *map(len, levels)], levels


def with_run(levels, k, x, run):
    """``levels`` with run x of degree k replaced by ``run``."""
    planted = list(levels)
    planted[k - 1] = [*levels[k - 1][:x], run, *levels[k - 1][x + 1 :]]
    return planted


def test_swapping_two_faces_of_any_run_fails_the_simplicial_identities():
    ranks, levels = break_face_tables(3)
    assert ranks == [4, 16, 12]
    ChainComplex.simplicial(ranks, levels)
    swaps = 0
    for k, level in enumerate(levels, 1):
        for x, run in enumerate(level):
            for a, b in combinations(range(k + 1), 2):
                swapped = list(run)
                swapped[a], swapped[b] = run[b], run[a]
                with pytest.raises(ContractError, match=r"d_\d d_\d != "):
                    ChainComplex.simplicial(ranks, with_run(levels, k, x, tuple(swapped)))
                swaps += 1
    assert swaps == 16 + 3 * 12


@pytest.mark.parametrize(
    "plant, reason",
    [
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, (0, 6, 16))), "ints in", id="id-out-of-range"),
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, (0, 6, -1))), "ints in", id="negative-id"),
        pytest.param(lambda r, lv: (r, with_run(lv, 1, 0, (True, 0))), "ints in", id="bool-id"),
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, (0, 6, 12.0))), "ints in", id="float-id"),
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, (0, 6))), "distinct", id="short-run"),
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, (0, 6, 12, 13))), "distinct", id="long-run"),
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, (0, 6, 6))), "distinct", id="repeated-id"),
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, (0, 6, 12, 12))), "distinct", id="long-run-repeating"),
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, [0, 6, 12])), "tuples", id="run-not-a-tuple"),
        pytest.param(lambda r, lv: (r, with_run(lv, 2, 0, None)), "tuples", id="run-none"),
        pytest.param(lambda r, lv: (r, [lv[0], lv[1][:-1]]), "tuples", id="one-run-short"),
        pytest.param(lambda r, lv: (r, [lv[0], lv[1] + lv[1][:1]]), "tuples", id="one-run-over"),
        pytest.param(lambda r, lv: (r, [lv[0], None]), "tuples", id="level-none"),
        pytest.param(lambda r, lv: (r, lv[:1]), "boundaries", id="level-missing"),
        pytest.param(lambda r, lv: (r, [lv[0], [run[0] for run in lv[1]]]), "tuples", id="runs-not-tuples"),
        pytest.param(lambda r, lv: ([4, 16.0, 12], lv), "ranks", id="float-rank"),
    ],
)
def test_face_table_planted_faults_are_contract_errors(plant, reason):
    ranks, levels = plant(*break_face_tables(3))
    with pytest.raises(ContractError, match=reason):
        ChainComplex.simplicial(ranks, levels)


def test_an_empty_face_level_is_a_zero_module():
    cx = ChainComplex.simplicial([2, 0, 0], [[], []])
    assert cx.boundary_columns(1) == cx.boundary_columns(2) == []
    assert homology(cx) == (HomologyGroup(2), HomologyGroup(0), HomologyGroup(0))


def face_table_complex(model, n):
    """The complex ``homology --model`` builds, or the regular orbit complex."""
    if model == "orbit":
        q = symmetric_order_quotient(default_labels(n), "regular")
        return nerve_orbit_complex(q.category, q.action)[0]
    M = MODELS[model](n)
    return M.order_complex() if isinstance(M, Poset) else nerve_complex(M)


@pytest.mark.parametrize(
    "model, n",
    [("en", n) for n in range(1, 6)]
    + [(m, n) for m in ("quotient", "orbit", "r-poset", "chain-poset", "rplus-poset") for n in range(1, 5)],
)
def test_face_tables_agree_with_their_dict_columns(model, n):
    # the dict route, with its multiplication check, is the oracle
    cx = face_table_complex(model, n)
    columns = [cx.boundary_columns(k) for k in range(1, cx.top_degree + 1)]
    for k, level in enumerate(columns, 1):
        assert set(map(len, level)) <= {k + 1}
    assert homology(cx) == homology(ChainComplex(cx.ranks, columns))
