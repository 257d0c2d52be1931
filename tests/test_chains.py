import itertools
import random

import pytest

from dicube.chains import (
    ChainOrder,
    CubeChain,
    chain_poset,
    enumerate_chains,
    face_swap,
)
from dicube.complexes import (
    build_final_complex,
    build_final_covering,
    build_ordered_cover,
    build_standard_cube,
)
from dicube.errors import ContractError
from dicube.orders import enumerate_orders
from dicube.precubical import serial_wedge
from test_categories import lt
from test_precubical import has_loop_edge, random_bipointed


def cover_chain(cover, *cell_labels):
    return CubeChain(tuple(cover.complex.cell_of_label(lab) for lab in cell_labels))


# -- enumeration -----------------------------------------------------------------


def test_chains_of_edge():
    K = build_standard_cube(1)
    chains = enumerate_chains(K)
    assert len(chains) == 1 and [d for d, _ in chains[0].cells] == [1]


def test_chains_of_square():
    K = build_standard_cube(2)
    chains = enumerate_chains(K)
    assert len(chains) == 3
    assert sorted([d for d, _ in c.cells] for c in chains) == [[1, 1], [1, 1], [2]]


def test_chains_of_ordered_cover_match_regular_orders():
    for n in (1, 2, 3):
        cover = build_ordered_cover(n)
        K = cover.complex
        chains = enumerate_chains(K)
        assert len(chains) == len(enumerate_orders(cover.ground, "regular"))
        start, stop = K.base
        for c in chains:
            # positive-dimensional cubes joined final vertex to initial vertex
            ends = [start] + [K.final_vertex(cell) for cell in c.cells]
            assert [K.initial_vertex(cell) for cell in c.cells] == ends[:-1]
            assert ends[-1] == stop and all(d > 0 for d, _ in c.cells)
            assert sum(d for d, _ in c.cells) == n


def test_chains_of_final_covering():
    zt, _ = build_final_covering(2)
    chains = enumerate_chains(zt)
    assert [c.text(zt) for c in chains] == ["z1_0;z1_1", "z2_0"]


def test_chain_altitudes_strictly_increase():
    cover = build_ordered_cover(3)
    for chain in enumerate_chains(cover.complex):
        alts = [cover.cover_cell(c).altitude for c in chain.cells]
        assert alts == sorted(alts) and len(set(alts)) == len(alts)


@pytest.mark.parametrize("n", [1, 2])
def test_chains_need_an_altitude_labeling(n):
    # the base vertex loops, so the chain set is infinite and no altitude exists
    z = build_final_complex(n)
    with pytest.raises(ContractError, match="altitude"):
        enumerate_chains(z)


def chains_by_walk(K):
    """Every run of positive-dimensional cells from the initial vertex to the
    final one, by a depth-first walk that tries the cells in index order at
    each vertex and records a run on reaching the final vertex: lexicographic
    order, with no altitude pruning."""
    start, stop = K.base
    steps = [cell for cell in K.cells() if cell[0] > 0]
    found = []

    def walk(vertex, prefix):
        if vertex == stop:
            found.append(prefix)
        for cell in steps:
            if K.initial_vertex(cell) == vertex:
                walk(K.final_vertex(cell), prefix + (cell,))

    walk(start, ())
    return found


def test_chains_of_random_complexes_match_the_walk_and_multiply_under_serial_wedge():
    rng = random.Random(23)
    for _ in range(40):
        K, L = (random_bipointed(rng, loops=False) for _ in range(2))
        counts = []
        for M in (K, L):
            chains = enumerate_chains(M)
            assert [c.cells for c in chains] == chains_by_walk(M)
            counts.append(len(chains))
        assert len(enumerate_chains(serial_wedge(K, L))) == counts[0] * counts[1]


def test_chains_of_random_complexes_with_a_final_complex_need_an_altitude():
    rng = random.Random(29)
    refused = 0
    for _ in range(80):
        K = random_bipointed(rng)
        if has_loop_edge(K):
            with pytest.raises(ContractError, match="altitude"):
                enumerate_chains(K)
            refused += 1
        else:
            assert [c.cells for c in enumerate_chains(K)] == chains_by_walk(K)
    assert refused > 0


# -- the chain order ----------------------------------------------------------------


def test_chain_leq_edge_pair_below_square():
    cover = build_ordered_cover(2)
    two_step = cover_chain(cover, "(|a|b)", "(a|b|)")
    square = cover_chain(cover, "(|a<b|)")
    order = ChainOrder(cover.complex)
    assert order.leq(two_step, square)
    assert not order.leq(square, two_step)


def test_chain_leq_reflexive_and_top_cubes_incomparable():
    cover = build_ordered_cover(2)
    sq1 = cover_chain(cover, "(|a<b|)")
    sq2 = cover_chain(cover, "(|b<a|)")
    order = ChainOrder(cover.complex)
    assert order.leq(sq1, sq1)
    assert not order.leq(sq1, sq2) and not order.leq(sq2, sq1)


def test_chain_order_contract_requires_altitude_and_injectivity():
    with pytest.raises(ContractError):
        ChainOrder(build_final_complex(1))  # no altitude labeling
    zt, _ = build_final_covering(2)
    with pytest.raises(ContractError):
        ChainOrder(zt)  # self-linked: the top cube pinches


def test_chain_poset_of_square():
    poset, chains = chain_poset(build_standard_cube(2))
    assert len(poset) == 3
    maxima = [i for i in range(len(poset)) if not any(lt(poset, i, j) for j in range(len(poset)))]
    minima = [i for i in range(len(poset)) if not any(lt(poset, j, i) for j in range(len(poset)))]
    assert len(maxima) == 1
    assert len(minima) == 2


def test_chain_poset_of_cover_two():
    # the two squares share all four boundary edges, so each edge chain sits
    # below both square chains: the 4-cycle
    cover = build_ordered_cover(2)
    poset, chains = chain_poset(cover.complex)
    assert len(poset) == 4
    maxima = [i for i in range(len(poset)) if not any(lt(poset, i, j) for j in range(len(poset)))]
    minima = [i for i in range(len(poset)) if not any(lt(poset, j, i) for j in range(len(poset)))]
    assert len(maxima) == 2 and len(minima) == 2
    for i in minima:
        above = [j for j in maxima if poset.leq[i] >> j & 1]
        assert len(above) == 2
    assert len(poset.covers()) == 4


def test_chain_order_poset_axioms():
    cover = build_ordered_cover(3)
    order = ChainOrder(cover.complex)
    chains = enumerate_chains(cover.complex)
    leq = {(i, j): order.leq(a, b) for i, a in enumerate(chains) for j, b in enumerate(chains)}
    for i in range(len(chains)):
        assert leq[(i, i)]
        for j in range(len(chains)):
            if leq[(i, j)] and leq[(j, i)]:
                assert i == j
            for k in range(len(chains)):
                if leq[(i, j)] and leq[(j, k)]:
                    assert leq[(i, k)]


# -- face swap --------------------------------------------------------------------------


def exhaustive_swap_solutions(p, q, V, W):
    """All (V', W') passing the symbolic identity, by brute force."""
    s = p + len(W)
    cube = build_standard_cube(s)
    top = (s, 0)
    out = []
    for vp in itertools.combinations(range(1, s + 1), len(V)):
        for wp in itertools.combinations(range(1, s + 1), len(W)):
            left = cube.mixed_face(cube.mixed_face(top, [(i, 0) for i in wp]), [(i, 1) for i in V])
            right = cube.mixed_face(cube.mixed_face(top, [(i, 1) for i in vp]), [(i, 0) for i in W])
            if left == right:
                out.append((frozenset(vp), frozenset(wp)))
    return out


def test_face_swap_trivial_case():
    assert face_swap(0, 0, set(), set()) == (frozenset(), frozenset())


def test_face_swap_unit_case_against_oracle():
    got = face_swap(1, 1, {1}, {1})
    solutions = exhaustive_swap_solutions(1, 1, {1}, {1})
    assert got in solutions


def test_face_swap_mixed_case_against_oracle():
    got = face_swap(2, 1, {1, 2}, {1})
    assert len(got[0]) == 2 and len(got[1]) == 1
    assert got in exhaustive_swap_solutions(2, 1, {1, 2}, {1})


def test_face_swap_all_small_cases_verified():
    checked = 0
    for p in range(0, 6):
        for q in range(0, 6 - p):
            for V in map(frozenset, _subsets(p)):
                for W in map(frozenset, _subsets(q)):
                    if p - len(V) != q - len(W):
                        continue
                    vp, wp = face_swap(p, q, V, W)
                    assert len(vp) == len(V) and len(wp) == len(W)
                    checked += 1
    assert checked > 50


def _subsets(n):
    items = range(1, n + 1)
    for r in range(n + 1):
        yield from itertools.combinations(items, r)


def test_face_swap_bad_arithmetic():
    with pytest.raises(ContractError):
        face_swap(2, 2, {1}, set())
    with pytest.raises(ContractError):
        face_swap(1, 1, {2}, {1})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_order_rows_match_the_pairwise_criterion(n):
    K = build_ordered_cover(n).complex
    order = ChainOrder(K)
    chains = enumerate_chains(K)
    for some in (chains, chains[::2]):  # every chain, and every other one
        pairwise = [sum(1 << j for j, b in enumerate(some) if order.leq(a, b)) for a in some]
        assert order.rows(some) == pairwise
