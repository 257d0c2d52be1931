import json

import pytest

from dicube.complexes import (
    build_final_complex,
    build_final_covering,
    build_ordered_cover,
    build_standard_cube,
    unique_map_to_final,
)
from dicube.errors import ContractError, ResourceCapError, StructuralError
from dicube.precubical import (
    PrecubicalComplex,
    PrecubicalMap,
    accessible_part,
    compute_altitude,
    disjoint_union,
    is_altitude_labeling,
    is_non_self_linked,
    length_covering,
    pullback,
    quotient_by_automorphisms,
    validate_complex,
    with_base,
)


def broken_square():
    """Standard square with one lower-face entry of an edge redirected."""
    sq = build_standard_cube(2)
    faces = {(d, k, i, eps): target for d, k, i, eps, target in sq.face_entries()}
    labels = [[sq.label((d, k)) for k in range(sq.dims[d])] for d in range(sq.max_dim + 1)]
    edge = sq.cell_of_label("0*")
    wrong = sq.cell_of_label("01")[1]
    assert faces[(1, edge[1], 1, 0)] == sq.cell_of_label("00")[1]
    faces[(1, edge[1], 1, 0)] = wrong
    return PrecubicalComplex(labels, faces, (sq.base[0][1], sq.base[1][1]))


def test_validate_standard_square_clean():
    assert validate_complex(build_standard_cube(2)) == []


def test_validate_broken_square_single_violation():
    report = validate_complex(broken_square())
    assert len(report) == 1
    v = report[0]
    assert (v.i, v.j) == (1, 2) and (v.eps, v.eta) == (0, 0)


def test_validate_final_covering():
    zt, _ = build_final_covering(3)
    assert validate_complex(zt) == []


def test_missing_face_entry_is_structural():
    with pytest.raises(StructuralError):
        PrecubicalComplex([["v"], ["e"]], {(1, 0, 1, 0): 0}, None)


def test_duplicate_labels_rejected():
    with pytest.raises(StructuralError):
        PrecubicalComplex([["v", "v"]], {}, None)


# -- altitude -----------------------------------------------------------------


def test_altitude_of_square_counts_ones():
    sq = build_standard_cube(2)
    alt = compute_altitude(sq)
    for cell in sq.cells():
        assert alt[cell] == sq.label(cell).count("1")
    assert is_altitude_labeling(sq, alt)


def test_altitude_absent_on_final_complex():
    # the loop edge would force alt(z0) = alt(z0) + 1
    assert compute_altitude(build_final_complex(2)) is None


def test_altitude_of_final_covering():
    zt, expected = build_final_covering(3)
    alt = compute_altitude(zt)
    assert alt == expected


def test_altitude_preserved_by_bipointed_maps():
    cover = build_ordered_cover(3)
    p, zt, _ = cover.projection()
    assert p.is_bipointed
    alt_y = compute_altitude(cover.complex)
    alt_z = compute_altitude(zt)
    for cell in cover.complex.cells():
        assert alt_z[p(cell)] == alt_y[cell]


# -- accessibility -------------------------------------------------------------


def bounded_final_cover(n):
    """Pairs (z^k, h) with 0 <= h and h + k <= n, before accessibility pruning."""
    labels = [[f"z{k}@{h}" for h in range(n - k + 1)] for k in range(n + 1)]
    faces = {}
    for k in range(1, n + 1):
        for h in range(n - k + 1):
            for i in range(1, k + 1):
                for eps in (0, 1):
                    faces[(k, h, i, eps)] = h + eps
    return PrecubicalComplex(labels, faces, (0, n))


def test_accessible_part_of_bounded_cover_keeps_everything():
    K = bounded_final_cover(3)
    acc = accessible_part(K)
    assert acc.dims == (4, 3, 2, 1)


def test_accessible_part_of_cube_is_cube():
    sq = build_standard_cube(2)
    assert accessible_part(sq).dims == sq.dims


def test_accessible_part_disconnected_base_is_empty():
    two = disjoint_union(build_standard_cube(1), build_standard_cube(1))
    K = with_base(two, "L:0", "R:1")
    assert accessible_part(K).dims == ()


def test_accessible_part_idempotent_and_face_closed():
    K = bounded_final_cover(2)
    once = accessible_part(K)
    twice = accessible_part(once)
    assert once.dims == twice.dims
    assert [once.label(c) for c in once.cells()] == [twice.label(c) for c in twice.cells()]
    for d in range(1, once.max_dim + 1):
        for cell in once.cells_of_dim(d):
            for i in range(1, d + 1):
                for eps in (0, 1):
                    once.face(cell, i, eps)  # total by construction


# -- non-self-linkedness ----------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_standard_cubes_non_self_linked(n):
    assert is_non_self_linked(build_standard_cube(n)).ok


def test_final_complex_self_linked_with_counterexample():
    z = build_final_complex(2)
    report = is_non_self_linked(z)
    assert not report.ok
    assert z.label(report.cell) == "z1"  # both endpoints of the loop edge collide


def test_ordered_cover_non_self_linked():
    assert is_non_self_linked(build_ordered_cover(2).complex).ok


def test_non_self_linked_dimension_cap():
    with pytest.raises(ResourceCapError):
        is_non_self_linked(build_standard_cube(3), dim_cap=2)


# -- iterated faces ------------------------------------------------------------------


def test_iterated_face_initial_vertex_of_square():
    sq = build_standard_cube(2)
    top = sq.cell_of_label("**")
    assert sq.label(sq.iterated_face(top, {1, 2}, 0)) == "00"
    assert sq.label(sq.iterated_face(top, {1, 2}, 1)) == "11"


def test_iterated_face_on_final_covering():
    zt, _ = build_final_covering(3)
    top = zt.cell_of_label("z2_0")
    assert zt.label(zt.iterated_face(top, {1, 2}, 1)) == "z0_2"


def test_iterated_face_on_ordered_cover():
    cover = build_ordered_cover(2)
    square = cover.complex.cell_of_label("(|a<b|)")
    got = cover.complex.iterated_face(square, {2}, 0)
    assert cover.complex.label(got) == "(|a|b)"


def test_iterated_face_out_of_range():
    sq = build_standard_cube(2)
    with pytest.raises(ContractError):
        sq.iterated_face(sq.cell_of_label("**"), {3}, 0)


# -- pullbacks ------------------------------------------------------------------------


def test_pullback_over_final_along_identity_is_isomorphic():
    sq = build_standard_cube(2)
    z = build_final_complex(2)
    p = unique_map_to_final(sq, z)
    q = PrecubicalMap.identity(z)
    P, proj1, proj2 = pullback(p, q)
    assert P.dims == sq.dims
    assert proj1.is_isomorphism() and proj1.is_bipointed


def test_pullback_of_cover_projection_with_itself():
    cover = build_ordered_cover(2)
    p, _, _ = cover.projection()
    P, proj1, proj2 = pullback(p, p)
    assert P.dims[2] == 4  # both squares map to the top cube of the covering
    assert validate_complex(P) == []
    for cell in P.cells():
        assert p(proj1(cell)) == p(proj2(cell))
    assert not proj1.violations() and not proj2.violations()


def test_pullback_of_vertex_complexes_is_product():
    a = PrecubicalComplex([["p", "q"]], {}, None)
    b = PrecubicalComplex([["r", "s", "t"]], {}, None)
    m = PrecubicalComplex([["m"]], {}, None)
    pa = PrecubicalMap(a, m, [[0, 0]])
    pb = PrecubicalMap(b, m, [[0, 0, 0]])
    P, _, _ = pullback(pa, pb)
    assert P.dims == (6,)


# -- quotients ---------------------------------------------------------------------------


def test_quotient_by_trivial_group_is_identity():
    sq = build_standard_cube(2)
    Q, proj = quotient_by_automorphisms(sq, [PrecubicalMap.identity(sq)])
    assert Q.dims == sq.dims
    assert proj.is_isomorphism()


def test_quotient_of_cover_by_symmetric_group():
    for n, dims in ((2, (3, 2, 1)), (3, (4, 3, 2, 1))):
        cover = build_ordered_cover(n)
        Q, proj = quotient_by_automorphisms(cover.complex, cover.symmetric_group())
        assert Q.dims == dims
        assert validate_complex(Q) == []
        assert not proj.violations()


def test_quotient_requires_closure():
    cover = build_ordered_cover(3)
    group = cover.symmetric_group()
    # drop a non-identity element: no longer closed under composition
    with pytest.raises(ContractError):
        quotient_by_automorphisms(cover.complex, [group[0], group[1], group[2]])


def test_quotient_by_free_swap_action():
    # swapping two disjoint edges acts freely on every cell
    two = disjoint_union(build_standard_cube(1), build_standard_cube(1))
    swap = {"L:0": "R:0", "L:1": "R:1", "L:*": "R:*", "R:0": "L:0", "R:1": "L:1", "R:*": "L:*"}
    assign = [
        [two.cell_of_label(swap[two.label((0, k))])[1] for k in range(two.dims[0])],
        [two.cell_of_label(swap[two.label((1, k))])[1] for k in range(two.dims[1])],
    ]
    g = PrecubicalMap(two, two, assign)
    Q, proj = quotient_by_automorphisms(two, [PrecubicalMap.identity(two), g])
    assert Q.dims == (2, 1)
    assert validate_complex(Q) == []


# -- length covering -----------------------------------------------------------------------


def test_length_covering_of_final_complex():
    lc = length_covering(build_final_complex(3), 3)
    assert lc.complex.dims == (4, 3, 2, 1)
    assert validate_complex(lc.complex) == []
    assert not lc.projection.violations()
    assert is_altitude_labeling(lc.complex, lc.altitude)


def test_length_covering_of_edge():
    lc = length_covering(build_standard_cube(1), 1)
    assert lc.complex.dims == (2, 1)
    assert length_covering(build_standard_cube(1), 2).complex.dims == ()


def test_length_covering_respects_altitude_bound():
    lc = length_covering(build_standard_cube(2), 2)
    assert lc.complex.dims == build_standard_cube(2).dims


# -- serialization ----------------------------------------------------------------------------


def test_json_round_trip():
    zt, _ = build_final_covering(2)
    text = zt.to_json()
    back = PrecubicalComplex.from_json(text)
    assert back.dims == zt.dims
    assert back.to_json_dict()["faces"] == zt.to_json_dict()["faces"]
    assert back.to_json_dict()["base"] == {"init": 0, "final": 2}


def test_json_format_fields():
    data = build_standard_cube(1).to_json_dict()
    assert data["dims"] == [2, 1]
    assert data["faces"] == [
        {"dim": 1, "cell": 0, "i": 1, "eps": 0, "to": 0},
        {"dim": 1, "cell": 0, "i": 1, "eps": 1, "to": 1},
    ]
    assert data["base"] == {"init": 0, "final": 1}
    # canonical serialization is deterministic
    assert build_standard_cube(1).to_json() == build_standard_cube(1).to_json()


EDGE_FACES = [
    {"dim": 1, "cell": 0, "i": 1, "eps": 0, "to": 0},
    {"dim": 1, "cell": 0, "i": 1, "eps": 1, "to": 1},
]


@pytest.mark.parametrize(
    "data, match",
    [
        ({"dims": [2, 1], "faces": EDGE_FACES, "base": {"init": 0}}, "'final'"),
        ({"dims": [2, 1], "faces": EDGE_FACES, "base": [0, 1]}, "'base'"),
        ({"dims": ["a"]}, "'dims'"),
        ({"dims": [-1]}, "'dims'"),
        (
            {"dims": [2, 1], "faces": EDGE_FACES + [{"dim": 1, "cell": 1, "i": 1, "eps": 0, "to": 0}]},
            r"face entry \(1, 1, 1, 0\)",
        ),
        ({"dims": [2, 1], "faces": EDGE_FACES + [dict(EDGE_FACES[0], to=1)]}, "'faces'"),
        ({"dims": [2, 1], "faces": [{"dim": 1, "i": 1, "eps": 0, "to": 0}]}, "'cell'"),
        ({"dims": [2, 1], "faces": 5}, "'faces'"),
        ({"dims": [2, 1], "faces": [EDGE_FACES[0], dict(EDGE_FACES[1], to=True)]}, "'to'"),
        ([], "JSON object"),
    ],
)
def test_from_json_dict_rejects_malformed_input(data, match):
    with pytest.raises(StructuralError, match=match):
        PrecubicalComplex.from_json_dict(data)


def test_from_json_rejects_a_violated_precubical_identity():
    text = broken_square().to_json()
    with pytest.raises(StructuralError, match=r"precubical identity: cell 'c2_0': d\^0_1 d\^0_2"):
        PrecubicalComplex.from_json(text)


def test_map_violations_detected():
    sq = build_standard_cube(1)
    z = build_final_complex(1)
    bad = PrecubicalMap(sq, z, [[0, 0], [0]], check=False)
    assert not bad.violations()  # this one is fine: both vertices hit z0
    z2 = build_final_complex(2)
    with pytest.raises(ContractError):
        unique_map_to_final(z2, build_final_complex(1))


def test_dot_export_lists_vertices_and_edges():
    dot = build_standard_cube(1).to_dot()
    assert dot.count("->") == 1
    assert 'label="0"' in dot and 'label="1"' in dot
