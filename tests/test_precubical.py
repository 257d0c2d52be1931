import itertools
import json
import random

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
    _restrict,
    accessible_part,
    complex_from_cells,
    compute_altitude,
    is_altitude_labeling,
    is_non_self_linked,
    length_covering,
    pullback,
    quotient_by_automorphisms,
    serial_wedge,
    validate_complex,
)

from test_complexes import all_faces, build_wedge_cube


def disjoint_union(K: PrecubicalComplex, L: PrecubicalComplex) -> PrecubicalComplex:
    """K's cells, then L's, in each dimension, labelled "L:..." and "R:...",
    with no base."""
    sides = {"L": K, "R": L}
    return complex_from_cells(
        [
            [(s, c) for s, M in sides.items() for c in M.cells_of_dim(d)]
            for d in range(max(K.max_dim, L.max_dim) + 1)
        ],
        lambda c, i, eps: (c[0], sides[c[0]].face(c[1], i, eps)),
        lambda c: f"{c[0]}:{sides[c[0]].label(c[1])}",
    )


def with_base(K: PrecubicalComplex, init_label: str, final_label: str) -> PrecubicalComplex:
    """K with the base running between the vertices of the two labels."""
    base = (K.cell_of_label(init_label), K.cell_of_label(final_label))
    return complex_from_cells(
        [K.cells_of_dim(d) for d in range(K.max_dim + 1)], K.face, K.label, base
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


def test_altitude_is_searched_once_and_each_caller_gets_a_copy():
    sq = build_standard_cube(2)
    first = compute_altitude(sq)
    first[(0, 0)] = 7
    second = compute_altitude(sq)
    assert second[(0, 0)] == 0 and second is not first
    z = build_final_complex(2)
    assert compute_altitude(z) is None and compute_altitude(z) is None


def test_altitude_absent_on_final_complex():
    # the loop edge would force alt(z0) = alt(z0) + 1
    assert compute_altitude(build_final_complex(2)) is None


def test_altitude_absent_when_the_loop_lies_off_the_base_component():
    # the square holds the base and has an altitude; the final edge beside it does not
    K = disjoint_union(build_standard_cube(2), build_final_complex(1))
    assert compute_altitude(with_base(K, "L:00", "L:11")) is None


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


def test_restricting_to_a_cell_set_that_is_not_face_closed_is_a_contract_error():
    sq = build_standard_cube(2)
    keep = set(sq.cells()) - {sq.cell_of_label("00")}
    with pytest.raises(ContractError, match="is not a cell of dimension 0"):
        _restrict(sq, keep)


def test_cell_builder_rejects_a_face_outside_the_layer_below():
    # an edge 0 -> 1 whose upper face is the vertex 2, which is not listed
    with pytest.raises(ContractError, match=r"d\^1_1 of 'e' is not a cell of dimension 0"):
        complex_from_cells([[0, 1], ["e"]], lambda c, i, eps: 2 * eps, str)


def test_cell_builder_rejects_a_base_item_outside_layer_zero():
    layers = [[0, 1], ["e"]]
    with pytest.raises(ContractError, match="is not a pair of vertices"):
        complex_from_cells(layers, lambda c, i, eps: eps, str, (0, "e"))
    with pytest.raises(ContractError, match="is not a pair of vertices"):
        with_base(build_standard_cube(1), "0", "*")
    assert complex_from_cells(layers, lambda c, i, eps: eps, str, (0, 1)).base == ((0, 0), (0, 1))


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
    # one cube per dimension up to 13: the 3^13 canonical-map images are not built
    z = build_final_complex(13)
    with pytest.raises(ResourceCapError):
        is_non_self_linked(z)
    assert z._maps is None


STAR = "*"  # a free coordinate of a standard-cube cell


def canonical_map_by_faces(K: PrecubicalComplex, cell) -> tuple:
    """The canonical map of a cell by its definition, the 3^d scan: each
    standard-cube cell, in ``itertools.product((0, 1, STAR))`` order, goes to
    the mixed face of its fixed coordinates.  The oracle of ``canonical_maps``."""
    return tuple(
        K.mixed_face(cell, [(i, v) for i, v in enumerate(values, start=1) if v != STAR])
        for values in itertools.product((0, 1, STAR), repeat=cell[0])
    )


def first_self_linked_by_scan(K: PrecubicalComplex):
    """The first cell in (dimension, index) order whose map by the scan
    repeats an image, or None: the oracle of ``is_non_self_linked``."""
    for cell in K.cells():
        images = canonical_map_by_faces(K, cell)
        if len(set(images)) < len(images):
            return cell
    return None


def test_canonical_maps_and_non_self_linkedness_equal_the_scan():
    rng = random.Random(29)
    named = (
        [build_standard_cube(n) for n in range(5)]
        + [build_ordered_cover(n).complex for n in range(5)]
        + [build_final_complex(n) for n in range(4)]
        + [build_final_covering(n)[0] for n in range(5)]
    )
    linked = []
    for K in named + [random_bipointed(rng) for _ in range(60)]:
        maps = K.canonical_maps()
        assert maps is K.canonical_maps()  # built once and kept
        assert [len(rows) for rows in maps] == list(K.dims)
        for d, k in K.cells():
            assert maps[d][k] == canonical_map_by_faces(K, (d, k))
            assert set(maps[d][k]) == all_faces(K, (d, k))
        report = is_non_self_linked(K)
        assert report.cell == first_self_linked_by_scan(K)
        assert report.ok == (report.cell is None)
        if not report.ok:
            linked.append(K.label(report.cell))
    # the final complexes and the coverings from length 2 on are self-linked,
    # at their first edge and their first square; the seed adds more of both
    assert linked[:6] == ["z1"] * 3 + ["z2_0"] * 3
    assert 6 < len(linked) < 6 + 60


# -- iterated faces ------------------------------------------------------------------


def test_iterated_face_initial_vertex_of_square():
    sq = build_standard_cube(2)
    top = sq.cell_of_label("**")
    assert sq.label(sq.mixed_face(top, [(1, 0), (2, 0)])) == "00"
    assert sq.label(sq.mixed_face(top, [(1, 1), (2, 1)])) == "11"


def test_iterated_face_on_final_covering():
    zt, _ = build_final_covering(3)
    top = zt.cell_of_label("z2_0")
    assert zt.label(zt.mixed_face(top, [(1, 1), (2, 1)])) == "z0_2"


def test_iterated_face_on_ordered_cover():
    cover = build_ordered_cover(2)
    square = cover.complex.cell_of_label("(|a<b|)")
    got = cover.complex.mixed_face(square, [(2, 0)])
    assert cover.complex.label(got) == "(|a|b)"


def test_iterated_face_out_of_range():
    sq = build_standard_cube(2)
    with pytest.raises(ContractError):
        sq.mixed_face(sq.cell_of_label("**"), [(3, 0)])


# -- pullbacks ------------------------------------------------------------------------


def test_pullback_over_final_along_identity_is_isomorphic():
    sq = build_standard_cube(2)
    z = build_final_complex(2)
    p = unique_map_to_final(sq, z)
    q = PrecubicalMap.identity(z)
    P, proj1, proj2 = pullback(p, q)
    assert P.dims == sq.dims
    assert proj1.is_bijective and proj1.is_bipointed


def test_pullback_of_cover_projection_with_itself():
    cover = build_ordered_cover(2)
    p, _, _ = cover.projection()
    P, proj1, proj2 = pullback(p, p)
    assert P.dims[2] == 4  # both squares map to the top cube of the covering
    assert validate_complex(P) == []
    for cell in P.cells():
        assert p(proj1(cell)) == p(proj2(cell))


def test_pullback_where_no_top_cells_meet_drops_those_dimensions():
    # two edges of the square out of 00, one along each axis, meet only at 00
    e, sq = build_standard_cube(1), build_standard_cube(2)

    def edge(end: str, name: str) -> PrecubicalMap:
        vertices = [sq.cell_of_label(v)[1] for v in ("00", end)]
        return PrecubicalMap(e, sq, [vertices, [sq.cell_of_label(name)[1]]])

    P, proj1, proj2 = pullback(edge("01", "0*"), edge("10", "*0"))
    assert P.dims == (1,) and P.label((0, 0)) == "(0,0)"
    assert proj1((0, 0)) == proj2((0, 0)) == e.base[0]


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
    assert proj.is_bijective


def test_quotient_of_cover_by_symmetric_group():
    # quotient_by_automorphisms does not validate Q; these are the pins
    for n, dims in ((1, (2, 1)), (2, (3, 2, 1)), (3, (4, 3, 2, 1)), (4, (5, 4, 3, 2, 1))):
        cover = build_ordered_cover(n)
        Q, proj = quotient_by_automorphisms(cover.complex, cover.symmetric_group())
        assert Q.dims == dims
        assert validate_complex(Q) == []


def test_quotient_rejects_a_generator_that_does_not_commute_with_faces():
    cover = build_ordered_cover(3)
    K = cover.complex
    # swap the base vertices and fix every other cell: a bijection K -> K,
    # but the edges out of the initial vertex no longer start there, so no
    # such map, and so no such generator, can be built
    init, final = (cell[1] for cell in K.base)
    vertices = list(range(K.dims[0]))
    vertices[init], vertices[final] = final, init
    with pytest.raises(ContractError, match="does not commute with faces"):
        PrecubicalMap(K, K, [vertices] + [list(range(c)) for c in K.dims[1:]])


def test_quotient_rejects_generators_that_are_not_bijections_of_k():
    # sending both edges of two disjoint edges onto the first commutes with faces
    K = disjoint_union(build_standard_cube(1), build_standard_cube(1))
    onto_left = [
        [K.cell_of_label("L:" + K.label((d, k)).split(":")[1])[1] for k in range(count)]
        for d, count in enumerate(K.dims)
    ]
    collapse = PrecubicalMap(K, K, onto_left)
    with pytest.raises(ContractError, match="not bijective"):
        quotient_by_automorphisms(K, [collapse])
    K = build_ordered_cover(2).complex
    other = build_ordered_cover(2).complex
    with pytest.raises(ContractError, match="maps K -> K"):
        quotient_by_automorphisms(K, [PrecubicalMap.identity(other)])


def test_quotient_by_no_generators_is_identity():
    cover = build_ordered_cover(2)
    Q, proj = quotient_by_automorphisms(cover.complex, [])
    assert Q.dims == cover.complex.dims
    assert proj.is_bijective and proj.is_bipointed


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


def test_from_json_rejects_text_that_is_not_json():
    # undecodable bytes are not JSON either
    for text in ("nope", b"\xff"):
        with pytest.raises(StructuralError, match="not JSON"):
            PrecubicalComplex.from_json(text)


def test_from_json_rejects_an_argument_that_is_not_text():
    with pytest.raises(StructuralError, match="must be a string"):
        PrecubicalComplex.from_json(5)


@pytest.mark.parametrize(
    "assignment",
    [
        pytest.param([[0.7, 1.2], [0.0]], id="float-entries"),
        pytest.param([[0, 1.0], [0]], id="integral-float-entry"),
        pytest.param([[True, 1], [0]], id="bool-entry"),
        pytest.param([[0, "1"], [0]], id="str-entry"),
        pytest.param([[0, 1], None], id="none-layer"),
        pytest.param([[0, 1], 0], id="int-layer"),
    ],
)
def test_map_rejects_assignment_entries_that_are_not_ints(assignment):
    sq = build_standard_cube(1)
    with pytest.raises(StructuralError, match="assignment"):
        PrecubicalMap(sq, sq, assignment)


@pytest.mark.parametrize(
    "base, faces",
    [
        pytest.param((True, 1), {(1, 0, 1, 0): 0, (1, 0, 1, 1): 1}, id="bool-base"),
        pytest.param((0, 1.0), {(1, 0, 1, 0): 0, (1, 0, 1, 1): 1}, id="float-base"),
        pytest.param((True, 1.0), {(1, 0, 1, 0): 0, (1, 0, 1, 1): 1}, id="bool-and-float-base"),
        pytest.param(("0", 1), {(1, 0, 1, 0): 0, (1, 0, 1, 1): 1}, id="str-base"),
        pytest.param((0, 1), {(1, 0, 1, 0): 0.0, (1, 0, 1, 1): 1}, id="float-face"),
        pytest.param((0, 1), {(1, 0, 1, 0): 0, (1, 0, 1, 1): True}, id="bool-face"),
    ],
)
def test_complex_rejects_indices_that_are_not_ints(base, faces):
    with pytest.raises(StructuralError):
        PrecubicalComplex([["0", "1"], ["*"]], faces, base)


@pytest.mark.parametrize("case", ["none-labels", "none-faces", "int-base", "none-assignment"])
def test_malformed_containers_are_structural_errors(case):
    sq = build_standard_cube(1)
    labels = [[sq.label((d, k)) for k in range(sq.dims[d])] for d in range(sq.max_dim + 1)]
    faces = {(d, k, i, eps): target for d, k, i, eps, target in sq.face_entries()}
    build = {
        "none-labels": lambda: PrecubicalComplex(None, {}),
        "none-faces": lambda: PrecubicalComplex(labels, None),
        "int-base": lambda: PrecubicalComplex(labels, faces, 5),
        "none-assignment": lambda: PrecubicalMap(sq, sq, None),
    }[case]
    with pytest.raises(StructuralError, match=case.split("-")[1]):
        build()


def refusal_by_slots(source, target, assign):
    """The message of the first face slot, in ``face_slots`` order, where the
    assignment does not commute with faces, or None: the oracle of the row
    check of ``PrecubicalMap``."""
    for d, k, i, eps, face in source.face_entries():
        expected = (d - 1, assign[d - 1][face])
        got = target.face((d, assign[d][k]), i, eps)
        if expected != got:
            return (
                "map does not commute with faces: "
                f"f(d^{eps}_{i} {source.label((d, k))!r}) = "
                f"{target.label(expected)!r} but d^{eps}_{i} f = {target.label(got)!r}"
            )
    return None


def test_map_refusal_names_the_first_slot_that_fails():
    # every single-entry change of an automorphism of the cover is refused
    # as the slot-by-slot scan refuses it
    cover = build_ordered_cover(3)
    K = cover.complex
    moved = [[cover.cell_of(c.act({"a": "b", "b": "c", "c": "a"}))[1] for c in layer] for layer in cover.cells]
    for d, k in K.cells():
        for other in range(K.dims[d]):
            assign = [list(layer) for layer in moved]
            assign[d][k] = other
            want = refusal_by_slots(K, K, assign)
            if want is None:
                assert other == moved[d][k]
                continue
            with pytest.raises(ContractError) as refusal:
                PrecubicalMap(K, K, assign)
            assert str(refusal.value) == want
    # those all fail at a slot d^eps_1; a copy of the top cell of the 3-cube
    # whose faces differ from the top's at some slots fails at the first
    cube = build_standard_cube(3)
    labels = [[cube.label(c) for c in cube.cells_of_dim(d)] for d in range(4)]
    faces = {(d, k, i, eps): face for d, k, i, eps, face in cube.face_entries()}
    slots = [(i, eps) for i in (1, 2, 3) for eps in (0, 1)]
    for size in range(1, len(slots) + 1):
        for wrong in itertools.combinations(slots, size):
            copy = {(3, 1, i, eps): faces[(3, 0, i, eps)] for i, eps in slots}
            copy.update({(3, 1, i, eps): (faces[(3, 0, i, eps)] + 1) % 6 for i, eps in wrong})
            T = PrecubicalComplex(labels[:3] + [["***", "copy"]], {**faces, **copy})
            assign = [list(range(count)) for count in cube.dims[:3]] + [[1]]
            want = refusal_by_slots(cube, T, assign)
            assert want.startswith("map does not commute with faces: f(d^{1}_{0} ".format(*wrong[0]))
            with pytest.raises(ContractError) as refusal:
                PrecubicalMap(cube, T, assign)
            assert str(refusal.value) == want


def test_map_violations_detected():
    edge = build_standard_cube(1)
    z = build_final_complex(1)
    fine = PrecubicalMap(edge, z, [[0, 0], [0]])  # both vertices hit z0
    assert fine((0, 1)) == fine((0, 0)) == (0, 0)
    # swapping the ends of the edge and keeping the edge breaks d^0 and d^1
    with pytest.raises(ContractError) as refusal:
        PrecubicalMap(edge, edge, [[1, 0], [0]])
    assert str(refusal.value) == "map does not commute with faces: f(d^0_1 '*') = '1' but d^0_1 f = '0'"
    z2 = build_final_complex(2)
    with pytest.raises(ContractError):
        unique_map_to_final(z2, build_final_complex(1))


def test_dot_export_lists_vertices_and_edges():
    dot = build_standard_cube(1).to_dot()
    assert dot.count("->") == 1
    assert 'label="0"' in dot and 'label="1"' in dot


# -- seeded properties on random bipointed complexes ----------------------------------------


def random_bipointed(rng: random.Random, depth: int = 2, loops: bool = True) -> PrecubicalComplex:
    """A serial wedge of standard cubes, wedge cubes, final coverings and, with
    ``loops``, final complexes, whose loops leave it without an altitude."""
    kinds = ["cube", "wedge", "covering"] + ["final"] * loops + ["serial"] * (depth > 0)
    kind = rng.choice(kinds)
    if kind == "cube":
        return build_standard_cube(rng.randint(0, 3))
    if kind == "wedge":
        return build_wedge_cube([rng.randint(1, 2) for _ in range(rng.randint(1, 3))])
    if kind == "covering":
        return build_final_covering(rng.randint(0, 3))[0]
    if kind == "final":
        return build_final_complex(rng.randint(0, 2))
    return serial_wedge(*(random_bipointed(rng, depth - 1, loops) for _ in range(2)))


def has_loop_edge(K: PrecubicalComplex) -> bool:
    """An edge with equal endpoints: in the family above, exactly the mark of
    a final complex of positive dimension."""
    return any(K.initial_vertex(e) == K.final_vertex(e) for e in K.cells_of_dim(1))


def test_altitude_of_random_complexes_exists_exactly_without_loop_edges():
    # the loops of a final complex are the one obstruction in this family
    rng = random.Random(17)
    absent = 0
    for _ in range(120):
        K = random_bipointed(rng)
        looped = has_loop_edge(K)
        alt = compute_altitude(K)
        assert (alt is None) == looped
        if alt is not None:
            assert is_altitude_labeling(K, alt) and alt[K.base[0]] == 0
        absent += looped
    assert 0 < absent < 120  # the seed reaches both answers


def test_pullback_squares_commute_on_random_complexes():
    # each side goes into one final covering through its altitude shifted by a
    # random offset, so the images often meet in no cell of the top dimensions
    rng = random.Random(8)
    dropped = 0
    for _ in range(120):
        K, L = (random_bipointed(rng, loops=False) for _ in range(2))
        alts = [compute_altitude(M) for M in (K, L)]
        shifts = [rng.randint(0, 2) for _ in range(2)]
        height = max(a[c] + c[0] + s for M, a, s in zip((K, L), alts, shifts) for c in M.cells())
        Z, _ = build_final_covering(height)
        p, q = (
            PrecubicalMap(M, Z, [[a[(d, k)] + s for k in range(n)] for d, n in enumerate(M.dims)])
            for M, a, s in zip((K, L), alts, shifts)
        )
        P, proj1, proj2 = pullback(p, q)
        assert validate_complex(P) == []
        for cell in P.cells():
            assert p(proj1(cell)) == q(proj2(cell))
        # every pair that meets is a cell of P, in each dimension up to the smaller top
        for d in range(min(K.max_dim, L.max_dim) + 1):
            meet = [(a, b) for a in K.cells_of_dim(d) for b in L.cells_of_dim(d) if p(a) == q(b)]
            cells = P.cells_of_dim(d) if d <= P.max_dim else []
            assert [(proj1(c), proj2(c)) for c in cells] == meet
        dropped += P.max_dim < min(K.max_dim, L.max_dim)
        if P.base is not None:
            assert (proj1(P.base[0]), proj2(P.base[0])) == (K.base[0], L.base[0])
    assert dropped > 0  # the seed reaches pullbacks with empty top dimensions


def test_length_coverings_of_random_complexes_have_altitudes_and_commuting_projections():
    rng = random.Random(11)
    for _ in range(80):
        K = random_bipointed(rng)
        lc = length_covering(K, rng.randint(0, 4))
        assert is_altitude_labeling(lc.complex, lc.altitude)
        assert validate_complex(lc.complex) == []


def test_accessible_part_is_idempotent_on_random_complexes():
    # half the samples sit beside a second complex whose cells are all inaccessible
    rng = random.Random(5)
    shrunk = 0
    for _ in range(80):
        K = random_bipointed(rng)
        if rng.random() < 0.5:
            init, final = (f"L:{K.label(v)}" for v in K.base)
            K = with_base(disjoint_union(K, random_bipointed(rng, 1)), init, final)
        once = accessible_part(K)
        assert accessible_part(once).to_json_dict() == once.to_json_dict()
        shrunk += once.dims != K.dims
    assert shrunk > 0
