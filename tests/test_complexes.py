import ast
from functools import reduce
from math import comb, factorial
from pathlib import Path

import pytest

import dicube
from dicube.categories import build_break_category
from dicube.chains import face_swap
from dicube.complexes import (
    CoverCell,
    adjacent_transpositions,
    build_final_complex,
    build_final_covering,
    build_ordered_cover,
    build_standard_cube,
    default_labels,
    permutations_of,
    unique_map_to_final,
)
from dicube.errors import ContractError, ResourceCapError, StructuralError
from dicube.orders import order_keys
from dicube.posets import reachable
from dicube.precubical import (
    PrecubicalComplex,
    PrecubicalMap,
    compute_altitude,
    length_covering,
    serial_wedge,
    validate_complex,
)


# -- standard cubes -------------------------------------------------------------


def test_empty_cube_is_a_point():
    K = build_standard_cube(0)
    assert K.dims == (1,)
    assert K.base == ((0, 0), (0, 0))


def test_square_cell_counts():
    # oracle: 3^2 value tuples grouped by star count
    assert build_standard_cube(2).dims == (4, 4, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_counts_formula(n):
    K = build_standard_cube(n)
    assert K.dims == tuple(comb(n, d) * 2 ** (n - d) for d in range(n + 1))
    assert validate_complex(K) == []


def build_wedge_cube(dims):
    """Serial wedge of standard cubes of the given positive dimensions, each
    final vertex glued to the next initial one; the point for no dimensions."""
    return reduce(serial_wedge, [build_standard_cube(d) for d in dims or [0]])


def test_wedge_cube_counts_by_gluing_oracle():
    # oracle: sum the component counts, merging one vertex per junction
    parts = [build_standard_cube(1), build_standard_cube(2)]
    expected_vertices = sum(p.dims[0] for p in parts) - (len(parts) - 1)
    w = build_wedge_cube([1, 2])
    assert w.dims == (expected_vertices, 5, 1)
    assert validate_complex(w) == []
    alt = compute_altitude(w)
    assert alt[w.base[1]] == 3  # total length of the wedge


def test_wedge_altitudes_shift_by_component():
    w = build_wedge_cube([2, 1])
    alt = compute_altitude(w)
    assert alt[w.base[0]] == 0 and alt[w.base[1]] == 3


# -- the final complex -----------------------------------------------------------


def test_final_complex_counts_and_validity():
    z = build_final_complex(3)
    assert z.dims == (1, 1, 1, 1)
    assert validate_complex(build_final_complex(4)) == []


def test_unique_map_sends_everything_to_the_level_cube():
    sq = build_standard_cube(2)
    z = build_final_complex(2)
    f = unique_map_to_final(sq, z)
    assert f.is_bipointed
    assert all(f((0, k)) == (0, 0) for k in range(4))


# -- the covering of the final complex ----------------------------------------------


def test_final_covering_counts():
    zt, alt = build_final_covering(3)
    assert zt.dims == (4, 3, 2, 1)
    assert alt[zt.cell_of_label("z2_1")] == 1


def test_final_covering_zero_is_a_point():
    zt, _ = build_final_covering(0)
    assert zt.dims == (1,)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_final_covering_agrees_with_length_covering(n):
    # build_final_covering is the length covering of the final complex; the
    # oracle is the direct face rule: z{k}_{j} faces onto z{k-1}_{j+eps}
    labels = [[f"z{k}_{j}" for j in range(n - k + 1)] for k in range(n + 1)]
    faces = {
        (k, j, i, eps): j + eps
        for k in range(1, n + 1)
        for j in range(n - k + 1)
        for i in range(1, k + 1)
        for eps in (0, 1)
    }
    rule = PrecubicalComplex(labels, faces, (0, n))
    covering, altitude = build_final_covering(n)
    assert covering.dims == rule.dims
    cells = [[covering.cell_of_label(name) for name in layer] for layer in labels]
    iso = PrecubicalMap(rule, covering, [[cell[1] for cell in layer] for layer in cells])
    assert iso.is_bijective and iso.is_bipointed
    assert [[altitude[cell] for cell in layer] for layer in cells] == [list(range(n - k + 1)) for k in range(n + 1)]


def test_final_covering_face_formula():
    zt, _ = build_final_covering(3)
    cell = zt.cell_of_label("z3_0")
    for i in range(1, 4):
        for eps in (0, 1):
            assert zt.label(zt.face(cell, i, eps)) == f"z2_{eps}"


# -- the ordered cover ------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_ordered_cover_counts_formula(n):
    # oracle: choose actives, order them, split the rest
    cover = build_ordered_cover(n)
    expected = tuple(
        comb(n, k) * factorial(k) * 2 ** (n - k) for k in range(n + 1)
    )
    assert cover.complex.dims == expected
    assert validate_complex(cover.complex) == []


def test_ordered_cover_cap():
    with pytest.raises(ResourceCapError):
        build_ordered_cover(7)


def test_cover_cell_face_formulas():
    cell = CoverCell(frozenset(), ("a", "b"), frozenset())
    assert cell.face(2, 0) == CoverCell(frozenset(), ("a",), frozenset({"b"}))
    assert cell.face(2, 1) == CoverCell(frozenset({"b"}), ("a",), frozenset())
    assert cell.face(1, 0) == CoverCell(frozenset(), ("b",), frozenset({"a"}))


def test_cover_cell_text():
    assert CoverCell(frozenset("b"), ("a",), frozenset()).text() == "(b|a|)"
    assert CoverCell(frozenset(), ("b", "a"), frozenset()).text() == "(|b<a|)"


def test_projection_is_bipointed_and_valid():
    cover = build_ordered_cover(3)
    p, zt, _ = cover.projection()
    assert p.is_bipointed
    for d, layer in enumerate(cover.cells):
        for k, cc in enumerate(layer):
            assert zt.label(p((d, k))) == f"z{d}_{cc.altitude}"


def test_symmetric_group_fixes_base_vertices():
    cover = build_ordered_cover(2)
    for aut in cover.symmetric_group():
        assert aut(cover.complex.base[0]) == cover.complex.base[0]
        assert aut(cover.complex.base[1]) == cover.complex.base[1]


def test_action_is_a_right_action():
    # acting by t then by s equals acting by the product "s first": (c.t).s = c.(t o s),
    # on every cell of the n=3 cover
    cover = build_ordered_cover(3)
    sigmas = permutations_of(cover.ground)
    cells = [cell for layer in cover.cells for cell in layer]
    assert CoverCell(frozenset("a"), ("b", "c"), frozenset()) in cells
    for s in sigmas:
        for t in sigmas:
            ts = {a: t[s[a]] for a in cover.ground}
            for cell in cells:
                assert cell.act(t).act(s) == cell.act(ts)


@pytest.mark.parametrize(
    "sigma",
    [
        pytest.param({"a": "a", "b": "a"}, id="not-one-to-one"),
        pytest.param({"a": "b"}, id="misses-a-label"),
        pytest.param({"a": "a", "b": "c"}, id="not-onto-the-labels"),
        pytest.param({"a": ["b"], "b": "a"}, id="unhashable-image"),
        pytest.param(5, id="not-a-mapping"),
    ],
)
def test_act_by_a_map_that_is_not_a_permutation_is_a_contract_error(sigma):
    cell = CoverCell(frozenset("a"), ("b",), frozenset())
    with pytest.raises(ContractError):
        cell.act(sigma)


@pytest.mark.parametrize("n", range(5))
def test_permutations_of_lists_the_identity_first(n):
    # free-action, union-sigma and cover properness skip the first as the identity
    labels = default_labels(n)
    sigmas = permutations_of(labels)
    assert sigmas[0] == {a: a for a in labels}
    assert all(any(s[a] != a for a in labels) for s in sigmas[1:])


@pytest.mark.parametrize("n", range(5))
def test_adjacent_transpositions_generate_every_permutation(n):
    labels = default_labels(n)
    swaps = adjacent_transpositions(labels)
    assert len(swaps) == max(n - 1, 0)
    assert all(sorted(s) == sorted(s.values()) == sorted(labels) for s in swaps)
    assert all(sum(s[a] != a for a in labels) == 2 for s in swaps)
    # close the identity under composition with the generators
    found = {labels}
    frontier = [labels]
    for image in frontier:
        for s in swaps:
            product = tuple(s[a] for a in image)
            if product not in found:
                found.add(product)
                frontier.append(product)
    assert found == {tuple(p.values()) for p in permutations_of(labels)}


def test_action_free_on_top_cells_only():
    cover = build_ordered_cover(3)
    tops = cover.cells[3]
    for sigma in permutations_of(cover.ground):
        if all(sigma[a] == a for a in cover.ground):
            continue
        for cell in tops:
            assert cell.act(sigma) != cell
    # non-free in lower positive dimensions: a transposition fixing the active
    # element but swapping the finished pair
    swap = {"a": "b", "b": "a", "c": "c"}
    fixed = CoverCell(frozenset({"a", "b"}), ("c",), frozenset())
    assert fixed.act(swap) == fixed


# -- face criterion ------------------------------------------------------------------------


def is_cover_face(c1, c2):
    """Face criterion: active elements nest with matching order, finished and
    unstarted elements nest the other way round."""
    if c1.ones | set(c1.mid) | c1.zeros != c2.ones | set(c2.mid) | c2.zeros:
        raise ContractError("cells live over different ground sets")
    m1, m2 = set(c1.mid), set(c2.mid)
    if not (m1 <= m2 and c2.zeros <= c1.zeros and c2.ones <= c1.ones):
        return False
    return tuple(x for x in c2.mid if x in m1) == c1.mid


def test_cover_face_criterion_examples():
    square = CoverCell(frozenset(), ("a", "b"), frozenset())
    edge = CoverCell(frozenset(), ("a",), frozenset({"b"}))
    assert is_cover_face(edge, square)  # the i = 2 lower face
    assert is_cover_face(square, square)  # every cell is a face of itself
    # the order restriction must match
    flipped = CoverCell(frozenset(), ("b", "a"), frozenset())
    assert not is_cover_face(square, flipped)
    assert not is_cover_face(flipped, square)
    # nesting of finished parts must hold
    one_a = CoverCell(frozenset("a"), ("b",), frozenset())
    one_b = CoverCell(frozenset("b"), ("a",), frozenset())
    assert not is_cover_face(one_a, one_b)


def all_faces(K: PrecubicalComplex, cell) -> frozenset:
    """Every iterated face of the cell, itself included, by search along
    single faces: the oracle of the face closures, the sets of the rows of
    ``K.canonical_maps()``."""
    return frozenset(
        reachable([cell], lambda c: [K.face(c, i, eps) for i in range(1, c[0] + 1) for eps in (0, 1)])
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cover_face_criterion_matches_reachability(n):
    cover = build_ordered_cover(n)
    K = cover.complex
    below = {cell: all_faces(K, cell) for cell in K.cells()}
    cells = [c for layer in cover.cells for c in layer]
    for c1 in cells:
        for c2 in cells:
            via_criterion = is_cover_face(c1, c2)
            via_faces = cover.cell_of(c1) in below[cover.cell_of(c2)]
            assert via_criterion == via_faces


def test_cover_face_criterion_needs_common_ground():
    a = CoverCell(frozenset(), ("a",), frozenset())
    b = CoverCell(frozenset(), ("b",), frozenset())
    with pytest.raises(ContractError):
        is_cover_face(a, b)


@pytest.mark.parametrize("ground", [[[1], [2]], ["a", "a"], [{"a"}]], ids=["unhashable", "repeated", "set"])
def test_ordered_cover_needs_distinct_hashable_labels(ground):
    with pytest.raises(ContractError, match="distinct hashable labels"):
        build_ordered_cover(ground)


def test_default_labels():
    assert default_labels(3) == ("a", "b", "c")
    with pytest.raises(ResourceCapError):
        default_labels(27)
    assert default_labels(0) == ()
    with pytest.raises(ContractError):
        default_labels(-1)


# -- malformed sizes ------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: default_labels(2.5),
        lambda: build_standard_cube(2.5),
        lambda: build_ordered_cover(2.5),
        lambda: build_final_complex(2.5),
        lambda: build_final_covering("3"),
        lambda: build_break_category(2.5),
        lambda: length_covering(build_standard_cube(2), 2.5),
        lambda: default_labels(True),
        lambda: build_standard_cube(True),
        lambda: build_final_complex(True),
        lambda: build_break_category(True),
        lambda: build_standard_cube(("a", "b")),
    ],
    ids=[
        "default_labels(2.5)",
        "build_standard_cube(2.5)",
        "build_ordered_cover(2.5)",
        "build_final_complex(2.5)",
        "build_final_covering('3')",
        "build_break_category(2.5)",
        "length_covering(K,2.5)",
        "default_labels(True)",
        "build_standard_cube(True)",
        "build_final_complex(True)",
        "build_break_category(True)",
        "build_standard_cube(('a','b'))",
    ],
)
def test_a_size_that_is_not_an_int_is_a_contract_error(call):
    # a bool is an int to Python, but never a size
    with pytest.raises(ContractError):
        call()


# -- the size gate ----------------------------------------------------------------


def _label_set(size):
    # n distinct labels for an int n; any other value is passed on as the label set
    return tuple(range(size)) if type(size) is int else size


def _gate_cases(name, build, low, cap, malformed=ContractError):
    """A bool, a float, the size below ``low`` (unless None) and the size
    above ``cap`` given to ``build``, with the error each must raise."""
    cases = [("bool", True, malformed), ("float", 2.0, malformed)]
    if low is not None:
        cases.append(("below", low - 1, malformed))
    cases.append(("above", cap + 1, ResourceCapError))
    return [pytest.param(build, size, error, id=f"{name}-{case}") for case, size, error in cases]


@pytest.mark.parametrize(
    "build, size, error",
    [
        *_gate_cases("default_labels", default_labels, 0, 26),
        *_gate_cases("build_standard_cube", build_standard_cube, 0, 12),
        *_gate_cases("build_final_complex", build_final_complex, 0, 26),
        *_gate_cases("build_final_covering", build_final_covering, 0, 26),
        *_gate_cases("length_covering", lambda n: length_covering(build_standard_cube(1), n), 0, 26),
        *_gate_cases("build_break_category", build_break_category, 1, 7),
        *_gate_cases("build_ordered_cover", build_ordered_cover, 0, 6),
        *_gate_cases("face_swap", lambda p: face_swap(p, p, (), ()), 0, 12),
        *_gate_cases("order_keys-double", lambda n: order_keys(_label_set(n), "double"), None, 4),
        *_gate_cases("order_keys-regular", lambda n: order_keys(_label_set(n), "regular"), None, 6),
        *_gate_cases(
            "order_keys-semi-regular", lambda n: order_keys(_label_set(n), "semi-regular"), None, 4
        ),
        *_gate_cases(
            "from_json_dict",
            lambda count: PrecubicalComplex.from_json_dict({"dims": [count]}),
            0,
            3**12,
            malformed=StructuralError,
        ),
    ],
)
def test_every_sized_entry_point_states_its_range_at_the_gate(build, size, error):
    # each case is refused before anything is built
    with pytest.raises(error):
        build(size)


def test_only_the_size_gate_raises_a_resource_cap():
    # the caps are decided in errors.require_size; a module raising
    # ResourceCapError itself would hold a second copy of that policy
    raisers = []
    for path in sorted(Path(dicube.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "ResourceCapError":
                raisers.append(f"{path.name}:{node.lineno}")
    assert len(raisers) == 1 and raisers[0].startswith("errors.py:"), raisers
