"""Pinned digests of builder outputs and nerve chain complexes.

A complex digest is the first 16 hex digits of the SHA-256 of
``json.dumps([labels, K.to_json_dict()], separators=(",", ":"))``; a map
digest hashes its assignment the same way; a chain complex digest hashes
``json.dumps([ranks, sorted columns])``; a CLI digest hashes what the
command writes to standard output.  Rewriting how the face table, the
composition tables or the nerve boundaries are walked must leave every
digest unchanged.  The seeded property test checks face iteration, the JSON
round trip and the precubical identities on random composite complexes.
The names the package exports are pinned too, one a line, so that adding or
removing a public name shows up as a one-line change here, and so are the
few definitions in the package that no other line of it names.  The module
import graph must have no cycle and no import that waits for a call.
"""

import ast
import hashlib
import inspect
import json
import random
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import dicube

from dicube.categories import (
    build_break_category,
    nerve_complex,
    nerve_orbit_complex,
    symmetric_order_quotient,
)
from dicube.cli import main
from dicube.complexes import (
    build_final_complex,
    build_final_covering,
    build_ordered_cover,
    build_standard_cube,
    default_labels,
    permutations_of,
    unique_map_to_final,
)
from dicube.precubical import (
    PrecubicalComplex,
    accessible_part,
    length_covering,
    pullback,
    quotient_by_automorphisms,
    serial_wedge,
    validate_complex,
)

from test_complexes import build_wedge_cube
from test_precubical import disjoint_union, with_base


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def labels_of(K):
    return [[K.label((d, k)) for k in range(K.dims[d])] for d in range(K.max_dim + 1)]


def complex_digest(K) -> str:
    return _sha(json.dumps([labels_of(K), K.to_json_dict()], separators=(",", ":")))


def map_digest(f) -> str:
    K = f.source
    assignment = [[f((d, k))[1] for k in range(K.dims[d])] for d in range(K.max_dim + 1)]
    return _sha(json.dumps(assignment, separators=(",", ":")))


def chain_digest(C) -> str:
    degrees = range(1, C.top_degree + 1)
    cols = [[sorted(col.items()) for col in C.boundary_columns(k)] for k in degrees]
    return _sha(json.dumps([list(C.ranks), cols]))


def _length_covering(K, n):
    lc = length_covering(K, n)
    altitude = sorted(lc.altitude.items())
    return [complex_digest(lc.complex), map_digest(lc.projection), _sha(json.dumps(altitude))]


def _cover_quotient(n):
    cover = build_ordered_cover(n)
    Q, proj = quotient_by_automorphisms(cover.complex, cover.symmetric_group())
    return [complex_digest(Q), map_digest(proj)]


def _cover_pullback(n):
    p, _, _ = build_ordered_cover(n).projection()
    P, proj1, proj2 = pullback(p, p)
    return [complex_digest(P), map_digest(proj1), map_digest(proj2)]


def _final_pullback():
    sq = build_standard_cube(2)
    z = build_final_complex(3)
    wedge = build_wedge_cube([1, 1])
    P, proj1, proj2 = pullback(unique_map_to_final(sq, z), unique_map_to_final(wedge, z))
    return [complex_digest(P), map_digest(proj1), map_digest(proj2)]


def _final_covering(n):
    K, altitude = build_final_covering(n)
    return [complex_digest(K), _sha(json.dumps(sorted(altitude.items())))]


BUILDERS = {
    **{f"cube-{n}": (lambda n=n: [complex_digest(build_standard_cube(n))]) for n in range(4)},
    "wedge-1,2": lambda: [complex_digest(build_wedge_cube([1, 2]))],
    "wedge-2,1,1": lambda: [complex_digest(build_wedge_cube([2, 1, 1]))],
    "final-3": lambda: [complex_digest(build_final_complex(3))],
    **{f"final-covering-{n}": (lambda n=n: _final_covering(n)) for n in range(5)},
    **{
        f"ordered-cover-{n}": (lambda n=n: [complex_digest(build_ordered_cover(n).complex)])
        for n in range(1, 5)
    },
    **{
        f"length-covering-final-{n}": (lambda n=n: _length_covering(build_final_complex(n), n))
        for n in range(4)
    },
    **{
        f"length-covering-cube2-{n}": (lambda n=n: _length_covering(build_standard_cube(2), n))
        for n in range(4)
    },
    "yA3/S3": lambda: _cover_quotient(3),
    "yA4/S4": lambda: _cover_quotient(4),
    "disjoint-union-1,2": lambda: [
        complex_digest(disjoint_union(build_standard_cube(1), build_standard_cube(2)))
    ],
    "disjoint-union-2,wedge": lambda: [
        complex_digest(disjoint_union(build_standard_cube(2), build_wedge_cube([1, 1])))
    ],
    "with-base": lambda: [
        complex_digest(
            with_base(disjoint_union(build_standard_cube(2), build_standard_cube(1)), "L:01", "R:1")
        )
    ],
    "serial-wedge-cube,yA2": lambda: [
        complex_digest(serial_wedge(build_standard_cube(2), build_ordered_cover(2).complex))
    ],
    "pullback-yA3": lambda: _cover_pullback(3),
    "pullback-yA4": lambda: _cover_pullback(4),
    "pullback-final": _final_pullback,
    "accessible-part": lambda: [
        complex_digest(
            accessible_part(
                with_base(
                    disjoint_union(build_standard_cube(2), build_standard_cube(1)), "L:01", "L:11"
                )
            )
        )
    ],
}

GOLDEN_BUILDERS = {
    'accessible-part': ['8a077642757fc4f2'],
    'cube-0': ['184358d5c4aba92c'],
    'cube-1': ['991bb7dc777050a3'],
    'cube-2': ['0698058f9a8df74a'],
    'cube-3': ['674fe27493c7810b'],
    'disjoint-union-1,2': ['fdd7bdc4bd98766f'],
    'disjoint-union-2,wedge': ['0c7149555dfde186'],
    'final-3': ['6bce801259ce430a'],
    'final-covering-0': ['f5783cda724cc795', '5bd3101783c978d8'],
    'final-covering-1': ['11627f7e1937885f', '081a8a442982118d'],
    'final-covering-2': ['bcc7bacb3b272245', '757411ffeccbde8c'],
    'final-covering-3': ['666405112ab2c5a1', '8bae6fda108b4f44'],
    'final-covering-4': ['aef5514146a0c9f0', 'ba4100ed55aa64fd'],
    'length-covering-cube2-0': ['522a8ff852b48e88', '4f53cda18c2baa0c', '4f53cda18c2baa0c'],
    'length-covering-cube2-1': ['522a8ff852b48e88', '4f53cda18c2baa0c', '4f53cda18c2baa0c'],
    'length-covering-cube2-2': ['d91c80aaa452f3ee', '07cf47317cd6a162', 'bd1e52ec47874954'],
    'length-covering-cube2-3': ['522a8ff852b48e88', '4f53cda18c2baa0c', '4f53cda18c2baa0c'],
    'length-covering-final-0': ['f5783cda724cc795', 'db407f11d7ede59a', '5bd3101783c978d8'],
    'length-covering-final-1': ['11627f7e1937885f', 'd69cccf7674bf568', '081a8a442982118d'],
    'length-covering-final-2': ['bcc7bacb3b272245', '6e1b67ba2ed6a7c1', '757411ffeccbde8c'],
    'length-covering-final-3': ['666405112ab2c5a1', '712837e4947bc337', '8bae6fda108b4f44'],
    'ordered-cover-1': ['4a7ebb68e78da124'],
    'ordered-cover-2': ['cae111cd35346796'],
    'ordered-cover-3': ['c311f29e42832d5b'],
    'ordered-cover-4': ['dc3df0af0b128925'],
    'pullback-final': ['a8e5e7e3714e95b7', 'bd12e66d5fd1b244', '507340e5adb322c9'],
    'pullback-yA3': ['4ddf7889b216e949', '74fb8d763b5a8822', '4e2f9c89d1a8fa13'],
    'pullback-yA4': ['608c4239e8b1fe47', '77e3b1f2aa6229bf', 'f563229a105f9d2e'],
    'serial-wedge-cube,yA2': ['a5c91ab1f81801bd'],
    'wedge-1,2': ['437e8b574ae3aad5'],
    'wedge-2,1,1': ['1aab56ed24640f23'],
    'with-base': ['5ebc3838aef7b8a1'],
    'yA3/S3': ['0048ea6ae48718fb', 'd58748ae60731eaa'],
    'yA4/S4': ['3f183e7111fa2984', 'b9806e92efe4ae9b'],
}

GOLDEN_NERVES = {
    'break-2': '8bacf96b072aa263',
    'break-3': '9fd92c476ea18947',
    'break-4': '5472e213f86b008c',
    'break-5': 'd10ab3dbb867d804',
    'regular-orbit-1': ['55116b2f0d183774', '7ae717c9aac47e3a'],
    'regular-orbit-2': ['8bacf96b072aa263', '7bd5b7807ac4a59a'],
    'regular-orbit-3': ['b6b9b14a1c6f8766', 'c0c2f83d0fef4bb2'],
}


def nerve_digests():
    out = {}
    for n in range(2, 6):
        out[f"break-{n}"] = chain_digest(nerve_complex(build_break_category(n)))
    for n in range(1, 4):
        q = symmetric_order_quotient(default_labels(n), "regular")
        orbit_cx, orbit_levels = nerve_orbit_complex(q.category, q.action)
        out[f"regular-orbit-{n}"] = [chain_digest(orbit_cx), _sha(json.dumps(orbit_levels))]
    return out


def test_recipe_check_values():
    assert complex_digest(build_standard_cube(2)) == "0698058f9a8df74a"
    assert complex_digest(build_ordered_cover(3).complex) == "c311f29e42832d5b"
    assert chain_digest(nerve_complex(build_break_category(4))) == "5472e213f86b008c"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_digest(name):
    assert BUILDERS[name]() == GOLDEN_BUILDERS[name]


@pytest.mark.parametrize("n", range(1, 5))
def test_cover_quotient_by_generators_equals_quotient_by_the_full_group(n):
    # the n-1 adjacent transpositions span the group; the list of all n!
    # automorphisms is a generating set too and must give the same digests
    cover = build_ordered_cover(n)
    every = [cover.automorphism(s) for s in permutations_of(cover.ground)]
    Q, proj = quotient_by_automorphisms(cover.complex, every)
    assert [complex_digest(Q), map_digest(proj)] == _cover_quotient(n)


def test_nerve_digests():
    assert nerve_digests() == GOLDEN_NERVES


# every CLI output at n=3 that the models table produces
GOLDEN_CLI = {
    'gen z --n 3': '5fd92f3c745ad51f',
    'gen z-tilde --n 3': '402a941a9803a6a7',
    'gen yA --n 3': 'd8ec3fa8dbbd9fa3',
    'export --model z --n 3 --format json': '5fd92f3c745ad51f',
    'export --model z --n 3 --format dot': '188b1917a356937e',
    'export --model z-tilde --n 3 --format json': '402a941a9803a6a7',
    'export --model z-tilde --n 3 --format dot': '145646ee97edc8a8',
    'export --model yA --n 3 --format json': 'd8ec3fa8dbbd9fa3',
    'export --model yA --n 3 --format dot': '1900b5fb94acb43e',
    'export --model chain-poset --n 3 --format json': '781a1dd89251684e',
    'export --model chain-poset --n 3 --format dot': 'afcd81ed26707542',
    'export --model r-poset --n 3 --format json': '0dd5512db0f3d5dc',
    'export --model r-poset --n 3 --format dot': 'e23f4423ef6e3751',
    'export --model rplus-poset --n 3 --format json': '7070b78ca4d9dbd7',
    'export --model rplus-poset --n 3 --format dot': '2f4c47be7ef6b6ac',
    'export --model en --n 3 --format json': '1e6be9b2b457b0c9',
    'export --model en --n 3 --format dot': '41c73ddde80afa34',
    'export --model quotient --n 3 --format json': '700dd2b24e37123b',
    'export --model quotient --n 3 --format dot': 'ef0dcc39e209a8d3',
    'homology --model chain-poset --n 3': 'e07e25e115ad8c90',
    'homology --model r-poset --n 3': 'e07e25e115ad8c90',
    'homology --model rplus-poset --n 3': 'ca10c30ae0b5f35a',
    'homology --model en --n 3': '30ff8850eabcfdd7',
    'homology --model quotient --n 3': '30ff8850eabcfdd7',
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_CLI))
def test_cli_output_digest(argv, capsys):
    assert main(argv.split()) == 0
    assert _sha(capsys.readouterr().out) == GOLDEN_CLI[argv]


# -- seeded property test ---------------------------------------------------------------------


def _random_complex(rng: random.Random, depth: int) -> PrecubicalComplex:
    kind = rng.choice(["cube", "wedge", "union", "pullback"] if depth else ["cube", "wedge"])
    if kind == "cube":
        return build_standard_cube(rng.randint(0, 2))
    if kind == "wedge":
        return build_wedge_cube([rng.randint(1, 2) for _ in range(rng.randint(1, 3))])
    if kind == "union":
        return disjoint_union(_random_complex(rng, depth - 1), _random_complex(rng, depth - 1))
    K, L = _random_complex(rng, depth - 1), _random_complex(rng, depth - 1)
    z = build_final_complex(max(K.max_dim, L.max_dim, 0))
    return pullback(unique_map_to_final(K, z), unique_map_to_final(L, z))[0]


def test_face_entries_round_trip_and_identities_on_random_complexes():
    rng = random.Random(20211)
    for _ in range(40):
        K = _random_complex(rng, 2)
        entries = list(K.face_entries())
        assert len(entries) == sum(2 * d * K.dims[d] for d in range(K.max_dim + 1))
        for d, k, i, eps, target in entries:
            assert K.face((d, k), i, eps) == (d - 1, target)
        back = PrecubicalComplex.from_json(K.to_json())
        assert back.to_json_dict() == K.to_json_dict()
        assert validate_complex(K) == []


# -- the public names -------------------------------------------------------------------------

PUBLIC_NAMES = [
    "ChainComplex",
    "ChainOrder",
    "ContractError",
    "CoverCell",
    "CubeChain",
    "DoubleOrder",
    "FiniteCategory",
    "GroupAction",
    "HomologyGroup",
    "OrderedCover",
    "Poset",
    "PrecubicalComplex",
    "PrecubicalMap",
    "REGISTRY",
    "ResourceCapError",
    "StructuralError",
    "UsageError",
    "VerificationReport",
    "accessible_part",
    "adjacent_transpositions",
    "break_functor",
    "build_break_category",
    "build_final_complex",
    "build_final_covering",
    "build_ordered_cover",
    "build_standard_cube",
    "chain_poset",
    "chain_to_double_order",
    "chain_union",
    "compute_altitude",
    "default_labels",
    "double_order_to_chain",
    "enumerate_chains",
    "enumerate_orders",
    "euler_characteristic",
    "face_swap",
    "homology",
    "homology_signature",
    "is_non_self_linked",
    "length_covering",
    "nerve_complex",
    "permutations_of",
    "point_to_order",
    "poset_category",
    "poset_leq",
    "pullback",
    "quotient_by_automorphisms",
    "quotient_category",
    "run_suite",
    "serial_wedge",
    "symmetric_order_quotient",
    "to_regular",
    "u_contains",
    "union_bar",
    "unique_map_to_final",
    "validate_complex",
    "verify_cover",
    "witness_point",
]


def test_the_package_exports_the_pinned_names():
    exported = (n for n, v in vars(dicube).items() if not n.startswith("_") and not inspect.ismodule(v))
    assert sorted(exported) == PUBLIC_NAMES


# -- code that only the tests reach -----------------------------------------------------------

PACKAGE = Path(dicube.__file__).parent

# the module-level definitions of src/dicube that no other line of the package
# names, each with the reason it stays; any other such definition is reached
# only from the tests, and belongs in them
UNNAMED_DEFINITIONS = {
    "accessible_part": "the paper's accessible part, three lines over the two helpers of length_covering",
    "nerve_retraction_check": "a lemma of the paper; as a suite check it would add a report to the n=4 reference",
    "pullback": "the paper's pullback of precubical maps, golden-pinned at yA3, yA4 and over the final complex",
    "serial_wedge": "the paper's serial wedge of bipointed complexes, whose cube chains multiply",
    "unique_map_to_final": "the map into the final complex, which the characteristic map builds on",
}


def names_used(tree: ast.AST) -> Counter:
    """The names that code under ``tree`` reads, loads attributes by or
    imports; words in docstrings and comments do not count."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
    return used


def definitions_no_other_line_names() -> set:
    """The module-level functions and classes of src/dicube, ``__init__``
    aside, whose name the code uses only inside their own definition."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    everywhere = sum(map(names_used, trees), Counter())
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == names_used(node)[node.name]
    }


def test_src_holds_no_definition_that_only_the_tests_reach():
    assert definitions_no_other_line_names() == set(UNNAMED_DEFINITIONS)


# -- the import graph -------------------------------------------------------------------------


def package_imports() -> tuple[dict[str, set[str]], list[str]]:
    """Each module of src/dicube with the modules its relative imports name,
    the package's one import style, at any depth; and the relative imports
    inside a function, which wait for a call, as ``module:line``."""
    graph, deferred = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        in_functions = {id(node) for f in ast.walk(tree) if isinstance(f, scopes) for node in ast.walk(f)}
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                graph[path.stem].update([node.module] if node.module else [a.name for a in node.names])
                if id(node) in in_functions:
                    deferred.append(f"{path.stem}:{node.lineno}")
    return graph, deferred


def test_no_package_import_waits_for_a_call():
    assert package_imports()[1] == []


def test_the_module_import_graph_has_no_cycle_and_posets_is_a_leaf():
    graph = package_imports()[0]
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert graph["posets"] == {"errors"}
