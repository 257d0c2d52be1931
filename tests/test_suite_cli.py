import json
import subprocess
import sys
from pathlib import Path

import pytest

from dicube import cli
from dicube.categories import regular_orders_poset
from dicube.chains import chain_poset, enumerate_chains, face_swap
from dicube.cli import main
from dicube.complexes import build_final_complex, build_ordered_cover, build_standard_cube, default_labels
from dicube.cover import point_to_order, u_contains, verify_cover, witness_point
from dicube.errors import ContractError, StructuralError, UsageError
from dicube.orders import (
    chain_to_double_order,
    chain_union,
    component_union,
    double_order_to_chain,
    enumerate_orders,
    poset_leq,
    regular_from_blocks,
    to_regular,
    union_bar,
)
from dicube.posets import Poset
from dicube.precubical import (
    PrecubicalMap,
    compute_altitude,
    is_non_self_linked,
    length_covering,
    quotient_by_automorphisms,
)
from dicube.suite import REGISTRY, CheckSpec, exit_code, run_suite


AB = ("a", "b")


def strip_times(payload):
    for entry in payload:
        entry.pop("wall_time", None)
    return payload


SNAPSHOTS = Path(__file__).parent / "snapshots"


@pytest.mark.parametrize("n_max", [1, 5, None])
def test_suite_reports_equal_their_snapshot(n_max):
    # n_max 1 gives the empty ranges of the checks that start at n = 2,
    # n_max 5 runs orbit-iso and euler-zero at their caps, and None runs each
    # check at its default size; compared as text, so the key order of every
    # report counts
    reports = strip_times([r.to_json_dict() for r in run_suite(None, n_max=n_max)])
    text = json.dumps(reports, indent=1) + "\n"
    name = "suite-default" if n_max is None else f"suite-n{n_max}"
    assert text == (SNAPSHOTS / f"{name}.json").read_text()


def test_readme_gives_the_n_range_of_each_check_from_the_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    for check_id, spec in REGISTRY.items():
        n_range = "whole run" if spec.cap is None else f"{spec.first_n}..{spec.cap}"
        (row,) = [row for row in rows if row.startswith(f"| `{check_id}` |")]
        assert row.startswith(f"| `{check_id}` | {n_range}"), row
        assert row.endswith(f" | {spec.default_n} |"), row


def test_registry_ids_are_the_documented_ones():
    assert sorted(REGISTRY) == sorted(
        [
            "chain-order-iso",
            "orbit-iso",
            "non-self-linked",
            "face-swap",
            "free-action",
            "union-sigma",
            "F-G-triangles",
            "nerve-quotient",
            "bar-F-iso",
            "cover-complete",
            "cover-proper",
            "homology-cross-model",
            "euler-zero",
        ]
    )


def test_empty_selection_gives_empty_report():
    reports = run_suite([], n_max=3)
    assert reports == [] and exit_code(reports) == 0


def test_unknown_id_is_a_usage_error():
    with pytest.raises(UsageError):
        run_suite(["no-such-check"], n_max=2)


def test_single_check_passes():
    reports = run_suite(["bar-F-iso"], n_max=3)
    assert [r.status for r in reports] == ["pass"]
    assert exit_code(reports) == 0


def test_suite_runs_are_deterministic_modulo_timing():
    a = strip_times([r.to_json_dict() for r in run_suite(["union-sigma", "face-swap"], n_max=3)])
    b = strip_times([r.to_json_dict() for r in run_suite(["union-sigma", "face-swap"], n_max=3)])
    assert a == b


def test_cli_import_loads_neither_the_thread_pool_nor_fractions():
    # a fresh, isolated interpreter: this one has imported both modules already
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dicube.cli; "
        "print(sorted({'concurrent.futures', 'fractions'} & set(sys.modules)))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_defines_dataclasses_only_for_check_specs_and_double_orders():
    # each dataclass costs generated methods compiled at import; the tracer
    # replaces a CheckSpec with dataclasses.replace and wraps __post_init__
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dicube.cli; "
        "print(sorted(f'{m}.{k}' for m, mod in list(sys.modules.items()) if m.startswith('dicube') "
        "for k, v in vars(mod).items() if isinstance(v, type) and v.__module__ == m "
        "and '__dataclass_fields__' in vars(v)))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "['dicube.orders.DoubleOrder', 'dicube.suite.CheckSpec']"


def test_non_self_linked_failure_payload_replays():
    # the control of a passing run names the cell where the truncated final
    # complex is self-linked, and a replay finds the same cell
    reports = run_suite(["non-self-linked"], n_max=2)
    (report,) = reports
    assert report.status == "pass" and exit_code(reports) == 0
    z = build_final_complex(2)
    replay = is_non_self_linked(z)
    assert not replay.ok
    assert report.details["control_counterexample"] == z.label(replay.cell) == "z1"


# -- command line --------------------------------------------------------------------


def test_cli_gen_z_tilde_zero(capsys):
    assert main(["gen", "z-tilde", "--n", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"dims": [1], "faces": [], "base": {"init": 0, "final": 0}}


def test_cli_gen_deterministic(capsys):
    assert main(["gen", "yA", "--n", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "yA", "--n", "2"]) == 0
    assert capsys.readouterr().out == first


def test_cli_export_en_dot(capsys):
    assert main(["export", "--model", "en", "--n", "2", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("->") == 2
    assert dot.count("[label=") == 4


def test_cli_export_r_poset_dot(capsys):
    assert main(["export", "--model", "r-poset", "--n", "2", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("->") == 4  # the 4-cycle Hasse diagram
    assert dot.count('[label="x{') == 4


def test_cli_export_chain_poset_json(capsys):
    assert main(["export", "--model", "chain-poset", "--n", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["elements"]) == 4
    # chains are arrays of cell labels
    assert ["(|a<b|)"] in data["elements"]
    assert ["(|a|b)", "(a|b|)"] in data["elements"]


def test_cli_homology_en(capsys):
    assert main(["homology", "--model", "en", "--n", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0] == {"dim": 0, "betti": 1, "torsion": []}
    assert data[1] == {"dim": 1, "betti": 1, "torsion": []}


def test_cli_models_call_builders_through_module_names(monkeypatch, capsys):
    # a wrapper bound to the module name, as the benchmark's tracer installs
    # it, must see the builds the models table makes
    calls = []
    build = cli.build_break_category
    monkeypatch.setattr(cli, "build_break_category", lambda n: calls.append(n) or build(n))
    assert main(["homology", "--model", "en", "--n", "2"]) == 0
    assert main(["export", "--model", "en", "--n", "3", "--format", "dot"]) == 0
    assert calls == [2, 3]


def test_cli_homology_rejects_complex_models(capsys):
    with pytest.raises(SystemExit) as err:
        main(["homology", "--model", "z", "--n", "2"])
    assert err.value.code == 2  # argparse rejects the choice


def test_cli_verify_selected(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "face-swap,union-sigma", "--n-max", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [r["id"] for r in payload] == ["face-swap", "union-sigma"]
    assert all(r["status"] == "pass" for r in payload)


def test_cli_verify_failure_exit_code(monkeypatch, tmp_path):
    # a planted fault fails cover-complete through the command line, and the
    # failures come out under the n they were found at
    cover_union_returning_its_first_argument(monkeypatch)
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "cover-complete", "--n-max", "2", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload[0]["status"] == "fail"
    details = payload[0]["details"]
    assert sorted(details) == ["failures", "n"] and details["n"] == 2
    assert details["failures"][0]["check"] == "intersection-witness"


def raising_check(exc):
    def check(n_max, **_):
        raise exc

    return check


@pytest.mark.parametrize(
    "exc",
    [ContractError("composition table is missing pair"), AssertionError("invariant broken")],
)
def test_cli_verify_reports_check_exceptions_as_failures(exc, monkeypatch, tmp_path):
    spec = REGISTRY["face-swap"]
    monkeypatch.setitem(
        REGISTRY, "face-swap", CheckSpec(raising_check(exc), spec.default_n, spec.description)
    )
    out = tmp_path / "report.json"
    suite = "union-sigma,face-swap,euler-zero"
    code = main(["verify", "--suite", suite, "--n-max", "2", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert [r["id"] for r in payload] == ["union-sigma", "face-swap", "euler-zero"]
    assert [r["status"] for r in payload] == ["pass", "fail", "pass"]
    assert payload[1]["params"] == {"n_max": 2}
    assert payload[1]["details"] == {"exception": type(exc).__name__, "message": str(exc)}


def test_cli_verify_unknown_target_is_usage_error(monkeypatch, capsys):
    # verify has no --target: the option is an unknown argument, refused
    # before any check runs, whichever target and checks are named
    from dicube import suite

    ran = []
    monkeypatch.setattr(suite, "_run_check", lambda spec, n: ran.append(spec))
    for selection in ("non-self-linked", "face-swap", "all"):
        for target in ("bogus", "final-truncated", "ordered-cover"):
            with pytest.raises(SystemExit) as err:
                main(["verify", "--suite", selection, "--n-max", "2", "--target", target])
            assert err.value.code == 2
    assert ran == [] and capsys.readouterr().out == ""


def test_cli_verify_unknown_id_is_usage_error(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2


@pytest.mark.parametrize("selection", [",", " ", "", " , ,"])
def test_cli_verify_empty_selection_is_usage_error(selection, monkeypatch, capsys):
    # a run that verifies nothing must not exit 0; run_suite([]) itself stays an empty report
    from dicube import suite

    ran = []
    monkeypatch.setattr(suite, "_run_check", lambda spec, n: ran.append(spec))
    assert main(["verify", "--suite", selection, "--n-max", "2"]) == 2
    captured = capsys.readouterr()
    assert ran == [] and captured.out == "" and "names no check" in captured.err


@pytest.mark.parametrize("n_max", [0, -2])
def test_n_max_below_one_is_a_usage_error(n_max, capsys):
    with pytest.raises(UsageError):
        run_suite(["euler-zero"], n_max=n_max)
    assert main(["verify", "--suite", "all", "--n-max", str(n_max)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n_max", [2.5, True, "3"])
def test_n_max_that_is_not_an_int_is_a_usage_error(n_max):
    with pytest.raises(UsageError):
        run_suite(["euler-zero"], n_max=n_max)


def _place_a_at(xy):
    return lambda: point_to_order({"a": xy}, ["a"])


def _in_first_regular_order(f):
    return lambda: u_contains(enumerate_orders(default_labels(2), "regular")[0], f)


def _on_an_order(call):
    """call(o) on the first regular order on a, b."""
    return lambda: call(enumerate_orders(default_labels(2), "regular")[0])


def _on_the_cover(call):
    """call(cover) on the ordered cover on a, b."""
    return lambda: call(build_ordered_cover(2))


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: point_to_order(None, ["a"]), ContractError, id="point-config-none"),
        pytest.param(lambda: point_to_order(None, []), ContractError, id="point-config-none-empty"),
        pytest.param(_place_a_at((0,)), ContractError, id="point-one-coord"),
        pytest.param(_place_a_at((0, 1, 2)), ContractError, id="point-three-coords"),
        pytest.param(_place_a_at(("0", 1)), ContractError, id="point-str"),
        pytest.param(_place_a_at((True, 1)), ContractError, id="point-bool"),
        pytest.param(_place_a_at((0.5, 1)), ContractError, id="point-float"),
        pytest.param(_place_a_at([0, 1]), ContractError, id="point-list"),
        pytest.param(
            _in_first_regular_order({"a": (0, 0)}), ContractError, id="u-contains-unplaced-label"
        ),
        pytest.param(_in_first_regular_order(5), ContractError, id="u-contains-config-int"),
        pytest.param(
            _in_first_regular_order({"a": (1,), "b": (1, 2)}), ContractError, id="u-contains-one-coord"
        ),
        pytest.param(
            _in_first_regular_order({"a": ("1", "2"), "b": (1, 2)}), ContractError, id="u-contains-str"
        ),
        pytest.param(
            _in_first_regular_order({"a": ("1", "2"), "b": ("3", "4")}),
            ContractError,
            id="u-contains-all-str",
        ),
        pytest.param(lambda: u_contains(5, {}), ContractError, id="u-contains-order-int"),
        pytest.param(lambda: witness_point(5), ContractError, id="witness-point-int"),
        pytest.param(_on_an_order(lambda o: union_bar(o, 5)), ContractError, id="union-bar-int"),
        pytest.param(_on_an_order(lambda o: union_bar(None, o)), ContractError, id="union-bar-none"),
        pytest.param(
            _on_an_order(lambda o: poset_leq(o, 5, "subseteq")), ContractError, id="poset-leq-int"
        ),
        pytest.param(lambda: to_regular(5), ContractError, id="to-regular-int"),
        pytest.param(lambda: chain_union(5), ContractError, id="chain-union-int"),
        pytest.param(lambda: chain_union([5]), ContractError, id="chain-union-int-entry"),
        pytest.param(
            _on_the_cover(lambda cover: chain_to_double_order(cover, 5)),
            ContractError,
            id="chain-to-order-int",
        ),
        pytest.param(
            _on_the_cover(lambda cover: double_order_to_chain(cover, 5)),
            ContractError,
            id="order-to-chain-int",
        ),
        pytest.param(lambda: verify_cover(AB, samples="x"), ContractError, id="verify-cover-samples-str"),
        pytest.param(lambda: verify_cover(AB, samples=2.5), ContractError, id="verify-cover-samples-float"),
        pytest.param(lambda: verify_cover(AB, samples=-3), ContractError, id="verify-cover-samples-negative"),
        pytest.param(lambda: verify_cover(AB, seed=[1]), ContractError, id="verify-cover-seed-list"),
        pytest.param(lambda: verify_cover(AB, seed=True), ContractError, id="verify-cover-seed-bool"),
        pytest.param(lambda: Poset(5, (1,)), ContractError, id="poset-elements-int"),
        pytest.param(lambda: regular_orders_poset(("a",), []), ContractError, id="orders-poset-variant-list"),
        pytest.param(lambda: face_swap(2, 2, 5, set()), ContractError, id="face-swap-v-int"),
        pytest.param(lambda: face_swap(2, 2, [[1]], set()), ContractError, id="face-swap-v-unhashable"),
        pytest.param(lambda: face_swap(2, 2, set(), 5), ContractError, id="face-swap-w-int"),
        pytest.param(
            _on_the_cover(lambda cover: quotient_by_automorphisms(cover.complex, 5)),
            ContractError,
            id="quotient-generators-int",
        ),
        pytest.param(
            _on_the_cover(lambda cover: quotient_by_automorphisms(cover.complex, [5])),
            ContractError,
            id="quotient-generator-int",
        ),
        pytest.param(lambda: regular_from_blocks(5, [["a"]]), ContractError, id="blocks-labels-int"),
        pytest.param(lambda: is_non_self_linked(5), ContractError, id="non-self-linked-int"),
        pytest.param(lambda: compute_altitude(5), ContractError, id="altitude-int"),
        pytest.param(lambda: enumerate_chains(5), ContractError, id="chains-int"),
        pytest.param(lambda: chain_poset(5), ContractError, id="chain-poset-int"),
        pytest.param(
            lambda: PrecubicalMap(5, build_standard_cube(0), [[0]]), ContractError, id="map-source-int"
        ),
        pytest.param(
            lambda: PrecubicalMap(build_standard_cube(0), 5, [[0]]), ContractError, id="map-target-int"
        ),
        pytest.param(lambda: length_covering(5, 2), ContractError, id="length-covering-int"),
        pytest.param(
            lambda: build_standard_cube(1).face((1, 0), "x", 0), ContractError, id="face-direction-str"
        ),
        pytest.param(
            lambda: build_standard_cube(1).face((1, 99), 1, 0), ContractError, id="face-of-a-missing-cell"
        ),
        pytest.param(
            _on_the_cover(lambda cover: cover.cell_of("abc")), StructuralError, id="cover-cell-of-str"
        ),
        pytest.param(lambda: run_suite([["a"]], 1), UsageError, id="selection-unhashable"),
        pytest.param(lambda: run_suite([7], 1), UsageError, id="selection-int"),
    ],
)
def test_public_entry_points_refuse_malformed_input(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("selection", [5, "euler-zero"], ids=["int", "str"])
def test_a_selection_that_is_not_a_list_or_tuple_is_a_usage_error(selection):
    # a str would otherwise be read as a list of one-letter ids
    with pytest.raises(UsageError, match="list or tuple"):
        run_suite(selection, n_max=1)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "yA", "--n", "-1"],
        ["homology", "--model", "r-poset", "--n", "-1"],
        ["export", "--model", "rplus-poset", "--n", "-1", "--format", "json"],
    ],
)
def test_negative_ground_set_size_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "not -1" in capsys.readouterr().err


@pytest.mark.parametrize("n, code", [(0, 2), (-1, 2), (8, 3)])
def test_cli_break_category_size_out_of_range(n, code, capsys):
    assert main(["homology", "--model", "en", "--n", str(n)]) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error" if code == 2 else "resource cap")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "yA", "--n", "27"],
        ["homology", "--model", "r-poset", "--n", "27"],
        ["homology", "--model", "quotient", "--n", "27"],
        ["export", "--model", "rplus-poset", "--n", "27", "--format", "json"],
        ["gen", "z", "--n", "27"],
        ["gen", "z-tilde", "--n", "27"],
        ["export", "--model", "z", "--n", "27", "--format", "json"],
    ],
)
def test_a_size_beyond_the_default_labels_is_a_resource_cap(argv, capsys):
    # a size above a model's cap exits 3, also where the labels a..z run out first
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("resource cap")


def test_cli_verify_ignores_jobs(tmp_path):
    # the benchmark harness passes --jobs; the checks run one after another either way
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    suite = "union-sigma,face-swap,free-action"
    assert main(["verify", "--suite", suite, "--n-max", "3", "--jobs", "1", "--out", str(a)]) == 0
    assert main(["verify", "--suite", suite, "--n-max", "3", "--jobs", "2", "--out", str(b)]) == 0
    assert strip_times(json.loads(a.read_text())) == strip_times(json.loads(b.read_text()))


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "z", "--n", "2"],
        ["homology", "--model", "en", "--n", "2"],
        ["verify", "--suite", "face-swap", "--n-max", "2"],
        ["export", "--model", "r-poset", "--n", "2", "--format", "dot"],
    ],
)
@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_an_unwritable_out_is_a_usage_error(argv, where, tmp_path, capsys):
    # a file in a directory that does not exist, or a directory itself
    out = tmp_path / where
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write --out {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_verify_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--suite", "euler-zero", "--n-max", "3", "--out", str(a)])
    main(["verify", "--suite", "euler-zero", "--n-max", "3", "--out", str(b)])
    assert strip_times(json.loads(a.read_text())) == strip_times(json.loads(b.read_text()))


def test_cli_export_quotient_json(capsys):
    assert main(["export", "--model", "quotient", "--n", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["objects"]) == 2 and len(data["morphisms"]) == 4


def test_cli_bad_argument_exit_codes(capsys):
    assert main(["gen", "z-tilde", "--n", "-1"]) == 2  # contract violation
    assert main(["gen", "yA", "--n", "9"]) == 3  # over the ground-set cap


@pytest.mark.parametrize("kind", ["object", "morphism"])
@pytest.mark.parametrize("whole_orbit", [False, True])
def test_bar_f_iso_fails_on_a_functor_not_induced_from_the_quotient(kind, whole_orbit, monkeypatch):
    # member 0 (or its whole orbit) is sent to the image of another orbit
    from dicube import categories, suite

    moved = []

    def corrupted_break_functor(labels):
        func = categories.break_functor(labels)
        orbit_of = getattr(func.quotient, f"{kind}_map")
        image_of = getattr(func, f"{kind}_map")
        other = next((i for i, orbit in enumerate(orbit_of) if orbit != orbit_of[0]), None)
        if other is not None:
            moved.append((orbit_of[0], image_of[other], image_of[0]))
            for i, orbit in enumerate(orbit_of):
                if i == 0 or (whole_orbit and orbit == orbit_of[0]):
                    image_of[i] = image_of[other]
        return func

    monkeypatch.setattr(suite, "break_functor", corrupted_break_functor)
    monkeypatch.setattr(suite, "check_functoriality", lambda func: None)
    (report,) = run_suite(["bar-F-iso"], n_max=3)
    status, details = report.status, report.details
    assert status == "fail"
    orbit, new, old = moved[0]
    if whole_orbit:
        assert details == {"n": 2, "reason": f"induced {kind} map not bijective"}
    else:
        reason = f"induced {kind} map ill-defined"
        assert details == {"n": 2, "reason": reason, "orbit": orbit, "images": [new, old]}


def y_orders_on_abc(*y_rows):
    """Orders on a, b, c with empty x and the given y rows, in key order."""
    from dicube.orders import DoubleOrder

    return sorted((DoubleOrder(("a", "b", "c"), (0, 0, 0), y) for y in y_rows), key=DoubleOrder.key)


def patch_double_family(monkeypatch, family_at_3):
    """Free-action reads the double family at 3 labels as the keys of
    ``family_at_3``."""
    from dicube import suite

    real = suite.order_keys
    keys_at_3 = tuple(o.key() for o in family_at_3)
    monkeypatch.setattr(
        suite,
        "order_keys",
        lambda labels, kind: keys_at_3 if len(labels) == 3 else real(labels, kind),
    )


def test_free_action_finds_a_fixed_order_outside_the_first_orbit(monkeypatch):
    # the first orbit (one y pair each) is free; the second (one label
    # y-below the other two) is fixed by a transposition
    family = y_orders_on_abc(
        (0b010, 0, 0), (0b100, 0, 0), (0, 0b001, 0), (0, 0b100, 0), (0, 0, 0b001), (0, 0, 0b010),
        (0b110, 0, 0), (0, 0b101, 0), (0, 0, 0b011),
    )
    fixed = family.index(y_orders_on_abc((0, 0, 0b011))[0])
    assert fixed == 2  # after c<a and c<b, the first orbit's two smallest keys
    patch_double_family(monkeypatch, family)
    (report,) = run_suite(["free-action"], n_max=3)
    status, details = report.status, report.details
    assert status == "fail"
    assert details == {
        "n": 3,
        "order": "x{};y{c<a,c<b}",
        "sigma": str({"a": "b", "b": "a", "c": "c"}),
    }


def test_free_action_fails_on_a_family_not_closed_under_relabelling(monkeypatch):
    patch_double_family(monkeypatch, y_orders_on_abc((0, 0, 0b001)))
    (report,) = run_suite(["free-action"], n_max=3)
    status, details = report.status, report.details
    assert status == "fail"
    assert details == {
        "n": 3,
        "order": "x{};y{c<a}",
        "sigma": str({"a": "a", "b": "c", "c": "b"}),
        "reason": "image not in family",
    }


def test_bar_f_iso_builds_one_regular_poset_category_per_n(monkeypatch):
    from dicube import categories

    sizes = []
    build = categories.poset_category
    monkeypatch.setattr(
        categories, "poset_category", lambda P: sizes.append(len(P.elements)) or build(P)
    )
    assert run_suite(["bar-F-iso"], n_max=3)[0].status == "pass"
    assert sizes == [1, 4, 24]  # the regular orders at n = 1, 2, 3


# -- models shared within one run -----------------------------------------------------


def test_one_run_builds_each_model_once(monkeypatch):
    from dicube import categories, complexes

    quotients = []
    quotient = categories.quotient_category
    monkeypatch.setattr(
        categories,
        "quotient_category",
        lambda C, act: quotients.append(C.objects) or quotient(C, act),
    )
    ids = ["nerve-quotient", "bar-F-iso", "homology-cross-model"]
    assert {r.status for r in run_suite(ids, n_max=3)} == {"pass"}
    # regular orders at n = 1..3 for all three checks, semi-regular at n = 2, 3
    # for homology-cross-model; a poset category's objects are its order texts
    families = [("regular", n) for n in (1, 2, 3)] + [("semi-regular", n) for n in (2, 3)]
    expected = [[o.text() for o in enumerate_orders(default_labels(n), k)] for k, n in families]
    assert sorted(quotients) == sorted(expected)

    covers = []
    build = complexes.complex_from_cells

    def counting(cells, face, label, base=None):
        if label is complexes.CoverCell.text:
            covers.append(len(cells) - 1)  # the ground set size
        return build(cells, face, label, base)

    monkeypatch.setattr(complexes, "complex_from_cells", counting)
    ids = ["chain-order-iso", "orbit-iso", "non-self-linked"]
    assert {r.status for r in run_suite(ids, n_max=4)} == {"pass"}
    assert covers == [1, 2, 3, 4]


def test_no_model_outlives_its_run(monkeypatch):
    from dicube import complexes

    clean = {1: [1], 2: [2, 2], 3: [4, 16, 12]}
    assert run_suite(["nerve-quotient"], n_max=3)[0].details == clean
    # without the last swap the group is smaller: the check fails with the
    # size of that group, which only a fresh quotient gives
    adjacent_transpositions_without_the_last(monkeypatch)
    faulted = run_suite(["nerve-quotient"], n_max=3)[0]
    assert faulted.status == "fail"
    assert faulted.details == {
        "n": 2, "reason": "acting group is not every relabeling", "elements": 1, "relabelings": 2
    }

    built = []

    def building_then_refusing(n_max, **_):
        built.extend([complexes.build_ordered_cover(2), complexes.build_ordered_cover(("a", "b"))])
        raise UsageError("refused after a build")

    spec = REGISTRY["face-swap"]
    monkeypatch.setitem(
        REGISTRY, "face-swap", CheckSpec(building_then_refusing, spec.default_n, spec.description)
    )
    with pytest.raises(UsageError, match="refused after a build"):
        run_suite(["face-swap"], n_max=2)
    assert built[0] is built[1]  # one cover for both spellings of its ground set
    # the run that raised left no memo: every later call builds
    assert complexes.build_ordered_cover(2) is not built[0]
    assert complexes.build_ordered_cover(2) is not complexes.build_ordered_cover(2)


def test_a_shared_build_that_raises_caches_nothing_and_nested_runs_share_one_memo():
    from dicube.errors import models_shared, shared_in_run

    calls = []

    @shared_in_run
    def build(n):
        calls.append(n)
        if len(calls) == 1:
            raise ContractError("the first build fails")
        return [n]

    with models_shared():
        with pytest.raises(ContractError):
            build(1)
        first = build(1)
        with models_shared():  # a nested scope reads the outer memo
            assert build(1) is first
        assert build(1) is first  # and leaving it keeps the memo
    assert calls == [1, 1]
    assert build(1) is not build(1)  # outside a run every call builds


def test_a_run_on_another_thread_neither_sees_nor_clears_this_threads_memo():
    import threading

    from dicube.errors import models_shared, shared_in_run

    @shared_in_run
    def build(n):
        return [n]

    with models_shared():
        mine = build(1)
        theirs = []

        def other_run():
            with models_shared():
                theirs.extend([build(1), build(1)])

        thread = threading.Thread(target=other_run)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert theirs[0] is theirs[1] is not mine  # the other run built its own
        assert build(1) is mine  # and its end left this memo in place


def test_reports_do_not_depend_on_the_order_of_the_checks():
    # whichever check asks first builds a shared model
    forward = strip_times([r.to_json_dict() for r in run_suite(None, n_max=3)])
    backward = strip_times([r.to_json_dict() for r in run_suite(list(REGISTRY)[::-1], n_max=3)])
    assert backward == forward[::-1]


# -- planted faults: each check is seen to fail ---------------------------------------


def act_morphism_ignoring_the_element(monkeypatch):
    from dicube.categories import GroupAction

    monkeypatch.setattr(GroupAction, "act_morphism", lambda self, g, m: m)


def order_poset_of_the_wrong_variant(monkeypatch):
    from dicube import suite

    real = suite.regular_orders_poset
    monkeypatch.setattr(suite, "regular_orders_poset", lambda labels, v: real(labels, "sqsubseteq"))


def adjacent_transpositions_without_the_last(monkeypatch):
    from dicube import categories, complexes

    real = complexes.adjacent_transpositions
    for module in (complexes, categories):
        monkeypatch.setattr(module, "adjacent_transpositions", lambda labels: real(labels)[:-1])


def cover_action_ignoring_the_relabelling(monkeypatch):
    from dicube.complexes import CoverCell

    monkeypatch.setattr(CoverCell, "act", lambda self, sigma: self)


def cover_face_ignoring_eps(monkeypatch):
    from dicube.complexes import CoverCell

    real = CoverCell.face
    monkeypatch.setattr(CoverCell, "face", lambda self, i, eps: real(self, i, 0))


def quotient_orbits_ignoring_the_action(monkeypatch):
    from dicube import suite

    real = suite.break_functor

    def one_orbit_per_object(labels):
        func = real(labels)
        q = func.quotient
        return func._replace(quotient=q._replace(object_map=list(range(len(q.object_map)))))

    monkeypatch.setattr(suite, "break_functor", one_orbit_per_object)


def cover_union_returning_its_first_argument(monkeypatch):
    from dicube import cover

    monkeypatch.setattr(cover, "component_union", lambda a, b: a)


def cover_read_off_ignoring_the_configuration(monkeypatch):
    from dicube import cover
    from dicube.orders import enumerate_orders

    monkeypatch.setattr(
        cover, "point_to_order", lambda f, labels: enumerate_orders(labels, "regular")[0]
    )


def key_relabelling_ignoring_sigma(monkeypatch):
    from dicube import orders

    monkeypatch.setattr(orders, "relabelling", lambda labels, sigma: lambda key: key)


def key_union_returning_its_first_argument(monkeypatch):
    from dicube import orders

    monkeypatch.setattr(orders, "component_union", lambda a, b: a)


def retraction_returning_its_input(monkeypatch):
    from dicube import suite

    monkeypatch.setattr(suite, "to_regular", lambda o: o)


def run_counts_without_the_longest_runs(monkeypatch):
    from dicube import suite

    real = suite.composable_run_counts
    monkeypatch.setattr(suite, "composable_run_counts", lambda C: real(C)[:-1])


def break_category_one_label_short(monkeypatch):
    from dicube import suite

    real = suite.build_break_category
    monkeypatch.setattr(suite, "build_break_category", lambda n: real(max(n - 1, 1)))


def face_swap_recursion_returning_its_input(monkeypatch):
    from dicube import chains

    monkeypatch.setattr(chains, "_face_swap_rec", lambda p, q, V, W: (V, W))


def corrupted_quotient(corrupt):
    def plant(monkeypatch):
        from dicube import suite

        real = suite.symmetric_order_quotient
        monkeypatch.setattr(suite, "symmetric_order_quotient", lambda *args: corrupt(real(*args)))

    return plant


def first_object_moved_to_the_next_orbit(q):
    q.object_map[0] = (q.object_map[0] + 1) % q.quotient.n_objects
    return q


def first_right_identity_broken(q):
    Q = q.quotient
    for m in Q.non_identity()[:1]:
        ident = Q.identity[Q.morphisms[m].src]
        Q._compose[m, ident] = ident
    return q


def names_a_contract_error(details):
    assert details["exception"] == "ContractError"
    assert details["message"] == "orbit of morphism 1 has no member at its representative"


def names_a_chain_pair_the_orders_disagree_on(details):
    from dicube.chains import ChainOrder, enumerate_chains
    from dicube.complexes import build_ordered_cover
    from dicube.orders import chain_to_double_order, poset_leq

    assert sorted(details) == ["chain_leq", "n", "order_geq", "pair"] and details["n"] == 2
    cover = build_ordered_cover(2)
    by_text = {c.text(cover.complex): c for c in enumerate_chains(cover.complex)}
    a, b = (by_text[text] for text in details["pair"])
    assert ChainOrder(cover.complex).leq(a, b) == details["chain_leq"]
    # the planted poset orders by "sqsubseteq", not by its reverse
    image_a, image_b = (chain_to_double_order(cover, c) for c in (a, b))
    assert poset_leq(image_a, image_b, "sqsubseteq") == details["order_geq"] != details["chain_leq"]


def names_a_chain_the_relabelling_moves(details):
    import ast

    from dicube.chains import enumerate_chains
    from dicube.complexes import build_ordered_cover
    from dicube.orders import chain_to_double_order

    assert sorted(details) == ["chain", "n", "sigma"] and details["n"] == 2
    sigma = ast.literal_eval(details["sigma"])
    assert sigma == {"a": "b", "b": "a"}
    cover = build_ordered_cover(2)
    by_text = {c.text(cover.complex): c for c in enumerate_chains(cover.complex)}
    chain = by_text[details["chain"]]
    # a relabelling moves the chain's order, so a chain left in place is not equivariant
    order = chain_to_double_order(cover, chain)
    assert order.act(sigma).key() != order.key()


def _semi_regular_by_text(n):
    from dicube.complexes import default_labels
    from dicube.orders import enumerate_orders

    return {o.text(): o for o in enumerate_orders(default_labels(n), "semi-regular")}


def names_a_pair_whose_witness_misses_the_second(details):
    from dicube.cover import u_contains, witness_point

    assert sorted(details) == ["failures", "n"]
    failures = details["failures"]
    assert sorted(failures[0]) == ["check", "pair"]
    assert failures[0]["check"] == "intersection-witness"
    by_text = _semi_regular_by_text(details["n"])
    a, b = (by_text[text] for text in failures[0]["pair"])
    # the planted union of the pair is a, whose witness point is outside b's set
    assert not u_contains(b, witness_point(a))


def names_a_configuration_outside_the_planted_order(details):
    from fractions import Fraction

    from dicube.complexes import default_labels
    from dicube.cover import is_injective_configuration, u_contains
    from dicube.orders import enumerate_orders

    assert sorted(details) == ["failures", "n"]
    failures, labels = details["failures"], default_labels(details["n"])
    assert sorted(failures[0]) == ["check", "config"] and failures[0]["check"] == "covering"
    f = {a: tuple(map(Fraction, xy)) for a, xy in failures[0]["config"]["points"].items()}
    assert sorted(f) == list(labels) and is_injective_configuration(f)
    # the order the planted read-off gives every configuration misses this one
    assert not u_contains(enumerate_orders(labels, "regular")[0], f)


def _regular_by_text(n):
    from dicube.complexes import default_labels
    from dicube.orders import enumerate_orders

    return {o.text(): o for o in enumerate_orders(default_labels(n), "regular")}


def names_a_regular_order_apart_from_its_relabelling(details):
    import ast

    assert sorted(details) == ["n", "order", "sigma"] and details["n"] == 2
    order = _regular_by_text(2)[details["order"]]
    sigma = ast.literal_eval(details["sigma"])
    assert sigma == {"a": "b", "b": "a"}
    # the planted union met the relabelled order; the component union,
    # bound at import before the plant, does not in one of the components
    moved = order.act(sigma)
    assert None in (component_union(order.x, moved.x), component_union(order.y, moved.y))


def names_a_chain_whose_union_is_not_yet_regular(details):
    from dicube.orders import chain_union, to_regular

    assert sorted(details) == ["chain", "n", "triangle"] and details["n"] == 2
    assert details["triangle"] == "FG=max"
    by_text = _regular_by_text(2)
    chain = [by_text[text] for text in details["chain"]]
    # the union is a top only after the retraction that the plant skips
    union = chain_union(chain)
    assert union.key() != chain[-1].key() == to_regular(union).key()


def names_the_models_that_disagree(details):
    assert sorted(details) == ["models", "n"] and details["n"] == 2
    models = details["models"]
    assert sorted(models) == ["break-category", "regular-quotient", "semi-regular-quotient"]
    # the planted break category is the one-label one: a point, not a circle
    assert models["break-category"] == [{"dim": 0, "betti": 1, "torsion": []}]
    assert models["regular-quotient"] == models["semi-regular-quotient"] != models["break-category"]


def swapped_rows(rel):
    """A relation on two labels with both labels exchanged."""
    return (rel[1] >> 1 | (rel[1] & 1) << 1, rel[0] >> 1 | (rel[0] & 1) << 1)


def names_an_order_that_never_meets_its_relabelling(details):
    import ast

    from dicube.orders import DoubleOrder, union_bar

    assert sorted(details) == ["failures", "n"]
    failures = details["failures"]
    assert sorted(failures[0]) == ["check", "order", "sigma"]
    assert failures[0]["check"] == "properness-union"
    order = _semi_regular_by_text(details["n"])[failures[0]["order"]]
    sigma = ast.literal_eval(failures[0]["sigma"])
    assert sigma == {"a": "b", "b": "a"}
    # the order relabelled by hand, not by the planted kernel, never meets
    # the order itself: each comparison i < j becomes j < i
    moved = DoubleOrder(order.labels, *(swapped_rows(rel) for rel in (order.x, order.y)))
    assert union_bar(order, moved) is None


def is_payload(expected):
    def check(details):
        assert details == expected

    return check


PLANTED_FAULTS = [
    pytest.param(
        "nerve-quotient",
        act_morphism_ignoring_the_element,
        names_a_contract_error,
        id="act-morphism-ignores-the-element",
    ),
    pytest.param(
        "nerve-quotient",
        corrupted_quotient(first_object_moved_to_the_next_orbit),
        is_payload(
            {"n": 2, "reason": "orbit morphism count identity fails", "object": "x{b<a};y{}"}
        ),
        id="object-in-the-wrong-orbit",
    ),
    pytest.param(
        "nerve-quotient",
        corrupted_quotient(first_right_identity_broken),
        is_payload({"n": 2, "reason": "quotient category: right identity fails at morphism 1"}),
        id="quotient-right-identity-broken",
    ),
    pytest.param(
        "nerve-quotient",
        adjacent_transpositions_without_the_last,
        is_payload(
            {"n": 2, "reason": "acting group is not every relabeling", "elements": 1, "relabelings": 2}
        ),
        id="subgroup-acts-on-the-regular-orders",
    ),
    pytest.param(
        "chain-order-iso",
        order_poset_of_the_wrong_variant,
        names_a_chain_pair_the_orders_disagree_on,
        id="order-poset-of-the-wrong-variant",
    ),
    pytest.param(
        "chain-order-iso",
        cover_action_ignoring_the_relabelling,
        names_a_chain_the_relabelling_moves,
        id="cover-action-ignores-the-relabelling",
    ),
    pytest.param(
        "orbit-iso",
        adjacent_transpositions_without_the_last,
        is_payload({"n": 2, "quotient_dims": [4, 4, 2], "expected": [3, 2, 1]}),
        id="last-adjacent-transposition-dropped",
    ),
    pytest.param(
        "non-self-linked",
        cover_face_ignoring_eps,
        # both ends of the one edge of the cover on {a} are its lower end
        is_payload({"n": 1, "cell": "(|a|)"}),
        id="cover-face-ignores-eps",
    ),
    pytest.param(
        "bar-F-iso",
        quotient_orbits_ignoring_the_action,
        # each regular order its own orbit: more orbits than break-category objects
        is_payload({"n": 2, "reason": "induced object map not bijective"}),
        id="quotient-orbits-ignore-the-action",
    ),
    pytest.param(
        "cover-complete",
        cover_union_returning_its_first_argument,
        names_a_pair_whose_witness_misses_the_second,
        id="cover-union-returns-its-first-argument",
    ),
    pytest.param(
        "cover-complete",
        cover_read_off_ignoring_the_configuration,
        names_a_configuration_outside_the_planted_order,
        id="cover-read-off-ignores-the-configuration",
    ),
    pytest.param(
        "cover-proper",
        key_relabelling_ignoring_sigma,
        names_an_order_that_never_meets_its_relabelling,
        id="order-action-ignores-the-relabelling",
    ),
    pytest.param(
        "free-action",
        key_relabelling_ignoring_sigma,
        is_payload({"n": 2, "order": "x{};y{b<a}", "sigma": str({"a": "b", "b": "a"})}),
        id="free-action-relabelling-ignores-sigma",
    ),
    pytest.param(
        "union-sigma",
        key_union_returning_its_first_argument,
        names_a_regular_order_apart_from_its_relabelling,
        id="union-sigma-union-returns-its-first-argument",
    ),
    pytest.param(
        "F-G-triangles",
        retraction_returning_its_input,
        names_a_chain_whose_union_is_not_yet_regular,
        id="retraction-returns-its-input",
    ),
    pytest.param(
        "euler-zero",
        run_counts_without_the_longest_runs,
        is_payload({"n": 2, "materialized": 0, "counted": 2}),
        id="run-counts-drop-the-longest-runs",
    ),
    pytest.param(
        "homology-cross-model",
        break_category_one_label_short,
        names_the_models_that_disagree,
        id="break-category-one-label-short",
    ),
    pytest.param(
        "face-swap",
        face_swap_recursion_returning_its_input,
        is_payload(
            {"exception": "AssertionError", "message": "face swap recursion produced a non-identity"}
        ),
        id="face-swap-recursion-returns-its-input",
    ),
]


@pytest.mark.parametrize("check_id, plant, names_the_fault", PLANTED_FAULTS)
def test_planted_fault_fails_its_check(check_id, plant, names_the_fault, monkeypatch):
    plant(monkeypatch)
    reports = run_suite([check_id], n_max=3)
    assert reports[0].status == "fail"
    assert exit_code(reports) == 1
    names_the_fault(reports[0].details)


def fg_triangles_by_chains(n):
    """The F-G-triangles check as a walk over every chain of both posets, the
    oracle of the check by comparable pairs: the details, or a ``Fail`` for
    the first chain in (length, tuple) order that breaks a triangle.  It
    reads the posets and the retraction through ``suite``, so a fault
    planted there shows."""
    from dicube import suite
    from dicube.orders import chain_union, poset_leq

    labels = default_labels(n)
    rposet, regs = suite.regular_orders_poset(labels, "sqsubseteq")
    mixed = [[regs[i] for i in chain] for chain in rposet.chains()]
    for chain in mixed:
        if suite.to_regular(chain_union(chain)).key() != chain[-1].key():
            return suite.Fail({"chain": [o.text() for o in chain], "triangle": "FG=max"})
    sposet, semis = suite.semi_regular_orders_poset(labels)
    inclusion = [[semis[i] for i in chain] for chain in sposet.chains()]
    for chain in inclusion:
        image = list({r.key(): r for r in map(suite.to_regular, chain)}.values())
        if not all(poset_leq(a, b, "sqsubseteq") for a, b in zip(image, image[1:])):
            return suite.Fail({"chain": [o.text() for o in chain], "triangle": "sd(F) chain"})
        if not poset_leq(chain_union(image), chain[-1], "subseteq"):
            return suite.Fail({"chain": [o.text() for o in chain], "triangle": "G sd(F) <= max"})
    return {"mixed_chains": len(mixed), "inclusion_chains": len(inclusion)}


def inclusion_poset_reversed(monkeypatch):
    from dicube import suite
    from dicube.posets import Poset, rel_transpose

    real = suite.semi_regular_orders_poset

    def reversed_poset(labels):
        poset, orders = real(labels)
        return Poset(poset.elements, rel_transpose(poset.leq)), orders

    monkeypatch.setattr(suite, "semi_regular_orders_poset", reversed_poset)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fg_triangles_by_pairs_agrees_with_the_chain_walk(n):
    from dicube.suite import Fail, check_fg_triangles

    details = check_fg_triangles(n, n)
    assert details == fg_triangles_by_chains(n)
    assert not isinstance(details, Fail)


# each fault passes every chain of one order, so the first chain to fail
# has two: it is the first failing pair too, and both give one payload
@pytest.mark.parametrize(
    "plant",
    [retraction_returning_its_input, inclusion_poset_reversed],
    ids=["retraction-returns-its-input", "inclusion-poset-reversed"],
)
@pytest.mark.parametrize("n", [2, 3])
def test_fg_triangles_by_pairs_and_by_chains_fail_alike(n, plant, monkeypatch):
    from dicube.suite import Fail, check_fg_triangles

    plant(monkeypatch)
    faulted = check_fg_triangles(n, n)
    assert isinstance(faulted, Fail)
    assert faulted == fg_triangles_by_chains(n)
