import json

import pytest

from dicube import cli
from dicube.cli import main
from dicube.complexes import build_final_complex
from dicube.errors import ContractError, UsageError
from dicube.precubical import is_non_self_linked
from dicube.suite import REGISTRY, CheckSpec, exit_code, run_suite


def strip_times(payload):
    for entry in payload:
        entry.pop("wall_time", None)
    return payload


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


def test_jobs_flag_keeps_report_order():
    seq = run_suite(["union-sigma", "face-swap", "free-action"], n_max=2)
    par = run_suite(["union-sigma", "face-swap", "free-action"], n_max=2, jobs=3)
    assert [r.id for r in seq] == [r.id for r in par]
    assert [r.status for r in seq] == [r.status for r in par]


def test_non_self_linked_failure_payload_replays():
    reports = run_suite(["non-self-linked"], n_max=2, params={"target": "final-truncated"})
    (report,) = reports
    assert report.status == "fail"
    assert exit_code(reports) == 1
    payload = report.details
    replay = is_non_self_linked(build_final_complex(payload["max_dim"]))
    assert not replay.ok
    assert payload["cell"] == "z1"


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


def test_enumeration_cap_env_override(monkeypatch):
    from dicube.chains import enumerate_chains
    from dicube.complexes import build_final_complex
    from dicube.errors import ResourceCapError, enumeration_cap

    monkeypatch.setenv("DICUBE_MAX_CELLS", "200")
    assert enumeration_cap() == 200
    with pytest.raises(ResourceCapError):
        enumerate_chains(build_final_complex(2))  # loops; the env cap cuts it off
    monkeypatch.setenv("DICUBE_MAX_CELLS", "bogus")
    with pytest.raises(UsageError):
        enumeration_cap()


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


def test_cli_verify_failure_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--suite",
            "non-self-linked",
            "--n-max",
            "2",
            "--target",
            "final-truncated",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload[0]["status"] == "fail"
    assert payload[0]["details"]["cell"] == "z1"


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


def test_cli_verify_unknown_target_is_usage_error(capsys):
    assert main(["verify", "--suite", "non-self-linked", "--n-max", "2", "--target", "bogus"]) == 2


def test_cli_verify_unknown_id_is_usage_error(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2


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
