import gc
import json

import jsonschema
import pytest

import groupkit
from groupkit.cli import main
from groupkit.report import load_schema

D12 = "dihedral:6"
H_EMPTY = "1,a^3,ba^3,b"
K_EMPTY = "1,a^3,ba,ba^4"
H_PROPER = "1,ab"
K_PROPER = "1,a^3,b,ba^3"


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    jsonschema.validate(instance=data, schema=load_schema())
    assert data["exit_code"] == code
    return code, data


# -- happy paths ----------------------------------------------------------------


def test_rta_json(capsys):
    code, data = run_json(capsys, [
        "rta", "--group", "cyclic:12", "-H", "0,3,6,9",
        "--g0", "0", "--policy", "script:1,2", "--trace", "full",
    ])
    assert code == 0
    r = data["result"]
    assert r["trace"]["n_steps"] == 2
    assert r["trace"]["chain_sizes"] == [12, 8, 4, 0]
    assert r["transversal"] == ["0", "1", "2"]
    assert r["index"] == 3
    assert r["valid"] is True
    assert r["trace"]["chain_sets"][-1] == []


def test_rta_text(capsys):
    code = main(["rta", "--group", "cyclic:12", "-H", "0,3,6,9", "--trace", "full"])
    out = capsys.readouterr().out
    assert code == 0
    assert "T = {0, 1, 2}" in out
    assert "C^(-1) = " in out
    assert "index |G:H| = 3" in out


def test_mta_json(capsys):
    code, data = run_json(capsys, [
        "mta", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY,
        "--g0", "1", "--policy", "script:a^2",
    ])
    assert code == 0
    r = data["result"]
    assert r["double_coset_count"] == 2
    assert r["transversal"] == ["1", "a^2"]
    assert r["valid"] is True
    assert r["trace"]["chain_sets"] is None  # sizes mode by default


def test_msfa_extend_json(capsys):
    code, data = run_json(capsys, [
        "msfa", "--group", D12, "-H", H_PROPER, "-K", K_PROPER,
        "--g0", "1", "--policy", "script:a^2", "--extend",
    ])
    assert code == 0
    r = data["result"]
    assert r["x"] == ["1"]
    assert r["trace"]["n_steps"] == 0
    assert r["mid_size"] == 8
    assert r["direct"] is True and r["maximal"] is True
    assert r["covers_group"] is False
    assert r["x_star"] == ["1", "a^2"]
    assert r["extension"]["n_steps"] == 1
    assert r["extension"]["extension_start"] == 0


def test_msfa_text_extension_labels(capsys):
    main(["msfa", "--group", D12, "-H", H_PROPER, "-K", K_PROPER,
          "--trace", "full", "--extend"])
    out = capsys.readouterr().out
    assert "X* = " in out
    assert "C*^(0) = " in out


def test_mid_both_methods(capsys):
    code, data = run_json(capsys, ["mid", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY])
    assert code == 0
    r = data["result"]
    assert r["tag"] == "Empty"
    assert r["size"] == 0
    assert r["agree"] is True

    code, data = run_json(capsys, ["mid", "--group", D12, "-H", H_PROPER, "-K", K_PROPER])
    assert code == 0
    assert data["result"]["tag"] == "ProperNonempty"
    assert data["result"]["size"] == 8

    code, data = run_json(capsys, ["mid", "--group", "cyclic:12", "-H", "0,6", "-K", "0,4,8"])
    assert code == 0
    assert data["result"]["tag"] == "Full"
    assert data["result"]["size"] == 12


def test_mid_single_method(capsys):
    code, data = run_json(capsys, [
        "mid", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY, "--method", "definition"])
    assert code == 0
    assert "agree" not in data["result"]


def test_enumerate_both(capsys):
    code, data = run_json(capsys, [
        "enumerate", "--group", "cyclic:12", "-H", "0,3,6,9",
        "--what", "right-transversals",
    ])
    assert code == 0
    r = data["result"]
    assert r["count_algorithm"] == r["count_oracle"] == 64
    assert r["match"] is True
    assert "sets" not in r


def test_enumerate_list_sorted(capsys):
    code, data = run_json(capsys, [
        "enumerate", "--group", D12, "-H", H_PROPER, "-K", K_PROPER,
        "--what", "middle-subfactors", "--list",
    ])
    assert code == 0
    sets = data["result"]["sets"]
    assert len(sets) == 8
    assert sets[0] == ["1"]
    assert all(len(s) == 1 for s in sets)


def test_enumerate_list_order_on_pairs(capsys):
    # --list sorts by index tuple, and every --via lists the same sets
    argv = ["enumerate", "--group", "dihedral:3", "-H", "1,b", "-K", "1,b",
            "--what", "middle-transversals", "--list"]
    want = [["1", "a"], ["1", "a^2"], ["1", "ba"], ["1", "ba^2"],
            ["a", "b"], ["a^2", "b"], ["b", "ba"], ["b", "ba^2"]]
    for via in ("algorithm", "oracle", "both"):
        code, data = run_json(capsys, argv + ["--via", via])
        assert code == 0
        assert data["result"]["sets"] == want, via


def test_verify_paper(capsys):
    code, data = run_json(capsys, ["verify-paper"])
    assert code == 0
    assert data["result"]["counts"] == {"pass": 39, "warn": 2, "fail": 0}
    assert {s["example"] for s in data["result"]["sections"]} == {"1.3", "2.5", "2.14"}


def test_verify_paper_single_example(capsys):
    code, data = run_json(capsys, ["verify-paper", "--example", "2.14"])
    assert code == 0
    assert [s["example"] for s in data["result"]["sections"]] == ["2.14"]
    assert data["result"]["counts"]["warn"] == 0


def test_verify_paper_text(capsys):
    code = main(["verify-paper", "--example", "2.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[WARN]" in out
    assert "summary: pass=" in out


# -- group loading forms ---------------------------------------------------------


def test_group_from_json_literal(capsys):
    spec = json.dumps({"kind": "cyclic", "n": 6})
    code, data = run_json(capsys, ["rta", "--group", spec, "-H", "0,3"])
    assert code == 0
    assert data["group"]["order"] == 6


def test_group_from_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "dihedral", "n": 3}))
    code, data = run_json(capsys, ["rta", "--group", f"@{path}", "-H", "1,b"])
    assert code == 0
    assert data["group"]["order"] == 6


def test_group_file_missing(capsys):
    code = main(["rta", "--group", "@/no/such/file.json", "-H", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- failure paths ----------------------------------------------------------------


def test_malformed_subset_exits_2(capsys):
    code = main(["rta", "--group", "cyclic:12", "-H", "0,3,x"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "item 3" in err


def test_not_a_subgroup_exits_2(capsys):
    code = main(["rta", "--group", D12, "-H", "1,a"])
    assert code == 2
    assert "not a subgroup" in capsys.readouterr().err


def test_missing_subgroup_flag_exits_2(capsys):
    code = main(["mta", "--group", D12, "-H", H_EMPTY])
    assert code == 2
    assert "-K is required" in capsys.readouterr().err


def test_bad_policy_exits_2(capsys):
    assert main(["rta", "--group", "cyclic:12", "-H", "0,6", "--policy", "best"]) == 2
    assert main(["rta", "--group", "cyclic:12", "-H", "0,6",
                 "--policy", "random:two"]) == 2
    capsys.readouterr()


def test_bad_g0_exits_2(capsys):
    code = main(["rta", "--group", "cyclic:12", "-H", "0,6", "--g0", "44"])
    assert code == 2
    assert "--g0" in capsys.readouterr().err


def test_scripted_choice_invalid_exits_2(capsys):
    code = main(["rta", "--group", "cyclic:12", "-H", "0,3,6,9",
                 "--g0", "0", "--policy", "script:3"])
    assert code == 2
    capsys.readouterr()


def test_g0_outside_mid_exits_2(capsys):
    code = main(["msfa", "--group", D12, "-H", H_PROPER, "-K", K_PROPER, "--g0", "ba"])
    assert code == 2
    capsys.readouterr()


def test_mid_empty_exits_3(capsys):
    code = main(["msfa", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY])
    assert code == 3
    assert "not applicable:" in capsys.readouterr().err


def test_enumerate_subfactors_mid_empty_exits_3(capsys):
    code = main(["enumerate", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY,
                 "--what", "middle-subfactors"])
    assert code == 3
    capsys.readouterr()


def test_fault_injection_exits_4(capsys, monkeypatch):
    monkeypatch.setenv("GROUPKIT_FAULT_INJECT", "drop-algorithm-set")
    code = main(["enumerate", "--group", "cyclic:12", "-H", "0,3,6,9",
                 "--what", "right-transversals", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 4
    data = json.loads(out)
    assert data["result"]["count_algorithm"] == 63
    assert data["result"]["match"] is False


def test_enumeration_limit_exits_5(capsys):
    code = main(["enumerate", "--group", "cyclic:12", "-H", "0,3,6,9",
                 "--what", "right-transversals", "--limit", "5"])
    assert code == 5
    assert "limit exceeded:" in capsys.readouterr().err


def test_enumeration_limit_reports_the_count(capsys):
    code = main(["enumerate", "--group", "cyclic:12", "-H", "0,6",
                 "--what", "right-transversals", "--limit", "5", "--via", "algorithm"])
    assert code == 5
    assert "64 results exceed the cap of 5" in capsys.readouterr().err


def test_enumerate_right_transversals_refuses_k(capsys):
    code = main(["enumerate", "--group", "cyclic:12", "-H", "0,6", "-K", "0,4,8",
                 "--what", "right-transversals"])
    assert code == 2
    captured = capsys.readouterr()
    assert "-K does not apply" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_non_positive_limit_exits_2(capsys, limit):
    code = main(["enumerate", "--group", "cyclic:12", "-H", "0,3,6,9",
                 "--what", "right-transversals", "--limit", limit])
    assert code == 2
    assert f"--limit must be a positive integer, got {limit}" in capsys.readouterr().err


def test_max_order_env_exits_5(capsys, monkeypatch):
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", "8")
    code = main(["rta", "--group", "cyclic:12", "-H", "0,6"])
    assert code == 5
    capsys.readouterr()


def test_enum_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("GROUPKIT_ENUM_LIMIT", "5")
    code = main(["enumerate", "--group", "cyclic:12", "-H", "0,3,6,9",
                 "--what", "right-transversals"])
    assert code == 5
    capsys.readouterr()


def test_unknown_example_exits_2(capsys):
    code = main(["verify-paper", "--example", "9.9"])
    assert code == 2
    capsys.readouterr()


# -- report hygiene ---------------------------------------------------------------


def test_duplicate_subset_warning_lands_in_report(capsys):
    code, data = run_json(capsys, ["rta", "--group", "cyclic:12", "-H", "0,6,6"])
    assert code == 0
    assert any("duplicate" in w for w in data["warnings"])


def test_json_deterministic_modulo_timing(capsys):
    argv = ["mta", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY,
            "--policy", "random:7", "--format", "json"]
    main(argv)
    first = json.loads(capsys.readouterr().out)
    main(argv)
    second = json.loads(capsys.readouterr().out)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_all_reports_validate(capsys):
    # one sweep over every subcommand in json mode
    for argv in (
        ["rta", "--group", "cyclic:12", "-H", "0,4,8"],
        ["mta", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY],
        ["msfa", "--group", D12, "-H", H_PROPER, "-K", K_PROPER, "--extend"],
        ["mid", "--group", D12, "-H", H_PROPER, "-K", K_PROPER],
        ["enumerate", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY,
         "--what", "middle-transversals", "--list"],
        ["verify-paper", "--example", "1.3"],
    ):
        run_json(capsys, argv)


def _nested_product_json(depth):
    return ('{"kind":"direct_product","factors":[' * depth + '{"kind":"cyclic","n":1}'
            + "]}" * depth)


@pytest.mark.parametrize("depth", [400, 600])
@pytest.mark.parametrize("via_file", [False, True])
def test_deep_spec_exits_2(tmp_path, capsys, depth, via_file):
    # 400 deep overflows the build, 600 deep the JSON decoder
    group = _nested_product_json(depth)
    if via_file:
        path = tmp_path / "deep.json"
        path.write_text(group)
        group = f"@{path}"
    assert main(["rta", "--group", group, "-H", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "nested too deeply" in err


@pytest.mark.parametrize("via_file", [False, True])
def test_spec_with_a_huge_integer_exits_2(tmp_path, capsys, via_file):
    # json.loads refuses an integer past the interpreter's digit limit
    # (4,300 by default) with a ValueError that is no JSONDecodeError
    group = '{"kind":"cyclic","n":' + "9" * 5000 + "}"
    if via_file:
        path = tmp_path / "huge.json"
        path.write_text(group)
        group = f"@{path}"
    assert main(["rta", "--group", group, "-H", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# The README's exit-code table, for every error class the package exports.
EXIT_CODES = {
    "GroupKitError": (2, "error"),
    "InvalidSpec": (2, "error"),
    "NotAGroup": (2, "error"),
    "SizeLimitExceeded": (5, "limit exceeded"),
    "IndexOutOfRange": (2, "error"),
    "GroupMismatch": (2, "error"),
    "NotASubgroup": (2, "error"),
    "ParseError": (2, "error"),
    "UnknownSymbol": (2, "error"),
    "ScriptedChoiceInvalid": (2, "error"),
    "MidEmpty": (3, "not applicable"),
    "G0NotInMid": (2, "error"),
    "TraceMismatch": (4, "internal check failed"),
    "EnumerationLimitExceeded": (5, "limit exceeded"),
}


def test_every_exported_error_has_an_exit_code():
    exported = {
        name for name in groupkit.__all__
        if isinstance(getattr(groupkit, name), type)
        and issubclass(getattr(groupkit, name), groupkit.GroupKitError)
    }
    assert exported == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_class_exit_code(capsys, monkeypatch, name):
    code, label = EXIT_CODES[name]
    collecting = []

    def fail(*args, **kwargs):
        collecting.append(gc.isenabled())
        raise getattr(groupkit, name)("boom")

    monkeypatch.setattr("groupkit.cli.rta", fail)
    assert main(["rta", "--group", "cyclic:4", "-H", "0"]) == code
    # the cyclic collector is paused inside the command and back on after it
    assert collecting == [False]
    assert gc.isenabled()
    captured = capsys.readouterr()
    assert captured.err == f"{label}: boom\n"
    assert captured.out == ""


def test_collector_resumes_when_a_handler_raises_another_error(monkeypatch):
    def fail(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr("groupkit.cli.rta", fail)
    with pytest.raises(KeyError):
        main(["rta", "--group", "cyclic:4", "-H", "0"])
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_of_the_caller_is_kept(capsys, enabled):
    if not enabled:
        gc.disable()
    try:
        assert main(["rta", "--group", "cyclic:4", "-H", "0"]) == 0
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert capsys.readouterr().out.startswith("group: cyclic:4")


@pytest.mark.parametrize("group", [
    "symmetric:2000",
    '{"kind":"direct_product","factors":[{"kind":"cyclic","n":2048},'
    '{"kind":"cyclic","n":4096}]}',
])
def test_huge_group_spec_exits_5(capsys, group):
    assert main(["rta", "--group", group, "-H", "1"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("limit exceeded: ")
    assert "Traceback" not in err
