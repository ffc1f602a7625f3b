import contextlib
import gc
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
import suites

import groupkit
from groupkit.cli import main
from groupkit.errors import quote
from groupkit.report import RunReport, load_schema

D12 = "dihedral:6"
JSON_GROUP = groupkit.build_group({"kind": "cyclic", "n": 2})
H_EMPTY = "1,a^3,ba^3,b"
K_EMPTY = "1,a^3,ba,ba^4"
H_PROPER = "1,ab"
K_PROPER = "1,a^3,b,ba^3"

# checked and built once: jsonschema.validate does both on every call
SCHEMA = load_schema()
jsonschema.Draft202012Validator.check_schema(SCHEMA)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert not list(VALIDATOR.iter_errors(data))
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


# one element of each right coset r + {0, 4, 8} of C12, as index tuples in
# order: 81 sets
C12_RIGHT_TRANSVERSALS = sorted(
    tuple(sorted(pick)) for pick in itertools.product(*(range(r, 12, 4) for r in range(4)))
)

LIST_CASES = {
    "middle-transversals": (
        ["--group", "dihedral:3", "-H", "1,b", "-K", "1,b", "--what", "middle-transversals"],
        [["1", "a"], ["1", "a^2"], ["1", "ba"], ["1", "ba^2"],
         ["a", "b"], ["a^2", "b"], ["b", "ba"], ["b", "ba^2"]],
    ),
    "right-transversals": (
        ["--group", "cyclic:12", "-H", "0,4,8", "--what", "right-transversals"],
        [[str(i) for i in t] for t in C12_RIGHT_TRANSVERSALS],
    ),
    # H = K = {1, b} in both: Mid is proper and nonempty (4 of 6 elements,
    # then 8 of 12)
    "middle-subfactors-d6": (
        ["--group", "dihedral:3", "-H", "1,b", "-K", "1,b", "--what", "middle-subfactors"],
        [["a"], ["a^2"], ["ba"], ["ba^2"]],
    ),
    "middle-subfactors-d12": (
        ["--group", D12, "-H", "1,b", "-K", "1,b", "--what", "middle-subfactors"],
        [["a", "a^2"], ["a", "a^4"], ["a", "ba^2"], ["a", "ba^4"], ["a^2", "a^5"],
         ["a^2", "ba"], ["a^2", "ba^5"], ["a^4", "a^5"], ["a^4", "ba"], ["a^4", "ba^5"],
         ["a^5", "ba^2"], ["a^5", "ba^4"], ["ba", "ba^2"], ["ba", "ba^4"], ["ba^2", "ba^5"],
         ["ba^4", "ba^5"]],
    ),
}


@pytest.mark.parametrize("case", sorted(LIST_CASES))
def test_enumerate_list_order_on_pairs(capsys, case):
    # --list sorts by index tuple, and every --via lists the same sets
    argv, want = LIST_CASES[case]
    for via in ("algorithm", "oracle", "both"):
        code, data = run_json(capsys, ["enumerate", *argv, "--list", "--via", via])
        assert code == 0
        assert data["result"]["sets"] == want, via


def test_enumerate_list_names_its_sets_from_the_masks(capsys, monkeypatch):
    # --list wraps no answer as a set: with and without it, a run of the
    # 65,536 maximal direct middles of D32 makes as many subset_from_mask calls
    subset_from_mask = groupkit.Group.subset_from_mask
    calls = []

    def counting(self, mask):
        calls.append(mask)
        return subset_from_mask(self, mask)

    monkeypatch.setattr(groupkit.Group, "subset_from_mask", counting)
    argv = ["enumerate", "--via", "both", "--group", "dihedral:16", "-H", "1,b", "-K", "1,ba",
            "--what", "middle-subfactors"]
    counts = []
    for extra in ([], ["--list"]):
        calls.clear()
        assert main(argv + extra) == 0
        counts.append(len(calls))
        out = capsys.readouterr().out
        assert "count (search): 65536\n" in out
    assert out.count("\n  {") == 65536
    assert counts[1] == counts[0]


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


def test_verify_paper_collapses_a_repeated_example(capsys):
    code, data = run_json(capsys, ["verify-paper", "--example", "1.3, 2.14,1.3"])
    assert code == 0
    assert data["inputs"]["examples"] == ["1.3", "2.14"]
    assert [s["example"] for s in data["result"]["sections"]] == ["1.3", "2.14"]
    alone = run_json(capsys, ["verify-paper", "--example", "1.3,2.14"])[1]
    assert data["result"]["counts"] == alone["result"]["counts"]
    assert data["warnings"] == ["duplicate example '1.3' collapsed"]


def test_verify_run_collapses_a_repeated_example():
    # the library replays a repeated example once, as the CLI does
    from groupkit import verify

    with pytest.warns(UserWarning) as caught:
        _, result = verify.run(["1.3", "1.3"])
    assert [section["example"] for section in result["sections"]] == ["1.3"]
    assert result["counts"] == {"pass": 8, "warn": 0, "fail": 0}
    assert [str(w.message) for w in caught] == ["duplicate example '1.3' collapsed"]


@pytest.mark.parametrize("example", ["", ",", " , "])
def test_verify_paper_refuses_an_empty_example_list(capsys, example):
    # only a missing --example means every example
    assert main(["verify-paper", "--example", example]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no example chosen; choose from 1.3, 2.5, 2.14\n"


def test_verify_run_refuses_an_empty_choice():
    # None replays every example; an empty list or tuple chooses none
    from groupkit import InvalidSpec, verify

    for examples in ([], ()):
        with pytest.raises(InvalidSpec, match=r"^no example chosen; choose from 1\.3, 2\.5, 2\.14$"):
            verify.run(examples)
    assert [s["example"] for s in verify.run(None)[1]["sections"]] == ["1.3", "2.5", "2.14"]


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


@pytest.mark.parametrize("content, message", [
    (b'{"kind": "cyclic", "n": 12}\xff', "cannot read group file {}: 'utf-8' codec can't decode "
     "byte 0xff in position 27: invalid start byte"),
    (b"{kind: cyclic}", "group file {} is not valid JSON: Expecting property name enclosed "
     "in double quotes: line 1 column 2 (char 1)"),
], ids=["not-utf8", "not-json"])
def test_unreadable_group_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "g.json"
    path.write_bytes(content)
    assert main(["rta", "--group", f"@{path}", "-H", "0"]) == 2
    assert capsys.readouterr().err == f"error: {message.format(quote(str(path)))}\n"


@pytest.mark.parametrize("group, order", [("cyclic: 12 ", 12), (" dihedral :3", 6)])
def test_inline_group_allows_surrounding_whitespace(capsys, group, order):
    code, data = run_json(capsys, ["rta", "--group", group, "-H", "0"])
    assert code == 0
    assert data["group"]["order"] == order


@pytest.mark.parametrize("group", ["cyclic:\u0661\u0662", "cyclic:\uff11\uff12", "cyclic:1_2",
                                   "cyclic:+12", "cyclic:-12", "cyclic:1 2", "cyclic:"])
def test_inline_group_takes_ascii_digits_only(capsys, group):
    # int() would read each of these but the last two
    assert main(["rta", "--group", group, "-H", "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: inline group {quote(group)} needs an integer parameter\n")


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


@pytest.mark.parametrize("reader", ["seed", "limit", "max-order-env", "enum-limit-env"])
@pytest.mark.parametrize("text", ["1_000", "\u0663", " 5", "+5"])
def test_typed_integers_take_ascii_digits_only(capsys, monkeypatch, reader, text):
    # as in element words and kind:n: no '_', Arabic-Indic three, spaces or '+'
    # (H = C2 has 2 right transversals, within any cap these texts could mean)
    enum = ["enumerate", "--group", "cyclic:2", "-H", "0,1", "--what", "right-transversals"]
    argv = {"seed": ["rta", "--group", "cyclic:2", "-H", "0", "--policy", f"random:{text}"],
            "limit": enum + ["--limit", text]}.get(reader, enum)
    env = {"max-order-env": "GROUPKIT_MAX_ORDER", "enum-limit-env": "GROUPKIT_ENUM_LIMIT"}
    if reader in env:
        monkeypatch.setenv(env[reader], text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and quote(text) in err


@pytest.mark.parametrize("argv,reason", [
    (["--policy", "random:" + "9" * 5000], "needs an integer seed"),
    (["--policy", "x" * 5000], "not understood"),
    (["--group", "cyclic:" + "x" * 5000], "needs an integer parameter"),
    (["--group", "cyclic:" + "9" * 5000], "needs an integer parameter"),
    (["--group", "@/no/such/" + "d" * 3000], "No such file or directory"),
], ids=["random-seed", "policy", "inline-group", "inline-group-digits", "group-file"])
def test_error_messages_quote_a_bounded_prefix(capsys, argv, reason):
    # each flag given twice keeps its last value, so argv overrides the defaults
    assert main(["rta", "--group", "cyclic:12", "-H", "0,6"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err) < 300
    assert reason in err


# H for an empty middle director: written out in full it runs to 2,500 characters
_EVEN_512 = ",".join(str(i) for i in range(0, 1024, 2))


@pytest.mark.parametrize("argv,env,code", [
    (["rta", "--group", "cyclic:4096", "-H", ",".join(str(i) for i in range(3000))], None, 2),
    (["msfa", "--group", "cyclic:1024", "-H", _EVEN_512, "-K", "0,256,512,768"], None, 3),
    (["rta", "--group", '{"kind":"' + "x" * 5000 + '"}', "-H", "0"], None, 2),
    (["rta", "--group", '{"kind":[' + ",".join(["0"] * 3000) + "]}", "-H", "0"], None, 2),
    (["verify-paper", "--example", "x" * 5000], None, 2),
    (["enumerate", "--group", "cyclic:12", "-H", "0,6", "--what", "right-transversals",
      "--limit", "-" + "9" * 4000], None, 2),
    (["rta", "--group", "cyclic:12", "-H", "0"], "x" * 5000, 2),
], ids=["not-a-subgroup", "empty-mid", "group-kind", "group-kind-list", "example",
        "limit", "max-order-env"])
def test_echoed_input_is_bounded(capsys, monkeypatch, argv, env, code):
    # each input, echoed whole, would print thousands of characters
    if env is not None:
        monkeypatch.setenv("GROUPKIT_MAX_ORDER", env)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("not applicable:" if code == 3 else "error:")
    assert len(err) < 300


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


@pytest.mark.parametrize("search, argv, line, field, value", [
    ("rta", ["rta", "--group", D12, "-H", "1,b"], "valid right transversal: NO", "valid", False),
    ("mta", ["mta", "--group", D12, "-H", "1,b", "-K", "1,ba"],
     "valid middle transversal: NO", "valid", False),
    ("extend_to_middle_transversal", ["msfa", "--group", D12, "-H", H_PROPER, "-K", K_PROPER,
                                      "--extend"], "X* = {1}", "x_star", ["1"]),
], ids=["rta", "mta", "extension"])
def test_a_search_output_that_fails_its_check_exits_4(capsys, monkeypatch, search, argv, line,
                                                      field, value):
    # the search returns its honest trace with its last pick replaced by its
    # first: an output one element short, which the CLI's check refuses
    from groupkit import cli

    honest = getattr(cli, search)

    def tampered(*args, **kwargs):
        trace = honest(*args, **kwargs)
        trace.chosen[-1] = trace.chosen[0]
        return trace

    monkeypatch.setattr(cli, search, tampered)
    assert main(argv) == 4
    assert line in capsys.readouterr().out.splitlines()
    code, data = run_json(capsys, argv)
    assert code == 4 and data["result"][field] == value


def _drop_largest(masks):
    masks.discard(max(masks))


def _swap_largest(masks):
    # {0, 3, 6} lies in one right coset of {0, 3, 6, 9}: the same size as a
    # transversal, but not one
    _drop_largest(masks)
    masks.add(1 << 0 | 1 << 3 | 1 << 6)


@pytest.mark.parametrize("tamper, count_oracle", [(_drop_largest, 63), (_swap_largest, 64)],
                         ids=["drop", "swap"])
def test_oracle_side_mismatch_exits_4(capsys, monkeypatch, tamper, count_oracle):
    from groupkit import oracle

    honest = oracle.all_right_transversals

    def tampered(*args, **kwargs):
        masks = set(itertools.chain.from_iterable(honest(*args, **kwargs)))
        tamper(masks)
        return [list(masks)]

    monkeypatch.setattr(oracle, "all_right_transversals", tampered)
    code, data = run_json(capsys, ["enumerate", "--group", "cyclic:12", "-H", "0,3,6,9",
                                   "--what", "right-transversals"])
    assert code == 4
    r = data["result"]
    assert (r["count_algorithm"], r["count_oracle"], r["match"]) == (64, count_oracle, False)


def _repeat_first(masks):
    masks.append(masks[0])


def _first_for_largest(masks):
    # the counts still agree and every answer is a true one: a check by
    # length and subset alone would pass this
    masks[masks.index(max(masks))] = masks[0]


@pytest.mark.parametrize("tamper, count_algorithm", [(_repeat_first, 65),
                                                     (_first_for_largest, 64)],
                         ids=["append", "replace"])
def test_search_side_duplicate_exits_4(capsys, monkeypatch, tamper, count_algorithm):
    from groupkit import cli

    honest = cli.enumerate_all_right_transversals

    def tampered(*args, **kwargs):
        masks = list(itertools.chain.from_iterable(honest(*args, **kwargs)))
        tamper(masks)
        return [masks]

    monkeypatch.setattr(cli, "enumerate_all_right_transversals", tampered)
    code, data = run_json(capsys, ["enumerate", "--group", "cyclic:12", "-H", "0,3,6,9",
                                   "--what", "right-transversals"])
    assert code == 4
    r = data["result"]
    assert (r["count_algorithm"], r["count_oracle"], r["match"]) == (count_algorithm, 64, False)


def _reverse(masks):
    masks.reverse()


def _last_as_first(masks):
    masks[-1] = masks[0]


def _last_as_foreign(masks):
    # the union of two answers holds two elements of a cell: no answer
    masks[-1] |= masks[0]


@pytest.mark.parametrize("what, search, h, k", [
    ("middle-transversals", "enumerate_all_middle_transversals", H_EMPTY, K_EMPTY),
    ("middle-subfactors", "enumerate_all_middle_subfactors", H_PROPER, K_PROPER),
], ids=["transversals", "subfactors"])
@pytest.mark.parametrize("tamper, code", [(_reverse, 0), (_last_as_first, 4),
                                          (_last_as_foreign, 4)],
                         ids=["reversed", "duplicate", "foreign"])
def test_a_reordered_search_list_is_checked_as_a_set(capsys, monkeypatch, what, search, h, k,
                                                     tamper, code):
    # the oracle's list differs from the search's here, so the verdict comes
    # from the order-free check: same answers in another order match, and a
    # list of the right length with an answer missing does not
    from groupkit import cli

    honest = getattr(cli, search)

    def tampered(*args, **kwargs):
        masks = list(itertools.chain.from_iterable(honest(*args, **kwargs)))
        tamper(masks)
        return [masks]

    monkeypatch.setattr(cli, search, tampered)
    got, data = run_json(capsys, ["enumerate", "--group", D12, "-H", h, "-K", k, "--what", what])
    assert got == code
    r = data["result"]
    assert r["count_oracle"] >= 2
    assert (r["count_algorithm"], r["match"]) == (r["count_oracle"], code == 0)


@pytest.mark.parametrize("what, name, subgroups", [
    ("right-transversals", "enumerate_all_right_transversals", ["-H", H_PROPER]),
    ("middle-transversals", "enumerate_all_middle_transversals", ["-H", H_EMPTY, "-K", K_EMPTY]),
    ("middle-subfactors", "enumerate_all_middle_subfactors", ["-H", H_PROPER, "-K", K_PROPER]),
], ids=["right", "middle", "subfactors"])
def test_enumerate_calls_its_public_search_once_for_masks(capsys, monkeypatch, what, name,
                                                          subgroups):
    # the search side of the cross-check goes through the public name, so a
    # wrapper on it (as the benchmark's tracer installs) sees every call
    from groupkit import cli

    calls = {}

    def counting(public):
        honest = getattr(cli, public)

        def counted(*args, **kwargs):
            calls.setdefault(public, []).append(kwargs.get("as_masks"))
            return honest(*args, **kwargs)
        return counted

    for public in ("enumerate_all_right_transversals", "enumerate_all_middle_transversals",
                   "enumerate_all_middle_subfactors"):
        monkeypatch.setattr(cli, public, counting(public))
    code, data = run_json(capsys, ["enumerate", "--group", D12, *subgroups, "--what", what])
    assert code == 0 and data["result"]["match"] is True
    assert calls == {name: [True]}


@pytest.mark.parametrize("cut", [1, 3, 5000], ids=["one", "three", "all"])
@pytest.mark.parametrize("h, what", [("0,16", "right-transversals"),
                                     ("0,8,16,24", "middle-transversals")], ids=["rt", "mt"])
def test_the_cross_check_leans_on_no_common_cut_into_rows(capsys, monkeypatch, cut, h, what):
    # the oracle's masks re-cut into rows of another length still match the
    # search's rows, and are all counted: 16 cells of 2 masks, then 8 of 4
    from groupkit import oracle

    name = {"right-transversals": "all_right_transversals",
            "middle-transversals": "all_middle_transversals"}[what]
    honest = getattr(oracle, name)

    def recut(*args, **kwargs):
        masks = itertools.chain.from_iterable(honest(*args, **kwargs))
        return iter(lambda: list(itertools.islice(masks, cut)), [])

    monkeypatch.setattr(oracle, name, recut)
    k = ["-K", "0,16"] if what == "middle-transversals" else []
    code, data = run_json(capsys, ["enumerate", "--group", "cyclic:32", "-H", h, *k,
                                   "--what", what])
    r = data["result"]
    assert (code, r["count_algorithm"], r["count_oracle"], r["match"]) == (0, 65536, 65536, True)


def test_the_cross_check_holds_one_row_at_a_time(capsys):
    # 65,536 right transversals of Z32 with H = {0, 16}: the two whole lists
    # of masks took 5.3 MiB; each side's rows are read as they are compared
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["enumerate", "--group", "cyclic:32", "-H", "0,16",
                     "--what", "right-transversals"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and "match: yes" in capsys.readouterr().out
    assert peak < 1 << 20


@pytest.mark.parametrize("via, field", [("algorithm", "count_algorithm"),
                                        ("oracle", "count_oracle")])
def test_one_side_counts_its_rows(capsys, via, field):
    code, data = run_json(capsys, ["enumerate", "--via", via, "--group", "cyclic:32",
                                   "-H", "0,16", "--what", "right-transversals"])
    assert (code, data["result"][field]) == (0, 65536)
    assert set(data["result"]) == {"what", "via", field}


# -- relabeling: answers do not depend on the element order ------------------------

RELABELED = {
    "D12": {"kind": "dihedral", "n": 6},
    "S4": {"kind": "symmetric", "n": 4},
    "C2xD6": {"kind": "direct_product",
              "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 3}]},
}

# Above this many sets the search's cap error, which gives the exact count,
# stands in for the cross-check: S4 has 4,096 and 6,561 right transversals of
# its subgroups of order 2 to 4, and enumerating them all takes seconds.
RELABEL_CAP = "1296"


def _relabeled(g, perm):
    """g as a cayley spec with element x moved to index perm[x] under its own name."""
    n = g.order
    names = [""] * n
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        names[perm[x]] = g.names[x]
        row = table[perm[x]]
        for y in range(n):
            row[perm[y]] = perm[g.multiply(x, y)]
    return {"kind": "cayley", "names": names, "table": table}


def _spelled(s):
    # a name that holds the list separator, such as "(0,a)", goes by its index
    names = s.group.names
    return ",".join(str(i) if "," in names[i] else names[i] for i in s)


def _cross_check(capsys, group, h, k, what):
    """enumerate's counts and match, or the exit code and the stderr of a
    failure (a MidEmpty message lists sets in index order, so it is left out)."""
    argv = ["enumerate", "--group", group, "-H", _spelled(h), "--what", what,
            "--limit", RELABEL_CAP, "--format", "json"]
    if k is not None:
        argv += ["-K", _spelled(k)]
    code = main(argv)
    captured = capsys.readouterr()
    if code:
        return code, captured.err if code == 5 else None
    r = json.loads(captured.out)["result"]
    assert r["match"] is True
    return r["count_algorithm"], r["count_oracle"], r["match"]


def _pair_answers(capsys, group, h, k):
    mid = groupkit.mid_director_subgroups(h, k)
    return (
        _cross_check(capsys, group, h, k, "middle-transversals"),
        _cross_check(capsys, group, h, k, "middle-subfactors"),
        len(mid),
        groupkit.mid_tag(mid),
        groupkit.mta(h, k).n_steps + 1,
    )


@pytest.mark.parametrize("name", sorted(RELABELED))
def test_relabeled_group_gives_the_same_answers(capsys, name):
    spec = RELABELED[name]
    g = groupkit.build_group(spec)
    perm = list(range(g.order))
    random.Random(f"relabel {name}").shuffle(perm)
    moved_spec = _relabeled(g, perm)
    moved = groupkit.build_group(moved_spec)
    # each class representative with its image in the relabeled group
    reps = [(s, moved.subset(perm[x] for x in s))
            for s in suites.conjugacy_class_representatives(g)]
    original, relabeled = json.dumps(spec), json.dumps(moved_spec)
    for i, (h, h2) in enumerate(reps):
        want = _cross_check(capsys, original, h, None, "right-transversals")
        assert _cross_check(capsys, relabeled, h2, None, "right-transversals") == want, (name, h)
        # x -> x^-1 maps the (H, K) answers onto the (K, H) ones, so K runs
        # from H on
        for k, k2 in reps[i:]:
            want = _pair_answers(capsys, original, h, k)
            assert _pair_answers(capsys, relabeled, h2, k2) == want, (name, h, k)


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


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_order_env_below_1_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", value)
    assert main(["rta", "--group", "cyclic:12", "-H", "0,6"]) == 2
    assert capsys.readouterr().err == (
        f"error: GROUPKIT_MAX_ORDER must be a positive integer, got '{value}'\n")


@pytest.mark.parametrize("spec, message", [
    ({"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2}, 3]},
     "group spec must be an object, got int"),
    ({"kind": "direct_product", "factors": [[{"kind": "cyclic", "n": 2}]]},
     "group spec must be an object, got list"),
    ({"kind": "cayley", "table": [[0, 1], [1, 0]], "names": ["e", 1]},
     "cayley group needs a list of string names"),
    ({"kind": "cayley", "table": [[0]], "names": "e"},
     "cayley group needs a list of string names"),
    ({"kind": "cayley", "table": [], "names": []}, "a group needs at least one element"),
], ids=["factor-int", "factor-list", "cayley-name-int", "cayley-names-str", "cayley-empty"])
def test_malformed_spec_exits_2(capsys, spec, message):
    assert main(["rta", "--group", json.dumps(spec), "-H", "0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_max_order_env_exits_5(capsys, monkeypatch):
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", "8")
    code = main(["rta", "--group", "cyclic:12", "-H", "0,6"])
    assert code == 5
    capsys.readouterr()


@pytest.mark.parametrize("spec, message", [
    ({"degree": 2.5, "generators": []}, "permutation group needs a positive integer degree"),
    ({"degree": "3", "generators": []}, "permutation group needs a positive integer degree"),
    ({"degree": 3, "generators": {"a": [[1, 2]]}}, "permutation group needs a generators list"),
    ({"degree": 3, "generators": [[[1, 2]], 5]}, "generator 1 must be a list of cycles"),
    ({"degree": 3, "generators": [[[1, 2]], [[1, "2"]]]}, "generator 1 holds a malformed cycle"),
    ({"degree": 3, "generators": [[[1, True]]]}, "generator 0 holds a malformed cycle"),
    ({"degree": 3, "generators": [[[1, 2, 1]]]}, "cycle [1, 2, 1] repeats a point"),
    ({"degree": 3, "generators": [[[1, 4]]]}, "cycle point 4 outside 1..3"),
    ({"degree": 3, "generators": [[[0, 1]]]}, "cycle point 0 outside 1..3"),
    # with several faults, the first in generator and cycle order
    ({"degree": 3, "generators": [[[1, 1]], 5]}, "cycle [1, 1] repeats a point"),
    ({"degree": 3, "generators": [[[1, 2, 4, 2]]]}, "cycle [1, 2, 4, 2] repeats a point"),
])
def test_malformed_permutation_spec_exits_2(capsys, spec, message):
    group = json.dumps({"kind": "permutation", **spec})
    assert main(["rta", "--group", group, "-H", "()"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("limit, code", [("719", 5), ("720", 0)])
def test_permutation_closure_stops_at_the_order_cap(capsys, monkeypatch, limit, code):
    # A permutation spec's order is known only once the closure is built, so
    # the closure itself refuses its (limit + 1)-th element.
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", limit)
    group = json.dumps({"kind": "permutation", "degree": 6,
                        "generators": [[[1, 2]], [[1, 2, 3, 4, 5, 6]]]})
    assert main(["rta", "--group", group, "-H", "(),(1 2)"]) == code
    err = capsys.readouterr().err
    assert (f"permutation closure exceeds the order limit {limit}" in err) == (code == 5)


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
    assert main(["rta", "--group", "cyclic:12", "-H", "0,6,6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "warning: duplicate element '6' in subset collapsed"


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


# a small setting here; scale/ runs the same property at 200 examples
test_report_json_is_json_dumps_indent_2 = suites.report_json_property(20)


def test_report_json_refuses_what_json_refuses():
    for result in ({"x": {1, 2}}, {(1, 2): 0}):
        report = RunReport("rta", JSON_GROUP, {}, result)
        with pytest.raises(TypeError):
            json.dumps(report.to_dict(), indent=2)
        with pytest.raises(TypeError):
            report.to_json()


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
    # the command runs under the caller's collector state and leaves it as is
    assert collecting == [True]
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


def test_msfa_extend_checks_the_pair_and_builds_the_blocks_a_few_times(capsys, monkeypatch):
    # the extension validates the msfa trace it is given; nothing else reruns a search
    from groupkit import algorithms
    from groupkit.groups import ElementSet

    calls = {"is_subgroup": 0, "_coset_blocks": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ElementSet, "is_subgroup", counted("is_subgroup", ElementSet.is_subgroup))
    monkeypatch.setattr(algorithms, "_coset_blocks", counted("_coset_blocks", algorithms._coset_blocks))
    assert main(["msfa", "--group", "symmetric:4", "-H", "(),(1 2)", "-K", "(),(3 4)", "--extend"]) == 0
    assert "X* = " in capsys.readouterr().out
    assert calls["is_subgroup"] == 10
    # once for the search and once for its validation rerun, whose blocks
    # the extension continues on
    assert calls["_coset_blocks"] == 2


def test_msfa_maximality_is_checked_against_mid_not_the_seed(capsys, monkeypatch):
    # a seed missing one Mid block gives a consistent run that its own
    # validate() accepts; only Mid by definition shows X is not maximal
    from groupkit import algorithms

    seed_and_blocks = algorithms._seed_and_blocks

    def dropping(h, k, mid):
        seed, blocks = seed_and_blocks(h, k, mid)
        if mid:
            seed &= ~blocks[(seed & -seed).bit_length() - 1]
        return seed, blocks

    monkeypatch.setattr(algorithms, "_seed_and_blocks", dropping)
    assert main(["msfa", "--group", D12, "-H", "1,b", "-K", "1,ba", "--extend"]) == 4
    assert "maximal: NO" in capsys.readouterr().out


@pytest.mark.parametrize("tamper", ["drop", "widen"])
def test_msfa_reports_mid_by_definition_when_x_fails(capsys, monkeypatch, tamper):
    # a seed that loses a Mid block gives a direct X that is not maximal; one
    # that gains a block of fewer than |H||K| elements gives an X that is not
    # direct, whose H*X*K is no longer inside Mid, so |Mid| comes from all of G
    from groupkit import algorithms, products
    from groupkit.words import parse_subset

    seed_and_blocks = algorithms._seed_and_blocks

    def tampered(h, k, mid):
        seed, blocks = seed_and_blocks(h, k, mid)
        if mid and tamper == "drop":
            seed &= ~blocks[(seed & -seed).bit_length() - 1]
        elif mid:
            seed |= next(b for b in blocks if b.bit_count() < len(h) * len(k))
        return seed, blocks

    monkeypatch.setattr(algorithms, "_seed_and_blocks", tampered)
    h, k = "(),(1 2)", "(),(3 4)"
    argv = ["msfa", "--group", "symmetric:4", "-H", h, "-K", k]
    assert main(argv) == 4
    assert ("maximal: NO" if tamper == "drop" else "direct: NO") in capsys.readouterr().out
    code, data = run_json(capsys, argv)
    result = data["result"]
    assert code == 4 and result["direct"] == (tamper == "drop") != result["maximal"]
    s4 = groupkit.build_group({"kind": "symmetric", "n": 4})
    mid = products.mid_director(parse_subset(s4, h), parse_subset(s4, k))
    assert 0 < result["mid_size"] == len(mid) < s4.order


def test_each_command_walks_the_partition_a_set_number_of_times(capsys, monkeypatch):
    # one walk per search and per validation rerun, one for Mid by definition;
    # msfa judges maximality by the conjugate test, which walks nothing
    from groupkit import algorithms, products

    coset_blocks, walks = products._coset_blocks, [0]

    def counted(*args):
        walks[0] += 1
        return coset_blocks(*args)

    monkeypatch.setattr(products, "_coset_blocks", counted)
    monkeypatch.setattr(algorithms, "_coset_blocks", counted)
    pair = ["--group", "symmetric:4", "-H", "(),(1 2)", "-K", "(),(3 4)"]
    for argv, want in [
        (["rta", *pair[:4]], 1),
        (["mta", *pair], 1),
        (["msfa", *pair], 1),
        (["msfa", *pair, "--extend"], 2),
        (["mid", *pair, "--method", "both"], 1),
        (["mid", *pair, "--method", "definition"], 1),
        (["mid", *pair, "--method", "conjugacy"], 0),
    ]:
        walks[0] = 0
        assert main(argv) == 0, argv
        assert walks[0] == want, argv
    capsys.readouterr()
    half = ",".join(["1"] + [f"a^{i}" for i in range(2, 64, 2)])
    for group, h, k, covers in [
        ("dihedral:64", half, "1,b", True),
        ("symmetric:4", "(),(1 2)", "(),(3 4)", False),
    ]:
        code, data = run_json(capsys, ["msfa", "--group", group, "-H", h, "-K", k])
        result = data["result"]
        assert code == 0 and result["direct"] and result["maximal"], group
        assert result["covers_group"] == covers, group


def test_msfa_judges_maximality_apart_from_the_partition_walk(capsys, monkeypatch):
    # a walk that loses its lowest Mid block seeds a consistent run that its
    # own validate() accepts; the conjugate test still finds all of Mid
    from groupkit import algorithms, products

    coset_blocks = products._coset_blocks

    def dropping(*args):
        blocks, mid = coset_blocks(*args)
        if mid:
            mid &= ~blocks[(mid & -mid).bit_length() - 1]
        return blocks, mid

    monkeypatch.setattr(products, "_coset_blocks", dropping)
    monkeypatch.setattr(algorithms, "_coset_blocks", dropping)
    argv = ["msfa", "--group", D12, "-H", "1,b", "-K", "1,ba", "--extend"]
    assert main(argv) == 4
    assert "maximal: NO" in capsys.readouterr().out
    code, data = run_json(capsys, argv)
    assert code == 4 and data["result"]["mid_size"] == 12 and not data["result"]["maximal"]


def test_the_parser_is_built_once_and_reused(capsys):
    from groupkit.cli import _build_parser

    argv = ["msfa", "--group", D12, "-H", H_PROPER, "-K", K_PROPER, "--extend", "--format", "json"]
    _build_parser.cache_clear()
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert _build_parser() is _build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["msfa", "--group", D12, "--policy"])  # argparse error: the flag needs a value
    assert exc.value.code == 2
    assert main(["mid", "--group", D12, "-H", "1,a"]) == 2  # a handler error
    assert main(["enumerate", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY,
                 "--what", "middle-transversals"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    again = capsys.readouterr().out
    assert json.loads(again) | {"timing_ms": 0} == json.loads(fresh) | {"timing_ms": 0}


def test_the_cli_imports_only_the_standard_library():
    # The runtime has no third-party dependency: with no site directories
    # (python -S) and only the package's parent on the path, importing the
    # CLI loads standard-library modules, the -c script's __main__ and
    # groupkit.  It loads none of the modules that dominate a cold start or
    # serve only some commands: importlib.resources (pathlib, urllib.parse),
    # dataclasses (inspect, ast, dis, tokenize), typing, random, and the
    # oracle and verify-paper layers.  A count of modules, not a clock.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import groupkit.cli; print(*sys.modules)"
    parent = str(Path(groupkit.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", code, parent],
                         capture_output=True, text=True, check=True).stdout.split()
    assert "groupkit.cli" in out
    tops = {name.partition(".")[0] for name in out}
    assert tops - set(sys.stdlib_module_names) == {"__main__", "groupkit"}
    loaded = {"importlib.resources", "dataclasses", "inspect", "typing", "random",
              "groupkit.oracle", "groupkit.verify"}.intersection(out)
    assert not loaded


def test_a_closed_stdout_exits_141_without_a_traceback():
    # 4,096 listed sets, more than a pipe's buffer holds: the reader takes one
    # line and closes the pipe while the report is still being written
    argv = [sys.executable, "-m", "groupkit.cli", "enumerate", "--group", "cyclic:24",
            "-H", "0,12", "--what", "right-transversals", "--via", "algorithm", "--list"]
    env = {**os.environ, "PYTHONPATH": str(Path(groupkit.__file__).parent.parent)}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"group: cyclic:24 (order 24)\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


def test_a_closed_stdout_is_pointed_at_devnull(monkeypatch):
    # in-process, on a pipe whose reader is already gone: the report's flush
    # fails, and the write end is then devnull, so closing it flushes quietly
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["rta", "--group", "cyclic:12", "-H", "0,6"]) == 141
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))


# -- frozen outputs ---------------------------------------------------------------

# The README's command examples, the text form of its mta example, the JSON
# form of verify-paper and two random-policy runs (one sharing its chooser
# between msfa and the extension), each run in-process and compared byte for
# byte with its file under tests/golden/.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "rta_trace_full": ["rta", "--group", "cyclic:12", "-H", "0,3,6,9", "--trace", "full"],
    "mta_script_json": [
        "mta", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY,
        "--g0", "1", "--policy", "script:a^2", "--format", "json",
    ],
    "mta_text": ["mta", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY, "--g0", "1",
                 "--policy", "script:a^2"],
    "msfa_extend": ["msfa", "--group", D12, "-H", H_PROPER, "-K", K_PROPER, "--extend"],
    "mid": ["mid", "--group", D12, "-H", H_PROPER, "-K", K_PROPER],
    "enumerate_list": [
        "enumerate", "--group", D12, "-H", H_EMPTY, "-K", K_EMPTY,
        "--what", "middle-transversals", "--list",
    ],
    "rta_random_json": [
        "rta", "--group", "cyclic:12", "-H", "0,6", "--policy", "random:3", "--format", "json",
    ],
    "msfa_extend_random_json": [
        "msfa", "--group", "symmetric:4", "-H", "(),(1 2)", "-K", "(),(3 4)",
        "--extend", "--policy", "random:11", "--format", "json",
    ],
    "verify_paper": ["verify-paper"],
    "verify_paper_json": ["verify-paper", "--format", "json"],
}


def golden_render(argv: list[str]) -> str:
    """The stdout of one exit-0 call, with its timing_ms masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return re.sub(r'"timing_ms": [-+.0-9eE]+', '"timing_ms": 0', out.getvalue())


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert golden_render(GOLDEN_CASES[name]) == expected
