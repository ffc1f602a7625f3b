import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupkit import GroupKitError, IndexOutOfRange, ParseError, UnknownSymbol, build_group
from groupkit.cli import _parse_policy, main
from groupkit.words import parse_element, parse_subset
import suites


def test_roundtrip_all_names():
    for g in suites.build_fleet():
        for i, name in enumerate(g.names):
            assert parse_element(g, name) == i


def test_word_forms(d12):
    a = d12.index_of_name("a")
    b = d12.index_of_name("b")
    assert parse_element(d12, "1") == 0
    assert parse_element(d12, "a^2") == d12.power(a, 2)
    assert parse_element(d12, "a^-1") == d12.power(a, -1)
    assert parse_element(d12, "ab") == d12.multiply(a, b)
    assert parse_element(d12, "a^2b") == d12.multiply(d12.power(a, 2), b)
    assert parse_element(d12, "ba^4") == d12.multiply(b, d12.power(a, 4))
    assert parse_element(d12, "b a^4") == parse_element(d12, "ba^4")
    assert parse_element(d12, "a b") == d12.multiply(a, b)  # a word, not a name
    assert parse_element(d12, "a^7") == a  # exponents wrap
    assert parse_element(d12, "abab") == 0


def test_integer_index_fallback(d12, z12):
    assert parse_element(d12, "10") == 10
    assert parse_element(z12, "0") == 0
    assert parse_element(z12, "11") == 11
    with pytest.raises(IndexOutOfRange):
        parse_element(d12, "12")
    # a bare index is checked as every element index is, by Group._check_index
    with pytest.raises(IndexOutOfRange, match=r"^element index 99 not in 0\.\.11$"):
        parse_element(z12, "99")


def test_canonical_name_wins_over_index(z12):
    # cyclic names are the digits themselves; "7" is the element named 7
    assert parse_element(z12, "7") == 7


def test_identity_literal_on_permutation_group():
    g = build_group({"kind": "permutation", "degree": 3,
                     "generators": [[[1, 2]], [[1, 2, 3]]]})
    # "1" means the empty word even though no element is named "1"
    assert parse_element(g, "1") == g.identity
    assert parse_element(g, "ab") == g.multiply(
        parse_element(g, "a"), parse_element(g, "b"))


def test_unknown_symbol(d12):
    with pytest.raises(UnknownSymbol):
        parse_element(d12, "c")
    with pytest.raises(UnknownSymbol):
        parse_element(d12, "a^2c")


def test_parse_errors(d12, z12):
    # digit runs past int()'s limit on digits, and digits that are not ASCII
    long_run = "9" * 5000
    for text in ["", "^2", "a^", "a^^2", "a^b", "()", "a^\u00b2", "\u00b2",
                 "a^" + long_run, "a^-" + long_run, long_run]:
        for g in (d12, z12):
            with pytest.raises(ParseError):
                parse_element(g, text)
    with pytest.raises(ParseError, match="index of 5000 digits is too long"):
        parse_element(z12, long_run)


def test_a_failed_word_reports_its_own_reason(d12):
    with pytest.raises(ParseError, match=r"exponent missing after '\^' in word 'a\^'"):
        parse_element(d12, "a^")
    with pytest.raises(ParseError, match=r"unexpected '\^' at position 0"):
        parse_element(d12, "^2")


@pytest.mark.parametrize("args, reason", [
    (["-H", "1,b", "--g0", "a^" + "9" * 5000], "exponent of 5000 digits is too long"),
    (["-H", "1," + "a" * 100000 + "?"], "unexpected '?' at position 100000"),
])
def test_parse_messages_quote_a_bounded_prefix(capsys, args, reason):
    assert main(["rta", "--group", "dihedral:6"] + args) == 2
    err = capsys.readouterr().err
    assert len(err) < 300
    assert err.startswith(f"error: {args[-2]}: ")
    assert reason in err


def test_no_words_without_generators(z12):
    # cyclic groups have no generator names; letters are not words here
    assert not z12.generator_names
    with pytest.raises(ParseError):
        parse_element(z12, "x")


def test_parse_subset(d12):
    s = parse_subset(d12, "1, a^3, b, ba^3")
    assert s.names() == ["1", "a^3", "b", "ba^3"]
    assert len(parse_subset(d12, "")) == 0
    assert parse_subset(d12, " ") == d12.empty_set()


def test_parse_subset_duplicate_warns(d12):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = parse_subset(d12, "1,a,a^1")
        assert len(s) == 2
    assert any("duplicate" in str(w.message) for w in caught)


def test_parse_subset_error_position(d12):
    with pytest.raises(ParseError, match=r"item 3"):
        parse_subset(d12, "1,a,zz,b")
    with pytest.raises(IndexOutOfRange, match=r"item 2"):
        parse_subset(d12, "1,99")


# Text near the grammar: generator letters, '^', '-', ',', ASCII and other
# Unicode digits, and digit runs on both sides of int()'s limit on digits.
WORD_PIECES = st.one_of(
    st.sampled_from(["a", "b", "c", "1", "^", "-", ",", " ", "(", ")", "0", "7",
                     "\u00b2", "\u0663", "\uff17", "\u00e9", "12"]),
    st.sampled_from([2, 30, 4300, 4301]).map(lambda k: "9" * k),
    st.text(max_size=3),
)


@pytest.mark.filterwarnings("ignore:duplicate element")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(WORD_PIECES, max_size=8).map("".join))
def test_word_parser_only_raises_groupkit_errors(d12, z12, text):
    for g in (d12, z12):
        for parse in (parse_element, parse_subset):
            try:
                parse(g, text)
            except GroupKitError:
                pass



# direct products name their elements (x,y), with a comma inside, and a nested
# product nests them: ((0,0),(2 3))
C2_D3 = {"kind": "direct_product",
         "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "n": 3}]}
NESTED = {"kind": "direct_product", "factors": [
    {"kind": "direct_product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]},
    {"kind": "symmetric", "n": 3},
]}


@pytest.mark.parametrize("spec, h, k", [
    (C2_D3, ["(0,1)", "(1,1)"], ["(0,1)", "(0,b)"]),
    (C2_D3, ["(0,1)"], ["(0,1)", "(0,a)", "(0,a^2)"]),
    (NESTED, ["((0,0),())", "((1,0),())"], ["((0,0),())", "((0,0),(2 3))"]),
], ids=["C2xD3", "C2xD3 one name", "nested"])
def test_names_with_commas_in_a_comma_list(capsys, spec, h, k):
    # a comma list is cut at its commas outside parentheses, in -H, -K and
    # script: alike; each search's own picks, spelled by name, rerun it
    group = json.dumps(spec)
    for argv, inputs in ((["rta", "-H", ",".join(h)], {"H": h}),
                         (["mta", "-H", ",".join(h), "-K", ", ".join(k)], {"H": h, "K": k})):
        argv = [*argv, "--group", group, "--format", "json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert {key: data["inputs"][key] for key in inputs} == inputs
        chosen = data["result"]["trace"]["chosen"]
        assert main([*argv, "--policy", "script:" + ",".join(chosen)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["trace"]["chosen"] == chosen


@pytest.mark.parametrize("flags, reason", [
    (["-H", "(0,1"], "-H: item 1 ('(0'): cannot parse '(0'"),
    (["-H", "(0,1),(1,1))"], "-H: item 1 ('(0'): cannot parse '(0'"),
    (["-H", "(0,1)", "-K", ")(0,1)("], "-K: item 1 (')(0'): cannot parse ')(0'"),
    (["-H", "(0,1)", "-K", "(0,1)", "--policy", "script:(0,1),((0,a)"], "cannot parse '(0'"),
], ids=["H open", "H close", "K", "script"])
def test_unbalanced_parentheses_exit_2(capsys, flags, reason):
    # text whose parentheses do not balance is cut at every comma, and a
    # product names nothing by half a name
    argv = ["mta" if "-K" in flags else "rta", "--group", json.dumps(C2_D3), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


# Z3 whose names each hold a lone parenthesis, "(" the identity
LONE = {"kind": "cayley", "names": ["(", "f(", "g)"],
        "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]}


def test_names_with_a_lone_parenthesis(capsys):
    g = build_group(LONE)
    assert [parse_subset(g, text).mask for text in ("(", "f(", "g)", "(,f(,g)", "g), (")] == \
        [0b001, 0b010, 0b100, 0b111, 0b101]
    assert _parse_policy(g, "script:g),f(").script == (2, 1)
    for h, names in (("(", ["("]), ("(,f(,g)", ["(", "f(", "g)"])):
        assert main(["rta", "--group", json.dumps(LONE), "-H", h, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["H"] == names


PRODUCT_PIECES = st.sampled_from(["(", ")", ",", " ", "0", "1", "a", "b", "^2", "(1 2)",
                                  "(0,1)", "(1,ba)", "((0,0),())", "((1,1),(2 3))"])


@pytest.mark.filterwarnings("ignore:duplicate element")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(PRODUCT_PIECES, max_size=10).map("".join))
def test_comma_lists_of_product_names_only_raise_groupkit_errors(text):
    for g in (build_group(C2_D3), build_group(NESTED)):
        for parse in (parse_subset, lambda g, text: _parse_policy(g, "script:" + text)):
            try:
                parse(g, text)
            except GroupKitError:
                pass
