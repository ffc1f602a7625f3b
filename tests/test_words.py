import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupkit import GroupKitError, IndexOutOfRange, ParseError, UnknownSymbol, build_group
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
    assert parse_element(d12, "a^7") == a  # exponents wrap
    assert parse_element(d12, "abab") == 0


def test_integer_index_fallback(d12, z12):
    assert parse_element(d12, "10") == 10
    assert parse_element(z12, "0") == 0
    assert parse_element(z12, "11") == 11
    with pytest.raises(IndexOutOfRange):
        parse_element(d12, "12")
    with pytest.raises(IndexOutOfRange):
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
