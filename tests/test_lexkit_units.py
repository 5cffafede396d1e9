"""Unit tests for the lexkit semantic core.

Ported from the reference's helper unit tests
(``/root/reference/lexmapr/tests/test_pipeline.py:22-283``) against our
re-implementations, plus clone-specific checks for the tokenizer and
singularizer (behaviors the reference gets from nltk / inflection).
"""

from collections import Counter
from itertools import combinations

import pytest

from lexmapr_ray.lexkit import textproc
from lexmapr_ray.lexkit.inflect import singularize
from lexmapr_ray.lexkit.lexicon import (
    Lexicon,
    MultisetDict,
    create_lookup_table_skeleton,
    get_resource_label_permutations,
    merge_lookup_tables,
    strip_suffixes,
)
from lexmapr_ray.lexkit.matcher import (
    component_chunks,
    get_term_parent_hierarchies,
    retain_phrase,
)


def test_is_number():
    assert textproc.is_number("0")
    assert textproc.is_number("1.5")
    assert textproc.is_number("-1.5")
    assert not textproc.is_number("")
    assert not textproc.is_number("foo")


def test_is_date():
    assert textproc.is_date("2018-05-07")
    assert textproc.is_date("12/22/78")
    assert textproc.is_date("July 1st, 2008")
    assert not textproc.is_date("")
    assert not textproc.is_date("foo")


def test_ngrams():
    assert textproc.ngrams("", 1) == [[""]]
    assert textproc.ngrams("hello world!", 1) == [["hello"], ["world!"]]
    assert textproc.ngrams("hello world!", 2) == [["hello", "world!"]]
    assert textproc.ngrams("why, hello world!", 2) == [["why,", "hello"], ["hello", "world!"]]


def test_preprocess():
    # includes the reference's documented known-bug behaviors, kept as spec
    assert textproc.preprocess("cow") == "cow"
    assert textproc.preprocess("cow's") == "cow"
    assert textproc.preprocess("cow's and chicken's") == "cow and chicken"
    assert textproc.preprocess("cow, ") == "cow"
    assert textproc.preprocess("cow, horse, and goat") == "cow, horse, and goat"
    assert textproc.preprocess("cow. ") == "cow"
    assert textproc.preprocess("cow. horse. ") == "cow. horse"
    assert textproc.preprocess("cow's, ") == "cow"
    assert textproc.preprocess("cow's. , ") == "cow"
    assert textproc.preprocess("cow's, . ") == "cow,"


def test_punctuation_treatment():
    assert textproc.punctuation_treatment("") == ""
    assert textproc.punctuation_treatment("foo") == "foo"
    assert textproc.punctuation_treatment("foo bar") == "foo bar"
    assert textproc.punctuation_treatment("_foo-bar_") == "foo bar"
    assert textproc.punctuation_treatment("_foo;ba r_") == "foo ba r"
    assert textproc.punctuation_treatment("a-b -1") == "a b 1"


def test_get_resource_label_permutations():
    assert sorted(get_resource_label_permutations("")) == [""]
    assert sorted(get_resource_label_permutations("a")) == ["a"]
    assert sorted(get_resource_label_permutations("a b")) == ["a b", "b a"]
    assert sorted(get_resource_label_permutations("a (b)")) == ["(b) a", "a (b)"]


def test_retain_phrase():
    assert retain_phrase(["foo:bar"]) == ["foo:bar"]
    assert sorted(retain_phrase(["foo:bar", "hello:world"])) == ["foo:bar", "hello:world"]
    assert sorted(retain_phrase(["foo:b=ar", "he=llo:world"])) == ["foo:b=ar", "he=llo:world"]
    assert retain_phrase(["foo:bar", "foofoo:bar"]) == ["foofoo:bar"]
    assert retain_phrase(["foo:bar", "foo bar:bar"]) == ["foo bar:bar"]
    assert retain_phrase(["foo bar hello:world", "foo bar:bar"]) == ["foo bar hello:world"]
    assert sorted(retain_phrase(["foo hello:world", "foo bar:bar"])) == \
        ["foo bar:bar", "foo hello:world"]
    assert retain_phrase(["foo bar:bar", "foo bar bar:bar"]) == []
    assert retain_phrase(["foo:bar", "foo:foo"]) == ["foo:foo"]
    assert retain_phrase(["foo bar:bar", "foo bar:foo"]) == ["foo bar:foo"]


def test_merge_lookup_tables():
    with pytest.raises(ValueError):
        merge_lookup_tables({}, {"a": {}})
    with pytest.raises(ValueError):
        merge_lookup_tables({"a": {}}, {"b": {}})
    with pytest.raises(ValueError):
        merge_lookup_tables({"a": "b"}, {"a": {}})
    with pytest.raises(ValueError):
        merge_lookup_tables({"a": {}}, {"a": "b"})
    assert merge_lookup_tables({}, {}) == {}
    assert merge_lookup_tables({"a": {"b": "c"}}, {"a": {}}) == {"a": {"b": "c"}}
    assert merge_lookup_tables({"a": {"b": "c"}}, {"a": {"b": "d"}}) == {"a": {"b": "d"}}
    assert merge_lookup_tables(
        {"a": {"b": "c", "d": "l", "n": "o"}, "f": {"h": "i", "j": "k"}},
        {"a": {"b": "c", "d": "e"}, "f": {"h": "m", "j": "k", "p": "q"}},
    ) == {"a": {"b": "c", "d": "e", "n": "o"}, "f": {"h": "m", "j": "k", "p": "q"}}


def test_get_term_parent_hierarchies():
    table = {"parents": {"a": ["b"], "b": ["c"], "d": ["e", "f"], "g": ["h", "i"], "i": ["j"]}}
    assert get_term_parent_hierarchies("z", table) == [["z"]]
    assert get_term_parent_hierarchies("c", table) == [["c"]]
    assert get_term_parent_hierarchies("b", table) == [["b", "c"]]
    assert get_term_parent_hierarchies("a", table) == [["a", "b", "c"]]
    assert sorted(get_term_parent_hierarchies("d", table)) == [["d", "e"], ["d", "f"]]
    assert sorted(get_term_parent_hierarchies("g", table)) == [["g", "h"], ["g", "i", "j"]]


def test_singularize_clone():
    # behaviors the goldens pin (from the inflection library's rule table)
    assert singularize("potatoes") == "potato"
    assert singularize("does") == "do"
    assert singularize("epiphysis") == "epiphysi"
    assert singularize("as") == "a"
    assert singularize("news") == "news"
    assert singularize("apples") == "apple"
    assert singularize("tables") == "table"
    assert singularize("species") == "species"
    assert singularize("catfish") == "catfish"
    assert singularize("leaves") == "leafe" or singularize("leaves") == "leaf"


def test_word_tokenize_clone():
    assert textproc.word_tokenize("chicken breast") == ["chicken", "breast"]
    assert textproc.word_tokenize("cow's") == ["cow", "'s"]
    assert textproc.word_tokenize("taco.") == ["taco", "."]
    assert textproc.word_tokenize("ameiurus. catus") == ["ameiurus", ".", "catus"]
    assert textproc.word_tokenize("english, enlist lab") == ["english", ",", "enlist", "lab"]


def test_remove_duplicate_tokens():
    assert textproc.remove_duplicate_tokens("a b a c") == "a b c"
    assert textproc.remove_duplicate_tokens("gallus gallus domesticus") == \
        "gallus gallus domesticus"


def test_multiset_dict_semantics():
    d = MultisetDict()
    d["apple pie"] = "id1"
    assert "apple pie" in d
    assert "pie apple" in d
    assert d["pie apple"] == "id1"
    assert "apple" not in d
    # non-normalized probe strings never match (leading-space suffix quirk)
    assert " apple pie" not in d
    assert "apple  pie" not in d


# Hand-built lexicon for the token-blocking tests: a label with a repeated
# token ("milk milk powder"), labels reachable only through a suffix
# ("chicken powder", "beef product"), synonyms, a 5-token and a 6-token label,
# and the empty suffix next to a suffix whose token repeats inside a label.
# The streams are compared as token tuples: a repeated token's positions
# show up as repeated tuples, so order and multiplicity are both checked.
_LABELS = ["milk", "cheese", "milk cheese", "goat milk cheese", "raw milk",
           "milk milk powder", "chicken powder", "beef product", "cream cheese sauce",
           "a b c d e", "a b c d e f"]
_SUFFIXES = ["", "powder", "product", "milk", "cheese sauce"]
_SYNONYMS = {"curd": "cheese", "moo juice": "milk"}


def _hand_lexicon() -> Lexicon:
    table = create_lookup_table_skeleton()
    table["non_standard_resource_ids"] = {f"t_{i}": lab for i, lab in enumerate(_LABELS)}
    table["standard_resource_labels"] = {lab: f"t_{i}" for i, lab in enumerate(_LABELS)}
    perms = MultisetDict()
    for lab, term_id in table["standard_resource_labels"].items():
        if len(lab.split()) < 7:
            perms[lab] = term_id
    table["standard_resource_label_permutations"] = perms
    table["synonyms"] = dict(_SYNONYMS)
    table["suffixes"] = dict.fromkeys(_SUFFIXES, "")
    return Lexicon(table).build_indexes()


def _brute_chunks(text, tokens, lexicon):
    """The chunk stream as the cascade once built it: every combination
    (below 15 tokens) or contiguous n-gram, sizes 5 -> 1, filtered by
    ``chunk_can_match``."""
    out = []
    for size in range(5, 0, -1):
        grams = combinations(tokens, size) if len(tokens) < 15 else textproc.ngrams(text, size)
        out += [tuple(g) for g in grams if lexicon.chunk_can_match(" ".join(g).split())]
    return out


@pytest.mark.parametrize("text", [
    "milk milk cheese milk",
    "milk milk powder milk cheese powder",
    "zz goat q milk r cheese s raw t milk u",
    # 14 tokens: the last size below the contiguous n-gram guard
    "goat x1 milk cheese raw beef x2 cream sauce powder curd chicken e moo",
    # 15 tokens: the contiguous n-gram path
    "goat milk cheese raw milk beef product cream cheese sauce a b c d e",
    "chicken beef",  # suffix-stripped hits only ("chicken powder", "beef product")
    "moo juice and curd",  # synonym keys
    "e d c b a f",  # 5-token label in reverse order, a 6-token label
    "cream sauce",  # "cream cheese sauce" minus the "cheese sauce" suffix
    "milk",
    "nothing matches here",
    "",
])
def test_blocked_chunks_equal_brute_force(text):
    lex = _hand_lexicon()
    tokens = textproc.word_tokenize(text)
    want = _brute_chunks(text, tokens, lex)
    assert [tuple(c) for c in component_chunks(text, tokens, lex)] == want


def test_blocked_chunks_keep_repeated_token_realizations():
    lex = _hand_lexicon()
    tokens = "milk milk cheese milk".split()
    # ("milk", "milk") is "milk milk powder" minus "powder" and realizes at
    # (0, 1), (0, 3), (1, 3); ("cheese", "milk") at (0, 2), (1, 2), (2, 3);
    # together in combinations() order, then every single token
    assert lex.matchable_chunks(tokens) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (0,), (1,), (2,), (3,),
    ]


def test_blocked_suffix_stripping_equals_brute_force():
    lex = _hand_lexicon()
    labels = {tuple(sorted(lab.split())) for lab in _LABELS}
    want = set()
    for ms in labels:
        mc = Counter(ms)
        for suffix in _SUFFIXES:
            sc = Counter(suffix.split())
            if all(mc[tok] >= n for tok, n in sc.items()):
                want.add(tuple(sorted((mc - sc).elements())))
    assert strip_suffixes(labels, _SUFFIXES) == want
    assert lex.suffix_stripped_multisets == want
    # the empty suffix keeps every label; "milk" is stripped once per use
    assert labels <= want
    assert ("milk", "powder") in want and ("cheese", "goat") in want
