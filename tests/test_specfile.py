"""Spec-file loading under hostile input: every text ends in a SpecFile or a
SpecFileError, within a bounded time."""

import json
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zlca import families, gd, grammar, specfile

#: Real spec texts: a symbolic and a bound window, a GD structure, and a
#: spec with a submodule pattern.
SPECS = [
    specfile.from_algebra(families.make_cl2("b", "s", range(-2, 3))).dumps(),
    specfile.from_algebra(
        families.make_scl2(Fraction(1, 2), "s", range(-2, 3))).dumps(),
    specfile.from_gd(gd.gd_a2("b", "s", range(-1, 2))).dumps(),
    json.dumps({"params": ["s"], "generators": [{"name": "L", "grade": 0}],
                "brackets": [{"left": "L", "right": "L",
                              "terms": [{"target": "L",
                                         "poly": "d + 2*x + s"}]}],
                "submodule": {"0": "d + s", "1": "full", "-1": "zero"}}),
]


def outcome(text):
    """loads(text), failing the test on any exception but SpecFileError."""
    try:
        return specfile.loads(text)
    except specfile.SpecFileError as exc:
        return exc


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["L0", "L1", "L-1", "d + 2*x", "s", "full", "zero",
                       "(d + x)^16", "1/0", "x^17"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["params", "generators", "brackets",
                                       "products", "submodule", "name",
                                       "grade", "left", "right", "terms",
                                       "target", "poly", "0", "-1"])
                      | st.text(max_size=6), inner, max_size=5),
    max_leaves=30)


@pytest.mark.parametrize("text", [
    "[" * 100_000, "{\"a\": " * 50_000, "1" * 5000,
    "{\"generators\": [{\"name\": \"L\", \"grade\": " + "1" * 5000 + "}]}",
    "", "nul", "\"\\ud800\"", "NaN", "{\"generators\": [], \"params\": 1}",
], ids=["deep-array", "deep-object", "long-int", "long-grade", "empty", "nul",
        "lone-surrogate", "nan", "bad-params"])
def test_hostile_json_is_a_spec_error(text):
    assert isinstance(outcome(text), specfile.SpecFileError)


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(st.one_of(json_values.map(json.dumps), st.text(max_size=80)))
def test_any_json_loads_or_is_refused(text):
    assert isinstance(outcome(text), (specfile.SpecFile, specfile.SpecFileError))


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from _paths(value, path + (idx,))


@st.composite
def mutated_specs(draw):
    """A real spec with one JSON node replaced, or its text edited."""
    text = draw(st.sampled_from(SPECS))
    if draw(st.booleans()):
        spec = json.loads(text)
        path = draw(st.sampled_from(list(_paths(spec))[1:]))
        node = spec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(json_values)
        return json.dumps(spec)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.sampled_from(
            ["", "0", "-", "*", "^", "/", "(", ")", " ", "\"", "[", "}", ",",
             "x", "9" * 20, "^16", "1/0", "\\u00b2", text[start:end] * 2]
        )) + text[end:]
    return text


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(mutated_specs())
def test_mutated_specs_load_or_are_refused(text):
    assert isinstance(outcome(text), (specfile.SpecFile, specfile.SpecFileError))


def test_unmutated_specs_load():
    for text in SPECS:
        assert specfile.loads(text).dumps() == json.dumps(
            json.loads(text), indent=2, sort_keys=True) + "\n"


#: Submodule keys that name no grade, or a grade another key names: the
#: spec loader and the pattern-file loader refuse each the same way.
BAD_GRADE_KEYS = {
    "plus-sign": ({"0": "zero", "+0": "full"}, "'\\+0' is not an integer"),
    "fullwidth-digit": ({"１": "full"}, "is not an integer"),
    "underscore": ({"1_0": "full"}, "'1_0' is not an integer"),
    "spaces": ({" 2 ": "full"}, "' 2 ' is not an integer"),
    "five-digits": ({"10000": "full"}, "of at most 4 digits"),
    "one-grade-twice": ({"1": "full", "01": "zero"},
                        "'01' repeats grade 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRADE_KEYS))
def test_submodule_grade_keys_are_strict(case, tmp_path):
    pattern, message = BAD_GRADE_KEYS[case]
    spec = json.loads(SPECS[3])
    spec["submodule"] = pattern
    with pytest.raises(specfile.SpecFileError, match=message):
        specfile.loads(json.dumps(spec))
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(pattern), encoding="utf-8")
    with pytest.raises(specfile.SpecFileError, match=message):
        specfile.load_pattern(str(path))


def test_submodule_grade_keys_within_the_rule_load():
    spec = json.loads(SPECS[3])
    spec["submodule"] = {"-0": "full", "0012": "zero", "-9999": "d + s"}
    loaded = specfile.loads(json.dumps(spec))
    assert loaded.submodule == ((-9999, "d + s"), (0, "full"), (12, "zero"))


#: Declarations the loader refuses: a parameter listed twice, and generator
#: grades of more than MAX_GRADE_DIGITS digits, the bound on submodule keys.
BAD_DECLARATIONS = {
    "parameter-twice": ("params", ["s", "t", "s"],
                        "params: duplicate parameter 's'"),
    "grade-10000": ("grade", 10_000,
                    "generators[1]: grade of 'M' has more than 4 digits"),
    "grade-minus-10000": ("grade", -10_000,
                          "generators[1]: grade of 'M' has more than 4 "
                          "digits"),
    "grade-4001-digits": ("grade", 10 ** 4000,
                          "generators[1]: grade of 'M' has more than 4 "
                          "digits"),
}


def declared(key, value):
    """SPECS[3] with its params replaced, or a generator M at a grade."""
    spec = json.loads(SPECS[3])
    if key == "params":
        spec["params"] = value
    else:
        spec["generators"].append({"name": "M", "grade": value})
    return json.dumps(spec)


@pytest.mark.parametrize("case", sorted(BAD_DECLARATIONS))
def test_bad_declarations_are_spec_errors(case):
    key, value, message = BAD_DECLARATIONS[case]
    with pytest.raises(specfile.SpecFileError) as info:
        specfile.loads(declared(key, value))
    assert str(info.value) == message


def test_generator_grades_within_the_rule_load():
    for grade in (9999, -9999):
        loaded = specfile.loads(declared("grade", grade))
        assert max(abs(g.grade) for g in loaded.generators) == 9999
    assert specfile.loads(declared("params", ["t", "s"])).params == ("s", "t")


def memos_of(monkeypatch):
    """The memo each grammar.parse call receives, in call order."""
    seen = []
    original = grammar.parse

    def spy(text, memo=None):
        seen.append(memo)
        return original(text, memo)

    monkeypatch.setattr(grammar, "parse", spy)
    return seen


def test_one_memo_per_load_and_none_shared(monkeypatch):
    seen = memos_of(monkeypatch)
    first = specfile.loads(SPECS[0])
    calls = len(seen)
    second = specfile.loads(SPECS[0])
    assert first == second and len(seen) == 2 * calls > 2
    one, two = seen[:calls], seen[calls:]
    # every polynomial of a load reads one memo, and the next load another
    assert all(memo is one[0] for memo in one) and isinstance(one[0], dict)
    assert all(memo is two[0] for memo in two) and two[0] is not one[0]
    # a family window repeats term texts: the memo holds fewer than it read
    terms = sum(len(str(p).replace(" - ", " + ").split(" + "))
                for row in first.brackets.values() for p in row.values())
    assert len(one[0]) < terms
