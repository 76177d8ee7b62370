"""The JSON writer spells every value as `json.dumps(value, indent=2)`."""

import json
import pathlib

import pytest

from qaffine.serialize import write_json

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # development-only dependency
    hypothesis = None

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def written(value):
    pieces = []
    write_json(value, pieces.append)
    return "".join(pieces)


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")),
                         ids=lambda path: path.stem)
def test_the_writer_matches_json_dumps_on_every_golden(path):
    value = json.loads(path.read_text())
    assert written(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], (), "", {"": []}, [{}, [[]], ()], {"a": {"b": {"c": None}}},
    True, False, None, 0, -1, 2 ** 100, -(10 ** 40), 1.5, -0.0, 1e300,
    float("nan"), float("inf"), float("-inf"), "é中\U0001f600",
    "\x00\x1f\t\n\"\\", ("tuple", 1),
])
def test_the_writer_matches_json_dumps_on_edge_values(value):
    assert written(value) == json.dumps(value, indent=2)


def test_the_writer_hands_the_text_on_in_pieces():
    value = [{"deg": k, "coeff": "(t^%d)/(1)" % k} for k in range(20000)]
    pieces = []
    write_json(value, pieces.append)
    text = "".join(pieces)
    assert text == json.dumps(value, indent=2)
    assert len(pieces) > 10
    assert max(map(len, pieces)) < len(text) / 10


@pytest.mark.parametrize("value", [{1: "a"}, [object()], {"a": {1j}}])
def test_the_writer_rejects_what_is_not_a_json_value(value):
    with pytest.raises(TypeError):
        written(value)


if hypothesis is not None:
    _LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=-10 ** 60, max_value=10 ** 60)
               | st.floats()
               | st.sampled_from([float("nan"), float("inf"),
                                  float("-inf")])
               | st.text()
               | st.text(st.characters(max_codepoint=0x1f))
               | st.text(st.characters(min_codepoint=0x80)))
    _VALUES = st.recursive(
        _LEAVES,
        lambda kids: (st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=3).map(tuple)
                      | st.dictionaries(st.text(), kids, max_size=4)),
        max_leaves=30)

    @hypothesis.settings(max_examples=400, deadline=None,
                         derandomize=True, database=None)
    @hypothesis.given(_VALUES)
    def test_the_writer_matches_json_dumps_on_json_values(value):
        assert written(value) == json.dumps(value, indent=2)
