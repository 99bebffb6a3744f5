"""The report writer against its oracle, ``json.dumps(sort_keys=True, indent=2)``.

``cli._json_bytes`` writes every JSON report; for any payload it accepts it
must give exactly the bytes ``json.dumps`` gives, and it must reject what
``json.dumps`` rejects with the same exception type.
"""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexqkd.cli import _json_bytes


def oracle(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii")


INTS = st.integers(-(2**70), 2**70) | st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**40])
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
TEXT = st.text() | st.text(st.characters(max_codepoint=127))
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT

INT_LISTS = st.lists(INTS, max_size=8)
# A bool among ints must be written as true/false, so it must not take the
# int-list path.
INT_LISTS_WITH_TRUE = INT_LISTS.flatmap(
    lambda xs: st.integers(0, len(xs)).map(lambda i: xs[:i] + [True] + xs[i:])
)
UNIFORM_ROWS = st.integers(0, 4).flatmap(
    lambda width: st.lists(st.lists(INTS, min_size=width, max_size=width), max_size=6)
)
RAGGED_ROWS = st.lists(INT_LISTS | INT_LISTS_WITH_TRUE, max_size=6)

LEAVES = SCALARS | INT_LISTS | INT_LISTS_WITH_TRUE | UNIFORM_ROWS | RAGGED_ROWS
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(TEXT, children, max_size=5)
    ),
    max_leaves=20,
)


@settings(max_examples=300)
@given(PAYLOADS)
def test_emitter_writes_the_bytes_json_dumps_writes(payload):
    assert _json_bytes(payload) == oracle(payload)


@given(st.dictionaries(INTS | FLOATS | st.booleans(), SCALARS, max_size=6))
def test_number_and_bool_keys_are_written_as_json_dumps_writes_them(payload):
    assert _json_bytes(payload) == oracle(payload)


class Level(enum.IntEnum):
    LOW = 1

    def __repr__(self):
        return "Level.LOW"


@pytest.mark.parametrize(
    "payload",
    [
        {"cells": [np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(1e300)]},
        [np.float64(math.inf), [np.float64(2.5)]],
        {"level": Level.LOW, "levels": [Level.LOW, 2], "rows": [[Level.LOW, 3], [4, 5]]},
        {None: {"": {}, "x": []}},
        {},
        [],
        "naïve ✓",
    ],
    ids=["float64-cells", "float64-nested", "int-subclass", "null-key", "empty-dict", "empty-list", "string"],
)
def test_number_subclasses_and_edge_values(payload):
    assert _json_bytes(payload) == oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [
        np.int64(1),
        {"x": np.int64(1)},
        [1, 2, np.int64(3)],
        [[1, 2], [3, np.int64(4)]],
        {"flag": np.bool_(True)},
        {"raw": b"bytes"},
        {"set": {1, 2}},
        {(1, 2): 0},
        {1: "a", "b": 2},
    ],
    ids=[
        "int64", "int64-value", "int64-in-list", "int64-in-row", "numpy-bool", "bytes", "set",
        "tuple-key", "mixed-keys",
    ],
)
def test_rejects_what_json_dumps_rejects(payload):
    with pytest.raises(TypeError):
        oracle(payload)
    with pytest.raises(TypeError):
        _json_bytes(payload)
