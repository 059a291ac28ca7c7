"""`write_json` streams an artifact piece by piece; its bytes must be those
of one `json.dump` with the artifact settings. `write_jsonl` reuses one
encoder; each of its lines must be the `json.dumps` of its value."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpmine import pipeline
from ttpmine.pipeline import write_json, write_jsonl

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=5)
        | st.dictionaries(st.integers(-5, 5), inner, max_size=3)
    ),
    max_leaves=40,
)


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


class TestWriteJson:
    @settings(max_examples=100, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=6), _VALUES, max_size=6))
    def test_bytes_equal_json_dump(self, json_dir, payload):
        write_json(str(json_dir / "streamed.json"), payload)
        with open(json_dir / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, **pipeline._JSON_KW)
            fh.write("\n")
        streamed = (json_dir / "streamed.json").read_bytes()
        assert streamed == (json_dir / "dumped.json").read_bytes()

    def test_edge_values(self, tmp_path):
        payload = {
            "b": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
            "a": {"zeta": "\u00e9\u4e2d\U0001f600", "\u00e9": [], "": {}},
            "c": (1, (2, [3, {"k": ()}]), {}),
            "d": {3: "x", 1: ["y", {"z": None}]},
            "e": [[], {}, ()],
            "f": [{"k": 1}, 2, "x", [None]],
        }
        path = tmp_path / "edge.json"
        write_json(str(path), payload)
        assert path.read_bytes() == (
            json.dumps(payload, **pipeline._JSON_KW) + "\n"
        ).encode("utf-8")


class TestWriteJsonl:
    @settings(max_examples=100, deadline=None)
    @given(
        meta=st.dictionaries(st.text(max_size=6), _VALUES, max_size=4),
        records=st.lists(st.dictionaries(st.text(max_size=6), _VALUES, max_size=4), max_size=5),
    )
    def test_lines_equal_json_dumps(self, json_dir, meta, records):
        path = json_dir / "records.jsonl"
        write_jsonl(str(path), meta, iter(records))
        expected = [{"meta": meta}, *records]
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert len(lines) == len(expected) + 1
        for line, value in zip(lines, expected):
            assert line == json.dumps(value, **pipeline._JSON_KW).encode("utf-8")
