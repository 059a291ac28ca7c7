"""`write_json` encodes an artifact in one call of the module's reusable
encoder; its bytes must be those of one `json.dump` with the artifact
settings. `write_jsonl` reuses the same encoder; each of its lines must
be the `json.dumps` of its value. NaN and Infinity are not JSON, so
neither writer writes them."""

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
    | st.floats(allow_nan=False, allow_infinity=False)
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
        write_json(str(json_dir / "written.json"), payload)
        with open(json_dir / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, **pipeline._JSON_KW)
            fh.write("\n")
        written = (json_dir / "written.json").read_bytes()
        assert written == (json_dir / "dumped.json").read_bytes()

    def test_edge_values(self, tmp_path):
        payload = {
            "b": [5e-324, -0.0, 1e300, -1e300],
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_float_rejected(tmp_path, value):
    path = tmp_path / "artifact.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_json(str(path), {"meta": {}, "model": {"x": [1.0, value]}})
    assert not path.exists()
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_jsonl(str(tmp_path / "records.jsonl"), {}, iter([{"p": value}]))


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

    @pytest.mark.parametrize("before", [None, b'{"meta":{"old":1}}\n{"r":0}\n'])
    def test_failed_record_leaves_path_as_it_was(self, tmp_path, before):
        # A NaN in the second record: the path holds no file, or the old
        # one byte for byte, and no temporary file is left beside it.
        path = tmp_path / "records.jsonl"
        if before is not None:
            path.write_bytes(before)
        records = iter([{"r": 1}, {"r": float("nan")}, {"r": 3}])
        with pytest.raises(ValueError, match="Out of range float values"):
            write_jsonl(str(path), {"new": 1}, records)
        if before is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if before is None else ["records.jsonl"]
        )

    def test_records_stream_into_a_temporary_file(self, tmp_path):
        # While the records are drawn they go to `<path>.tmp`, and the
        # path keeps its old artifact until the new one is complete.
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"old\n")
        seen = []

        def records():
            yield {"r": 1}
            seen.append(((tmp_path / "records.jsonl.tmp").exists(), path.read_bytes()))
            yield {"r": 2}

        write_jsonl(str(path), {}, records())
        assert seen == [(True, b"old\n")]
        assert path.read_bytes() == b'{"meta":{}}\n{"r":1}\n{"r":2}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]
