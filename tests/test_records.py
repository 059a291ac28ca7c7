"""Every file a ttpmine reader reads is held to one declared record shape
(`ttpmine.records.check_record`): a missing key, an unknown key or a
value of another JSON kind fails with one error naming the file, and in
a JSONL file the line."""

from __future__ import annotations

import json
import math
import os

import pytest

from helpers import E2E_DIR, e2e_config_dict
from ttpmine.corpus import AnnotationError, load_annotations
from ttpmine.gbdt import TrainConfig
from ttpmine.mining import PACKAGED_CATEGORIES
from ttpmine.pipeline import (
    PipelineConfig,
    PipelineError,
    load_categories,
    load_ctfidf_model,
    load_kb_usage,
    load_relation_model,
    load_relation_predictions,
    load_report_predictions,
    read_json,
    run_pipeline,
)
from ttpmine.records import (
    BOOL,
    INT,
    LIST,
    NUMBER,
    OBJECT,
    STRING,
    STRING_OR_NULL,
    STRINGS,
    check_record,
    list_of,
    object_of,
)

# ---------------------------------------------------------------------------
# The helper
# ---------------------------------------------------------------------------

def accepts(kind, value) -> bool:
    try:
        check_record({"v": value}, {"v": kind})
    except ValueError:
        return False
    return True


# One JSON value of each kind, as `json` decodes it.
SAMPLES = {
    "string": "x",
    "number": 0.5,
    "integer": 2,
    "boolean": True,
    "null": None,
    "list": ["x"],
    "object": {"x": 1},
}


@pytest.mark.parametrize(
    "kind, accepted",
    [
        (STRING, {"string"}),
        (NUMBER, {"number", "integer"}),
        (INT, {"integer"}),
        (BOOL, {"boolean"}),
        (STRINGS, {"list"}),
        (LIST, {"list"}),
        (OBJECT, {"object"}),
        (STRING_OR_NULL, {"string", "null"}),
    ],
    ids=lambda value: value.name if hasattr(value, "name") else None,
)
def test_each_kind_takes_its_json_values_only(kind, accepted):
    for name, value in SAMPLES.items():
        assert accepts(kind, value) == (name in accepted), name


@pytest.mark.parametrize(
    "value, accepted",
    [
        (1.5, True),
        (-3, True),
        (10**308, True),
        (float("nan"), False),
        (float("inf"), False),
        (-float("inf"), False),
        (False, False),
    ],
)
def test_a_number_is_finite(value, accepted):
    assert accepts(NUMBER, value) == accepted
    assert accepts(list_of(NUMBER), [1, 0.5, value]) == accepted
    assert accepts(object_of(NUMBER), {"a": 0.5, "b": value}) == accepted


def test_an_int_no_float_holds_names_the_file(tmp_path):
    path = tmp_path / "train.json"
    path.write_text('{"learning_rate": 1' + "0" * 400 + "}", encoding="utf-8")
    with pytest.raises(PipelineError) as excinfo:
        read_json(str(path), "train config", TrainConfig.from_dict)
    assert str(excinfo.value).startswith(f"{path}: malformed train config: OverflowError: ")


def test_containers_check_every_item():
    ints = list_of(list_of(INT))
    assert accepts(ints, [[0, 1], []]) and accepts(ints, [])
    assert not any(accepts(ints, value) for value in ([[0], [True]], [[0], 1], {}))
    scores = object_of(list_of(NUMBER))
    assert accepts(scores, {"T1": [1.0, 0], "T2": []})
    assert not accepts(scores, {"T1": [1.0, "0.5"]}) and not accepts(scores, [[1.0]])
    assert accepts(STRINGS, []) and not accepts(STRINGS, ["a", 1])
    assert not accepts(STRINGS, "ab")
    assert ints.name == "a list of lists of integers"
    assert scores.name == "an object of lists of finite numbers"


SHAPE = {"id": STRING, "count": INT, "tags": STRINGS}


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": "a", "count": 1}, "missing key 'tags'"),
        ({"count": 1, "tags": []}, "missing key 'id'"),
        ({"id": "a", "count": 1, "tags": [], "z": 0, "b": 0}, "unknown key 'b'"),
        ({"id": "a", "count": True, "tags": []}, "count must be an integer, got True"),
        ({"id": "a", "count": 1.0, "tags": []}, "count must be an integer, got 1.0"),
        ({"id": 5, "count": "1", "tags": []}, "id must be a string, got 5"),
        ({"id": "a", "count": 1, "tags": ["t", 2]}, "tags must be a list of strings, got ['t', 2]"),
        (["id"], "expected an object, got ['id']"),
        ({"id": "x" * 60, "count": 1, "tags": None}, "tags must be a list of strings, got None"),
    ],
    ids=[
        "missing", "missing-first", "unknown", "bool-int", "float-int", "first-wrong",
        "list-item", "not-an-object", "long-record",
    ],
)
def test_check_record_names_the_key(record, message):
    with pytest.raises(ValueError) as excinfo:
        check_record(record, SHAPE, "here: ")
    assert str(excinfo.value) == f"here: {message}"


def test_check_record_takes_its_shape():
    assert check_record({"tags": ["t"], "count": 0, "id": ""}, SHAPE) is None


def test_long_values_are_cut_in_the_message():
    with pytest.raises(ValueError) as excinfo:
        check_record({"id": ["x" * 100], "count": 1, "tags": []}, SHAPE)
    assert str(excinfo.value) == f"id must be a string, got {['x' * 100]!r:.40}"


# ---------------------------------------------------------------------------
# Every file a reader reads
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sources(tmp_path_factory) -> dict[str, str]:
    """The path of each file below, as the e2e run and fixture give it."""
    out = tmp_path_factory.mktemp("run")
    run_pipeline(PipelineConfig.from_dict(e2e_config_dict(out)))
    config = tmp_path_factory.mktemp("configs")
    run_config = e2e_config_dict(out)
    (config / "config.json").write_text(json.dumps(run_config), encoding="utf-8")
    (config / "train.json").write_text(json.dumps(run_config["train"]), encoding="utf-8")
    return {
        "usage.json": str(out / "kb" / "usage.json"),
        "ctfidf.json": str(out / "kb" / "ctfidf.json"),
        "classify.jsonl": str(out / "classify.jsonl"),
        "relations.json": str(out / "relations.json"),
        "predictions.jsonl": str(out / "predictions.jsonl"),
        "annotations.jsonl": str(E2E_DIR / "annotations.jsonl"),
        "pattern_categories.json": PACKAGED_CATEGORIES,
        "config.json": str(config / "config.json"),
        "train.json": str(config / "train.json"),
    }


def _load_usage(path: str):
    # `load_kb_usage` reads `usage.json` in the kb directory it is given.
    return load_kb_usage(os.path.dirname(path))


# Each file's reader, as the commands call it.
READERS = {
    "usage.json": _load_usage,
    "ctfidf.json": load_ctfidf_model,
    "classify.jsonl": load_report_predictions,
    "relations.json": load_relation_model,
    "predictions.jsonl": load_relation_predictions,
    "annotations.jsonl": load_annotations,
    "pattern_categories.json": load_categories,
    "config.json": lambda path: read_json(path, "pipeline config", PipelineConfig.from_dict),
    "train.json": lambda path: read_json(path, "train config", TrainConfig.from_dict),
}
# A config file is written by hand: a key it leaves out keeps its default,
# and a path it leaves unset may be null.
CONFIGS = {"config.json", "train.json"}
NULLABLE = {("config.json", key) for key in ("stix", "reports", "annotations")}
# The run's JSON artifacts that no reader reads.
UNREAD = {"features.meta.json", "patterns.json", "patterns.meta.json"}

# The records of each file: a JSONL file's first two lines (its meta line
# and its first record), and the objects of a JSON file, each by its path
# of keys. An annotation file has no meta line.
RECORDS = [
    ("usage.json", None, ()),
    ("usage.json", None, ("usage",)),
    ("ctfidf.json", None, ()),
    ("ctfidf.json", None, ("model",)),
    ("classify.jsonl", 0, ()),
    ("classify.jsonl", 1, ()),
    ("relations.json", None, ()),
    ("relations.json", None, ("model",)),
    ("relations.json", None, ("model", "config")),
    ("relations.json", None, ("model", "labels", "BEFORE")),
    ("predictions.jsonl", 0, ()),
    ("predictions.jsonl", 1, ()),
    ("annotations.jsonl", 0, ()),
    ("pattern_categories.json", None, ()),
    ("pattern_categories.json", None, ("patterns", 0)),
    ("config.json", None, ()),
    ("config.json", None, ("train",)),
    ("train.json", None, ()),
]


def _kind(value) -> str:
    return next(name for name, sample in SAMPLES.items() if type(sample) is type(value))


def _wrong(value, nullable=False) -> list[str]:
    """The sample kinds a value of `value`'s kind may not be: an int
    passes where the file holds a float."""
    right = {_kind(value)} | ({"integer"} if type(value) is float else set())
    return [name for name in SAMPLES if name not in right and not (nullable and name == "null")]


def _cases(document, path, name):
    """(case id, edit, field or None) for each edit of the record at
    `path`: every field set to each wrong kind, deleted, and an unknown
    key added; the first item of a field that is a list or an object set
    to each kind it is not (for that edit the field is None)."""
    record = document
    for key in path:
        record = record[key]
    for field, value in record.items():
        for kind in _wrong(value, (name, field) in NULLABLE):
            yield f"{field}={kind}", lambda r, f=field, k=kind: r.__setitem__(f, SAMPLES[k]), field
        yield f"-{field}", lambda r, f=field: r.__delitem__(f), field
        # A meta object is provenance, which no reader reads.
        if field == "meta" or type(value) not in (list, dict) or not value:
            continue
        first, item = next(iter(value.items() if type(value) is dict else enumerate(value)))
        for kind in _wrong(item):
            yield (
                f"{field}[{first!r}]={kind}",
                lambda r, f=field, i=first, k=kind: r[f].__setitem__(i, SAMPLES[k]),
                None,
            )
    yield "+unknown", lambda r: r.__setitem__("ttpmine_unknown", 1), "ttpmine_unknown"


def _read(path: str, line):
    with open(path, encoding="utf-8") as fh:
        if line is None:
            return json.load(fh)
        return [json.loads(text) for text in fh.read().splitlines()]


def _write(path, document, line) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if line is None:
            fh.write(json.dumps(document))
        else:
            fh.write("".join(json.dumps(record) + "\n" for record in document))


def test_every_run_artifact_is_read_or_named_unread(sources):
    out = os.path.dirname(sources["relations.json"])
    written = {
        name
        for _, _, files in os.walk(out)
        for name in files
        if name.endswith((".json", ".jsonl"))
    }
    assert written == (set(READERS) - CONFIGS - {"annotations.jsonl", "pattern_categories.json"}) | UNREAD


@pytest.mark.parametrize(
    "name, line, path",
    RECORDS,
    ids=[
        f"{name}{'' if line is None else f':{line + 1}'}{''.join(f'/{k}' for k in path)}"
        for name, line, path in RECORDS
    ],
)
def test_every_field_of_every_record(sources, tmp_path, name, line, path):
    read = READERS[name]
    pristine = _read(sources[name], line)
    target = str(tmp_path / "kb" / name) if name == "usage.json" else str(tmp_path / name)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    _write(target, pristine, line)
    read(target)  # the unedited copy loads
    document = pristine if line is None else pristine[line]
    failures = []
    cases = list(_cases(document, path, name))
    assert len(cases) >= 8
    for case, edit, field in cases:
        edited = _read(sources[name], line)
        record = edited if line is None else edited[line]
        for key in path:
            record = record[key]
        edit(record)
        _write(target, edited, line)
        if case.startswith("-") and name in CONFIGS:
            read(target)  # a left-out config key keeps its default
            continue
        try:
            read(target)
        except (PipelineError, AnnotationError) as exc:
            message = str(exc)
        else:
            failures.append(f"{case}: loaded")
            continue
        expected = [target] + ([] if line is None else [f"line {line + 1}"])
        if case.startswith("-"):
            expected.append(f"missing key '{field}'")
        elif case == "+unknown":
            expected.append(f"unknown key '{field}'")
        elif field is not None:
            expected.append(f"{field} must be ")
        if "\n" in message or not all(part in message for part in expected):
            failures.append(f"{case}: {message}")
    assert not failures, "\n".join(failures)


def _gap(name, edit, message, line=None):
    return pytest.param(name, edit, message, line, id=f"{name}:{message}")


def _set(path, value):
    """An edit that sets the item at `path` (a tuple of keys) to `value`."""

    def edit(document):
        for key in path[:-1]:
            document = document[key]
        document[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "name, edit, message, line",
    [
        _gap("usage.json", _set(("usage", "skipped_unknown"), 2.9),
             "skipped_unknown must be an integer, got 2.9"),
        _gap("usage.json", _set(("usage", "skipped_unknown"), "7"),
             "skipped_unknown must be an integer, got '7'"),
        _gap("usage.json", _set(("usage", "actors", 0), 5), "actors must be a list of strings"),
        _gap("ctfidf.json", _set(("model", "class_ids", 0), 5),
             "class_ids must be a list of strings"),
        _gap("ctfidf.json", _set(("model", "vocab", 0), True), "vocab must be a list of strings"),
        _gap("ctfidf.json", _set(("model", "weights", 0), True),
             "weights must be a list of finite numbers"),
        _gap("usage.json", _set(("usage", "extra"), 1), "unknown key 'extra'"),
        _gap("ctfidf.json", _set(("model", "extra"), 1), "unknown key 'extra'"),
        _gap("pattern_categories.json", _set(("patterns", 3, "extra"), 1),
             "'patterns' entry 3: unknown key 'extra'"),
        _gap("relations.json", _set(("extra",), 1), "unknown key 'extra'"),
        _gap("pattern_categories.json", _set(("patterns", 0, "tx"), 1566),
             "'patterns' entry 0: tx must be a string, got 1566"),
        _gap("classify.jsonl", _set((0, "meta"), 5), "meta must be an object, got 5", line=1),
        _gap("predictions.jsonl", _set((0, "meta"), 5), "meta must be an object, got 5", line=1),
    ],
)
def test_gap_fails_naming_the_file(sources, tmp_path, name, edit, message, line):
    # Each of these loaded before every reader checked its record shape.
    jsonl = name.endswith(".jsonl")
    document = _read(sources[name], 0 if jsonl else None)
    edit(document)
    target = tmp_path / "kb" / name if name == "usage.json" else tmp_path / name
    target.parent.mkdir(exist_ok=True)
    _write(target, document, 0 if jsonl else None)
    with pytest.raises(PipelineError) as excinfo:
        READERS[name](str(target))
    where = f" on line {line}" if jsonl else ""
    assert str(excinfo.value).startswith(f"{target}: malformed ")
    assert f"{where}: ValueError: {message}" in str(excinfo.value)


def test_a_left_out_config_key_keeps_its_default():
    config = PipelineConfig.from_dict({"train": {"trees": 5}})
    assert config.train == TrainConfig(trees=5)
    assert config.threshold == PipelineConfig().threshold
    assert PipelineConfig.from_dict({"stix": None}) == PipelineConfig()
    assert math.isclose(TrainConfig.from_dict({}).learning_rate, TrainConfig().learning_rate)
