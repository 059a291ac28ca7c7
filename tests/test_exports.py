"""Every name a package exports resolves, and retired API stays gone."""

from __future__ import annotations

import importlib
import importlib.util
import inspect

import pytest

PACKAGES = ("ttpmine", "ttpmine.features", "ttpmine.gbdt")


@pytest.mark.parametrize("package", PACKAGES)
def test_exported_names_resolve(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name}"


@pytest.mark.parametrize(
    "module, name",
    [
        ("ttpmine", "predict_sentence"),
        ("ttpmine", "SentencePrediction"),
        ("ttpmine.ctfidf", "predict_sentence"),
        ("ttpmine.ctfidf", "SentencePrediction"),
        ("ttpmine.gbdt.tree", "remap_tree_features"),
        ("ttpmine.features", "marker_features"),
        ("ttpmine.features", "sentence_features"),
        ("ttpmine.features", "adjacency_gap"),
        ("ttpmine.features", "discourse_features"),
        ("ttpmine.features.markers", "marker_features"),
        ("ttpmine.features.sentence", "sentence_features"),
        ("ttpmine.features.sentence", "adjacency_gap"),
        ("ttpmine.features.discourse", "discourse_features"),
        ("ttpmine.features.apriori", "bin_index"),
        ("ttpmine", "load_category_map"),
        ("ttpmine.mining", "load_category_map"),
        ("ttpmine.features", "features_to_csv"),
        ("ttpmine.features", "features_from_csv"),
        ("ttpmine.features.builder", "features_to_csv"),
        ("ttpmine.features.builder", "features_from_csv"),
    ],
)
def test_retired_names_gone(module, name):
    # A retired module takes its names with it.
    if importlib.util.find_spec(module) is None:
        return
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "module, function, parameter",
    [
        ("ttpmine.pipeline", "stage_mine", "formats"),
        ("ttpmine.metrics", "macro_prf", "labels"),
        ("ttpmine.metrics", "macro_p_at_k", "labels"),
        ("ttpmine.metrics", "evaluate_relations", "labels"),
    ],
)
def test_retired_parameters_gone(module, function, parameter):
    # Every caller passed one value; it is now fixed.
    signature = inspect.signature(getattr(importlib.import_module(module), function))
    assert parameter not in signature.parameters


def test_retired_module_gone():
    # Its F2 constants live in ttpmine.features.layout.
    assert importlib.util.find_spec("ttpmine.features.sentence") is None


def test_sentence_still_exported():
    ttpmine = importlib.import_module("ttpmine")
    corpus = importlib.import_module("ttpmine.corpus")
    assert "Sentence" in ttpmine.__all__
    assert ttpmine.Sentence is corpus.Sentence
