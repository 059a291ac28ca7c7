"""Every name a package exports resolves, and retired API stays gone."""

from __future__ import annotations

import importlib

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
    ],
)
def test_retired_names_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_sentence_still_exported():
    ttpmine = importlib.import_module("ttpmine")
    corpus = importlib.import_module("ttpmine.corpus")
    assert "Sentence" in ttpmine.__all__
    assert ttpmine.Sentence is corpus.Sentence
