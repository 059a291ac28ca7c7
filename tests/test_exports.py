"""Every name a package exports resolves, and retired API stays gone."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

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
        ("ttpmine", "cross_validate"),
        ("ttpmine", "assign_folds"),
        ("ttpmine.gbdt", "cross_validate"),
        ("ttpmine.gbdt", "assign_folds"),
        ("ttpmine", "cohen_kappa"),
        ("ttpmine.metrics", "cohen_kappa"),
        # Predictions are a probability matrix and its decided label sets.
        ("ttpmine.gbdt.ensemble", "RelationPrediction"),
        ("ttpmine.pipeline", "relation_prediction_to_dict"),
        # Tests use `make_report("", text).sentences`.
        ("ttpmine.corpus", "segment_sentences"),
        # F4 is the nine measures alone: its one-hot bins are retired.
        ("ttpmine.features.apriori", "bin_measures"),
        ("ttpmine.features.apriori", "METRIC_RANGES"),
        ("ttpmine.features.apriori", "PMI_CEIL"),
        ("ttpmine.features.layout", "DEFAULT_BINS"),
        # The one layout is the module's constants, not a class.
        ("ttpmine.features.layout", "FeatureLayout"),
        ("ttpmine.features.builder", "_BIN_PREFIX"),
    ],
)
def test_retired_names_gone(module, name):
    # A retired module takes its names with it.
    if importlib.util.find_spec(module) is None:
        return
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "module, cls, name",
    [
        ("ttpmine.features.builder", "FeatureRows", "take"),
        ("ttpmine.corpus", "RelationAnnotation", "pair"),
        ("ttpmine.embeddings", "WordVectors", "__len__"),
        ("ttpmine.embeddings", "WordVectors", "__contains__"),
        ("ttpmine.pipeline", "PipelineConfig", "bins"),
    ],
)
def test_retired_attributes_gone(module, cls, name):
    # Only tests called them; tests now build or read the fields.
    assert not hasattr(getattr(importlib.import_module(module), cls), name)


@pytest.mark.parametrize(
    "module, function, parameter",
    [
        ("ttpmine.pipeline", "stage_mine", "formats"),
        ("ttpmine.pipeline", "stage_mine", "predictions"),
        ("ttpmine.mining", "mine", "predictions"),
        ("ttpmine.metrics", "macro_prf", "labels"),
        ("ttpmine.metrics", "macro_p_at_k", "labels"),
        ("ttpmine.metrics", "evaluate_relations", "labels"),
        ("ttpmine.features.builder", "f4_table", "bins"),
        ("ttpmine.pipeline", "stage_features", "bins"),
        ("ttpmine.features.builder", "build_report_features", "layout"),
    ],
)
def test_retired_parameters_gone(module, function, parameter):
    # Every caller passed one value; it is now fixed.
    signature = inspect.signature(getattr(importlib.import_module(module), function))
    assert parameter not in signature.parameters


def test_retired_module_gone():
    # Its F2 constants live in ttpmine.features.layout.
    assert importlib.util.find_spec("ttpmine.features.sentence") is None
    # `eval` on a held-out features file is the one evaluation path.
    assert importlib.util.find_spec("ttpmine.gbdt.crossval") is None


def test_top_level_exports_only_the_version():
    # The entry points are the CLI and `ttpmine.pipeline`; importing the
    # package itself loads no submodule and no numpy.
    ttpmine = importlib.import_module("ttpmine")
    assert ttpmine.__all__ == ["__version__"]
    script = (
        "import sys, ttpmine; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ttpmine.')))"
    )
    # The same package the test imported, in a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(Path(ttpmine.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
