"""Feature extraction for ordered technique pairs."""

from .apriori import METRIC_NAMES, METRIC_RANGES, pair_measures
from .builder import (
    FeatureRows,
    PairKey,
    build_report_features,
    features_from_csv,
    features_to_csv,
    read_features_csv,
    write_features_csv,
)
from .discourse import (
    DiscourseRelation,
    classify_discourse,
    coref_links,
    discourse_features,
)
from .layout import FEATURE_GROUPS, FeatureLayout
from .markers import (
    BEFORE_MARKERS,
    CONCURRENT_MARKERS,
    MARKERS,
    OVERLAP_MARKERS,
    marker_features,
)
from .sentence import adjacency_gap, sentence_features

__all__ = [
    "METRIC_NAMES",
    "METRIC_RANGES",
    "pair_measures",
    "FeatureRows",
    "PairKey",
    "build_report_features",
    "features_from_csv",
    "features_to_csv",
    "read_features_csv",
    "write_features_csv",
    "DiscourseRelation",
    "classify_discourse",
    "coref_links",
    "discourse_features",
    "FEATURE_GROUPS",
    "FeatureLayout",
    "BEFORE_MARKERS",
    "CONCURRENT_MARKERS",
    "MARKERS",
    "OVERLAP_MARKERS",
    "marker_features",
    "adjacency_gap",
    "sentence_features",
]
