"""ttpmine: mine temporal attack patterns from CTI report text.

Pipeline: ATT&CK knowledge base -> sentence-level technique
classification -> pair feature extraction -> temporal relation
classification -> recurring-pattern mining.
"""

__version__ = "0.1.0"

from .attack_kb import (
    ActionDataset,
    TechniqueCatalog,
    TechniqueRecord,
    UsageMatrix,
    build_action_dataset,
    parse_stix,
)
from .corpus import (
    RelationAnnotation,
    Report,
    Sentence,
    load_annotations,
    load_reports,
    make_report,
    pair_universe,
    segment_sentences,
    tokenize,
)
from .ctfidf import (
    CtfidfModel,
    ReportPrediction,
    predict_report,
    score_sentences,
    train_ctfidf,
)
from .embeddings import WordVectors, cosine, load_word_vectors, sentence_vector
from .features import FeatureLayout, FeatureRows
from .gbdt import GbdtEnsemble, RelationPrediction, TrainConfig, cross_validate
from .labels import ALL_LABELS, BEFORE, CONCURRENT, NULL, SIMULTANEOUS_OVERLAP
from .metrics import MetricReport, cohen_kappa, lrap, macro_prf, ndcg, precision_at_k
from .mining import CategoryMap, TemporalPattern, categorize, mine

__all__ = [
    "__version__",
    "ActionDataset",
    "TechniqueCatalog",
    "TechniqueRecord",
    "UsageMatrix",
    "build_action_dataset",
    "parse_stix",
    "RelationAnnotation",
    "Report",
    "Sentence",
    "load_annotations",
    "load_reports",
    "make_report",
    "pair_universe",
    "segment_sentences",
    "tokenize",
    "CtfidfModel",
    "ReportPrediction",
    "predict_report",
    "score_sentences",
    "train_ctfidf",
    "WordVectors",
    "cosine",
    "load_word_vectors",
    "sentence_vector",
    "FeatureLayout",
    "FeatureRows",
    "GbdtEnsemble",
    "RelationPrediction",
    "TrainConfig",
    "cross_validate",
    "ALL_LABELS",
    "BEFORE",
    "CONCURRENT",
    "NULL",
    "SIMULTANEOUS_OVERLAP",
    "MetricReport",
    "cohen_kappa",
    "lrap",
    "macro_prf",
    "ndcg",
    "precision_at_k",
    "CategoryMap",
    "TemporalPattern",
    "categorize",
    "mine",
]
