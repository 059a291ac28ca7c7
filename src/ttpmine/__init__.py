"""ttpmine: mine temporal attack patterns from CTI report text.

Pipeline: ATT&CK knowledge base -> sentence-level technique
classification -> pair feature extraction -> temporal relation
classification -> recurring-pattern mining.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
