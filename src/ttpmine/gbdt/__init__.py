"""Gradient-boosted relation classifier with histogram split search."""

# The one re-export: `pipebench/child.py` imports TrainConfig from here.
from .ensemble import TrainConfig

__all__ = ["TrainConfig"]
