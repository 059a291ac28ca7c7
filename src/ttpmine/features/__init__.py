"""Feature extraction for ordered technique pairs."""

__all__: list[str] = []
