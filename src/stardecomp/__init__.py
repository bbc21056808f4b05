"""Thresholds and constructive k-star decompositions for d-regular graphs."""

__version__ = "0.1.0"
