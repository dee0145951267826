"""Amoeba-inspired TSP dynamics: a configurable stochastic lane model,
single-trial solver, and ablation/benchmark harness."""

__version__ = "0.1.0"
