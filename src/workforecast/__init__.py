"""Forecast workforce-reintegration programme success rates from labour-market fundamentals."""

# What the CLI's options read: kept here, so that building them executes no pipeline module.
__version__ = "0.1.0"
BENCHMARK_MODES = ("trainfold-mean", "prior-years-mean")
BASELINE_MODES = ("difference", "ratio")
DEFAULT_MIN_HOURS = 16.0
DEFAULT_WINDOW_MONTHS = 6
