"""Forecast workforce-reintegration programme success rates from labour-market fundamentals."""

__version__ = "0.1.0"
