"""Re-exports :mod:`repro.exec.coalescer` under its service-side path."""

from ..exec.coalescer import Claim, InflightCoalescer

__all__ = ["Claim", "InflightCoalescer"]
