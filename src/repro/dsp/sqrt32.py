"""SQRT32 — fast integer square root (Rolfe, SIGNUM 1987 [12]).

Reference benchmark 3 of the paper (sec. II): a 32-bit integer square-root
kernel "mostly used for multi-lead ECG combination" — combining leads as
the root of a sum of squared samples (an RMS envelope).

:func:`isqrt32` is the non-restoring shift-subtract form with one
data-dependent branch per bit — the divergence source that makes this
benchmark interesting for the synchronization study.
"""

from __future__ import annotations


def isqrt32(n: int) -> int:
    """Floor square root of a 32-bit unsigned integer.

    Non-restoring binary method: 16 iterations, one trial subtraction
    (data-dependent branch) each.
    """
    if not 0 <= n < (1 << 32):
        raise ValueError(f"isqrt32 domain is [0, 2^32), got {n}")
    x = n
    c = 0
    d = 1 << 30
    while d > n:
        d >>= 2
    while d:
        if x >= c + d:
            x -= c + d
            c = (c >> 1) + d
        else:
            c >>= 1
        d >>= 2
    return c


def rms_envelope(x, window: int = 8) -> list[int]:
    """RMS envelope: per non-overlapping window, isqrt(mean of squares).

    This is the multi-sample form the platform kernel runs per channel;
    the mean is a shift, so ``window`` must be a power of two.
    """
    if window < 1 or window & (window - 1):
        raise ValueError("window must be a positive power of two")
    shift = window.bit_length() - 1
    x = list(int(v) for v in x)
    out = []
    for start in range(0, len(x) - window + 1, window):
        acc = 0
        for v in x[start:start + window]:
            acc += v * v
        out.append(isqrt32(acc >> shift))
    return out


def combine_leads(channels) -> list[int]:
    """Multi-lead combination: per sample, isqrt of the summed squares."""
    import numpy as np              # here, so ``import repro`` stays without it

    arr = np.asarray(channels, dtype=np.int64)
    sums = (arr * arr).sum(axis=0)
    return [isqrt32(int(s)) for s in sums]
