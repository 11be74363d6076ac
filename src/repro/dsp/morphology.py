"""1-D flat mathematical morphology for biosignals.

These are the primitives behind both ECG benchmarks of the paper:
MRPFLTR (morphological filtering, Sun et al. 2002 [10]) and MRPDLN
(multiscale morphological derivatives, Sun et al. 2005 [11]).

Two implementations are provided:

- a vectorized numpy form (`erosion`, `dilation`, ...) for analysis and
  plotting, and
- bit-exact integer forms (`erosion_int`, ...) that operate on Python int
  lists with the same edge handling the platform kernels use, so kernel
  output can be compared word-for-word.

Conventions: flat (all-zero) structuring element of odd length ``k``
centered on the output sample; the signal is padded by replicating its
edge values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# NumPy is imported inside the functions that use it, so ``import
# repro`` does not load it
if TYPE_CHECKING:
    import numpy as np


def _check_length(k: int) -> int:
    if k < 1 or k % 2 == 0:
        raise ValueError(f"structuring element length must be odd, got {k}")
    return k


def _sliding(x: np.ndarray, k: int) -> np.ndarray:
    import numpy as np

    half = k // 2
    padded = np.pad(np.asarray(x), half, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, k)


def erosion(x, k: int) -> np.ndarray:
    """Flat erosion: minimum over a centered window of length ``k``."""
    _check_length(k)
    return _sliding(x, k).min(axis=1)


def dilation(x, k: int) -> np.ndarray:
    """Flat dilation: maximum over a centered window of length ``k``."""
    _check_length(k)
    return _sliding(x, k).max(axis=1)


def opening(x, k: int) -> np.ndarray:
    """Erosion followed by dilation (removes positive peaks narrower
    than the structuring element)."""
    return dilation(erosion(x, k), k)


def closing(x, k: int) -> np.ndarray:
    """Dilation followed by erosion (fills negative pits narrower than
    the structuring element)."""
    return erosion(dilation(x, k), k)


# ---------------------------------------------------------------------------
# Bit-exact integer forms (mirror the platform kernels)
# ---------------------------------------------------------------------------

def erosion_int(x: list[int], k: int) -> list[int]:
    """Integer erosion with replicated-edge padding (kernel-exact)."""
    _check_length(k)
    half = k // 2
    n = len(x)
    out = []
    for i in range(n):
        m = x[max(0, min(n - 1, i - half))]
        for j in range(i - half, i + half + 1):
            v = x[max(0, min(n - 1, j))]
            if v < m:
                m = v
        out.append(m)
    return out


def dilation_int(x: list[int], k: int) -> list[int]:
    """Integer dilation with replicated-edge padding (kernel-exact)."""
    _check_length(k)
    half = k // 2
    n = len(x)
    out = []
    for i in range(n):
        m = x[max(0, min(n - 1, i - half))]
        for j in range(i - half, i + half + 1):
            v = x[max(0, min(n - 1, j))]
            if v > m:
                m = v
        out.append(m)
    return out


def opening_int(x: list[int], k: int) -> list[int]:
    return dilation_int(erosion_int(x, k), k)


def closing_int(x: list[int], k: int) -> list[int]:
    return erosion_int(dilation_int(x, k), k)
