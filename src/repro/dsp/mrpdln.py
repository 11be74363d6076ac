"""MRPDLN — ECG delineation by multiscale morphological derivatives.

Reference benchmark 2 of the paper (sec. II), after Sun, Chan and
Krishnan, "Characteristic wave detection in ECG signal using morphological
transform" [11].

The multiscale morphological derivative (MMD) at scale ``s`` is::

    d_s[n] = (dilation_{2s+1}(x)[n] - x[n]) - (x[n] - erosion_{2s+1}(x)[n])
           = dilation + erosion - 2*x

A sharp positive peak (the R wave) produces a deep negative MMD minimum;
wave onsets/offsets appear as flanking positive maxima.  Delineation then:

1. computes the MMD at the QRS scale;
2. thresholds it at a fraction of the extreme value (``|min| >> 2``);
3. picks local minima under the threshold with a refractory separation —
   these are the R-peak fiducial marks;
4. for each mark, scans left/right for the nearest MMD maxima — the QRS
   onset and offset.

Both a numpy form (:func:`mmd`, :func:`delineate`) and a kernel-exact
integer form (:func:`mrpdln_int`) are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .morphology import dilation, dilation_int, erosion, erosion_int

# NumPy is imported inside the functions that use it, so ``import
# repro`` does not load it
if TYPE_CHECKING:
    import numpy as np

DEFAULT_SCALE = 4          # SE length 2s+1 = 9 at the QRS scale
DEFAULT_REFRACTORY = 40    # minimum samples between R peaks
DEFAULT_SEARCH = 12        # onset/offset search half-window


def mmd(x, scale: int = DEFAULT_SCALE) -> np.ndarray:
    """Multiscale morphological derivative at ``scale``."""
    import numpy as np

    x = np.asarray(x, dtype=np.int64)
    k = 2 * scale + 1
    return dilation(x, k) + erosion(x, k) - 2 * x


@dataclass(frozen=True)
class Delineation:
    """QRS fiducial marks (sample indices) for one channel."""

    peaks: tuple[int, ...]
    onsets: tuple[int, ...]
    offsets: tuple[int, ...]


def delineate(x, scale: int = DEFAULT_SCALE,
              refractory: int = DEFAULT_REFRACTORY,
              search: int = DEFAULT_SEARCH) -> Delineation:
    """Delineate QRS complexes; numpy reference implementation."""
    import numpy as np

    d = mmd(x, scale)
    threshold = int(d.min()) >> 2        # negative fraction of the extreme
    peaks: list[int] = []
    n = len(d)
    i = 1
    while i < n - 1:
        if d[i] <= threshold and d[i] <= d[i - 1] and d[i] <= d[i + 1]:
            peaks.append(i)
            i += refractory
        else:
            i += 1
    onsets, offsets = [], []
    for p in peaks:
        left = max(0, p - search)
        right = min(n - 1, p + search)
        onsets.append(left + int(np.argmax(d[left:p + 1])))
        offsets.append(p + int(np.argmax(d[p:right + 1])))
    return Delineation(tuple(peaks), tuple(onsets), tuple(offsets))


# ---------------------------------------------------------------------------
# Kernel-exact integer form
# ---------------------------------------------------------------------------

def mmd_int(x: list[int], scale: int = DEFAULT_SCALE) -> list[int]:
    k = 2 * scale + 1
    dil = dilation_int(x, k)
    ero = erosion_int(x, k)
    return [d + e - 2 * v for d, e, v in zip(dil, ero, x)]


def mrpdln_int(x: list[int], scale: int = DEFAULT_SCALE,
               refractory: int = DEFAULT_REFRACTORY,
               search: int = DEFAULT_SEARCH,
               max_peaks: int = 16) -> list[int]:
    """Bit-exact MRPDLN as the platform kernel computes it.

    Returns the kernel's output layout: a flat record
    ``[count, peak0, onset0, offset0, peak1, ...]`` padded with zeros to
    ``1 + 3 * max_peaks`` words.
    """
    d = mmd_int(x, scale)
    n = len(d)
    dmin = min(d)
    threshold = dmin >> 2
    records: list[tuple[int, int, int]] = []
    i = 1
    while i < n - 1 and len(records) < max_peaks:
        if d[i] <= threshold and d[i] <= d[i - 1] and d[i] <= d[i + 1]:
            left = i - search
            if left < 0:
                left = 0
            right = i + search
            if right > n - 1:
                right = n - 1
            onset = left
            for j in range(left, i + 1):
                if d[j] > d[onset]:
                    onset = j
            offset = i
            for j in range(i, right + 1):
                if d[j] > d[offset]:
                    offset = j
            records.append((i, onset, offset))
            i += refractory
        else:
            i += 1
    out = [len(records)]
    for peak, onset, offset in records:
        out.extend((peak, onset, offset))
    out.extend([0] * (1 + 3 * max_peaks - len(out)))
    return out
