"""MRPFLTR — ECG conditioning by morphological filtering.

Reference benchmark 1 of the paper (sec. II), after Sun, Chan and
Krishnan, "ECG signal conditioning by morphological filtering" [10]:

1. **Noise suppression**: the average of an opening-closing and a
   closing-opening with a short structuring element ``b`` suppresses
   impulsive noise while preserving wave shape.
2. **Baseline wander correction**: the baseline is estimated by an opening
   with ``l1`` (removes all waves, keeping the drift) followed by a closing
   with ``l2 > l1``; subtracting it re-centres the signal.

Defaults follow the paper's recipe scaled to the synthetic sampling rate:
``l1`` just longer than the QRS support, ``l2`` about 1.5x ``l1``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .morphology import (
    closing,
    closing_int,
    opening,
    opening_int,
)

# NumPy is imported inside the functions that use it, so ``import
# repro`` does not load it
if TYPE_CHECKING:
    import numpy as np

DEFAULT_NOISE_SE = 3
DEFAULT_BASELINE_SE1 = 9
DEFAULT_BASELINE_SE2 = 13


def suppress_noise(x, b: int = DEFAULT_NOISE_SE) -> np.ndarray:
    """Impulse-noise suppression: ½(x∘b•b + x•b∘b)."""
    import numpy as np

    x = np.asarray(x, dtype=np.int64)
    oc = closing(opening(x, b), b)
    co = opening(closing(x, b), b)
    return (oc + co) >> 1


def estimate_baseline(x, l1: int = DEFAULT_BASELINE_SE1,
                      l2: int = DEFAULT_BASELINE_SE2) -> np.ndarray:
    """Baseline estimate: (x ∘ l1) • l2."""
    import numpy as np

    return closing(opening(np.asarray(x, dtype=np.int64), l1), l2)


def mrpfltr(x, b: int = DEFAULT_NOISE_SE,
            l1: int = DEFAULT_BASELINE_SE1,
            l2: int = DEFAULT_BASELINE_SE2) -> np.ndarray:
    """Full MRPFLTR chain: noise suppression then baseline removal."""
    denoised = suppress_noise(x, b)
    return denoised - estimate_baseline(denoised, l1, l2)


# ---------------------------------------------------------------------------
# Kernel-exact integer form
# ---------------------------------------------------------------------------

def mrpfltr_int(x: list[int], b: int = DEFAULT_NOISE_SE,
                l1: int = DEFAULT_BASELINE_SE1,
                l2: int = DEFAULT_BASELINE_SE2) -> list[int]:
    """Bit-exact MRPFLTR as the platform kernel computes it.

    The ½ division is an arithmetic right shift (floor), matching the
    ``SRA`` semantics of the 16-bit core.
    """
    oc = closing_int(opening_int(x, b), b)
    co = opening_int(closing_int(x, b), b)
    denoised = [(u + v) >> 1 for u, v in zip(oc, co)]
    baseline = closing_int(opening_int(denoised, l1), l2)
    return [d - e for d, e in zip(denoised, baseline)]
