"""Synthetic multi-channel ECG generator.

The paper evaluates on multi-lead ECG recordings we do not have; this
generator produces the synthetic equivalent: a sum-of-Gaussians PQRST
morphology per beat (a simplified ECGSYN model), plus the artefacts the
benchmarks exist to remove — baseline wander, powerline interference and
wideband noise — quantized to a 12-bit ADC.  Per-channel amplitude and
morphology factors emulate different leads; noise is independent per
channel.  Everything is seeded and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

# NumPy is imported inside the functions that use it, so ``import
# repro`` does not load it
if TYPE_CHECKING:
    import numpy as np

#: (relative time within beat [0..1), width fraction, amplitude factor)
_PQRST = (
    ("P", 0.18, 0.025, 0.12),
    ("Q", 0.36, 0.010, -0.12),
    ("R", 0.40, 0.012, 1.00),
    ("S", 0.44, 0.010, -0.22),
    ("T", 0.66, 0.045, 0.30),
)


@dataclass(frozen=True)
class EcgConfig:
    """Parameters of the synthetic recording.

    :ivar fs: sampling rate in Hz.
    :ivar heart_rate_bpm: average heart rate.
    :ivar rr_jitter: relative beat-to-beat period jitter (uniform).
    :ivar amplitude: R-wave amplitude in ADC counts (12-bit full scale
        is ±2048).
    :ivar baseline_amp: baseline-wander amplitude in counts.
    :ivar baseline_freq: wander frequency in Hz (respiration-like).
    :ivar powerline_amp: 50 Hz interference amplitude in counts.
    :ivar noise_rms: white-noise RMS in counts.
    :ivar seed: RNG seed.
    """

    fs: int = 120
    heart_rate_bpm: float = 72.0
    rr_jitter: float = 0.05
    amplitude: float = 900.0
    baseline_amp: float = 180.0
    baseline_freq: float = 0.33
    powerline_amp: float = 25.0
    noise_rms: float = 12.0
    seed: int = 2013


@dataclass(frozen=True)
class EcgRecording:
    """A generated recording: ``channels[c][n]`` in ADC counts (int16)."""

    config: EcgConfig
    channels: np.ndarray          # shape (n_channels, n_samples), int16
    r_peaks: tuple[int, ...]      # ground-truth R sample indices

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    def channel(self, index: int) -> list[int]:
        """One channel as a plain int list (kernel/golden input form)."""
        return [int(v) for v in self.channels[index]]


def generate_ecg(n_channels: int = 8, n_samples: int = 512,
                 config: EcgConfig | None = None) -> EcgRecording:
    """Generate a seeded multi-channel ECG recording.

    Channels share beat timing (same heart) but differ in amplitude,
    per-wave morphology factors and noise realization (different leads).
    """
    import numpy as np

    config = config or EcgConfig()
    rng = np.random.default_rng(config.seed)
    fs = config.fs
    duration = n_samples / fs
    mean_rr = 60.0 / config.heart_rate_bpm

    # ground-truth beat schedule (shared by all channels)
    starts = []
    t = 0.05 * mean_rr
    while t < duration + mean_rr:
        starts.append(t)
        t += mean_rr * (1 + config.rr_jitter * (2 * rng.random() - 1))

    times = np.arange(n_samples) / fs
    clean = np.zeros((n_channels, n_samples))
    r_peaks: list[int] = []

    # per-channel lead factors
    gains = 0.55 + 0.5 * rng.random(n_channels)
    morphs = 1.0 + 0.25 * (2 * rng.random((n_channels, len(_PQRST))) - 1)

    for beat_index, start in enumerate(starts):
        rr = mean_rr
        for wave_index, (name, pos, width, amp) in enumerate(_PQRST):
            center = start + pos * rr
            sigma = width * rr * 4.0
            pulse = np.exp(-0.5 * ((times - center) / sigma) ** 2)
            for c in range(n_channels):
                clean[c] += (config.amplitude * gains[c] * amp
                             * morphs[c, wave_index] * pulse)
            if name == "R":
                sample = int(round(center * fs))
                if 0 <= sample < n_samples:
                    r_peaks.append(sample)

    channels = np.empty((n_channels, n_samples), dtype=np.int16)
    for c in range(n_channels):
        phase = 2 * np.pi * rng.random()
        wander = config.baseline_amp * np.sin(
            2 * np.pi * config.baseline_freq * times + phase)
        powerline = config.powerline_amp * np.sin(
            2 * np.pi * 50.0 * times + 2 * np.pi * rng.random())
        noise = rng.normal(0.0, config.noise_rms, n_samples)
        signal = clean[c] + wander + powerline + noise
        channels[c] = np.clip(np.round(signal), -2048, 2047).astype(np.int16)

    return EcgRecording(config, channels, tuple(r_peaks))
