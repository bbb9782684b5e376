"""Time-domain waveform container and elementary signal algebra.

All numerical work is done in float64 regardless of the on-disk sample
format; the projection solves downstream are too ill-conditioned for
float32.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Waveform",
    "MixtureSpec",
    "add",
    "scale",
    "inner",
    "energy",
    "db_to_power",
    "mix_at_snr",
]

@dataclass(frozen=True, eq=False)
class Waveform:
    """A finite single-channel signal: float64 samples plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        if samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform samples must be finite (no NaN/Inf)")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class MixtureSpec:
    """How to scale noise against speech when synthesizing a mixture."""

    target_snr_db: float

    def __post_init__(self):
        if not math.isfinite(self.target_snr_db):
            raise ValueError("target_snr_db must be finite")


def _check_compatible(a: Waveform, b: Waveform, op: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"{op}: length mismatch ({len(a)} vs {len(b)})")
    if a.sample_rate != b.sample_rate:
        raise ValueError(f"{op}: sample rate mismatch ({a.sample_rate} vs {b.sample_rate})")


def add(a: Waveform, b: Waveform) -> Waveform:
    """Elementwise sum of two equal-length, equal-rate waveforms."""
    _check_compatible(a, b, "add")
    return Waveform(a.samples + b.samples, a.sample_rate)


def scale(a: Waveform, c: float) -> Waveform:
    """Multiply every sample by a finite scalar."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"scale factor must be finite, got {c!r}")
    return Waveform(a.samples * c, a.sample_rate)


def inner(a: Waveform, b: Waveform) -> float:
    """Euclidean inner product of two equal-length waveforms."""
    _check_compatible(a, b, "inner")
    return float(np.dot(a.samples, b.samples))


def energy(a: Waveform) -> float:
    """Total energy, i.e. the squared Euclidean norm of the samples."""
    return float(np.dot(a.samples, a.samples))


def db_to_power(db: float, name: str) -> float:
    """The power ratio ``10 ** (db / 10)``; a ``ValueError`` naming ``name``
    and ``db`` where it is not finite (above about 3083 dB) or zero."""
    try:
        ratio = 10.0 ** (db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"{name} {db:g} dB is out of range: its power ratio is {ratio:g}")
    return ratio


def mix_at_snr(s: Waveform, n: Waveform, spec: MixtureSpec) -> tuple[Waveform, Waveform]:
    """Scale ``n`` so the s-to-n power ratio hits the target, then mix.

    Returns ``(y, n_scaled)`` with ``y = s + n_scaled`` and
    ``10*log10(energy(s) / energy(n_scaled)) == spec.target_snr_db``.
    SNR is measured on full-signal power; there is no voice-activity
    weighting.
    """
    _check_compatible(s, n, "mix_at_snr")
    e_s, e_n = energy(s), energy(n)
    if e_s == 0.0 or e_n == 0.0:
        raise ValueError("mix_at_snr requires both signals to have nonzero energy")
    snr = spec.target_snr_db
    noise_power = e_n * db_to_power(snr, "target SNR")
    n_scaled = scale(n, math.sqrt(e_s / noise_power)) if noise_power > 0.0 else None
    if n_scaled is None or not 0.0 < energy(n_scaled) < math.inf:
        raise ValueError(f"target SNR {snr:g} dB is out of range: the scaled noise "
                         "would have zero or infinite energy")
    return add(s, n_scaled), n_scaled
