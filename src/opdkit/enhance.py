"""Classical single-channel enhancement baselines.

STFT-domain gain masks (spectral subtraction, oracle Wiener, ideal binary
mask) that produce realistic artifact-bearing enhanced signals, so the
decomposition and analysis tooling can run end-to-end without a learned
model.  Analysis and synthesis both use a periodic square-root Hann window;
at the default 50% hop the squared window overlap-adds to exactly one, so a
unit gain reconstructs the input to round-off.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .signals import Waveform, db_to_power

__all__ = ["EnhanceConfig", "enhance", "stft", "istft", "ENHANCE_METHODS"]

ENHANCE_METHODS = ("spectral-subtraction", "oracle-wiener", "ideal-binary-mask")

_COLA_MIN_WEIGHT = 1e-6


@dataclass(frozen=True)
class EnhanceConfig:
    """STFT layout and method-specific knobs for the enhancement stubs."""

    method: str
    frame_len: int = 512
    hop: int = 256
    oversubtraction: float = 2.0        # spectral subtraction only
    mask_threshold_db: float = 0.0      # ideal binary mask only

    def __post_init__(self):
        if self.method not in ENHANCE_METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {ENHANCE_METHODS}")
        if self.frame_len < 2 or (self.frame_len & (self.frame_len - 1)) != 0:
            raise ValueError(f"frame_len must be a power of two >= 2, got {self.frame_len}")
        if not 1 <= self.hop <= self.frame_len:
            raise ValueError(f"hop must satisfy 1 <= hop <= frame_len, got {self.hop}")
        if not math.isfinite(self.oversubtraction) or self.oversubtraction < 0:
            raise ValueError(f"oversubtraction must be finite and >= 0, got {self.oversubtraction}")
        db_to_power(self.mask_threshold_db, "mask_threshold_db")


def _sqrt_hann(n: int) -> np.ndarray:
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))


def _layout(length: int, frame_len: int, hop: int) -> tuple[int, int, int]:
    # Head padding of one full frame guarantees complete window coverage of
    # every real sample; frames run up to the last start <= head + length - 1.
    head = frame_len
    n_frames = (head + length - 1) // hop + 1
    padded = (n_frames - 1) * hop + frame_len
    return head, n_frames, padded


def stft(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Windowed rfft frames, shape (n_frames, frame_len // 2 + 1)."""
    x = np.asarray(x, dtype=np.float64)
    head, n_frames, padded = _layout(len(x), frame_len, hop)
    buf = np.zeros(padded)
    buf[head:head + len(x)] = x
    frames = np.lib.stride_tricks.sliding_window_view(buf, frame_len)[::hop]
    return rfft(frames * _sqrt_hann(frame_len), axis=1)


def istft(spec: np.ndarray, length: int, frame_len: int, hop: int) -> np.ndarray:
    """Overlap-add inverse of :func:`stft`, trimmed to ``length`` samples.

    Normalizes by the accumulated squared window; if that weight vanishes
    anywhere in the output region the window/hop pair cannot reconstruct
    (not constant-overlap-add) and a ValueError is raised.

    Phase r, the r-th hop-sized piece of every frame, is one add onto output
    hops r onwards; phases run last to first, so each sample sums its frames
    in increasing order.
    """
    head, n_frames, _ = _layout(length, frame_len, hop)
    if spec.shape != (n_frames, frame_len // 2 + 1):
        raise ValueError(f"istft: expected spectrogram shape "
                         f"{(n_frames, frame_len // 2 + 1)}, got {spec.shape}")
    window = _sqrt_hann(frame_len)
    frames = irfft(spec, n=frame_len, axis=1)
    frames *= window
    R = -(-frame_len // hop)  # phases per frame; the last may be short
    out, weight = np.zeros((2, n_frames + R - 1, hop))
    for r in reversed(range(R)):
        phase = slice(r * hop, min((r + 1) * hop, frame_len))
        width = phase.stop - phase.start
        out[r:r + n_frames, :width] += frames[:, phase]
        weight[r:r + n_frames, :width] += window[phase] * window[phase]
    out, weight = out.ravel(), weight.ravel()
    region = slice(head, head + length)
    if np.min(weight[region]) < _COLA_MIN_WEIGHT:
        raise ValueError(
            f"window/hop configuration (frame_len={frame_len}, hop={hop}) does not "
            "satisfy the constant-overlap-add condition; reconstruction is impossible"
        )
    return out[region] / weight[region]


def _power(spec: np.ndarray) -> np.ndarray:
    return (spec * np.conj(spec)).real


def _subtraction_gains(y_spec: np.ndarray, noise_psd: np.ndarray, beta: float) -> np.ndarray:
    y_pow = _power(y_spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain_sq = 1.0 - beta * noise_psd / y_pow
    gain_sq = np.where(y_pow > 0.0, gain_sq, 0.0)
    # half-wave rectification: negative power estimates are floored at zero,
    # which is exactly what makes this stub produce musical-noise artifacts
    return np.sqrt(np.maximum(gain_sq, 0.0))


def enhance(y: Waveform, s: Waveform, n: Waveform, cfg: EnhanceConfig) -> Waveform:
    """Run the baseline enhancer ``cfg.method`` on the observed signal ``y``.

    ``s`` and ``n`` are the speech and noise references, of ``y``'s length
    and rate.  ``spectral-subtraction`` reads only ``n``, for its average
    noise power; ``oracle-wiener`` and ``ideal-binary-mask`` read both.
    Output length always equals the input length.
    """
    for name, ref in (("s", s), ("n", n)):
        if len(ref) != len(y) or ref.sample_rate != y.sample_rate:
            raise ValueError(f"enhance: reference {name} incompatible with y")

    y_spec = stft(y.samples, cfg.frame_len, cfg.hop)

    if cfg.method == "spectral-subtraction":
        noise_psd = _power(stft(n.samples, cfg.frame_len, cfg.hop)).mean(axis=0)
        gains = _subtraction_gains(y_spec, noise_psd, cfg.oversubtraction)
    elif cfg.method == "oracle-wiener":
        s_pow = _power(stft(s.samples, cfg.frame_len, cfg.hop))
        n_pow = _power(stft(n.samples, cfg.frame_len, cfg.hop))
        denom = s_pow + n_pow
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = np.where(denom > 0.0, s_pow / denom, 0.0)
    else:  # ideal-binary-mask
        s_pow = _power(stft(s.samples, cfg.frame_len, cfg.hop))
        n_pow = _power(stft(n.samples, cfg.frame_len, cfg.hop))
        threshold = db_to_power(cfg.mask_threshold_db, "mask_threshold_db")
        gains = (s_pow >= threshold * n_pow).astype(np.float64)

    out = istft(gains * y_spec, len(y), cfg.frame_len, cfg.hop)
    return Waveform(out, y.sample_rate)
