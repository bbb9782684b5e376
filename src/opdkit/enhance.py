"""Classical single-channel enhancement baselines.

STFT-domain gain masks that produce realistic artifact-bearing enhanced
signals, so the decomposition and analysis tooling can run end-to-end
without a learned model.  Each method is one fixed front-end, so a method
name stands for one enhancer:

* ``spectral-subtraction``: power subtraction of the average noise power,
  oversubtracted by a factor of 2 and half-wave rectified;
* ``oracle-wiener``: the gain ``|S|^2 / (|S|^2 + |N|^2)`` from the
  references;
* ``ideal-binary-mask``: a 0 dB mask, passing a bin where ``|S|^2 >= |N|^2``.

All three use one STFT: 512-sample frames at a 256-sample hop, analysed and
synthesized with a periodic square-root Hann window.  At that 50% hop the
squared window overlap-adds to exactly one, so a unit gain reconstructs the
input to round-off.
"""

import numpy as np
from numpy.fft import irfft, rfft

from .signals import Waveform

__all__ = ["enhance", "stft", "istft", "ENHANCE_METHODS"]

ENHANCE_METHODS = ("spectral-subtraction", "oracle-wiener", "ideal-binary-mask")

_FRAME_LEN = 512
_HOP = 256
_OVERSUBTRACTION = 2.0


def _sqrt_hann(n: int) -> np.ndarray:
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))


def _layout(length: int) -> tuple[int, int, int]:
    # Head padding of one full frame guarantees complete window coverage of
    # every real sample; frames run up to the last start <= head + length - 1.
    head = _FRAME_LEN
    n_frames = (head + length - 1) // _HOP + 1
    padded = (n_frames - 1) * _HOP + _FRAME_LEN
    return head, n_frames, padded


def stft(x: np.ndarray) -> np.ndarray:
    """Windowed rfft frames, shape (n_frames, 257)."""
    x = np.asarray(x, dtype=np.float64)
    head, n_frames, padded = _layout(len(x))
    buf = np.zeros(padded)
    buf[head:head + len(x)] = x
    frames = np.lib.stride_tricks.sliding_window_view(buf, _FRAME_LEN)[::_HOP]
    return rfft(frames * _sqrt_hann(_FRAME_LEN), axis=1)


def istft(spec: np.ndarray, length: int) -> np.ndarray:
    """Overlap-add inverse of :func:`stft`, trimmed to ``length`` samples.

    Normalizes by the accumulated squared window, which is one to round-off
    on every output sample: each is covered by two frames.

    Phase r, the r-th hop-sized half of every frame, is one add onto output
    hops r onwards; phases run last to first, so each sample sums its frames
    in increasing order.
    """
    head, n_frames, _ = _layout(length)
    if spec.shape != (n_frames, _FRAME_LEN // 2 + 1):
        raise ValueError(f"istft: expected spectrogram shape "
                         f"{(n_frames, _FRAME_LEN // 2 + 1)}, got {spec.shape}")
    window = _sqrt_hann(_FRAME_LEN)
    frames = irfft(spec, n=_FRAME_LEN, axis=1)
    frames *= window
    R = _FRAME_LEN // _HOP  # phases per frame
    out, weight = np.zeros((2, n_frames + R - 1, _HOP))
    for r in reversed(range(R)):
        phase = slice(r * _HOP, (r + 1) * _HOP)
        out[r:r + n_frames] += frames[:, phase]
        weight[r:r + n_frames] += window[phase] * window[phase]
    region = slice(head, head + length)
    return out.ravel()[region] / weight.ravel()[region]


def _power(spec: np.ndarray) -> np.ndarray:
    return (spec * np.conj(spec)).real


def _subtraction_gains(y_spec: np.ndarray, noise_psd: np.ndarray) -> np.ndarray:
    y_pow = _power(y_spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain_sq = 1.0 - _OVERSUBTRACTION * noise_psd / y_pow
    gain_sq = np.where(y_pow > 0.0, gain_sq, 0.0)
    # half-wave rectification: negative power estimates are floored at zero,
    # which is exactly what makes this stub produce musical-noise artifacts
    return np.sqrt(np.maximum(gain_sq, 0.0))


def enhance(y: Waveform, s: Waveform, n: Waveform, method: str) -> Waveform:
    """Run the baseline enhancer ``method`` on the observed signal ``y``.

    ``s`` and ``n`` are the speech and noise references, of ``y``'s length
    and rate.  ``spectral-subtraction`` reads only ``n``, for its average
    noise power; ``oracle-wiener`` and ``ideal-binary-mask`` read both.
    Output length always equals the input length.
    """
    if method not in ENHANCE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {ENHANCE_METHODS}")
    for name, ref in (("s", s), ("n", n)):
        if len(ref) != len(y) or ref.sample_rate != y.sample_rate:
            raise ValueError(f"enhance: reference {name} incompatible with y")

    y_spec = stft(y.samples)

    if method == "spectral-subtraction":
        noise_psd = _power(stft(n.samples)).mean(axis=0)
        gains = _subtraction_gains(y_spec, noise_psd)
    else:
        s_pow = _power(stft(s.samples))
        n_pow = _power(stft(n.samples))
        if method == "oracle-wiener":
            denom = s_pow + n_pow
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = np.where(denom > 0.0, s_pow / denom, 0.0)
        else:  # ideal-binary-mask
            gains = (s_pow >= n_pow).astype(np.float64)

    out = istft(gains * y_spec, len(y))
    return Waveform(out, y.sample_rate)
