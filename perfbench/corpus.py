"""Seeded raw corpus: speech-like and noise WAVs for one workload.

Speech is lowpass Gaussian noise under a syllable-rate envelope; noise is
lowpass Gaussian noise with a lower cutoff.  Both are written as 16 kHz PCM
16-bit mono WAVs with the standard library's ``wave`` module, so the inputs
depend only on the seed and numpy, never on the package being measured.
"""

import os
import wave

import numpy as np

SAMPLE_RATE = 16000
SPEECH_CUTOFF_HZ = 3800.0
NOISE_CUTOFF_HZ = 2000.0
SYLLABLE_RATE_HZ = (3.0, 5.5)
ENVELOPE_FLOOR = 0.05
PEAK = 0.5
NOISE_FILES = 3


def _lowpass_noise(rng: np.random.Generator, length: int, cutoff_hz: float) -> np.ndarray:
    """Gaussian noise with its spectrum zeroed above ``cutoff_hz`` and a
    raised-cosine transition one tenth of the cutoff wide."""
    spectrum = np.fft.rfft(rng.standard_normal(length))
    freqs = np.fft.rfftfreq(length, 1.0 / SAMPLE_RATE)
    edge = 0.1 * cutoff_hz
    ramp = np.clip((cutoff_hz - freqs) / edge, 0.0, 1.0)
    gain = 0.5 - 0.5 * np.cos(np.pi * ramp)
    return np.fft.irfft(spectrum * gain, length)


def _syllable_envelope(rng: np.random.Generator, length: int) -> np.ndarray:
    t = np.arange(length) / SAMPLE_RATE
    rate = rng.uniform(*SYLLABLE_RATE_HZ)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    # slowly varying loudness per syllable, so envelopes are not periodic
    loudness = 0.5 + np.abs(_lowpass_noise(rng, length, rate)) / 3.0
    return ENVELOPE_FLOOR + loudness * np.maximum(np.sin(2.0 * np.pi * rate * t + phase), 0.0) ** 2


def speech_like(rng: np.random.Generator, length: int) -> np.ndarray:
    x = _lowpass_noise(rng, length, SPEECH_CUTOFF_HZ) * _syllable_envelope(rng, length)
    return PEAK * x / np.max(np.abs(x))


def noise_like(rng: np.random.Generator, length: int) -> np.ndarray:
    x = _lowpass_noise(rng, length, NOISE_CUTOFF_HZ)
    return PEAK * x / np.max(np.abs(x))


def write_pcm16(path: str, samples: np.ndarray) -> int:
    """Write mono PCM 16-bit at SAMPLE_RATE; returns the file size in bytes."""
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())
    return os.path.getsize(path)


def generate(out_dir: str, seed: int, utterances: int, seconds: float) -> tuple[str, str]:
    """Write ``utterances`` speech files and NOISE_FILES noise files, each
    ``seconds`` long, under ``out_dir``; returns (speech_dir, noise_dir)."""
    rng = np.random.default_rng(seed)
    length = int(round(seconds * SAMPLE_RATE))
    speech_dir = os.path.join(out_dir, "speech")
    noise_dir = os.path.join(out_dir, "noise")
    os.makedirs(speech_dir)
    os.makedirs(noise_dir)
    for i in range(utterances):
        write_pcm16(os.path.join(speech_dir, f"utt{i:03d}.wav"), speech_like(rng, length))
    for i in range(NOISE_FILES):
        write_pcm16(os.path.join(noise_dir, f"noise{i}.wav"), noise_like(rng, length))
    return speech_dir, noise_dir
