import numpy as np
import pytest

from opdkit.selftest import LOWPASS_POLE, _lowpass_noise
from opdkit.signals import Waveform

RATE = 16000


def lowpass_noise(rng, length, pole=LOWPASS_POLE):
    """Correlated test noise; stresses Gram conditioning like real speech.

    The self-test's recursion, bitwise ``scipy.signal.lfilter([1], [1, -pole], x)``."""
    return _lowpass_noise(rng, length, pole)


@pytest.fixture
def running_example():
    """The 4-sample worked example used throughout the tests.

    Orthogonal unit speech/noise, enhanced signal [0.9, 0.2, 0.1, 0]; at
    max_delay=1 the decomposition is exactly ([0.9,0,0,0], [0,0.2,0,0],
    [0,0,0.1,0]).
    """
    s = Waveform([1.0, 0.0, 0.0, 0.0], RATE)
    n = Waveform([0.0, 1.0, 0.0, 0.0], RATE)
    s_hat = Waveform([0.9, 0.2, 0.1, 0.0], RATE)
    y = Waveform([1.0, 1.0, 0.0, 0.0], RATE)
    return s, n, s_hat, y


def random_signals(seed, length=400, max_delay=8):
    """(s, n, s_hat) with s_hat partly in the delayed-reference span."""
    rng = np.random.default_rng(seed)
    s = lowpass_noise(rng, length)
    n = lowpass_noise(rng, length)
    w = lowpass_noise(rng, length)
    s_hat = (np.convolve(s, rng.uniform(0.4, 1.0, min(max_delay, 3)))[:length]
             + 0.3 * n + 0.25 * w * np.linalg.norm(s) / np.linalg.norm(w))
    return (Waveform(s, RATE), Waveform(n, RATE), Waveform(s_hat, RATE))
