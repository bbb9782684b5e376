import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from opdkit.signals import Waveform, add, energy, inner, mix_at_snr, scale


class TestWaveform:
    def test_samples_promoted_to_float64(self):
        w = Waveform([1, 2, 3], 8000)
        assert w.samples.dtype == np.float64

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            Waveform([1.0, np.nan], 8000)
        with pytest.raises(ValueError, match="finite"):
            Waveform([np.inf, 0.0], 8000)

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            Waveform([], 8000)
        with pytest.raises(ValueError, match="1-D"):
            Waveform([[1.0, 2.0]], 8000)

    @pytest.mark.parametrize("rate", [0, -4, 1.5, "16k"])
    def test_rejects_bad_sample_rate(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            Waveform([1.0], rate)

    def test_samples_are_immutable(self):
        w = Waveform([1.0, 2.0], 8000)
        with pytest.raises(ValueError):
            w.samples[0] = 5.0

    def test_len_and_duration(self):
        w = Waveform(np.ones(8000), 16000)
        assert len(w) == 8000
        assert len(w) / w.sample_rate == 0.5  # seconds


def test_add_definition():
    out = add(Waveform([1.0, 0.0], 8000), Waveform([0.0, 1.0], 8000))
    assert_array_equal(out.samples, [1.0, 1.0])


def test_add_zero_identity():
    a = Waveform([0.3, -0.7, 2.0], 8000)
    out = add(a, Waveform(np.zeros(3), 8000))
    assert_array_equal(out.samples, a.samples)


def test_add_running_mixture(running_example):
    s, n, _, y = running_example
    assert_array_equal(add(s, n).samples, y.samples)


def test_add_mismatches_rejected():
    with pytest.raises(ValueError, match="length"):
        add(Waveform([1.0], 8000), Waveform([1.0, 2.0], 8000))
    with pytest.raises(ValueError, match="rate"):
        add(Waveform([1.0], 8000), Waveform([1.0], 16000))


def test_scale_definition():
    assert_array_equal(scale(Waveform([1.0, -2.0], 8000), 0.5).samples, [0.5, -1.0])


def test_scale_identity_and_zero():
    a = Waveform([0.1, 0.2], 8000)
    assert_array_equal(scale(a, 1.0).samples, a.samples)
    assert_array_equal(scale(a, 0.0).samples, [0.0, 0.0])


@pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
def test_scale_rejects_nonfinite(factor):
    with pytest.raises(ValueError, match="finite"):
        scale(Waveform([1.0], 8000), factor)


def test_inner_orthogonal_and_basic():
    assert inner(Waveform([1.0, 0.0], 8000), Waveform([0.0, 1.0], 8000)) == 0.0
    assert inner(Waveform([1.0, 1.0], 8000), Waveform([1.0, 1.0], 8000)) == 2.0


def test_inner_running_example(running_example):
    _, _, s_hat, y = running_example
    assert inner(s_hat, y) == pytest.approx(1.1, abs=1e-15)


def test_energy():
    assert energy(Waveform([3.0, 4.0], 8000)) == 25.0


def test_linearity_to_machine_precision():
    rng = np.random.default_rng(11)
    a = Waveform(rng.standard_normal(257), 8000)
    b = Waveform(rng.standard_normal(257), 8000)
    for c in (0.5, -3.25, 1e-4):
        lhs = scale(add(a, b), c)
        rhs = add(scale(a, c), scale(b, c))
        assert_allclose(lhs.samples, rhs.samples, rtol=1e-14, atol=1e-16)


class TestMixAtSnr:
    def test_known_scaling(self):
        # speech energy 1, noise energy 4, 0 dB target -> noise halved
        s = Waveform([1.0, 0.0], 8000)
        n = Waveform([0.0, 2.0], 8000)
        y, n_scaled = mix_at_snr(s, n, 0.0)
        assert_allclose(n_scaled.samples, [0.0, 1.0])
        assert_array_equal(y.samples, add(s, n_scaled).samples)

    def test_equal_energy_zero_db_is_identity_scaling(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        s, n = Waveform(x, 8000), Waveform(x[::-1].copy(), 8000)
        _, n_scaled = mix_at_snr(s, n, 0.0)
        assert_allclose(n_scaled.samples, n.samples, rtol=1e-14)

    @pytest.mark.parametrize("target", [-10.0, 0.0, 5.0, 23.7])
    def test_measured_snr_hits_target(self, target):
        rng = np.random.default_rng(int(abs(target) * 10) + 1)
        s = Waveform(rng.standard_normal(500), 8000)
        n = Waveform(rng.standard_normal(500) * 3.7, 8000)
        _, n_scaled = mix_at_snr(s, n, target)
        measured = 10.0 * math.log10(energy(s) / energy(n_scaled))
        assert measured == pytest.approx(target, abs=1e-9)

    def test_zero_energy_rejected(self):
        s = Waveform([1.0, 0.0], 8000)
        z = Waveform([0.0, 0.0], 8000)
        with pytest.raises(ValueError, match="nonzero energy"):
            mix_at_snr(s, z, 0.0)
        with pytest.raises(ValueError, match="nonzero energy"):
            mix_at_snr(z, s, 0.0)

    def test_out_of_range_snr_rejected(self):
        s = Waveform([1.0, 0.0], 8000)
        n = Waveform([0.0, 2.0], 8000)
        for snr, ratio in ((4000.0, "inf"), (-4000.0, "0")):  # 10^(snr/10) in no float
            with pytest.raises(ValueError, match=rf"^target SNR {snr:g} dB is out of range: "
                                                 rf"its power ratio is {ratio}$"):
                mix_at_snr(s, n, snr)
        # a ratio of 1e300 fits, but the noise would need energy 1e-400
        with pytest.raises(ValueError, match="^target SNR 3000 dB is out of range: the "
                                             "scaled noise would have zero or infinite"):
            mix_at_snr(Waveform([1e-50, 0.0], 8000), n, 3000.0)


def test_mixture_spec_validation():
    # a NaN or infinite target SNR is refused, not mixed at ratio NaN, inf or 0
    s = Waveform([1.0, 0.0], 8000)
    n = Waveform([0.0, 2.0], 8000)
    for snr, ratio in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "0")):
        with pytest.raises(ValueError, match=rf"^target SNR {snr:g} dB is out of range: "
                                             rf"its power ratio is {ratio}$"):
            mix_at_snr(s, n, snr)
