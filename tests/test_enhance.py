import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import RATE
from opdkit.decomposition import Decomposer
from opdkit.enhance import EnhanceConfig, enhance, istft, stft
from opdkit.metrics import compute_metrics
from opdkit.signals import MixtureSpec, Waveform, energy, inner, mix_at_snr


def tone_plus_noise(seed=0, length=6000, snr_db=5.0):
    t = np.arange(length) / RATE
    s = Waveform(0.4 * np.sin(2 * np.pi * 440.0 * t)
                 + 0.2 * np.sin(2 * np.pi * 950.0 * t + 0.3), RATE)
    rng = np.random.default_rng(seed)
    n = Waveform(rng.standard_normal(length) * 0.2, RATE)
    y, n_scaled = mix_at_snr(s, n, MixtureSpec(target_snr_db=snr_db))
    return s, n_scaled, y


class TestConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            EnhanceConfig(method="rnnoise")

    def test_frame_len_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            EnhanceConfig(method="oracle-wiener", frame_len=500)

    def test_hop_bounds(self):
        with pytest.raises(ValueError, match="hop"):
            EnhanceConfig(method="oracle-wiener", frame_len=256, hop=512)
        with pytest.raises(ValueError, match="hop"):
            EnhanceConfig(method="oracle-wiener", hop=0)

    def test_oversubtraction_validated(self):
        with pytest.raises(ValueError, match="oversubtraction"):
            EnhanceConfig(method="spectral-subtraction", oversubtraction=-1.0)

    def test_mask_threshold_with_no_float_power_ratio_rejected(self):
        with pytest.raises(ValueError, match="^mask_threshold_db 4000 dB is out of range: "
                                             "its power ratio is inf$"):
            EnhanceConfig(method="ideal-binary-mask", mask_threshold_db=4000.0)


class TestReconstruction:
    @pytest.mark.parametrize("length", [1, 100, 511, 512, 1237, 6000])
    def test_stft_istft_identity(self, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal(length)
        spec = stft(x, 512, 256)
        assert_allclose(istft(spec, length, 512, 256), x, atol=1e-10)

    def test_identity_at_quarter_hop(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2000)
        spec = stft(x, 256, 64)
        assert_allclose(istft(spec, 2000, 256, 64), x, atol=1e-10)

    def test_non_cola_configuration_rejected(self):
        x = np.ones(2000)
        spec = stft(x, 512, 512)
        with pytest.raises(ValueError, match="constant-overlap-add"):
            istft(spec, 2000, 512, 512)

    def test_binary_mask_with_zero_noise_is_identity(self):
        s, _, y = tone_plus_noise()
        zero = Waveform(np.zeros(len(y)), RATE)
        out = enhance(y, s=y, n=zero,
                      cfg=EnhanceConfig(method="ideal-binary-mask"))
        rel = np.linalg.norm(out.samples - y.samples) / np.linalg.norm(y.samples)
        assert rel <= 1e-8


class TestMethods:
    def test_output_length_matches_input(self):
        s, n, y = tone_plus_noise(length=5001)
        for method in ("spectral-subtraction", "oracle-wiener", "ideal-binary-mask"):
            out = enhance(y, s, n, EnhanceConfig(method=method))
            assert len(out) == len(y)

    def test_oracle_methods_require_references(self):
        # every method takes both references; none can be left out
        _, _, y = tone_plus_noise()
        for method in ("spectral-subtraction", "oracle-wiener", "ideal-binary-mask"):
            with pytest.raises(TypeError):
                enhance(y, cfg=EnhanceConfig(method=method))

    @pytest.mark.parametrize("method,transforms", [
        ("spectral-subtraction", ["y", "n"]), ("oracle-wiener", ["y", "s", "n"]),
        ("ideal-binary-mask", ["y", "s", "n"])])
    def test_stft_of_only_the_signals_a_method_reads(self, monkeypatch, method, transforms):
        import opdkit.enhance as enhance_module
        s, n, y = tone_plus_noise(length=2000)
        names = {id(y.samples): "y", id(s.samples): "s", id(n.samples): "n"}
        seen = []
        original = enhance_module.stft
        monkeypatch.setattr(enhance_module, "stft",
                            lambda x, *a: seen.append(names[id(x)]) or original(x, *a))
        enhance(y, s, n, EnhanceConfig(method=method))
        assert seen == transforms

    def test_incompatible_reference_rejected(self):
        s, n, y = tone_plus_noise()
        short = Waveform(s.samples[:100], RATE)
        with pytest.raises(ValueError, match="incompatible"):
            enhance(y, short, n, EnhanceConfig(method="oracle-wiener"))

    def test_spectral_subtraction_produces_artifacts(self):
        # the whole point of the stub: gains floored at zero create a
        # component outside the speech-noise span
        s, n, y = tone_plus_noise(seed=3)
        out = enhance(y, s, n, EnhanceConfig(method="spectral-subtraction"))
        d = Decomposer(s, n, 16).decompose(out)
        assert energy(d.e_artif) > 0.0
        assert not d.artifact_free
        report = compute_metrics(d)
        assert np.isfinite(report.sar_db)

    def test_wiener_improves_snr(self):
        s, n, y = tone_plus_noise(seed=5, snr_db=0.0)
        out = enhance(y, s, n, EnhanceConfig(method="oracle-wiener"))
        before = compute_metrics(Decomposer(s, n, 16).decompose(y))
        after = compute_metrics(Decomposer(s, n, 16).decompose(out))
        assert after.snr_db > before.snr_db

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_mask_output_satisfies_gain_condition(self, seed):
        # regression expectation on seeded mixtures, not a theorem
        s, n, y = tone_plus_noise(seed=seed, snr_db=0.0)
        out = enhance(y, s, n, EnhanceConfig(method="ideal-binary-mask"))
        assert inner(out, y) > 0.0
