import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import RATE, lowpass_noise, random_signals
from opdkit.analysis import SweepValidationError, dsa_sweep, dsa_synthesize, oa_apply, oa_sweep
from opdkit.cli import DEFAULT_DSA_GRID, DEFAULT_OA_GRID, parse_grid
from opdkit.decomposition import Decomposer
from opdkit.metrics import NoTargetError, compute_metrics, metrics_from_gram
from opdkit.projection import SingularProjectionError
from opdkit.reporting import write_sweep_csv
from opdkit.selftest import make_case
from opdkit.signals import Waveform, add, scale


def default_grid(kind):
    """The CLI's default ``kind`` grid: amounts for "oa", pairs for "dsa"."""
    if kind == "oa":
        return parse_grid(DEFAULT_OA_GRID)
    values = parse_grid(DEFAULT_DSA_GRID)
    return [(wn, wa) for wn in values for wa in values]


@pytest.fixture
def running_decomposition(running_example):
    s, n, s_hat, _ = running_example
    return Decomposer(s, n, 1).decompose(s_hat)


class TestPoints:
    """Every function that takes an amount refuses it, by name, unless it is
    finite and >= 0."""

    @staticmethod
    def assert_refused(running_example, bad):
        s, n, s_hat, y = running_example
        dec = Decomposer(s, n, 1)
        d = dec.decompose(s_hat)
        calls = {
            "omega_noise": [lambda: dsa_synthesize(d, bad, 1.0),
                            lambda: dsa_sweep(d, [(1.0, 1.0), (bad, 1.0)])],
            "omega_artif": [lambda: dsa_synthesize(d, 1.0, bad),
                            lambda: dsa_sweep(d, [(1.0, 1.0), (1.0, bad)])],
            "omega_obs": [lambda: oa_apply(s_hat, y, bad),
                          lambda: oa_sweep(dec, s_hat, y, [0.0, bad])],
        }
        message = re.escape(f"must be finite and >= 0, got {float(bad)!r}")
        for name, refused in calls.items():
            for call in refused:
                with pytest.raises(ValueError, match=f"^{name} {message}$"):
                    call()

    def test_negative_rejected(self, running_example):
        for bad in (-0.1, np.float64(-1.0)):
            self.assert_refused(running_example, bad)

    def test_nonfinite_rejected(self, running_example):
        for bad in (math.nan, math.inf, -math.inf, np.float32(math.nan)):
            self.assert_refused(running_example, bad)


class TestDsaSynthesize:
    def test_unit_point_is_identity(self, running_decomposition, running_example):
        _, _, s_hat, _ = running_example
        out = dsa_synthesize(running_decomposition, 1.0, 1.0)
        assert_allclose(out.samples, s_hat.samples, atol=1e-15)

    def test_artifact_free_point(self, running_decomposition):
        out = dsa_synthesize(running_decomposition, 1.0, 0.0)
        assert_allclose(out.samples, [0.9, 0.2, 0.0, 0.0], atol=1e-14)

    def test_running_example_scaling(self, running_decomposition):
        out = dsa_synthesize(running_decomposition, 0.5, 2.0)
        assert_allclose(out.samples, [0.9, 0.1, 0.2, 0.0], atol=1e-14)


class TestOaApply:
    def test_zero_omega_is_identity(self, running_example):
        _, _, s_hat, y = running_example
        out = oa_apply(s_hat, y, 0.0)
        assert_allclose(out.samples, s_hat.samples, rtol=0, atol=0)

    def test_running_example(self, running_example):
        _, _, s_hat, y = running_example
        out = oa_apply(s_hat, y, 0.5)
        assert_allclose(out.samples, [1.4, 0.7, 0.1, 0.0], atol=1e-15)

    def test_zero_enhanced_returns_observation(self, running_example):
        _, _, _, y = running_example
        zero = Waveform(np.zeros(4), RATE)
        assert_allclose(oa_apply(zero, y, 1.0).samples, y.samples)


class TestSarGainCondition:
    """An OA sweep reports the gain condition's <s_hat, y> in every row."""

    @staticmethod
    def inner_s_hat_y(s_hat, running_example):
        s, n, _, y = running_example
        return oa_sweep(Decomposer(s, n, 1), s_hat, y, [0.0])[0].inner_s_hat_y

    def test_observation_itself_holds(self, running_example):
        _, _, _, y = running_example
        assert self.inner_s_hat_y(y, running_example) == pytest.approx(2.0)

    def test_negated_observation_fails(self, running_example):
        _, _, _, y = running_example
        neg = Waveform(-y.samples, RATE)
        assert self.inner_s_hat_y(neg, running_example) == pytest.approx(-2.0)

    def test_running_example(self, running_example):
        _, _, s_hat, _ = running_example
        assert self.inner_s_hat_y(s_hat, running_example) == pytest.approx(1.1)


class TestDsaSweep:
    def test_unit_grid_point_matches_baseline(self, running_decomposition):
        baseline = compute_metrics(running_decomposition)
        rows = dsa_sweep(running_decomposition, [(1.0, 1.0)], "u0")
        assert len(rows) == 1
        row = rows[0]
        assert row.utterance_id == "u0"
        assert row.omega_obs is None
        assert row.metrics.sar_db == pytest.approx(baseline.sar_db, abs=1e-12)
        assert row.metrics.snr_db == pytest.approx(baseline.snr_db, abs=1e-12)

    def test_empty_grid_rejected(self, running_decomposition):
        with pytest.raises(ValueError, match="non-empty"):
            dsa_sweep(running_decomposition, [])

    def test_duplicate_grid_rejected(self, running_decomposition):
        with pytest.raises(ValueError, match="unique"):
            dsa_sweep(running_decomposition,
                      [(1.0, 1.0), (1.0, 1.0)])

    def test_snr_shift_law(self, running_decomposition):
        baseline = compute_metrics(running_decomposition)
        for omega_noise in (0.25, 0.5, 2.0):
            rows = dsa_sweep(running_decomposition, [(omega_noise, 1.0)])
            expected = baseline.snr_db - 20.0 * math.log10(omega_noise)
            assert rows[0].metrics.snr_db == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("artifact_free", [False, True])
    def test_matches_scaled_decompositions(self, artifact_free):
        s, n, s_hat = random_signals(4, length=500, max_delay=8)
        if artifact_free:
            s_hat = Waveform(s.samples + n.samples, RATE)
        d = Decomposer(s, n, 8).decompose(s_hat)
        assert d.artifact_free == artifact_free
        grid = default_grid("dsa")
        rows = dsa_sweep(d, grid)
        assert [(r.omega_noise, r.omega_artif) for r in rows] == grid
        for row, (omega_noise, omega_artif) in zip(rows, grid):
            # the oracle is the Gram of the scaled waveforms, not cross_gram's
            parts = np.stack([d.s_target.samples,
                              scale(d.e_noise, omega_noise).samples,
                              scale(d.e_artif, omega_artif).samples])
            want = metrics_from_gram(parts @ parts.T)
            for name in ("sdr_db", "snr_db", "sar_db"):
                got, expected = getattr(row.metrics, name), getattr(want, name)
                if math.isinf(expected):
                    assert got == expected
                else:
                    assert abs(got - expected) <= 1e-12
        # the w = 0 corner has no error left at all
        assert all(math.isinf(v) for v in (rows[0].metrics.sdr_db,
                                           rows[0].metrics.snr_db,
                                           rows[0].metrics.sar_db))

    def test_default_grid_shape(self):
        grid = default_grid("dsa")
        assert len(grid) == 49
        assert grid[0] == (0.0, 0.0)
        assert grid[-1] == (1.5, 1.5)


class TestOaSweep:
    def test_zero_point_matches_baseline(self, running_example):
        s, n, s_hat, y = running_example
        baseline = compute_metrics(Decomposer(s, n, 1).decompose(s_hat))
        row = oa_sweep(Decomposer(s, n, 1), s_hat, y, [0.0], "u0")[0]
        assert row.sari_closed_form_db == 0.0
        assert row.metrics.sar_db == pytest.approx(baseline.sar_db, abs=1e-12)
        assert row.inner_s_hat_y == pytest.approx(1.1)

    def test_sar_increases_when_condition_holds(self, running_example):
        s, n, s_hat, y = running_example
        rows = oa_sweep(Decomposer(s, n, 1), s_hat, y,
                        [0.0, 0.5, 1.0])
        sars = [row.metrics.sar_db for row in rows]
        assert sars[0] < sars[1] < sars[2]

    def test_inconsistent_observation_fails_loudly(self, running_example):
        # y must equal s + n; smuggling in an out-of-span component breaks
        # the closed-form/measured agreement and must raise
        s, n, s_hat, _ = running_example
        bad_y = Waveform([1.0, 1.0, 0.5, 0.0], RATE)
        with pytest.raises(SweepValidationError, match="disagrees") as raised:
            oa_sweep(Decomposer(s, n, 1), s_hat, bad_y, [1.0])
        # the message names the gap, the tolerance, the point and both causes
        message = str(raised.value)
        for part in ("dB by 15.8 dB", "over the 1e-06 dB tolerance", "omega_obs=1.0",
                     "outside the span", "inaccurate at this Gram's conditioning"):
            assert part in message

    def test_default_grid(self):
        grid = default_grid("oa")
        assert len(grid) == 16
        assert grid[0] == 0.0
        assert grid[-1] == 1.5

    def test_decomposes_only_s_hat_and_y(self, monkeypatch):
        # s_hat and y go as one batch: one project, whose solve of two
        # columns runs the forward and the back substitution, each with one
        # product of the cross block G_sn (transposed in the
        # forward one) with two columns
        import opdkit.decomposition as decomposition_module
        import opdkit.projection as projection_module
        s, n, s_hat = random_signals(0, length=500, max_delay=8)
        y = add(s, n)
        dec = Decomposer(s, n, max_delay=8)
        assert isinstance(dec.basis._factor, projection_module._SplitFactor)
        seen, calls = [], []
        original = Decomposer.decompose_batch

        def counting(self, signals):
            seen.append(list(signals))
            return original(self, signals)

        def recorded(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda first, a, *rest, **kw: (
                calls.append((name, getattr(a, "shape", len(a)), *rest, *kw.values()))
                or fn(first, a, *rest, **kw)))

        monkeypatch.setattr(Decomposer, "decompose_batch", counting)
        recorded(decomposition_module, "project")
        for name in ("_solve", "_cross_product", "dtptrs"):
            recorded(projection_module, name)
        monkeypatch.setattr(Decomposer, "decompose", None)  # no one-signal path
        oa_sweep(dec, s_hat, y, default_grid("oa"))
        assert len(seen) == 1
        assert seen[0][0] is s_hat and seen[0][1] is y
        block = (8, 2)
        assert calls == [("project", 2), ("_solve", (16, 2)),
                         ("dtptrs", block, True), ("dtptrs", block, False),
                         ("_cross_product", block, True), ("dtptrs", block, True),
                         ("dtptrs", block, False), ("_cross_product", block),
                         ("dtptrs", block, True), ("dtptrs", block, False)]

    def test_closed_form_once_for_the_whole_grid(self, monkeypatch):
        import opdkit.analysis as analysis_module
        s, n, s_hat = random_signals(0, length=500, max_delay=8)
        calls = []
        original = analysis_module.sar_improvement_closed_form
        monkeypatch.setattr(analysis_module, "sar_improvement_closed_form",
                            lambda d, y, omegas: calls.append(omegas) or original(d, y, omegas))
        grid = default_grid("oa")
        rows = oa_sweep(Decomposer(s, n, max_delay=8), s_hat, add(s, n), grid)
        assert calls == [grid]
        assert [r.sari_closed_form_db for r in rows] == original(
            Decomposer(s, n, max_delay=8).decompose(s_hat), add(s, n), calls[0])

    @pytest.mark.parametrize("kind,seed", [("random", seed) for seed in range(21)]
                             + [("perfect", 0)])
    def test_matches_redecomposition(self, kind, seed):
        # each row against the literal decomposition of s_hat + w y
        case = make_case(seed, kind=kind)
        y = add(case.s, case.n)
        dec = Decomposer(case.s, case.n, case.max_delay)
        grid = default_grid("oa")
        rows = oa_sweep(dec, case.s_hat, y, grid)
        assert [r.omega_obs for r in rows] == grid
        for row, omega in zip(rows, grid):
            want = compute_metrics(dec.decompose(oa_apply(case.s_hat, y, omega)))
            for name in ("sdr_db", "snr_db", "sar_db"):
                got, expected = getattr(row.metrics, name), getattr(want, name)
                if math.isinf(expected):
                    assert got == expected
                else:
                    assert abs(got - expected) <= 1e-9
        if kind == "perfect":
            assert all(r.metrics.sar_db == math.inf for r in rows)

    def test_negated_observation_has_no_target_either_way(self):
        # s_hat = -y: the w = 1 point cancels the signal entirely
        case = make_case(1, kind="negated-observation")
        dec = Decomposer(case.s, case.n, case.max_delay)
        with pytest.raises(NoTargetError):
            oa_sweep(dec, case.s_hat, case.y, default_grid("oa"))
        with pytest.raises(NoTargetError):
            for omega in default_grid("oa"):
                compute_metrics(dec.decompose(oa_apply(case.s_hat, case.y, omega)))


def test_numpy_amounts_write_the_csv_text_of_floats(tmp_path):
    # every amount reaches its SweepRow as a Python float, so np.arange's
    # values write the text of their tolist()
    s, n, s_hat = random_signals(0, length=500, max_delay=8)
    dec = Decomposer(s, n, max_delay=8)
    d = dec.decompose(s_hat)
    grid = np.arange(0, 1.6, 0.1)
    pairs = np.stack([grid, grid[::-1]], axis=1)
    texts = []
    for amounts, amount_pairs in ((grid, pairs), (grid.tolist(), pairs.tolist())):
        rows = oa_sweep(dec, s_hat, add(s, n), amounts, "u0") + dsa_sweep(d, amount_pairs, "u0")
        assert {type(value) for r in rows
                for value in (r.omega_noise, r.omega_artif, r.omega_obs)} == {float, type(None)}
        write_sweep_csv(tmp_path / "sweep.csv", rows)
        texts.append((tmp_path / "sweep.csv").read_text())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("seed", range(3))
def test_oa_artifact_invariance_random(seed):
    s, n, s_hat = random_signals(seed, length=500, max_delay=8)
    y = Waveform(s.samples + n.samples, RATE)
    dec = Decomposer(s, n, max_delay=8)
    d = dec.decompose(s_hat)
    for omega in (0.3, 1.0, 1.5):
        d_bar = dec.decompose(oa_apply(s_hat, y, omega))
        rel = (np.linalg.norm(d_bar.e_artif.samples - d.e_artif.samples)
               / np.linalg.norm(d.e_artif.samples))
        assert rel <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_dsa_end_to_end_linearity_random(seed):
    s, n, s_hat = random_signals(seed, length=500, max_delay=8)
    dec = Decomposer(s, n, max_delay=8)
    d = dec.decompose(s_hat)
    d2 = dec.decompose(dsa_synthesize(d, 0.5, 2.0))
    ref = np.linalg.norm(s_hat.samples)
    assert np.linalg.norm(d2.s_target.samples - d.s_target.samples) <= 1e-8 * ref
    assert np.linalg.norm(d2.e_noise.samples - 0.5 * d.e_noise.samples) <= 1e-8 * ref
    assert np.linalg.norm(d2.e_artif.samples - 2.0 * d.e_artif.samples) <= 1e-8 * ref


class TestSweepMemory:
    """Traced peak allocation of a sweep on one 16 s utterance (T=256000,
    L=512), in T-length float64 arrays, after the basis is built: a sweep
    makes ``e_artif`` and the synthesis it comes from, not the target and
    noise-error waveforms or a stack of them."""

    T, L = 256000, 512

    @pytest.fixture(scope="class")
    def utterance(self):
        rng = np.random.default_rng(0)
        s, n, w = (Waveform(lowpass_noise(rng, self.T), RATE) for _ in range(3))
        s_hat = Waveform(0.8 * s.samples + 0.3 * n.samples + 0.2 * w.samples, RATE)
        return Decomposer(s, n, self.L), s_hat, add(s, n)

    def peak_arrays(self, fn) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - base) / (8 * self.T)
        finally:
            tracemalloc.stop()

    def test_dsa_sweep(self, utterance):
        dec, s_hat, _ = utterance
        grid = default_grid("dsa")
        assert self.peak_arrays(lambda: dsa_sweep(dec.decompose(s_hat), grid)) <= 3.5

    def test_oa_sweep(self, utterance):
        dec, s_hat, y = utterance
        grid = default_grid("oa")
        assert self.peak_arrays(lambda: oa_sweep(dec, s_hat, y, grid)) <= 6.0


def _band_limited_references(seed, storage):
    """(s, n, s_hat) at T=16000: white noise brick-wall lowpassed at 3.8 kHz
    (speech) and 2 kHz (noise), peak 0.5, stored as float32 or PCM16;
    ``s_hat = 0.7 s + 0.3 n`` plus white noise at 5% of ``‖s‖``."""
    T = 16000
    rng = np.random.default_rng(seed)

    def lowpass(cutoff_hz):
        spectrum = np.fft.rfft(rng.standard_normal(T))
        spectrum[np.fft.rfftfreq(T, 1 / RATE) > cutoff_hz] = 0.0
        x = np.fft.irfft(spectrum, T)
        x *= 0.5 / np.max(np.abs(x))
        if storage == "float32":
            return x.astype(np.float32).astype(np.float64)
        return np.round(x * 32767.0) / 32767.0

    s, n = lowpass(3800.0), lowpass(2000.0)
    w = rng.standard_normal(T)
    s_hat = 0.7 * s + 0.3 * n + 0.05 * np.linalg.norm(s) / np.linalg.norm(w) * w
    return Waveform(s, RATE), Waveform(n, RATE), Waveform(s_hat, RATE)


@pytest.mark.parametrize("storage", ["float32", "pcm16"])
@pytest.mark.parametrize("seed", [5, 6])
def test_oa_sweep_on_band_limited_references(seed, storage):
    # the PCM16 quantization floor keeps the Gram condition near 1e9; float32
    # storage leaves it near 1e16, where a Schur pivot falls to the rounding
    # floor and the basis is refused rather than solved inaccurately
    s, n, s_hat = _band_limited_references(seed, storage)
    if storage == "float32":
        with pytest.raises(SingularProjectionError, match=r"^the Gram is singular to working "
                                                          r"precision: Schur step \d+ of 512 "
                                                          r".* rounding floor "):
            Decomposer(s, n, 256)
    else:
        rows = oa_sweep(Decomposer(s, n, 256), s_hat, add(s, n), default_grid("oa"))
        assert len(rows) == len(default_grid("oa"))
