"""Acceptance gate.

Every criterion is asserted at its stated tolerance and prints one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
Criteria 1-6 run over the 200-case randomized oracle suite; criterion 7 is
an end-to-end CLI pipeline on a seeded 20-utterance synthetic corpus;
criterion 8 pins the hand-worked 4-sample example to values frozen from the
dense least-squares oracle.
"""

import csv
import time

import numpy as np
import pytest

from conftest import RATE, lowpass_noise
from opdkit.cli import main
from opdkit.decomposition import Decomposer
from opdkit.metrics import compute_metrics, sar_improvement_closed_form
from opdkit.selftest import run_property_suite
from opdkit.signals import Waveform
from opdkit.wavio import write_wav

SUITE_CASES = 200
SUITE_SEED = 0
SUITE_TIME_BUDGET_S = 30.0
CORPUS_UTTERANCES = 20
CORPUS_TIME_BUDGET_S = 120.0

# Frozen from the dense oracle (see test_metrics.py for the derivation).
ORACLE_VALUES_DB = {
    "snr": 13.0642502755,
    "sar": 19.2941892571,
    "sdr": 12.0951501454,
    "sari_half": 4.5974715865,
}


def _report_line(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def suite_report():
    return run_property_suite(case_count=SUITE_CASES, seed=SUITE_SEED)


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """mix -> enhance(spectral-subtraction) -> oa sweep, run twice."""
    root = tmp_path_factory.mktemp("acceptance_corpus")
    speech_dir, noise_dir = root / "speech", root / "noise"
    speech_dir.mkdir()
    noise_dir.mkdir()
    rng = np.random.default_rng(91)
    length = 4800
    t = np.arange(length)
    for i in range(CORPUS_UTTERANCES):
        envelope = 0.3 + 0.7 * np.sin(2 * np.pi * t / 1600.0 + i) ** 2
        write_wav(speech_dir / f"utt{i:02d}.wav",
                  Waveform(lowpass_noise(rng, length) * envelope * 0.05, RATE))
        write_wav(noise_dir / f"noise{i:02d}.wav",
                  Waveform(lowpass_noise(rng, length, pole=0.7) * 0.05, RATE))

    started = time.perf_counter()
    mixed = root / "mixed"
    assert main(["mix", "--speech-dir", str(speech_dir), "--noise-dir",
                 str(noise_dir), "--snr", "0", "--seed", "0",
                 "--out", str(mixed)]) == 0
    enhanced = root / "enhanced"
    assert main(["enhance", "--corpus", str(mixed / "corpus.jsonl"),
                 "--method", "spectral-subtraction", "--out", str(enhanced)]) == 0
    sweeps = []
    for name in ("oa_run1", "oa_run2"):
        out = root / name
        assert main(["oa", "--corpus", str(enhanced / "corpus.jsonl"),
                     "--out", str(out)]) == 0
        sweeps.append(out)
    elapsed = time.perf_counter() - started
    return {"sweeps": sweeps, "elapsed": elapsed}


def test_criterion_1_reconstruction(suite_report):
    dev = suite_report.deviations["reconstruction_rel"]
    assert not suite_report.failures, suite_report.failures
    assert dev <= 1e-10
    assert suite_report.elapsed_s <= SUITE_TIME_BUDGET_S
    _report_line(1, f"reconstruction max {dev:.3e} <= 1e-10 over {SUITE_CASES} "
                    f"cases in {suite_report.elapsed_s:.1f}s <= 30s")


def test_criterion_2_oracle_equivalence(suite_report):
    dev_proj = suite_report.deviations["fast_vs_dense_projection_rel"]
    dev_gram = suite_report.deviations["gram_vs_dense_rel"]
    assert dev_proj <= 1e-8
    assert dev_gram <= 1e-8
    _report_line(2, f"fast vs dense projection max {dev_proj:.3e} <= 1e-8 "
                    f"(gram max {dev_gram:.3e})")


def test_criterion_3_orthogonality(suite_report):
    dev = suite_report.deviations["error_orthogonality_rel"]
    assert dev <= 1e-8
    _report_line(3, f"error-component orthogonality max {dev:.3e} <= 1e-8")


def test_criterion_4_sar_improvement(suite_report):
    violations = suite_report.deviations.get("oa_sar_monotonicity_violations", 0.0)
    dev = suite_report.deviations["oa_sari_closed_form_db"]
    assert violations == 0.0
    assert dev <= 1e-6
    _report_line(4, f"SAR strictly increasing on every positive-condition case; "
                    f"closed-form SARi max gap {dev:.3e} dB <= 1e-6 dB")


def test_criterion_5_artifact_invariance(suite_report):
    dev = suite_report.deviations["oa_artifact_invariance_rel"]
    assert dev <= 1e-8
    _report_line(5, f"observation adding leaves e_artif unchanged, "
                    f"max {dev:.3e} <= 1e-8")


def test_criterion_6_dsa_linearity(suite_report):
    dev_lin = suite_report.deviations["dsa_linearity_rel"]
    dev_snr = suite_report.deviations["dsa_snr_law_db"]
    assert dev_lin <= 1e-8
    assert dev_snr <= 1e-6
    _report_line(6, f"re-decomposition of scaled components max {dev_lin:.3e} "
                    f"<= 1e-8; SNR shift law max {dev_snr:.3e} dB <= 1e-6 dB")


class TestCriterion7CorpusSweep:
    def _summary_curves(self, sweep_dir):
        with open(sweep_dir / "oa_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows.sort(key=lambda r: float(r["omega_obs"]))
        return {metric: [float(r[metric]) for r in rows]
                for metric in ("sdr_db", "snr_db", "sar_db")}

    def test_curve_shapes(self, corpus_run):
        curves = self._summary_curves(corpus_run["sweeps"][0])
        sar = curves["sar_db"]
        assert all(b > a for a, b in zip(sar, sar[1:])), sar
        for metric in ("sdr_db", "snr_db"):
            values = curves[metric]
            peak = int(np.argmax(values))
            tail = values[peak:]
            assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:])), (metric, values)
        _report_line(7, "corpus-mean SAR monotone increasing; SDR and SNR "
                        "non-increasing beyond their peaks")

    def test_condition_positive_for_all_utterances(self, corpus_run):
        with open(corpus_run["sweeps"][0] / "oa.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == CORPUS_UTTERANCES * 16
        assert all(float(r["inner_s_hat_y"]) > 0 for r in rows)
        assert all(r["error"] == "" for r in rows)

    def test_artifacts_deterministic(self, corpus_run):
        first, second = corpus_run["sweeps"]
        for name in ("oa.csv", "oa_summary.csv", "oa_sdr.svg", "oa_snr.svg",
                     "oa_sar.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        _report_line(7, "CSV/SVG artifacts byte-identical across repeated runs")

    def test_runtime_budget(self, corpus_run):
        assert corpus_run["elapsed"] <= CORPUS_TIME_BUDGET_S
        _report_line(7, f"end-to-end pipeline took {corpus_run['elapsed']:.1f}s "
                        f"<= {CORPUS_TIME_BUDGET_S:.0f}s")


def test_criterion_8_hand_worked_example():
    s = Waveform([1.0, 0.0, 0.0, 0.0], RATE)
    n = Waveform([0.0, 1.0, 0.0, 0.0], RATE)
    s_hat = Waveform([0.9, 0.2, 0.1, 0.0], RATE)
    y = Waveform([1.0, 1.0, 0.0, 0.0], RATE)
    d = Decomposer(s, n, 1).decompose(s_hat)
    report = compute_metrics(d)
    [sari] = sar_improvement_closed_form(d, y, [0.5])
    assert report.sar_db == pytest.approx(ORACLE_VALUES_DB["sar"], abs=1e-3)
    assert report.snr_db == pytest.approx(ORACLE_VALUES_DB["snr"], abs=1e-3)
    assert report.sdr_db == pytest.approx(ORACLE_VALUES_DB["sdr"], abs=1e-3)
    assert sari == pytest.approx(ORACLE_VALUES_DB["sari_half"], abs=1e-3)
    # the closed form must also match the literal re-decomposition route
    modified = Waveform(s_hat.samples + 0.5 * y.samples, RATE)
    sar_after = compute_metrics(Decomposer(s, n, 1).decompose(modified)).sar_db
    assert sari == pytest.approx(sar_after - report.sar_db, abs=1e-6)
    _report_line(8, f"hand-worked example: SAR {report.sar_db:.4f}, "
                    f"SNR {report.snr_db:.4f}, SDR {report.sdr_db:.4f}, "
                    f"SARi(0.5) {sari:.4f} dB, all within 1e-3 dB of oracle")
