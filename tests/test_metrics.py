import math

import numpy as np
import pytest

from conftest import RATE
from opdkit.decomposition import Decomposer
from opdkit.metrics import NoTargetError, compute_metrics, db_to_str, sar_improvement_closed_form
from opdkit.signals import Waveform

# Frozen from the dense least-squares oracle on the 4-sample worked example
# (energies 0.81 / 0.04 / 0.01, projected 0.85).
ORACLE_SNR_DB = 13.0642502755
ORACLE_SAR_DB = 19.2941892571
ORACLE_SDR_DB = 12.0951501454
ORACLE_SARI_HALF_DB = 4.5974715865


@pytest.fixture
def running_metrics(running_example):
    s, n, s_hat, _ = running_example
    return compute_metrics(Decomposer(s, n, 1).decompose(s_hat))


def test_running_example_values(running_metrics):
    assert running_metrics.snr_db == pytest.approx(ORACLE_SNR_DB, abs=1e-9)
    assert running_metrics.sar_db == pytest.approx(ORACLE_SAR_DB, abs=1e-9)
    assert running_metrics.sdr_db == pytest.approx(ORACLE_SDR_DB, abs=1e-9)


def test_running_example_energies(running_metrics):
    assert running_metrics.target_energy == pytest.approx(0.81, abs=1e-12)
    assert running_metrics.noise_energy == pytest.approx(0.04, abs=1e-12)
    assert running_metrics.artifact_energy == pytest.approx(0.01, abs=1e-12)
    assert running_metrics.projected_energy == pytest.approx(0.85, abs=1e-12)


def test_all_energies_nonnegative_and_error_superadditive(running_metrics):
    m = running_metrics
    assert all(e >= 0 for e in (m.target_energy, m.noise_energy,
                                m.artifact_energy, m.projected_energy))
    total_error = m.noise_energy + m.artifact_energy
    assert total_error >= m.noise_energy
    assert total_error >= m.artifact_energy


def test_perfect_enhancement_is_all_infinite(running_example):
    s, n, _, _ = running_example
    m = compute_metrics(Decomposer(s, n, 1).decompose(s))
    assert m.sdr_db == math.inf
    assert m.snr_db == math.inf
    assert m.sar_db == math.inf


def test_unprocessed_mixture(running_example):
    s, n, _, y = running_example
    m = compute_metrics(Decomposer(s, n, 1).decompose(y))
    assert m.sar_db == math.inf
    # orthogonal unit-energy speech and noise: SNR is exactly 0 dB
    assert m.snr_db == pytest.approx(0.0, abs=1e-12)
    assert m.sdr_db == pytest.approx(0.0, abs=1e-12)


def test_no_target_condition(running_example):
    s, n, _, _ = running_example
    pure_artifact = Waveform([0.0, 0.0, 1.0, 0.0], RATE)
    with pytest.raises(NoTargetError, match="no-target"):
        compute_metrics(Decomposer(s, n, 1).decompose(pure_artifact))


def test_sar_infinite_iff_artifact_free(running_example):
    s, n, s_hat, y = running_example
    finite = compute_metrics(Decomposer(s, n, 1).decompose(s_hat))
    free = compute_metrics(Decomposer(s, n, 1).decompose(y))
    assert not math.isinf(finite.sar_db)
    assert math.isinf(free.sar_db)


class TestSarImprovementClosedForm:
    def test_zero_omega_is_zero(self, running_example):
        s, n, s_hat, y = running_example
        d = Decomposer(s, n, 1).decompose(s_hat)
        assert sar_improvement_closed_form(d, y, [0.0]) == [0.0]

    def test_running_example_value(self, running_example):
        s, n, s_hat, y = running_example
        d = Decomposer(s, n, 1).decompose(s_hat)
        [sari] = sar_improvement_closed_form(d, y, [0.5])
        assert sari == pytest.approx(ORACLE_SARI_HALF_DB, abs=1e-9)

    def test_cross_check_against_redecomposition(self, running_example):
        s, n, s_hat, y = running_example
        d = Decomposer(s, n, 1).decompose(s_hat)
        modified = Waveform(s_hat.samples + 0.5 * y.samples, RATE)
        m_after = compute_metrics(Decomposer(s, n, 1).decompose(modified))
        m_before = compute_metrics(d)
        measured = m_after.sar_db - m_before.sar_db
        assert sar_improvement_closed_form(d, y, [0.5]) == [pytest.approx(measured, abs=1e-9)]

    def test_positive_inner_product_gives_positive_gain(self, running_example):
        s, n, s_hat, y = running_example
        d = Decomposer(s, n, 1).decompose(s_hat)
        assert all(v > 0.0 for v in sar_improvement_closed_form(d, y, [0.1, 0.7, 1.5, 10.0]))

    def test_monotone_in_omega_when_condition_holds(self, running_example):
        s, n, s_hat, y = running_example
        d = Decomposer(s, n, 1).decompose(s_hat)
        grid = np.linspace(0.0, 3.0, 31)
        values = sar_improvement_closed_form(d, y, grid)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_one_value_per_omega_as_if_computed_alone(self, running_example):
        s, n, s_hat, y = running_example
        d = Decomposer(s, n, 1).decompose(s_hat)
        grid = [0.0, 0.3, 0.5, 1.5]
        together = sar_improvement_closed_form(d, y, grid)
        assert together == [sar_improvement_closed_form(d, y, [w])[0] for w in grid]
        assert sar_improvement_closed_form(d, y, []) == []

    def test_invalid_omega_rejected(self, running_example):
        s, n, s_hat, y = running_example
        d = Decomposer(s, n, 1).decompose(s_hat)
        with pytest.raises(ValueError, match="omega_obs"):
            sar_improvement_closed_form(d, y, [0.5, -0.5])
        with pytest.raises(ValueError, match="omega_obs"):
            sar_improvement_closed_form(d, y, [math.nan])

    def test_zero_projected_energy_rejected(self, running_example):
        s, n, _, y = running_example
        pure_artifact = Waveform([0.0, 0.0, 1.0, 0.0], RATE)
        d = Decomposer(s, n, 1).decompose(pure_artifact)
        with pytest.raises(ValueError, match="zero energy"):
            sar_improvement_closed_form(d, y, [0.5])


def test_db_to_str():
    assert db_to_str(math.inf) == "inf"
    assert db_to_str(-math.inf) == "-inf"
    assert db_to_str(1.5) == "1.5"
    assert float(db_to_str(ORACLE_SAR_DB)) == ORACLE_SAR_DB


def test_as_dict_serializes_infinity(running_example):
    s, n, _, _ = running_example
    m = compute_metrics(Decomposer(s, n, 1).decompose(s))
    record = m.as_dict()
    assert record["sar_db"] == "inf"
    assert record["sdr_db"] == "inf"
    assert record["energies"]["target"] == pytest.approx(1.0)
