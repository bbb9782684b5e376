"""Energy-ratio metrics over a decomposition, in dB.

    SDR = 10 log10( ||s_target||^2 / ||e_noise + e_artif||^2 )
    SNR = 10 log10( ||s_target||^2 / ||e_noise||^2 )
    SAR = 10 log10( ||s_target + e_noise||^2 / ||e_artif||^2 )

The SAR numerator is the projection of the enhanced signal onto the joint
speech-noise subspace, which also admits a closed-form prediction of how
much adding back a scaled observation improves SAR (see
:func:`sar_improvement_closed_form`).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import Decomposition, dust_energy
from .signals import Waveform, energy

__all__ = [
    "MetricsReport",
    "NoTargetError",
    "compute_metrics",
    "metrics_from_gram",
    "sar_improvement_closed_form",
    "db_to_str",
]


class NoTargetError(ValueError):
    """The decomposition has (numerically) no target component; SDR/SNR undefined."""


@dataclass(frozen=True)
class MetricsReport:
    """SDR/SNR/SAR in dB (possibly +inf) plus the underlying energies."""

    sdr_db: float
    snr_db: float
    sar_db: float
    target_energy: float
    noise_energy: float
    artifact_energy: float
    projected_energy: float

    def as_dict(self) -> dict:
        """JSON-ready mapping; infinite dB values become the string 'inf'."""
        return {
            "sdr_db": _db_json(self.sdr_db),
            "snr_db": _db_json(self.snr_db),
            "sar_db": _db_json(self.sar_db),
            "energies": {
                "target": self.target_energy,
                "noise": self.noise_energy,
                "artifact": self.artifact_energy,
                "projected": self.projected_energy,
            },
        }


def db_to_str(value: float) -> str:
    """Full-precision text form of a dB value; 'inf' / '-inf' when infinite."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(float(value))


def _db_json(value: float):
    return db_to_str(value) if math.isinf(value) else float(value)


def _ratio_db(num: float, den: float, dust: float) -> float:
    # Denominators at or below numerical dust count as zero error energy.
    if den <= dust:
        return math.inf
    return 10.0 * math.log10(num / den)


def compute_metrics(d: Decomposition) -> MetricsReport:
    """SDR/SNR/SAR of a decomposition; see :func:`metrics_from_gram`."""
    return metrics_from_gram(d.gram)


def metrics_from_gram(gram: np.ndarray) -> MetricsReport:
    """SDR/SNR/SAR from the 3x3 Gram of (s_target, e_noise, e_artif).

    Error energies at or below ``dust_energy`` count as exactly zero, so a
    perfect enhancement reports +inf on all three metrics instead of a ratio
    against round-off noise; SAR is +inf exactly when artifact-free.
    """
    e_target, e_noise, e_artif = (float(v) for v in np.diag(gram))
    e_projected = float(gram[:2, :2].sum())  # ||s_target + e_noise||^2
    dust = dust_energy(gram)

    if e_target <= dust:
        raise NoTargetError(
            "no-target: target component energy is numerically zero; SDR/SNR undefined"
        )

    return MetricsReport(
        sdr_db=_ratio_db(e_target, e_noise + e_artif, dust),
        snr_db=_ratio_db(e_target, e_noise, dust),
        sar_db=_ratio_db(e_projected, e_artif, dust),
        target_energy=e_target,
        noise_energy=e_noise,
        artifact_energy=e_artif,
        projected_energy=e_projected,
    )


def sar_improvement_closed_form(d: Decomposition, y: Waveform,
                                omegas: Sequence[float]) -> list[float]:
    """Predicted SAR gain (dB) from adding ``w * y`` to the enhanced signal,
    one value per ``w`` in ``omegas``.

    Because the observation lies in the speech-noise subspace, adding it
    back leaves the artifact component untouched and only grows the
    projected energy, giving

        SARi = 10 log10[ 1 + (w^2 ||y||^2 + 2 w <p, y>) / ||p||^2 ]

    with ``p = s_target + e_noise`` (the projected enhanced signal), read as
    ``d.projected``, which a ``Decomposition`` forms as ``s_hat - e_artif``,
    synthesizing neither.  ``y`` is used raw, so a ``y`` outside the span is
    not projected into agreement.  The three T-length products are taken
    once for all omegas.  A value can be negative when ``<p, y> < 0``.
    """
    omegas = [float(w) for w in omegas]
    for omega in omegas:
        if not math.isfinite(omega) or omega < 0:
            raise ValueError(f"omega_obs must be finite and >= 0, got {omega!r}")
    if len(y) != len(d.e_artif) or y.sample_rate != d.sample_rate:
        raise ValueError("sar_improvement_closed_form: y incompatible with decomposition")
    p = d.projected
    e_projected = float(np.dot(p, p))
    if e_projected == 0.0:
        raise ValueError("sar_improvement_closed_form: projected signal has zero energy")
    cross = float(np.dot(p, y.samples))
    e_y = energy(y)
    saris = []
    for omega in omegas:
        argument = 1.0 + (omega * omega * e_y + 2.0 * omega * cross) / e_projected
        # argument <= 0 only when p is (anti)parallel to y and omega cancels it
        saris.append(10.0 * math.log10(argument) if argument > 0.0 else -math.inf)
    return saris
