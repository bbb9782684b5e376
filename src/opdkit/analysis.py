"""Error-scaling and observation-adding analyses of enhanced signals.

Two ways of modifying an enhanced signal to probe its error components:

* direct scaling analysis (DSA): rescale the noise and artifact error
  components independently, keeping the target part fixed.  Requires the
  reference speech and noise signals.
* observation adding (OA): add a scaled copy of the observed mixture back
  to the enhanced signal.  Reference-free, and provably SAR-improving
  whenever <s_hat, y> > 0.

Both come with sweep drivers that return one ``SweepRow`` per point of a
caller-given grid, each point as exact algebra on a small Gram matrix of
components.  A sweep decomposes each signal once and reads only the Grams
of its decompositions, which come from whitened coefficients and the
artifact waveform alone (see ``decomposition.cross_gram``): no target or
noise-error waveform is made.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decomposition import Decomposer, Decomposition, cross_gram
from .metrics import (MetricsReport, _check_omega, metrics_from_gram,
                      sar_improvement_closed_form)
from .signals import Waveform, add, inner, scale

__all__ = [
    "DsaPoint",
    "OaPoint",
    "SweepRow",
    "SweepValidationError",
    "dsa_synthesize",
    "oa_apply",
    "dsa_sweep",
    "oa_sweep",
    "SARI_VALIDATION_TOL_DB",
]

# An OA sweep cross-checks the closed-form SAR improvement against the
# measured one and refuses to continue past this gap.
SARI_VALIDATION_TOL_DB = 1e-6


@dataclass(frozen=True)
class DsaPoint:
    """Scaling factors for the noise and artifact error components."""

    omega_noise: float
    omega_artif: float

    def __post_init__(self):
        object.__setattr__(self, "omega_noise", _check_omega(self.omega_noise, "omega_noise"))
        object.__setattr__(self, "omega_artif", _check_omega(self.omega_artif, "omega_artif"))


@dataclass(frozen=True)
class OaPoint:
    """Amount of the observed signal added back to the enhanced signal."""

    omega_obs: float

    def __post_init__(self):
        object.__setattr__(self, "omega_obs", _check_omega(self.omega_obs, "omega_obs"))


@dataclass(frozen=True)
class SweepRow:
    """One (utterance, grid point) entry of a sweep table."""

    utterance_id: str
    omega_noise: float | None
    omega_artif: float | None
    omega_obs: float | None
    metrics: MetricsReport
    inner_s_hat_y: float | None = None
    sari_closed_form_db: float | None = None


class SweepValidationError(RuntimeError):
    """Closed-form SAR improvement disagreed with the measured one."""


def dsa_synthesize(d: Decomposition, point: DsaPoint) -> Waveform:
    """Modified enhanced signal s_target + w_noise*e_noise + w_artif*e_artif."""
    return Waveform(
        d.s_target.samples
        + point.omega_noise * d.e_noise.samples
        + point.omega_artif * d.e_artif.samples,
        d.sample_rate,
    )


def oa_apply(s_hat: Waveform, y: Waveform, point: OaPoint) -> Waveform:
    """Enhanced signal with a scaled copy of the observation added back."""
    return add(s_hat, scale(y, point.omega_obs))


def _check_grid(grid: Sequence, name: str) -> None:
    if len(grid) == 0:
        raise ValueError(f"{name}: grid must be non-empty")
    if len(set(grid)) != len(grid):
        raise ValueError(f"{name}: grid points must be unique")


def dsa_sweep(d: Decomposition, grid: Sequence[DsaPoint],
              utterance_id: str = "") -> tuple[SweepRow, ...]:
    """One row per grid point of independently scaled error components.

    Scaling the components by ``D = diag(1, w_noise, w_artif)`` maps their
    3x3 Gram ``G`` to ``D G D`` exactly, orthogonal or not, so no waveform
    is formed per point.  The self-test suite verifies against
    re-decomposition that the scaled signal splits into the scaled parts.
    """
    grid = list(grid)
    _check_grid(grid, "dsa_sweep")
    rows = []
    for point in grid:
        w = np.array([1.0, point.omega_noise, point.omega_artif])
        rows.append(SweepRow(
            utterance_id=utterance_id,
            omega_noise=point.omega_noise,
            omega_artif=point.omega_artif,
            omega_obs=None,
            metrics=metrics_from_gram(d.gram * np.outer(w, w)),
        ))
    return tuple(rows)


def oa_sweep(dec: Decomposer, s_hat: Waveform, y: Waveform,
             grid: Sequence[OaPoint],
             utterance_id: str = "") -> tuple[SweepRow, ...]:
    """One row per observation-adding amount in the grid.

    Only ``s_hat`` and ``y`` are decomposed, as one batch of two.  ``project``
    and ``synthesize`` are linear, so ``s_hat + w y`` splits into ``d(s_hat)
    + w d(y)`` and a point's 3x3 Gram is ``M G6 M^T``, with ``G6`` the Gram
    of both component triples, assembled from the two 3x3 Grams and their
    ``cross_gram``, and ``M = [I | w I]``.  When both
    SARs are finite, the closed-form SARi (from ``s_hat - e_artif`` and raw
    ``y``) must match the measured one within ``SARI_VALIDATION_TOL_DB``, else
    ``SweepValidationError``: a ``y`` outside the span has an ``e_artif`` that
    the closed form does not see, and on an ill-conditioned Gram the
    coefficient energies and the waveform ``s_hat - e_artif`` carry different
    round-off.
    """
    grid = list(grid)
    _check_grid(grid, "oa_sweep")
    baseline, d_y = dec.decompose_batch([s_hat, y])
    cross = cross_gram(baseline, d_y)
    g6 = np.block([[baseline.gram, cross], [cross.T, d_y.gram]])
    baseline_sar = metrics_from_gram(g6[:3, :3]).sar_db  # the w = 0 block
    saris = sar_improvement_closed_form(baseline, y, [p.omega_obs for p in grid])
    inner_s_hat_y = inner(s_hat, y)  # OA is guaranteed to improve SAR when > 0

    rows = []
    for point, sari in zip(grid, saris):
        m = np.hstack([np.eye(3), point.omega_obs * np.eye(3)])
        report = metrics_from_gram(m @ g6 @ m.T)
        if math.isfinite(report.sar_db) and math.isfinite(baseline_sar):
            measured = report.sar_db - baseline_sar
            if abs(sari - measured) > SARI_VALIDATION_TOL_DB:
                raise SweepValidationError(
                    f"closed-form SAR improvement {sari:.9f} dB disagrees with the "
                    f"measured {measured:.9f} dB by {abs(sari - measured):.3g} dB, "
                    f"over the {SARI_VALIDATION_TOL_DB:g} dB tolerance, at "
                    f"omega_obs={point.omega_obs} (utterance {utterance_id!r}): either "
                    "y lies outside the span of the delayed references, or the "
                    "projection is inaccurate at this Gram's conditioning"
                )
        rows.append(SweepRow(
            utterance_id=utterance_id,
            omega_noise=None,
            omega_artif=None,
            omega_obs=point.omega_obs,
            metrics=report,
            inner_s_hat_y=inner_s_hat_y,
            sari_closed_form_db=sari,
        ))
    return tuple(rows)
