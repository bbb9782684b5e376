"""Split an enhanced signal into target, noise-error, and artifact-error parts.

With P_s the projector onto delayed copies of the clean speech s and P_sn
the projector onto delayed copies of both s and the noise n:

    s_target = P_s s_hat
    e_noise  = P_sn s_hat - P_s s_hat
    e_artif  = s_hat - P_sn s_hat

so the three components reconstruct s_hat exactly.  The artifact part is
the portion of the enhancement error that no linear combination of delayed
speech/noise copies can explain.  Decomposition is computed over the whole
utterance, not in frames.
"""

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .projection import DEFAULT_MAX_DELAY, ProjectionBasis, build_basis, project
from .signals import Waveform
from .wavio import write_wav

__all__ = [
    "Decomposition",
    "Decomposer",
    "recompose",
    "dust_energy",
    "export_components",
    "ARTIFACT_FREE_ENERGY_RATIO",
    "COMPONENT_SUFFIXES",
]

# A component energy below this fraction of the total signal energy is
# numerical dust: such an e_artif flags the decomposition artifact-free, and
# metrics report +inf instead of a ratio against round-off noise.
ARTIFACT_FREE_ENERGY_RATIO = 1e-12

COMPONENT_SUFFIXES = {
    "s_target": ".target.wav",
    "e_noise": ".enoise.wav",
    "e_artif": ".eartif.wav",
}


def dust_energy(gram: np.ndarray) -> float:
    """Energy at or below which a component of the 3x3 ``gram`` counts as zero."""
    return ARTIFACT_FREE_ENERGY_RATIO * float(gram.sum())


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Target / noise-error / artifact-error triple for one enhanced signal."""

    s_target: Waveform
    e_noise: Waveform
    e_artif: Waveform

    @property
    def sample_rate(self) -> int:
        return self.s_target.sample_rate

    @cached_property
    def gram(self) -> np.ndarray:
        """3x3 matrix of inner products of (s_target, e_noise, e_artif)."""
        parts = np.stack([self.s_target.samples, self.e_noise.samples,
                          self.e_artif.samples])
        return parts @ parts.T

    @property
    def artifact_free(self) -> bool:
        return bool(self.gram[2, 2] <= dust_energy(self.gram))


class Decomposer:
    """One factorized projection basis for a (speech, noise) reference pair.

    The basis spans delayed copies of ``[s, n]``; one ``project`` call gives
    both ``P_s s_hat`` (the leading speech block of its factor) and ``P_sn
    s_hat``.  Building the basis dominates the cost of a decomposition, so
    all signals decomposed against one reference pair (an OA sweep's
    ``s_hat`` and ``y``) should share one Decomposer.  Any diagonal loading
    is recorded in ``basis.regularization_events``.
    """

    def __init__(self, s: Waveform, n: Waveform, max_delay: int = DEFAULT_MAX_DELAY):
        self.basis: ProjectionBasis = build_basis([s, n], max_delay)

    def decompose(self, s_hat: Waveform) -> Decomposition:
        p_s, p_sn = project(self.basis, s_hat)
        e_noise = Waveform(p_sn.samples - p_s.samples, s_hat.sample_rate)
        e_artif = Waveform(s_hat.samples - p_sn.samples, s_hat.sample_rate)
        return Decomposition(p_s, e_noise, e_artif)


def recompose(d: Decomposition) -> Waveform:
    """Sum of the three components; reconstructs the decomposed signal."""
    return Waveform(d.s_target.samples + d.e_noise.samples + d.e_artif.samples,
                    d.sample_rate)


def export_components(d: Decomposition, out_dir: str | os.PathLike,
                      stem: str) -> dict[str, str]:
    """Write the three components as float-32 WAV files; returns component -> path."""
    paths = {}
    for name, suffix in COMPONENT_SUFFIXES.items():
        path = os.path.join(out_dir, stem + suffix)
        write_wav(path, getattr(d, name))
        paths[name] = path
    return paths
