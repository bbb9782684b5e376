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

``Decomposition`` is the one type of it, what ``Decomposer.decompose`` and
``decompose_batch`` return: from one ``project`` solve, the
whitened coefficients ``z``, the ``P_s`` coefficients ``c_s`` and the
waveform ``e_artif``, with ``s_target`` and ``e_noise`` synthesized from
``c_s`` when read, as by ``export_components``, and nothing solved.  Every
metric is a ratio of entries of the components' Gram, which ``cross_gram``
takes from ``z`` and ``e_artif``, so no sweep synthesizes more.  Every
basis is the orthogonal projection's: ``build_basis`` refuses references
whose Gram its Schur steps cannot factor.
"""

import os
from functools import cached_property
from typing import Sequence

import numpy as np

from .projection import DEFAULT_MAX_DELAY, ProjectionBasis, build_basis, project, synthesize
from .signals import Waveform
from .wavio import write_wav

__all__ = [
    "Decomposition",
    "Decomposer",
    "cross_gram",
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


class Decomposition:
    """The decomposition of ``signal`` on ``basis``, held as its whitened
    coefficients ``z`` and ``P_s`` coefficients ``c_s`` (columns of what
    ``projection.project`` returns) and its artifact waveform ``e_artif =
    signal - P_sn signal``.

    ``s_target`` is synthesized from ``c_s``, with no solve, and ``e_noise``
    made from it, the first time they are read, so the decomposition keeps
    the basis alive for as long as it lives.  ``gram`` and ``cross_gram``
    never read them.
    """

    def __init__(self, basis: ProjectionBasis, z: np.ndarray, c_s: np.ndarray,
                 signal: Waveform, e_artif: Waveform):
        self.basis, self.z, self.c_s = basis, z, c_s
        self.signal, self.e_artif = signal, e_artif

    @property
    def sample_rate(self) -> int:
        return self.e_artif.sample_rate

    @cached_property
    def s_target(self) -> Waveform:
        return Waveform(synthesize(self.basis, self.c_s[:, None])[0], self.sample_rate)

    @cached_property
    def e_noise(self) -> Waveform:
        return Waveform(self.projected - self.s_target.samples, self.sample_rate)

    @property
    def projected(self) -> np.ndarray:
        """Samples of ``P_sn signal = s_target + e_noise``, the signal's
        projection onto the joint speech-noise span, as ``signal - e_artif``."""
        return self.signal.samples - self.e_artif.samples

    @cached_property
    def gram(self) -> np.ndarray:
        """3x3 matrix of inner products of (s_target, e_noise, e_artif)."""
        return cross_gram(self, self)

    @property
    def artifact_free(self) -> bool:
        return bool(self.gram[2, 2] <= dust_energy(self.gram))


def cross_gram(a: Decomposition, b: Decomposition) -> np.ndarray:
    """3x3 inner products of the components of ``a`` (rows) with those of
    ``b`` (columns), each in (s_target, e_noise, e_artif) order.

    The target and noise-error entries are products of coefficients,
    ``z[:L]·z'[:L]`` and ``z[L:]·z'[L:]``, and the entries between the
    target, noise-error and artifact subspaces, mutually orthogonal, are
    exact zeros.  The artifact entry is the product of the waveforms:
    ``‖x‖² - ‖z‖²`` would lose 2-4 digits of it on ill-conditioned
    references.  Coefficients are coordinates of one basis only, so two
    decompositions on different bases are refused.
    """
    if a.basis is not b.basis:
        raise ValueError("cross_gram: the decompositions are on two different bases, whose "
                         "coefficients are not coordinates in one space; decompose both "
                         "with one Decomposer")
    L = a.basis.max_delay
    return np.diag([float(np.dot(a.z[:L], b.z[:L])), float(np.dot(a.z[L:], b.z[L:])),
                    float(np.dot(a.e_artif.samples, b.e_artif.samples))])


class Decomposer:
    """One factorized projection basis for a (speech, noise) reference pair.

    The basis spans delayed copies of ``[s, n]``.  Building it dominates the
    cost of a decomposition, so all signals decomposed against one reference
    pair (an OA sweep's ``s_hat`` and ``y``) should share one Decomposer.
    References whose Gram the Schur steps cannot factor are refused when it
    is built (see ``build_basis``): T < 2L is a ``ValueError``, n a multiple
    of s or a pivot at the rounding floor a ``SingularProjectionError``.
    """

    def __init__(self, s: Waveform, n: Waveform, max_delay: int = DEFAULT_MAX_DELAY):
        self.basis: ProjectionBasis = build_basis([s, n], max_delay)

    def decompose(self, s_hat: Waveform) -> Decomposition:
        """The ``Decomposition`` of ``s_hat``: ``decompose_batch([s_hat])``'s."""
        return self.decompose_batch([s_hat])[0]

    def decompose_batch(self, signals: Sequence[Waveform]) -> tuple[Decomposition, ...]:
        """The ``Decomposition`` of each of ``signals``: one ``project`` of
        them all gives each ``z``, ``c_s`` and
        ``P_sn`` coefficients, and one synthesis of every ``P_sn x`` each
        ``e_artif``; ``s_target`` is synthesized when read.  The batch shares
        its one solve (two products with ``G_sn``)."""
        z, c_s, c = project(self.basis, signals)
        p_sn = synthesize(self.basis, c)
        return tuple(Decomposition(self.basis, z[:, j], c_s[:, j], x,
                                   Waveform(np.subtract(x.samples, p, out=p), x.sample_rate))
                     for j, (x, p) in enumerate(zip(signals, p_sn)))


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
