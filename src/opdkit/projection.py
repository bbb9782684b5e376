"""Orthogonal projection onto subspaces spanned by delayed reference copies.

A reference delayed by ``tau`` is zero-padded at the head and truncated to
the original length ``T``, so every delayed copy lives in the same R^T as
the signals being projected and orthogonality statements are exact.  The
projector onto the span of delays ``0 .. L-1`` of one or two references is
never materialized as a T-by-T matrix: one Gram solve over the delayed
copies gives the coefficients of every nested subspace's projection, each
synthesized as FIR filtering of the references.

Correlations are computed with FFTs of length >= T + L - 1.  Because the
delayed copies are truncated at T rather than extended, the Gram matrix
differs from the plain Toeplitz correlation matrix by products of the
reference tails that fall off the end; that correction is exact, an O(L^2)
prefix sum along each diagonal subtracted once (see ``_gram_block``).  The
Gram is written in LAPACK's (Fortran) order and factorized in place, so a
basis holds one (kL)^2 array and no solve copies it.

FFTs come from ``numpy.fft``.  From numpy 2.0 on that is the C++ pocketfft
that ``scipy.fft`` also wraps, so transforms are bitwise the same as
scipy's; numpy 1.x ships a different C implementation, hence the
``numpy>=2.0`` floor.  scipy is needed only for LAPACK's Cholesky
factorization and triangular solve, and ``scipy.linalg`` is imported at the
first of them, so importing this module loads no scipy.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .signals import Waveform, energy

__all__ = [
    "DELAY_PADDING",
    "ProjectionBasis",
    "SingularProjectionError",
    "build_basis",
    "project",
    "project_dense_oracle",
    "delayed_matrix",
]

DEFAULT_MAX_DELAY = 512

DELAY_PADDING = "zero-pad-head"  # the delay convention; run manifests record it

# Diagonal loading factor used only when the plain Cholesky factorization of
# the Gram matrix fails: load = GRAM_REG_LAMBDA * trace(gram) / dim.
GRAM_REG_LAMBDA = 1e-10

# Guards for the dense verification oracle, which materializes the full
# delayed-copy matrix.
DENSE_ORACLE_MAX_LENGTH = 8192
DENSE_ORACLE_MAX_COLUMNS = 64


def dpotrf(a, **kwargs):
    """LAPACK ``dpotrf`` (Cholesky factorization) from ``scipy.linalg.lapack``."""
    from scipy.linalg.lapack import dpotrf as potrf  # slow to import; solves only
    return potrf(a, **kwargs)


def dtrtrs(a, b, **kwargs):
    """LAPACK ``dtrtrs`` (triangular solve) from ``scipy.linalg.lapack``."""
    from scipy.linalg.lapack import dtrtrs as trtrs
    return trtrs(a, b, **kwargs)


def next_fast_len(target: int) -> int:
    """Smallest 11-smooth length (2^a 3^b 5^c 7^d 11^e) >= ``target`` >= 1,
    the length ``scipy.fft.next_fast_len(target)`` returns."""
    best = 1 << (target - 1).bit_length()  # a power of two is 11-smooth
    odd = [1]  # every 3,5,7,11-smooth number below best
    for prime in (3, 5, 7, 11):
        for p in list(odd):
            while (p := p * prime) < best:
                odd.append(p)
    for p in odd:  # the least power-of-two multiple of p that reaches target
        best = min(best, p << (-(-target // p) - 1).bit_length())
    return best


class SingularProjectionError(RuntimeError):
    """Gram system could not be factorized even after diagonal loading."""


@dataclass(frozen=True, eq=False)
class ProjectionBasis:
    """Factorized representation of a delayed-reference subspace.

    The basis holds one (kL)^2 array, ``_factor``: the Gram matrix in
    Fortran order, factorized in place by LAPACK.  Its upper triangle is
    the Cholesky factor ``U`` (``Uᵀ U`` = Gram) and its strict lower
    triangle still holds the Gram.  The factor may include diagonal
    loading; the amount actually added is recorded in ``regularization``
    (0.0 when none was needed).  Its leading ``r*L`` block factorizes the
    Gram of the first ``r`` references, so one basis serves each nested
    subspace.
    """

    references: tuple[Waveform, ...]
    max_delay: int
    sample_rate: int
    regularization: float
    regularization_events: tuple[str, ...]
    _factor: np.ndarray = field(repr=False, default=None)
    _ref_ffts: tuple = field(repr=False, default=None)
    _nfft: int = field(repr=False, default=0)

    @property
    def gram(self) -> np.ndarray:
        """Unloaded Gram matrix: ``gram[i*L + t, j*L + u]`` is the inner
        product of reference ``i`` delayed by ``t`` with reference ``j``
        delayed by ``u``.

        Not stored: each access rebuilds it from the reference spectra, in
        O(k^2 (nfft log nfft + L^2)) time and a new (kL)^2 * 8-byte array.
        Meant for checks, not for the solve path.
        """
        gram = _empty_gram(len(self.references) * self.max_delay)
        _fill_gram(gram, [r.samples for r in self.references], self._ref_ffts,
                   self.max_delay, self._nfft)
        return gram


def delayed_matrix(x: np.ndarray, max_delay: int) -> np.ndarray:
    """T-by-L matrix whose columns are ``x`` delayed by 0 .. L-1 samples."""
    T = len(x)
    A = np.zeros((T, max_delay))
    for tau in range(max_delay):
        A[tau:, tau] = x[: T - tau]
    return A


def _subtract_truncation_loss(block: np.ndarray, a: np.ndarray, b: np.ndarray,
                              L: int) -> None:
    """Subtract from ``block[t, u]`` the products that truncation at T drops
    from Gram entry (t, u), summed by diagonal:
    ``sum_{m=1}^{min(t,u)} ra[t-m] * rb[u-m]``, ``ra, rb = a[::-1][:L], b[::-1][:L]``.

    Row t of the loss follows from row t-1 shifted by one column; one
    running length-L row is kept."""
    ra, rb = a[::-1][:L], b[::-1][:L]
    loss = np.zeros(L)
    for t in range(1, L):
        loss[1:] = loss[:-1] + ra[t - 1] * rb[:-1]
        block[t] -= loss


def _gram_block(out: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray,
                fb: np.ndarray, L: int, nfft: int) -> None:
    """Write the L-by-L block of inner products between delayed copies of a
    and b (spectra fa, fb) into ``out``.

    Toeplitz matrix of the full correlations, minus the min(t, u) tail products
    that truncation at T drops from entry (t, u): those are summed among
    themselves, so they round at their own size, and subtracted once."""
    full = irfft(fa * np.conj(fb), nfft)
    pos = full[:L]  # lag d = 0 .. L-1: sum_w a[w] * b[w - d]
    neg = np.concatenate((pos[:1], full[:-L:-1]))  # lag -d
    if b is a:  # auto block: the mean of both FFT estimates of a lag is symmetric
        pos = neg = 0.5 * (pos + neg)
    # row t is lags -t .. L-1-t: neg[t], ..., neg[1], pos[0], ..., pos[L-1-t]
    out[...] = sliding_window_view(np.concatenate((neg[::-1], pos[1:])), L)[::-1]
    _subtract_truncation_loss(out, a, b, L)


def _empty_gram(dim: int) -> np.ndarray:
    """Uninitialized dim-by-dim Fortran-ordered array for a Gram matrix."""
    try:
        return np.empty((dim, dim), order="F")
    except MemoryError:
        raise ValueError(f"cannot allocate the Gram matrix: kL={dim} needs "
                         f"(kL)^2*8 = {dim * dim * 8} bytes") from None


def _fill_gram(gram: np.ndarray, arrays: Sequence[np.ndarray], ref_ffts: Sequence,
               L: int, nfft: int) -> None:
    """Write the unloaded Gram of the delayed copies of ``arrays`` into the
    Fortran-ordered ``gram``.

    Blocks are written through the C-ordered view ``gram.T``, so that every
    row write is contiguous.  Gram block (i, j) written into block (i, j) of
    the view puts its transpose, Gram block (j, i), into ``gram``; the auto
    blocks are exactly symmetric, so ``gram`` holds the Gram itself."""
    view = gram.T
    for i in range(len(arrays)):
        for j in range(i, len(arrays)):
            block = view[i * L:(i + 1) * L, j * L:(j + 1) * L]
            _gram_block(block, arrays[i], arrays[j], ref_ffts[i], ref_ffts[j], L, nfft)
            if i != j:
                view[j * L:(j + 1) * L, i * L:(i + 1) * L] = block.T


def _validate_references(references: Sequence[Waveform], max_delay: int) -> None:
    if not 1 <= len(references) <= 2:
        raise ValueError(f"expected 1 or 2 references, got {len(references)}")
    T = len(references[0])
    rate = references[0].sample_rate
    for i, ref in enumerate(references):
        if len(ref) != T:
            raise ValueError(f"reference {i}: length mismatch ({len(ref)} vs {T})")
        if ref.sample_rate != rate:
            raise ValueError(f"reference {i}: sample rate mismatch ({ref.sample_rate} vs {rate})")
        if energy(ref) == 0.0:
            raise ValueError(f"reference {i} is all-zero")
    if not 1 <= max_delay <= T:
        raise ValueError(f"max_delay must satisfy 1 <= L <= T={T}, got {max_delay}")


def build_basis(references: Sequence[Waveform], max_delay: int) -> ProjectionBasis:
    """Build the Gram system for the span of delayed reference copies.

    Parameters
    ----------
    references : one or two equal-length, equal-rate, nonzero waveforms
    max_delay : number of delay taps L; delays 0 .. L-1 are included

    The Gram matrix is factorized once (Cholesky).  If factorization fails,
    a diagonal loading of ``GRAM_REG_LAMBDA * trace / dim`` is added to the
    reference block where it broke and the blocks after it (earlier blocks
    keep an unloaded factor) and the event is recorded; if it still fails,
    ``SingularProjectionError`` is raised rather than silently absorbing the
    problem.  A Gram matrix that cannot be allocated raises ``ValueError``
    naming its size.
    """
    _validate_references(references, max_delay)
    refs = tuple(references)
    k, L = len(refs), max_delay
    T = len(refs[0])
    nfft = next_fast_len(T + L - 1)
    arrays = [r.samples for r in refs]
    ref_ffts = tuple(rfft(a, nfft) for a in arrays)

    gram = _empty_gram(k * L)
    _fill_gram(gram, arrays, ref_ffts, L, nfft)

    regularization = 0.0
    events: tuple[str, ...] = ()
    trace = np.trace(gram)
    factor, info = dpotrf(gram, clean=False, overwrite_a=True)
    if info > 0:
        first = (info - 1) // L  # block of the first non-positive pivot
        regularization = GRAM_REG_LAMBDA * trace / (k * L)
        _fill_gram(gram, arrays, ref_ffts, L, nfft)  # the failed factor overwrote it
        tail = np.arange(first * L, k * L)
        gram[tail, tail] += regularization
        factor, info = dpotrf(gram, clean=False, overwrite_a=True)
        if info > 0:
            raise SingularProjectionError(
                f"Gram matrix ({k * L}x{k * L}) is singular even after diagonal "
                f"loading of {regularization:g}"
            )
        events = (f"gram-regularized: diagonal loading {regularization:g} "
                  f"from reference {first} on (L={L}, refs={k})",)

    return ProjectionBasis(
        references=refs,
        max_delay=L,
        sample_rate=refs[0].sample_rate,
        regularization=regularization,
        regularization_events=events,
        _factor=factor,
        _ref_ffts=ref_ffts,
        _nfft=nfft,
    )


def project(basis: ProjectionBasis, x: Waveform) -> tuple[Waveform, ...]:
    """Orthogonal projections ``(P_1 x, ..., P_k x)`` of ``x``, ``P_r`` onto
    the delayed copies of the basis' first ``r`` references: ``(P_s x, P_sn x)``
    for an ``[s, n]`` basis.

    One right-hand side ``Aᵀx`` serves every subspace.  ``Uᵀ`` is lower
    triangular, so the leading ``r*L`` entries of its forward solve ``z`` are
    the solve for the first ``r`` references alone.  One back solve of ``k``
    columns, column ``r`` being ``z`` zeroed past ``r*L``, gives each
    subspace's coefficients ``c``, and its projection is ``Σ_i F_i ·
    rfft(c_i)`` under one inverse FFT.  No block of the in-place factor is
    copied.  ``x - project(basis, x)[-1]`` is orthogonal to every delayed copy
    up to round-off.
    """
    T = len(basis.references[0])
    if len(x) != T:
        raise ValueError(f"project: length mismatch ({len(x)} vs basis length {T})")
    if x.sample_rate != basis.sample_rate:
        raise ValueError(f"project: sample rate mismatch ({x.sample_rate} vs {basis.sample_rate})")

    k, L, nfft = len(basis.references), basis.max_delay, basis._nfft
    fx = rfft(x.samples, nfft)
    # <ref delayed by tau, x> needs no truncation correction: x itself is
    # not delayed, so no products fall outside [0, T).
    rhs = np.concatenate([irfft(fx * np.conj(f), nfft)[:L] for f in basis._ref_ffts])
    z, _ = dtrtrs(basis._factor, rhs, trans=1, overwrite_b=True)
    nested = np.zeros((k * L, k), order="F")
    for r in range(1, k + 1):  # column r - 1: z zeroed past r*L
        nested[:r * L, r - 1] = z[:r * L]
    coeffs, _ = dtrtrs(basis._factor, nested, overwrite_b=True)
    projections = []
    for r in range(k):
        spectrum = sum(f * rfft(coeffs[i * L:(i + 1) * L, r], nfft)
                       for i, f in enumerate(basis._ref_ffts[:r + 1]))
        projections.append(Waveform(irfft(spectrum, nfft)[:T], basis.sample_rate))
    return tuple(projections)


def project_dense_oracle(references: Sequence[Waveform], max_delay: int,
                         x: Waveform) -> Waveform:
    """Reference implementation of :func:`project` by explicit least squares.

    Materializes the delayed-copy matrix and solves with an SVD-backed
    least-squares routine, sharing no code path with the fast Gram solver.
    Guarded to small problems (T <= 8192, k*L <= 64).
    """
    _validate_references(references, max_delay)
    T = len(references[0])
    if len(x) != T:
        raise ValueError(f"dense oracle: length mismatch ({len(x)} vs {T})")
    if x.sample_rate != references[0].sample_rate:
        raise ValueError("dense oracle: sample rate mismatch")
    n_cols = len(references) * max_delay
    if T > DENSE_ORACLE_MAX_LENGTH or n_cols > DENSE_ORACLE_MAX_COLUMNS:
        raise ValueError(
            f"dense oracle guard exceeded: T={T} (max {DENSE_ORACLE_MAX_LENGTH}), "
            f"columns={n_cols} (max {DENSE_ORACLE_MAX_COLUMNS})"
        )
    A = np.hstack([delayed_matrix(r.samples, max_delay) for r in references])
    coeffs, *_ = np.linalg.lstsq(A, x.samples, rcond=None)
    return Waveform(A @ coeffs, x.sample_rate)
