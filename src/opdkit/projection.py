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
basis holds one (kL)^2 array and no solve copies it.  Only its upper
triangle, the part ``dpotrf`` and ``dtrtrs`` read, is written; the strict
lower triangle is never touched, so its pages of the lazily mapped array
are never made resident.

FFTs come from ``numpy.fft``.  From numpy 2.0 on that is the C++ pocketfft
that ``scipy.fft`` also wraps, so transforms are bitwise the same as
scipy's; numpy 1.x ships a different C implementation, hence the
``numpy>=2.0`` floor.  LAPACK's Cholesky factorization (``dpotrf``) and
triangular solve (``dtrtrs``) are called through ``ctypes``, in place, on the
OpenBLAS that numpy's own wheels bundle and have already loaded, so neither
importing this module nor solving loads scipy.  A numpy built against
another LAPACK (MKL, Accelerate, a distribution's OpenBLAS) exports no such
symbols; the same two routines then come from
``scipy.linalg.cython_lapack``.  The symbols are resolved at the first solve,
which raises ``ImportError`` naming both sources when neither has them.
"""

import functools
import mmap
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.fft import irfft, rfft

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


class _Lapack(NamedTuple):
    """LAPACK's ``dpotrf`` and ``dtrtrs`` with their C prototypes declared,
    and the integer type they take."""

    potrf: Callable
    trtrs: Callable
    int_t: type


def _numpy_openblas_pointers():
    """(int type, dpotrf, dtrtrs) of the OpenBLAS numpy's wheels bundle.

    ``dlsym`` on the handle of numpy's linalg extension also searches the
    libraries it links, so this finds the copy already loaded; a numpy
    built against another LAPACK raises ``AttributeError``."""
    import ctypes
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    return ctypes.c_int64, lib.scipy_dpotrf_64_, lib.scipy_dtrtrs_64_


def _cython_lapack_pointers():
    """(int type, dpotrf, dtrtrs) from ``scipy.linalg.cython_lapack``'s capsules."""
    import ctypes
    from scipy.linalg.cython_lapack import __pyx_capi__ as capi
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.c_int, *(get_pointer(capi[name], get_name(capi[name]))
                           for name in ("dpotrf", "dtrtrs"))


def _bind_lapack(source) -> _Lapack:
    """Declare the C prototypes of the two routines ``source()`` points at:
    ``dpotrf(uplo, n, a, lda, info)`` and
    ``dtrtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)``, characters
    and integers by reference, no hidden Fortran string lengths."""
    import ctypes
    int_t, potrf, trtrs = source()
    char_p, int_p, double_p = ctypes.c_char_p, ctypes.POINTER(int_t), ctypes.c_void_p
    potrf_t = ctypes.CFUNCTYPE(None, char_p, int_p, double_p, int_p, int_p)
    trtrs_t = ctypes.CFUNCTYPE(None, char_p, char_p, char_p, int_p, int_p, double_p, int_p,
                               double_p, int_p, int_p)
    return _Lapack(potrf_t(ctypes.cast(potrf, ctypes.c_void_p).value),
                   trtrs_t(ctypes.cast(trtrs, ctypes.c_void_p).value), int_t)


@functools.cache
def _lapack() -> _Lapack:
    """The routines of numpy's OpenBLAS, else of scipy; resolved once."""
    try:
        return _bind_lapack(_numpy_openblas_pointers)
    except AttributeError as numpy_err:
        try:
            return _bind_lapack(_cython_lapack_pointers)
        except ImportError as scipy_err:
            raise ImportError(f"no LAPACK to solve with: numpy bundles none ({numpy_err}) "
                              f"and the fallback, scipy, cannot be imported ({scipy_err}); "
                              "install scipy") from scipy_err


def _check_lapack_array(routine: str, name: str, a: np.ndarray) -> None:
    """LAPACK writes through a raw pointer: a wrong dtype or layout would
    corrupt memory instead of raising, so refuse it first."""
    if a.dtype != np.float64 or not a.flags.f_contiguous or not a.flags.writeable:
        raise ValueError(f"{routine}: {name} must be a writeable Fortran-contiguous "
                         f"float64 array, got {a.dtype} with flags "
                         f"F_CONTIGUOUS={a.flags.f_contiguous}, WRITEABLE={a.flags.writeable}")


def _check_square(routine: str, a: np.ndarray) -> int:
    _check_lapack_array(routine, "a", a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{routine}: a must be a non-empty square matrix, got shape {a.shape}")
    return a.shape[0]


def _check_info(routine: str, info) -> int:
    if info.value < 0:
        raise ValueError(f"{routine}: argument {-info.value} had an illegal value")
    return info.value


def dpotrf(a: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK ``dpotrf``: Cholesky factor ``U`` (``Uᵀ U`` = ``a``), written in
    place over the upper triangle of ``a``; the strict lower triangle is left
    as it was.  Returns ``(a, info)``; ``info > 0`` is the 1-based order of
    the first leading minor that is not positive definite."""
    n = _check_square("dpotrf", a)
    lapack = _lapack()
    order, info = lapack.int_t(n), lapack.int_t()
    lapack.potrf(b"U", order, a.ctypes.data, order, info)
    return a, _check_info("dpotrf", info)


def dtrtrs(a: np.ndarray, b: np.ndarray, trans: bool = False) -> tuple[np.ndarray, int]:
    """LAPACK ``dtrtrs``: solve ``U x = b`` (``Uᵀ x = b`` with ``trans``) for
    the upper triangle ``U`` of ``a``, written in place over ``b``.  Returns
    ``(b, info)``; ``info > 0`` is the 1-based index of a zero diagonal entry
    of ``U``."""
    n = _check_square("dtrtrs", a)
    _check_lapack_array("dtrtrs", "b", b)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"dtrtrs: b must have n={n} rows, got shape {b.shape}")
    lapack = _lapack()
    order, info = lapack.int_t(n), lapack.int_t()
    nrhs = lapack.int_t(b.shape[1] if b.ndim == 2 else 1)
    lapack.trtrs(b"U", b"T" if trans else b"N", b"N", order, nrhs, a.ctypes.data,
                 order, b.ctypes.data, order, info)
    return b, _check_info("dtrtrs", info)


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

    The basis holds one (kL)^2 array, ``_factor``: the upper triangle of
    the Gram matrix in Fortran order, factorized in place by LAPACK.  Its
    upper triangle is the Cholesky factor ``U`` (``Uᵀ U`` = Gram); its
    strict lower triangle is the zero fill of the allocation, never written
    and never paged in.  The factor may include diagonal loading; the
    amount actually added is recorded in ``regularization`` (0.0 when none
    was needed).  Its leading ``r*L`` block factorizes the Gram of the first
    ``r`` references, so one basis serves each nested subspace.
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

        Not stored: each access rebuilds its upper triangle from the
        reference spectra into a new (kL)^2 * 8-byte array, in
        O(k^2 (nfft log nfft + L^2)) time, and copies it into the lower
        triangle, so the result is exactly symmetric.  Meant for checks, not
        for the solve path.
        """
        dim = len(self.references) * self.max_delay
        gram = _empty_gram(dim)
        _fill_gram(gram, [r.samples for r in self.references], self._ref_ffts,
                   self.max_delay, self._nfft)
        for c in range(1, dim):
            gram[c, :c] = gram[:c, c]
        return gram


def delayed_matrix(x: np.ndarray, max_delay: int) -> np.ndarray:
    """T-by-L matrix whose columns are ``x`` delayed by 0 .. L-1 samples."""
    T = len(x)
    A = np.zeros((T, max_delay))
    for tau in range(max_delay):
        A[tau:, tau] = x[: T - tau]
    return A


def _lag_row(fa: np.ndarray, fb: np.ndarray, L: int, nfft: int,
             symmetric: bool) -> np.ndarray:
    """Correlations of a and b (spectra fa, fb) at lags -(L-1) .. L-1 in one
    row, ``row[L-1+d] = sum_w a[w] * b[w - d]``, so the inner product of a
    delayed by t with b delayed by u, untruncated, is ``row[L-1-t+u]``.

    ``symmetric`` (an auto block) replaces each lag by the mean of both FFT
    estimates of it, ``row[L-1+d]`` and ``row[L-1-d]``."""
    full = irfft(fa * np.conj(fb), nfft)
    row = np.concatenate((full[nfft - L + 1:], full[:L]))
    return 0.5 * (row + row[::-1]) if symmetric else row


def _gram_block(out: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray,
                fb: np.ndarray, L: int, nfft: int, diagonal: bool) -> None:
    """Write into ``out`` the L-by-L block of inner products between delayed
    copies of b and of a, ``out[u, t] = <b delayed by u, a delayed by t>``,
    from the correlations of a with b (spectra fa, fb).  A block on the
    Gram's ``diagonal`` has row u written up to column u only; no other
    entry of ``out`` is touched.

    Toeplitz row minus the products that truncation at T drops from entry
    (u, t), ``sum_{m=1}^{min(t,u)} rb[u-m] * ra[t-m]`` with ``ra, rb`` the
    last L samples of a, b reversed: those are summed among themselves along
    each diagonal, so they round at their own size, and subtracted once.
    Row u of that loss is row u-1 shifted by one column plus one product
    row, so one running row is kept."""
    lags = _lag_row(fa, fb, L, nfft, symmetric=b is a)[::-1]  # lags[L-1-u+t]: entry (u, t)
    ra, rb = a[::-1][:L], b[::-1][:L]
    loss = np.zeros(L)
    for u in range(L):
        width = u + 1 if diagonal else L
        if u:
            loss[1:width] = loss[:width - 1] + rb[u - 1] * ra[:width - 1]
        out[u, :width] = lags[L - 1 - u:L - 1 - u + width] - loss[:width]


def _mem_available() -> int | None:
    """Bytes the kernel reports as ``MemAvailable``; None where there is no
    ``/proc/meminfo``."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the value is in kB
    except FileNotFoundError:
        pass
    return None


def _empty_gram(dim: int) -> np.ndarray:
    """Zero-filled dim-by-dim Fortran-ordered array for a Gram matrix, on
    pages the kernel maps only where they are written.

    The array is a private anonymous ``mmap``, with transparent huge pages
    declined where the platform can (``MADV_NOHUGEPAGE``): numpy asks for
    2 MB pages for every array of 4 MB or more, and a huge page would map
    the untouched lower triangle along with the upper one.  The request is
    refused before allocating when (dim^2)*8 bytes exceed the available
    memory: under overcommit the mapping would be granted, and filling it
    could get the process killed instead of raising."""
    nbytes = dim * dim * 8
    too_large = ValueError(f"cannot allocate the Gram matrix: kL={dim} needs "
                           f"(kL)^2*8 = {nbytes} bytes")
    available = _mem_available()
    if available is not None and nbytes > available:
        raise too_large
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    try:
        buffer = mmap.mmap(-1, nbytes, **private)
    except OSError:
        raise too_large from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=np.float64).reshape((dim, dim), order="F")


def _fill_gram(gram: np.ndarray, arrays: Sequence[np.ndarray], ref_ffts: Sequence,
               L: int, nfft: int) -> None:
    """Write the upper triangle of the unloaded Gram of the delayed copies of
    ``arrays`` into the Fortran-ordered ``gram``, the only part ``dpotrf``
    and ``dtrtrs`` read; the strict lower triangle is never touched.

    Blocks are written through the C-ordered view ``gram.T``, whose row c is
    column c of ``gram``, so every row write is contiguous and starts at its
    column's head.  Gram block (i, j), i < j, is written as block (j, i) of
    the view; of auto block (i, i), row t of the view gets its first t + 1
    entries."""
    view = gram.T
    for i in range(len(arrays)):
        for j in range(i, len(arrays)):
            _gram_block(view[j * L:(j + 1) * L, i * L:(i + 1) * L], arrays[i], arrays[j],
                        ref_ffts[i], ref_ffts[j], L, nfft, diagonal=i == j)


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
    factor, info = dpotrf(gram)
    if info > 0:
        first = (info - 1) // L  # block of the first non-positive pivot
        regularization = GRAM_REG_LAMBDA * trace / (k * L)
        _fill_gram(gram, arrays, ref_ffts, L, nfft)  # the failed factor overwrote it
        tail = np.arange(first * L, k * L)
        gram[tail, tail] += regularization
        factor, info = dpotrf(gram)
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
    up to round-off.  A zero pivot in the factor raises
    ``SingularProjectionError``.
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
    z, info = dtrtrs(basis._factor, rhs, trans=True)
    if info:
        raise SingularProjectionError(f"project: zero pivot {info} in the Cholesky factor")
    nested = np.zeros((k * L, k), order="F")
    for r in range(1, k + 1):  # column r - 1: z zeroed past r*L
        nested[:r * L, r - 1] = z[:r * L]
    coeffs, info = dtrtrs(basis._factor, nested)
    if info:
        raise SingularProjectionError(f"project: zero pivot {info} in the Cholesky factor")
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
