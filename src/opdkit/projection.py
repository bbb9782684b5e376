"""Orthogonal projection onto subspaces spanned by delayed reference copies.

A reference delayed by ``tau`` is zero-padded at the head and truncated to
the original length ``T``, so every delayed copy lives in the same R^T as
the signals being projected and orthogonality statements are exact.  A
basis spans delays ``0 .. L-1`` of two references, speech ``s`` and noise
``n``.  Neither projector, ``P_s`` onto the speech copies nor ``P_sn`` onto
both, is materialized as a T-by-T matrix: one Gram solve over the delayed
copies gives the coefficients of both, each synthesized as FIR filtering of
the references.  ``project`` makes the right-hand side and runs that solve
once: it returns the whitened coefficients ``z``, whose inner products are
those of the projections, and the coefficients of ``P_s x`` and of
``P_sn x``, from which ``synthesize`` (the filtering) makes either
projection's waveform.

Every correlation and every synthesis runs on overlap-save blocks of one
length M: the smallest power of two >= max(FFT_BLOCK_MIN, 4L), capped at the
power of two >= T + L - 1, so a short signal is one block.  The signals are
cut at hops of B = M - L + 1 samples.  Only lags 0 .. L-1 of a correlation
are ever needed, and each frame of B samples meets at most M = B + L - 1
samples of the other signal there, so the sum over blocks of M-point
circular correlations is the linear one, exactly; a synthesis is an L-tap
filter, whose blocks overlap-add the same way.  Many short transforms stay
in cache where one of length T + L - 1 does not.  Because the
delayed copies are truncated at T rather than extended, the Gram matrix
differs from the plain Toeplitz correlation matrix by products of the
reference tails that fall off the end; that correction is exact, an O(L^2)
prefix sum along each diagonal subtracted once (see ``_gram_rows``).

The Cholesky factor ``U`` (``Uᵀ U`` = Gram) of the Gram
``[[G_ss, G_sn], [G_snᵀ, G_nn]]`` is computed without forming the Gram.
With F = Z ⊕ Z, the shift down by one inside each block, ``G - F G Fᵀ``
has rank 5: truncation makes G[i, j] - G[i-1, j-1] a product of reference
tails, and F G Fᵀ has a zero first row and column in each block.  Its
generator, 2L-by-5, is built from the undelayed Gram columns 0 and L, the
2-by-2 corner of the Gram and the reversed tails (``_generator``), and 2L
steps of the generalized Schur algorithm, each one J-unitary 5-by-5
rotation applied with ``np.matmul``, make ``U`` row by row in O(L^2) work
(``_schur_factor``; Kailath and Sayed, SIAM Review 1995).

Of ``U = [[U_ss, U_sn], [0, U_nn]]`` such a basis holds the two triangles
(``_SplitFactor``), each in LAPACK's rectangular full packed (RFP) format,
transposed (``TRANSR='T'``, ``UPLO='U'``), L(L+1)/2 doubles.  ``U_sn =
U_ss⁻ᵀ G_sn`` is never formed: ``G_sn = Toep(r_sn) - R_s R_nᵀ``, ``R_x``
the strictly lower triangular Toeplitz matrix of x's reversed tail, so
the basis keeps that lag row and the tails, O(L), and a product with
``G_sn`` or its transpose is a few FFTs (``_cross_product``).  The solve
runs by blocks, ``dtfsm`` on ``U_ss`` and ``U_nn`` and one cross product per
direction, whatever the number of right-hand sides (``_solve``).

A Gram that the Schur steps cannot factor is refused, not approximated:
T < 2L (2L delayed copies in R^T are linearly dependent) and a 2-by-2
corner that is not positive definite (the noise reference a multiple of the
speech reference) raise before the factor is allocated, and a pivot at or
below the rounding floor raises ``SingularProjectionError`` naming its step.
Any other answer would not be the orthogonal projection the decomposition
is defined by.  Only the writer ``_write_row`` and the check-only
``_unpacked`` know where in a packed array an entry lies.

FFTs come from ``numpy.fft``.  From numpy 2.0 on that is the C++ pocketfft
that ``scipy.fft`` also wraps, so transforms are bitwise the same as
scipy's; numpy 1.x ships a different C implementation, hence the
``numpy>=2.0`` floor.  LAPACK's packed triangular solve (``dtfsm``), the
one LAPACK routine the solves call, is called through ``ctypes``, in place,
on the OpenBLAS that numpy's own wheels bundle and have already loaded
(``scipy_dtfsm_64_``), so neither importing this module nor solving loads
scipy.  The packed Cholesky factorization (``dpftrf``) and rank-k update
(``dsfrk``) are bound beside it but no longer called by ``build_basis``.  A
numpy built against another LAPACK (MKL, Accelerate, a distribution's
OpenBLAS) exports no such symbols; the same three routines then come from
``scipy.linalg.cython_lapack``.  The symbols are resolved at the first call
of any, which raises ``ImportError`` naming both sources when neither has
them; ``lapack_source`` names the one bound and ``openblas_threads`` gives
the thread count of numpy's OpenBLAS.
"""

import functools
import math
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
    "lapack_source",
    "openblas_threads",
    "project",
    "project_dense_oracle",
    "synthesize",
    "delayed_matrix",
]

DEFAULT_MAX_DELAY = 512

DELAY_PADDING = "zero-pad-head"  # the delay convention; run manifests record it

# Guards for the dense verification oracle, which materializes the full
# delayed-copy matrix.
DENSE_ORACLE_MAX_LENGTH = 8192
DENSE_ORACLE_MAX_COLUMNS = 64

# Least FFT length of an overlap-save block (see the module docstring).
FFT_BLOCK_MIN = 4096

# Rows of a triangle that its writer (``_write_row``) gathers before writing
# them along rows of the packed array: at most 512 KiB at L=2048.
BLOCK_ROWS = 64


class _Lapack(NamedTuple):
    """LAPACK's ``dpftrf``, ``dtfsm`` and ``dsfrk`` with their C prototypes
    declared, the integer type they take, the library they came from, and
    that library's thread-count getter if it has one."""

    pftrf: Callable
    tfsm: Callable
    sfrk: Callable
    int_t: type
    source: str
    threads: Callable[[], int] | None


_ROUTINES = ("dpftrf", "dtfsm", "dsfrk")


def _numpy_openblas_pointers():
    """(source, int type, dpftrf, dtfsm, dsfrk, thread count) of the
    OpenBLAS numpy's wheels bundle.

    ``dlsym`` on the handle of numpy's linalg extension also searches the
    libraries it links, so this finds the copy already loaded; a numpy
    built against another LAPACK raises ``AttributeError``."""
    import ctypes
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    return ("numpy's OpenBLAS", ctypes.c_int64,
            *(getattr(lib, f"scipy_{name}_64_") for name in _ROUTINES),
            lib.scipy_openblas_get_num_threads64_)


def _cython_lapack_pointers():
    """(source, int type, dpftrf, dtfsm, dsfrk, None) from
    ``scipy.linalg.cython_lapack``'s capsules; they export no thread count."""
    import ctypes
    from scipy.linalg.cython_lapack import __pyx_capi__ as capi
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return "scipy.linalg.cython_lapack", ctypes.c_int, *(
        get_pointer(capi[name], get_name(capi[name])) for name in _ROUTINES), None


def _bind_lapack(source) -> _Lapack:
    """Declare the C prototypes of the three routines ``source()`` points
    at: ``DPFTRF(TRANSR, UPLO, N, A, INFO)``,
    ``DTFSM(TRANSR, SIDE, UPLO, TRANS, DIAG, M, N, ALPHA, A, B, LDB)`` and
    ``DSFRK(TRANSR, UPLO, TRANS, N, K, ALPHA, A, LDA, BETA, C)``,
    characters, integers and scalars by reference, no hidden Fortran string
    lengths."""
    import ctypes
    name, int_t, *pointers, threads = source()
    char_p, int_p, double_p = ctypes.c_char_p, ctypes.POINTER(int_t), ctypes.c_void_p
    scalar_p = ctypes.POINTER(ctypes.c_double)
    prototypes = (ctypes.CFUNCTYPE(None, char_p, char_p, int_p, double_p, int_p),
                  ctypes.CFUNCTYPE(None, char_p, char_p, char_p, char_p, char_p, int_p, int_p,
                                   scalar_p, double_p, double_p, int_p),
                  ctypes.CFUNCTYPE(None, char_p, char_p, char_p, int_p, int_p, scalar_p,
                                   double_p, int_p, scalar_p, double_p))
    return _Lapack(*(prototype(ctypes.cast(pointer, ctypes.c_void_p).value)
                     for prototype, pointer in zip(prototypes, pointers)),
                   int_t, name, threads)


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


def lapack_source() -> str:
    """The library LAPACK is bound from: ``"numpy's OpenBLAS"`` or
    ``"scipy.linalg.cython_lapack"``, which round differently."""
    return _lapack().source


def openblas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS when LAPACK is bound from it,
    else None.  The factor's last digits can change with it."""
    threads = _lapack().threads
    return None if threads is None else threads()


def _check_array(routine: str, name: str, a: np.ndarray, rows: int) -> None:
    """Refuse ``a`` unless it is what LAPACK reads and writes through a raw
    pointer: a vector, or a Fortran-ordered matrix, of ``rows`` rows.  A
    wrong dtype or layout would corrupt memory instead of raising.

    ``a`` must be writeable float64, one whole Fortran-contiguous array,
    within the memory of the array it is a view of."""
    if a.dtype != np.float64 or not a.flags.writeable or a.ndim not in (1, 2):
        raise ValueError(f"{routine}: {name} must be a writeable float64 vector or "
                         f"matrix, got {a.ndim}-d {a.dtype} with "
                         f"WRITEABLE={a.flags.writeable}")
    if a.shape[0] != rows:
        raise ValueError(f"{routine}: {name} must have {rows} rows, got shape {a.shape}")
    if not a.flags.f_contiguous:
        raise ValueError(f"{routine}: {name} must be Fortran-contiguous, got strides "
                         f"{a.strides}")
    base = a.base
    while base is not None:  # as_strided views hide their array behind a wrapper
        if isinstance(base, np.ndarray):
            low, high = np.lib.array_utils.byte_bounds(a)
            base_low, base_high = np.lib.array_utils.byte_bounds(base)
            if low < base_low or high > base_high:
                raise ValueError(f"{routine}: {name} reaches outside the array it is a "
                                 "view of")
        base = getattr(base, "base", None)


def _packed_order(routine: str, a: np.ndarray) -> int:
    """Order n = n1 + n2 of the matrix that ``a`` holds in rectangular full
    packed format, transposed (LAPACK's ``TRANSR='T'``), once ``a`` is
    checked to be a Fortran-contiguous n2-by-(2 n1 + 1) array with n2 = n1
    or n1 + 1."""
    if a.ndim != 2 or a.shape[1] % 2 == 0 or a.shape[0] - a.shape[1] // 2 not in (0, 1) \
            or a.shape[0] < 1:
        raise ValueError(f"{routine}: a must be an n2-by-(2 n1 + 1) array, n2 = n1 or n1 + 1, "
                         f"got shape {a.shape}")
    _check_array(routine, "a", a, a.shape[0])
    return a.shape[1] // 2 + a.shape[0]


def dpftrf(a: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK ``dpftrf`` (``TRANSR='T'``, ``UPLO='U'``): Cholesky factor
    ``U`` (``Uᵀ U`` = the matrix) of the symmetric matrix whose upper triangle
    ``a`` holds in rectangular full packed format, transposed, written in
    place in the same format.  ``a`` is Fortran-ordered, n2-by-(2 n1 + 1)
    with n2 = n1 or n1 + 1, for order n = n1 + n2.  Returns ``(a, info)``;
    ``info > 0`` is the 1-based order of the first leading minor that is
    not positive definite, and on ``info == 0`` every diagonal entry of
    ``U`` is positive.  ``build_basis`` calls neither this nor ``dsfrk``."""
    n = _packed_order("dpftrf", a)
    lapack = _lapack()
    info = lapack.int_t()
    lapack.pftrf(b"T", b"U", lapack.int_t(n), a.ctypes.data, info)
    if info.value < 0:
        raise ValueError(f"dpftrf: argument {-info.value} had an illegal value")
    return a, info.value


def dtfsm(a: np.ndarray, b: np.ndarray, trans: bool) -> np.ndarray:
    """LAPACK ``dtfsm`` (``TRANSR='T'``, ``SIDE='L'``, ``UPLO='U'``): solve
    ``Uᵀ x = b`` (``trans``) or ``U x = b`` for the upper triangular ``U``
    whose upper triangle ``a`` holds in rectangular full packed format,
    transposed, in place over ``b``: a vector, or a Fortran-ordered matrix of
    one right-hand side per column.  Returns ``b``.

    ``dtfsm`` checks no pivot; every pivot of a factor ``build_basis`` keeps
    is above the Schur steps' rounding floor."""
    import ctypes
    n = _packed_order("dtfsm", a)
    _check_array("dtfsm", "b", b, n)
    lapack = _lapack()
    lapack.tfsm(b"T", b"L", b"U", b"T" if trans else b"N", b"N",
                lapack.int_t(n), lapack.int_t(b.shape[1] if b.ndim == 2 else 1),
                ctypes.c_double(1.0), a.ctypes.data, b.ctypes.data, lapack.int_t(n))
    return b


def dsfrk(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """LAPACK ``dsfrk`` (``TRANSR='T'``, ``UPLO='U'``, ``TRANS='T'``):
    ``C - Aᵀ A`` in place over ``c``, which holds ``C`` as ``dpftrf`` reads
    it, for ``a`` Fortran-ordered k-by-n, n the order of ``C``.  Returns ``c``."""
    import ctypes
    n = _packed_order("dsfrk", c)
    if a.ndim != 2 or a.shape[1] != n or a.shape[0] < 1:
        raise ValueError(f"dsfrk: a must be a k-by-{n} matrix, k >= 1, got shape {a.shape}")
    _check_array("dsfrk", "a", a, a.shape[0])
    lapack = _lapack()
    lapack.sfrk(b"T", b"U", b"T", lapack.int_t(n), lapack.int_t(a.shape[0]),
                ctypes.c_double(-1.0), a.ctypes.data, lapack.int_t(a.shape[0]),
                ctypes.c_double(1.0), c.ctypes.data)
    return c


class SingularProjectionError(RuntimeError):
    """The Gram of a basis' delayed copies is singular to working precision,
    so no orthogonal projection onto their span can be computed from it."""


class _SplitFactor(NamedTuple):
    """The Cholesky factor ``U = [[U_ss, U_sn], [0, U_nn]]`` of a basis,
    held without ``U_sn = U_ss⁻ᵀ G_sn``.

    ``ss`` and ``nn`` hold ``U_ss`` and ``U_nn`` in rectangular full packed
    format, transposed (``TRANSR='T'``): n2-by-(2 n1 + 1) Fortran arrays,
    n1 = L // 2 and n2 = L - n1, of L(L+1)/2 doubles each.  Their
    transposes, C-ordered, are the ``TRANSR='N'`` layout, in which
    ``_write_row`` writes rows of a triangle along rows of the array.
    ``lags`` (``_lag_rows``' ``rows[0, 1]``, 2L - 1 doubles) and ``tails``
    (each reference's last L - 1 samples, reversed) make ``G_sn`` for
    ``_cross_product``."""

    ss: np.ndarray
    nn: np.ndarray
    lags: np.ndarray
    tails: np.ndarray


@dataclass(frozen=True, eq=False)
class ProjectionBasis:
    """Factorized representation of the delayed copies of ``(s, n)``.

    ``_factor`` is the Cholesky factor ``U`` (``Uᵀ U`` = Gram), a
    ``_SplitFactor`` written by the Schur steps: ``U_ss`` and ``U_nn``
    packed, L(L+1) doubles in all (33.6 MB at L=2048), plus the lag row and
    reversed tails, 4L - 3 doubles, that make products with ``G_sn`` and so
    stand for the cross block ``U_sn = U_ss⁻ᵀ G_sn``.  ``_unpacked_factor``
    expands it.  Its leading L-by-L block factorizes ``G_ss`` alone, so one
    basis serves both ``P_s`` and ``P_sn``.

    Beside the factor it keeps, per reference, the block spectra that
    ``project`` correlates and ``synthesize`` filters with: ``_spectra[i]``
    has one row ``rfft(frame, M)`` per hop of B = M - L + 1 samples,
    ``_block`` = M, each frame B samples of the reference zero-padded to M:
    8 M / B bytes per sample of a reference (9.1 at L=512), a little over
    the 8 of one full-length spectrum.

    ``regularization`` is the class constant 0.0: no basis is loaded, as a
    Gram the Schur steps cannot factor is refused.  It stays only because
    the benchmark's traced run reads it off every basis it times
    (``perfbench/spans.py``).
    """

    references: tuple[Waveform, Waveform]
    max_delay: int
    _factor: _SplitFactor = field(repr=False)
    _spectra: tuple = field(repr=False)
    _block: int = field(repr=False)

    regularization = 0.0

    @property
    def gram(self) -> np.ndarray:
        """Gram matrix: ``gram[i*L + t, j*L + u]`` is the inner product of
        reference ``i`` delayed by ``t`` with reference ``j`` delayed by
        ``u``, i, j = 0 for ``s`` and 1 for ``n``.

        Not stored: each access makes the references' extended block
        spectra again and correlates them with the stored ones, in O(T log
        M + L^2) time, for ``_dense_gram``.  Meant for checks, not for the
        solve path.
        """
        arrays = [r.samples for r in self.references]
        return _dense_gram(arrays, _lag_rows(arrays, self._spectra, self.max_delay, self._block),
                           self.max_delay)


def delayed_matrix(x: np.ndarray, max_delay: int) -> np.ndarray:
    """T-by-L matrix whose columns are ``x`` delayed by 0 .. L-1 samples."""
    T = len(x)
    A = np.zeros((T, max_delay))
    for tau in range(max_delay):
        A[tau:, tau] = x[: T - tau]
    return A


def _block_length(T: int, L: int) -> int:
    """FFT length M of the overlap-save blocks for signals of T samples and
    L delays: the smallest power of two >= max(FFT_BLOCK_MIN, 4L), capped at
    the power of two >= T + L - 1, which makes the whole signal one block."""
    def pow2(n):
        return 1 << (n - 1).bit_length()
    return min(pow2(max(FFT_BLOCK_MIN, 4 * L)), pow2(T + L - 1))


def _block_spectra(x: np.ndarray, L: int, M: int, extended: bool) -> np.ndarray:
    """Length-M spectra of ``x`` framed at hops of B = M - L + 1 samples,
    one row per hop: the B samples from the hop, zero-padded to M, or with
    ``extended`` the M = B + L - 1 samples from the hop on.  ``x`` is
    zero-padded at its end to fill the last frame."""
    B = M - L + 1
    padded = np.zeros(-(-len(x) // B) * B + L - 1)
    padded[:len(x)] = x
    if extended:
        return rfft(np.lib.stride_tricks.sliding_window_view(padded, M)[::B], axis=1)
    return rfft(padded[:len(padded) - L + 1].reshape(-1, B), M, axis=1)


def _correlations(x: np.ndarray, spectra: Sequence[np.ndarray], L: int,
                  M: int) -> np.ndarray:
    """(k, L) array: row j is ``sum_w x[w + d] * p_j[w]`` at lags d = 0 ..
    L-1, for the k references whose block spectra are ``spectra``.

    The extended spectra of ``x`` are made once, used against every block
    spectrum and dropped on return.  A plain frame of B samples meets only
    its extended frame's M = B + L - 1 at these lags, so no circular
    correlation of two frames wraps, and their sum over the blocks
    (``vecdot`` conjugates the block spectra, copying nothing) is the linear
    correlation."""
    fe = _block_spectra(x, L, M, extended=True)
    return irfft(np.stack([np.vecdot(fp, fe, axis=0) for fp in spectra]), M, axis=1)[:, :L]


def _lag_rows(arrays: Sequence[np.ndarray], spectra: Sequence[np.ndarray], L: int,
              M: int) -> np.ndarray:
    """Correlations of every pair of ``arrays`` (block spectra ``spectra``)
    at lags -(L-1) .. L-1, ``rows[i, j, L-1+d] = sum_w a_i[w] * a_j[w - d]``,
    so the inner product of a_i delayed by t with a_j delayed by u,
    untruncated, is ``rows[i, j, L-1-t+u]``.

    Lag d >= 0 of pair (i, j) is row j of ``_correlations(a_i)``, and lag
    -d is that of pair (j, i), so an auto row is one correlation mirrored:
    exactly symmetric."""
    pos = np.stack([_correlations(a, spectra, L, M) for a in arrays])  # rows[:, :, L-1:]
    return np.concatenate((pos.transpose(1, 0, 2)[:, :, :0:-1], pos), axis=2)


def _gram_rows(a: np.ndarray, b: np.ndarray, row: np.ndarray, L: int):
    """Yield, for u = 0 .. L-1, row u of the L-by-L block of inner products
    between delayed copies of b and of a, ``entries[t] = <b delayed by u,
    a delayed by t>``, from the lag row of a with b, ``row[L-1+d] = sum_w
    a[w] * b[w - d]`` (see ``_lag_rows``).  Each row is a new array.

    Toeplitz row minus the products that truncation at T drops from entry
    (u, t), ``sum_{m=1}^{min(t,u)} rb[u-m] * ra[t-m]`` with ``ra, rb`` the
    last L samples of a, b reversed: those are summed among themselves along
    each diagonal, so they round at their own size, and subtracted once.
    Row u of that loss is row u-1 shifted by one column plus one product
    row, so one running row is kept.  For b = a the products commute and
    the lag row is exactly symmetric, so the block is too, bitwise."""
    lags = row[::-1]  # lags[L-1-u+t]: entry (u, t)
    ra, rb = a[::-1][:L], b[::-1][:L]
    loss = np.zeros(L)
    for u in range(L):
        if u:
            loss[1:] = loss[:-1] + rb[u - 1] * ra[:-1]
        yield lags[L - 1 - u:2 * L - 1 - u] - loss


def _dense_gram(arrays: Sequence[np.ndarray], rows: np.ndarray, L: int) -> np.ndarray:
    """The Gram of the delayed copies of ``arrays = (s, n)``, lag rows
    ``rows`` (``_lag_rows``), written by ``_gram_rows`` into a new (2L)^2 *
    8-byte array, ``G_sn`` as the transpose of ``G_ns``; ``G_ss`` and
    ``G_nn`` are exactly symmetric, so the result is too.  For checks."""
    gram = np.empty((2 * L, 2 * L))
    for i, j in ((0, 0), (0, 1), (1, 1)):  # row u is G[jL + u, iL:(i+1)L]
        gram[j * L:(j + 1) * L, i * L:(i + 1) * L] = list(
            _gram_rows(arrays[i], arrays[j], rows[i, j], L))
    gram[:L, L:] = gram[L:, :L].T
    return gram


def _overlap_add(blocks: np.ndarray, L: int, T: int) -> np.ndarray:
    """The first T samples of one signal's length-M block rows ``blocks``
    laid at hops of B = M - L + 1 and summed: each row's last L - 1 samples
    are added, in place, onto the head of the next row.  A new array."""
    B = blocks.shape[-1] - L + 1
    blocks[1:, :L - 1] += blocks[:-1, B:]
    return blocks[:, :B].reshape(-1)[:T]


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


def _allocate(nbytes: int, what: str, make: Callable):
    """``make()``, which allocates ``nbytes``, refused before it runs when
    those bytes exceed the available memory: under overcommit the
    allocation would be granted, and filling it could get the process
    killed instead of raising.  An allocation that fails anyway raises the
    same error, which names ``what`` and the bytes."""
    too_large = ValueError(f"cannot allocate {what} = {nbytes} bytes")
    available = _mem_available()
    if available is not None and nbytes > available:
        raise too_large
    try:
        return make()
    except MemoryError:
        raise too_large from None


def _empty_split_factor(L: int, lags: np.ndarray,
                        arrays: Sequence[np.ndarray]) -> _SplitFactor:
    """The ``_SplitFactor`` of a basis of L delays with its two triangles,
    of L(L+1)/2 doubles each, uninitialized and refused beyond the available
    memory, beside copies of the lag row ``lags`` of ``arrays = (s, n)``
    and of their reversed tails."""
    shape = (L - L // 2, 2 * (L // 2) + 1)
    ss, nn = _allocate(L * (L + 1) * 8, f"the Gram factor: L={L} needs L(L+1)*8",
                       lambda: (np.empty(shape, order="F"), np.empty(shape, order="F")))
    return _SplitFactor(ss, nn, lags.copy(), np.stack([a[:-L:-1] for a in arrays]))


def _unpacked(packed: np.ndarray) -> np.ndarray:
    """The dim-by-dim upper triangle, zeros below it, that the rectangular
    full packed array ``packed`` holds: a new array, for checks."""
    n1, n2 = packed.shape[0] // 2, packed.shape[1]
    upper = np.zeros((n1 + n2, n1 + n2))
    for j in range(n2):
        upper[:n1 + j + 1, n1 + j] = packed[:n1 + j + 1, j]
        upper[j, j:n1] = packed[n1 + 1 + j:, j]
    return upper


def _unpacked_factor(factor: _SplitFactor) -> np.ndarray:
    """The 2L-by-2L upper triangular factor that a basis' ``_factor`` holds,
    zeros below it: ``U_ss``, ``U_nn`` and ``U_sn = U_ss⁻ᵀ G_sn`` as the
    solves use it.  A new array, for checks."""
    L = len(factor.lags) // 2 + 1
    upper = np.zeros((2 * L, 2 * L))
    upper[:L, :L], upper[L:, L:] = _unpacked(factor.ss.T), _unpacked(factor.nn.T)
    upper[:L, L:] = dtfsm(factor.ss, _cross_product(factor, np.eye(L)), trans=True)
    return upper


def _generator(arrays: Sequence[np.ndarray], rows: np.ndarray, L: int) -> np.ndarray:
    """The generator of the Gram's displacement, transposed: a new 5-by-2L
    array ``gen`` with ``G - F G Fᵀ = genᵀ J gen``, J = diag(1, 1, -1, -1,
    -1), F = Z ⊕ Z the shift down by one inside each L-row block.  Raises
    ``SingularProjectionError`` when the corner K = [[G_00, G_0L], [G_L0,
    G_LL]] is not positive definite: by Cauchy-Schwarz, when n is a multiple
    of s.

    Truncation at T makes G[i, j] - G[i-1, j-1] = -v[i] v[j] inside each
    block pair, v = [0, s[T-1] .. s[T-L+1], 0, n[T-1] .. n[T-L+1]] the
    reversed tails, and F G Fᵀ has a zero row and column 0 and L.  So with
    C = G W, W = [e_0, e_L], the Gram columns 0 and L (undelayed, read from
    the lag rows without truncation correction), and K = RᵀR,
    ``G - F G Fᵀ = U₀U₀ᵀ - V₀V₀ᵀ - v vᵀ`` for U₀ = C R⁻¹ and V₀ = (C - W K)
    R⁻¹, which is U₀ with rows 0 and L zeroed.  Rows 0 and L of U₀ are
    K R⁻¹ = Rᵀ, set exactly, with K symmetric: G_L0 is taken to be G_0L,
    the packed upper triangle's G_sn[0, 0]."""
    s, n = arrays
    gen = np.empty((5, 2 * L))
    c0, c1 = gen[0], gen[1]
    c0[:L], c0[L:] = rows[0, 0, L - 1::-1], rows[1, 0, L - 1::-1]
    c1[:L], c1[L:] = rows[0, 1, L - 1::-1], rows[1, 1, L - 1::-1]
    k00, k01, k11 = c0[0], c1[0], c1[L]
    det = k00 * k11 - k01 * k01
    if not (k00 > 0.0 and det > 0.0):
        raise SingularProjectionError(
            f"the noise reference is a multiple of the speech reference: the Gram's 2x2 "
            f"corner of their undelayed inner products is not positive definite "
            f"(determinant {det:.3g}, L={L})")
    r00 = math.sqrt(k00)
    r01, r11 = k01 / r00, math.sqrt(det / k00)
    c0 /= r00
    c1 -= r01 * c0
    c1 /= r11
    c0[0], c1[0], c0[L], c1[L] = r00, 0.0, r01, r11  # Rᵀ, exactly
    gen[2:4] = gen[:2]
    gen[2:4, ::L] = 0.0
    gen[4, ::L] = 0.0
    gen[4, 1:L], gen[4, L + 1:] = s[:-L:-1], n[:-L:-1]
    return gen


def _write_row(packed: np.ndarray, i: int, row: np.ndarray, lead: np.ndarray) -> None:
    """Write row i of an upper triangular matrix, from its diagonal on, into
    ``packed``, the C-ordered ``TRANSR='N'`` rectangular full packed array
    that holds it, rows in order from 0.

    Row i >= n1 goes along row i of ``packed`` from column i - n1.  Row
    i < n1 goes along row i for its entries from column n1 on, and down
    column i from row n1 + 1 + i for the rest, a strided write.  That part
    is gathered in ``lead`` (R rows by n1) and written R columns at a time,
    along rows of ``packed``; the block also fills entries above those
    rows' diagonals, each of which a row i >= n1 writes later."""
    n1 = packed.shape[0] // 2
    if i >= n1:
        packed[i, i - n1:] = row
        return
    packed[i] = row[n1 - i:]
    start = i - i % len(lead)
    k = i - start
    lead[k, k:n1 - start] = row[:n1 - i]
    if k == len(lead) - 1 or i == n1 - 1:
        packed[n1 + 1 + start:, start:i + 1] = lead[:k + 1, :n1 - start].T


def _schur_factor(factor: _SplitFactor, gen: np.ndarray, L: int) -> None:
    """Write the Cholesky factor U of the Gram whose displacement generator
    ``gen`` is (see ``_generator``) into the empty ``factor`` by 2L steps of
    the generalized Schur algorithm; on a breakdown, raise
    ``SingularProjectionError`` naming the step.  ``gen`` is overwritten.

    Step i takes row i of the generator, [a1, a2 | b1, b2, b3], and builds
    in Python floats a J-unitary Θ that maps it to [δ, 0, 0, 0, 0]: a Givens
    rotation of (a1, a2) to (a, 0), a Householder reflector of (b1, b2,
    b3) to (β, 0, 0) and a hyperbolic rotation of (a, β) to δ = sqrt(a² -
    β²) > 0.  One ``np.matmul`` applies it to the rows i .. 2L-1 of the
    generator; the first column is then row i of U, from its diagonal on,
    and is shifted by F for the next step.  Two work arrays of 5 x 2L and
    one 5-by-5 are all it uses; the generator and its image alternate
    between them.  Of row i < L only the ``U_ss`` part is written (the
    solves take ``U_sn`` from ``G_sn``, see ``_cross_product``).

    A pivot with a <= |β| (or not finite) leaves no positive δ: a
    breakdown.  So is one with δ² <= 2L eps G_00 (G_LL in the noise
    block), which rounding alone can make: on an exactly singular Gram
    such a pivot is noise, as likely negative, and the Gram is singular to
    working precision."""
    hypot, sqrt, copysign = math.hypot, math.sqrt, math.copysign
    rel = 2 * L * np.finfo(np.float64).eps
    # G_00 and G_LL: rows 0 and L of U₀ are those of Rᵀ
    floors = (rel * gen[0, 0] ** 2, rel * (gen[0, L] ** 2 + gen[1, L] ** 2))
    ss, nn = factor.ss.T, factor.nn.T  # the TRANSR='N' layouts, C-ordered
    lead = np.empty((BLOCK_ROWS, L // 2))
    theta_t = np.empty((5, 5))
    cur, nxt = gen, np.empty_like(gen)
    for i in range(2 * L):
        a1, a2, b1, b2, b3 = cur[:, i].tolist()
        a, b = hypot(a1, a2), hypot(b1, b2, b3)
        if not (a > b and (a - b) * (a + b) > floors[i >= L]):
            raise SingularProjectionError(
                f"the Gram is singular to working precision: Schur step {i} of {2 * L} "
                f"({'noise' if i >= L else 'speech'} block, delay {i % L}) leaves a pivot "
                f"delta^2 = {(a - b) * (a + b):.3g}, at or below the rounding floor "
                f"{floors[i >= L]:.3g} = 2L*eps*G_{'LL' if i >= L else '00'} (L={L})")
        if b > 0.0:  # I - τ w wᵀ with w = (b1 - β, b2, b3)
            beta = -copysign(b, b1)
            tau = 1.0 / (b * (b + abs(b1)))
            w1 = b1 - beta
            h00, h01, h02 = 1.0 - tau * w1 * w1, -tau * w1 * b2, -tau * w1 * b3
            h11, h12, h22 = 1.0 - tau * b2 * b2, -tau * b2 * b3, 1.0 - tau * b3 * b3
        else:
            beta, h00, h01, h02, h11, h12, h22 = 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0
        cs, sn = a1 / a, a2 / a
        rho = beta / a
        gamma = sqrt((1.0 - rho) * (1.0 + rho))
        ig, rg = 1.0 / gamma, rho / gamma
        # Θᵀ, as gen holds the generator's columns as rows
        theta_t[:] = [[cs * ig, sn * ig, -rg * h00, -rg * h01, -rg * h02],
                      [-sn, cs, 0.0, 0.0, 0.0],
                      [-rg * cs, -rg * sn, h00 * ig, h01 * ig, h02 * ig],
                      [0.0, 0.0, h01, h11, h12],
                      [0.0, 0.0, h02, h12, h22]]
        column = np.matmul(theta_t, cur[:, i:], out=nxt[:, i:])[0]
        column[0] = a * gamma  # δ > 0, which the product with Θ may round
        if i < L:
            _write_row(ss, i, column[:L - i], lead)
        else:
            _write_row(nn, i - L, column, lead)
        column[1:] = column[:-1]  # times F: down by one inside each block
        if i < L:
            nxt[0, L] = 0.0  # row L heads the noise block
        cur, nxt = nxt, cur


def _cross_product(factor: _SplitFactor, c: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``G_sn c`` or, with ``transpose``, ``G_snᵀ c = G_ns c``, for ``c``
    L-by-m: a new Fortran-ordered L-by-m array.

    ``G_sn[t, u] = r[L-1+u-t] - (R_s R_nᵀ)[t, u]``, r the lag row, ``R_x[t, k]
    = x_rev[t-1-k]`` for k < t: a correlation (transposed, a convolution) of
    r with a column, less ``R_s R_nᵀ c``, a correlation with n's tail cut to
    lags 1 .. L-1 and then a convolution with s's (transposed, the tails
    swap).  No product reaches index 2L - 1, so FFTs of length N >= 2L - 1
    do not wrap.  Columns go one at a time: a batch's are bitwise its
    one-column products."""
    L = len(c)
    N = 1 << (2 * L - 2).bit_length()
    lags = rfft(factor.lags, N)
    first, second = rfft(factor.tails[::-1] if transpose else factor.tails, N)
    out = np.empty(c.shape, order="F")
    for j in range(c.shape[1]):
        f = rfft(c[:, j], N)
        if transpose:
            out[:, j] = irfft(lags * f, N)[L - 1:2 * L - 1]
        else:
            out[:, j] = irfft(lags * f.conj(), N)[L - 1::-1]
        inner = irfft(f * second.conj(), N)[1:L]  # R_secondᵀ c, its last entry 0 dropped
        out[1:, j] -= irfft(first * rfft(inner, N), N)[:L - 1]
    return out


def _solve(factor: _SplitFactor, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z, c_s, c)`` for the right-hand sides ``b``, 2L-by-m and
    Fortran-ordered, one per column: ``Uᵀ z = b`` in place over ``b``, the
    ``P_s`` coefficients ``c_s = U_ss⁻¹ z_s`` and the ``P_sn`` coefficients
    ``U c = z``, each a new Fortran-ordered array.

    By blocks, ``z_n = U_nn⁻ᵀ (b_n - G_ns c_s)``, as ``U_snᵀ z_s = G_ns
    U_ss⁻¹ z_s``, then ``c_n = U_nn⁻¹ z_n`` and ``c[:L] = U_ss⁻¹ (z_s -
    U_ss⁻ᵀ G_sn c_n)``: six ``dtfsm`` and two cross products in all."""
    L = len(b) // 2
    zs = dtfsm(factor.ss, np.array(b[:L], order="F"), trans=True)
    cs = dtfsm(factor.ss, zs.copy(order="F"), trans=False)
    zn = np.subtract(b[L:], _cross_product(factor, cs, transpose=True), order="F")
    b[:L], b[L:] = zs, dtfsm(factor.nn, zn, trans=True)
    cn = dtfsm(factor.nn, zn, trans=False)
    zs -= dtfsm(factor.ss, _cross_product(factor, cn), trans=True)
    c = np.empty_like(b)
    c[:L], c[L:] = dtfsm(factor.ss, zs, trans=False), cn
    return b, cs, c


def _validate_references(references: Sequence[Waveform], max_delay: int) -> None:
    if not references:
        raise ValueError("expected references, got none")
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
    references : ``[s, n]``, equal-length, equal-rate, nonzero waveforms
    max_delay : number of delay taps L; delays 0 .. L-1 are included

    The Gram matrix is factorized once (Cholesky), without being formed:
    2L generalized Schur steps on its 5-column displacement generator
    (``_generator``, ``_schur_factor``) write the factor in O(L^2) work,
    held as a ``_SplitFactor``: ``U_ss``, ``U_nn`` and the O(L) data of
    ``G_sn``.  A Gram they cannot factor is refused, with an error that
    names the cause: T < 2L is a ``ValueError`` and the corner K not
    positive definite (n a multiple of s) a ``SingularProjectionError``,
    both before the factor is allocated; a pivot at or below the rounding
    floor is a ``SingularProjectionError`` naming its step.  A factor that
    cannot be allocated raises ``ValueError`` naming its size, before
    allocating.
    """
    if len(references) != 2:
        raise ValueError(f"expected two references, [speech, noise], got {len(references)}")
    _validate_references(references, max_delay)
    refs = tuple(references)
    L, T = max_delay, len(references[0])
    if 2 * L > T:
        raise ValueError(f"max_delay L={L} needs T >= 2L samples, got T={T}: the 2L delayed "
                         f"copies are linearly dependent; lower -L to at most T//2 = {T // 2}")
    M = _block_length(T, L)
    arrays = [r.samples for r in refs]
    spectra = tuple(_block_spectra(a, L, M, extended=False) for a in arrays)
    rows = _lag_rows(arrays, spectra, L, M)
    gen = _generator(arrays, rows, L)
    factor = _empty_split_factor(L, rows[0, 1], arrays)
    _schur_factor(factor, gen, L)

    return ProjectionBasis(
        references=refs,
        max_delay=L,
        _factor=factor,
        _spectra=spectra,
        _block=M,
    )


def project(basis: ProjectionBasis,
            signals: Sequence[Waveform]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z, c_s, c)`` of a batch of m signals, one column each: one
    correlation pass per signal gives the right-hand sides ``Aᵀx`` and one
    solve of them all (see ``_solve``) the whitened coefficients ``z``
    (2L-by-m), with ``Uᵀ z = Aᵀx``, and the coefficients of ``P_s x``,
    ``c_s`` (L-by-m), and of ``P_sn x``, ``c`` (2L-by-m), whose waveforms
    ``synthesize`` makes.

    ``A U⁻¹`` has orthonormal columns, the whitened delayed copies, and
    ``Uᵀ`` is lower triangular, so ``z[:L]`` are the coordinates of
    ``P_s x`` in them and ``z`` those of ``P_sn x``: ``‖P_s x‖² = ‖z[:L]‖²``
    and ``<P_sn x, P_sn x'> = z·z'``, with no waveform synthesized.
    """
    signals = list(signals)
    if not signals:
        raise ValueError("project: expected at least one signal, got an empty batch")
    T, rate = len(basis.references[0]), basis.references[0].sample_rate
    for w in signals:
        if len(w) != T:
            raise ValueError(f"project: length mismatch ({len(w)} vs basis length {T})")
        if w.sample_rate != rate:
            raise ValueError(f"project: sample rate mismatch ({w.sample_rate} vs {rate})")

    # <ref delayed by tau, x> needs no truncation correction: x itself is
    # not delayed, so no products fall outside [0, T).
    L, M = basis.max_delay, basis._block
    rhs = np.empty((2 * L, len(signals)), order="F")
    for j, w in enumerate(signals):
        rhs[:, j] = _correlations(w.samples, basis._spectra, L, M).ravel()
    return _solve(basis._factor, rhs)


def synthesize(basis: ProjectionBasis, coefficients: np.ndarray) -> np.ndarray:
    """Samples of the projections whose coefficients ``project`` gives, an
    m-by-T array, one row per column: ``P_s x`` from ``c_s`` (L rows) or
    ``P_sn x`` from ``c`` (2L rows).

    ``P x = Σ_i F_i · rfft(c_i)`` over the references the rows reach,
    ``F_i`` their block spectra, under an inverse FFT whose blocks are
    overlap-added.  The signals go one at a time, so only one signal's
    spectrum and blocks are held at once.
    """
    L, M, T = basis.max_delay, basis._block, len(basis.references[0])
    if coefficients.ndim != 2 or len(coefficients) not in (L, 2 * L):
        raise ValueError(f"synthesize: expected L={L} or 2L={2 * L} coefficient rows, got "
                         f"shape {coefficients.shape}")
    rows = []
    for c in coefficients.T:
        spectrum = basis._spectra[0] * rfft(c[:L], M)
        if len(c) > L:
            spectrum += basis._spectra[1] * rfft(c[L:], M)
        blocks = irfft(spectrum, M)
        del spectrum
        rows.append(_overlap_add(blocks, L, T))
        del blocks
    return np.stack(rows)


def project_dense_oracle(references: Sequence[Waveform], max_delay: int,
                         x: Waveform) -> Waveform:
    """Reference implementation of ``P_s x`` (``references = [s]``) or
    ``P_sn x`` (``[s, n]``), what ``synthesize`` makes of ``project``'s
    ``c_s`` or ``c``, by explicit least squares.

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
