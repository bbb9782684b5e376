import ctypes
import dataclasses
import errno
import json
import mmap
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import RATE, lowpass_noise
from opdkit.projection import (DELAY_PADDING, SingularProjectionError, _gram_block,
                               build_basis, delayed_matrix, project, project_dense_oracle)
from opdkit.reporting import RunManifest
from opdkit.selftest import INVARIANT_TOLERANCES, make_case
from opdkit.signals import Waveform, inner

import opdkit.projection as projection_module


def test_delayed_matrix_columns():
    A = delayed_matrix(np.array([1.0, 2.0, 3.0]), 2)
    assert_allclose(A, [[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])


class TestGram:
    def test_single_impulse_reference(self):
        basis = build_basis([Waveform([1.0, 0.0, 0.0, 0.0], RATE)], 1)
        assert_allclose(basis.gram, [[1.0]])

    def test_orthogonal_pair(self, running_example):
        s, n, _, _ = running_example
        basis = build_basis([s, n], 1)
        assert_allclose(basis.gram, np.eye(2))

    def test_two_taps_with_truncation(self):
        # delayed copy of [1, 1] is [0, 1]: the trailing sample falls off
        basis = build_basis([Waveform([1.0, 1.0], RATE)], 2)
        assert_allclose(basis.gram, [[2.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_delayed_products(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(32, 300))
        max_delay = int(rng.integers(1, 13))
        s = Waveform(lowpass_noise(rng, length), RATE)
        n = Waveform(lowpass_noise(rng, length), RATE)
        basis = build_basis([s, n], max_delay)
        A = np.hstack([delayed_matrix(s.samples, max_delay),
                       delayed_matrix(n.samples, max_delay)])
        dense = A.T @ A
        assert np.max(np.abs(basis.gram - dense)) <= 1e-8 * np.max(np.abs(dense))

    @pytest.mark.parametrize("length,max_delay", [(48, 48), (300, 1), (300, 64),
                                                  (64, 64),
                                                  # 3 and 2 overlap-save blocks
                                                  (8192, 32), (4066, 32)])
    def test_edge_delays_dense_and_exactly_symmetric(self, length, max_delay):
        rng = np.random.default_rng(length + max_delay)
        s = Waveform(lowpass_noise(rng, length), RATE)
        n = Waveform(lowpass_noise(rng, length), RATE)
        for refs in ([s], [s, n]):
            basis = build_basis(refs, max_delay)
            assert np.array_equal(basis.gram, basis.gram.T)
            A = np.hstack([delayed_matrix(r.samples, max_delay) for r in refs])
            dense = A.T @ A
            assert np.max(np.abs(basis.gram - dense)) <= 1e-8 * np.max(np.abs(dense))

    @pytest.mark.parametrize("max_delay", [1, 2, 17, 40])
    def test_truncation_loss_matches_dropped_products(self, max_delay):
        # a large DC offset makes the dropped products large and one-signed
        rng = np.random.default_rng(max_delay)
        T = 40
        a = 1e3 + rng.standard_normal(T)
        b = -2e3 + rng.standard_normal(T)
        expected = np.zeros((max_delay, max_delay))
        for t in range(max_delay):
            for u in range(max_delay):
                # untruncated, a delayed by t and b delayed by u overlap up
                # to sample T - 1 + min(t, u); truncation drops w >= T
                for w in range(T, T + min(t, u)):
                    expected[t, u] += a[w - t] * b[w - u]
        # with a zero lag row the Toeplitz part is zero and the block written,
        # block[u, t] for b delayed by u and a delayed by t, is minus the loss
        block = np.zeros((max_delay, max_delay))
        _gram_block(block, a, b, np.zeros(2 * max_delay - 1), max_delay, diagonal=False)
        loss = -block.T
        assert np.max(np.abs(loss - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("seed", range(8))
    def test_factor_is_the_factorized_gram(self, seed):
        # ties the Gram that the tests and the self-test check to the one
        # that was factorized in place; the strict lower triangle is still
        # the zero-filled allocation, so neither the fill nor dpotrf wrote it
        case = make_case(seed)
        basis = build_basis([case.s, case.n], case.max_delay)
        assert basis.regularization == 0.0
        gram, factor = basis.gram, basis._factor
        upper = np.triu(factor)
        assert np.max(np.abs(upper.T @ upper - gram)) <= 1e-12 * np.max(np.abs(gram))
        assert not np.tril(factor, -1).any()

    def test_convention_recorded(self):
        basis = build_basis([Waveform(np.ones(16), RATE)], 4)
        assert DELAY_PADDING == "zero-pad-head"
        manifest = RunManifest(command="oa", parameters={}, max_delay=4,
                               aggregation="per-utterance")
        assert manifest.conventions["delay_padding"] == DELAY_PADDING
        assert basis.regularization == 0.0
        assert basis.regularization_events == ()


class TestProject:
    def test_member_is_fixed_point(self):
        rng = np.random.default_rng(0)
        s = Waveform(lowpass_noise(rng, 200), RATE)
        basis = build_basis([s], 4)
        assert_allclose(project(basis, s)[-1].samples, s.samples, rtol=0, atol=1e-12)

    def test_running_example_single_reference(self, running_example):
        s, _, s_hat, _ = running_example
        out = project(build_basis([s], 1), s_hat)[-1]
        assert_allclose(out.samples, [0.9, 0.0, 0.0, 0.0], atol=1e-14)

    def test_running_example_joint_reference(self, running_example):
        s, n, s_hat, _ = running_example
        out = project(build_basis([s, n], 1), s_hat)[-1]
        assert_allclose(out.samples, [0.9, 0.2, 0.0, 0.0], atol=1e-14)

    def test_length_and_rate_validated(self, running_example):
        s, _, _, _ = running_example
        basis = build_basis([s], 1)
        with pytest.raises(ValueError, match="length"):
            project(basis, Waveform([1.0, 2.0], RATE))
        with pytest.raises(ValueError, match="rate"):
            project(basis, Waveform([1.0, 0.0, 0.0, 0.0], 8000))

    def test_nested_refs(self, running_example):
        s, n, s_hat, _ = running_example
        basis = build_basis([s, n], 1)
        out = project(basis, s_hat)[0]
        assert_allclose(out.samples, [0.9, 0.0, 0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_leading_projection_is_the_speech_projection(self, seed):
        case = make_case(seed)
        joint = project(build_basis([case.s, case.n], case.max_delay), case.s_hat)
        speech = project(build_basis([case.s], case.max_delay), case.s_hat)
        assert len(joint) == 2 and len(speech) == 1
        expected = speech[0].samples
        assert np.linalg.norm(joint[0].samples - expected) \
            <= 1e-8 * np.linalg.norm(expected)


class TestBlocks:
    """Correlations and syntheses over more than one overlap-save block:
    at L=32 a block is M=4096 samples, B = M - L + 1 = 4065 of them new."""

    L = 32
    M = 4096
    B = M - L + 1

    def test_block_rule(self):
        block_length = projection_module._block_length
        assert block_length(8192, self.L) == self.M
        assert block_length(900, self.L) == 1024  # one block: T+L-1 = 931
        assert block_length(256000, 512) == 4096
        assert block_length(256000, 2048) == 8192  # 4L
        assert block_length(1, 1) == 1

    @pytest.mark.parametrize("T", [8192,  # 3 blocks, the last one partial
                                   B,  # exactly one block
                                   B + 1])  # a second block with one sample
    def test_projection_matches_dense_oracle(self, T):
        rng = np.random.default_rng(T)
        s, n, x = (Waveform(lowpass_noise(rng, T), RATE) for _ in range(3))
        basis = build_basis([s, n], self.L)
        assert basis._block == self.M
        assert len(basis._spectra[0]) == -(-T // self.B)
        fast = project(basis, x)
        for r, refs in enumerate(([s], [s, n])):
            dense = project_dense_oracle(refs, self.L, x).samples
            tol = INVARIANT_TOLERANCES["fast_vs_dense_projection_rel"]
            assert np.linalg.norm(fast[r].samples - dense) <= tol * np.linalg.norm(dense)


def test_production_length_projection_matches_householder_qr():
    # 4 s at 16 kHz, the utterance length the benchmark runs, against the
    # projection onto the orthonormal basis Householder QR gives of the
    # dense 64000 x 128 delayed-copy matrix
    T, L = 64000, 64
    rng = np.random.default_rng(64)
    s, n, w = (lowpass_noise(rng, T) for _ in range(3))
    x = np.convolve(s, [0.8, 0.5, 0.2])[:T] + 0.3 * n + 0.25 * w
    fast = project(build_basis([Waveform(s, RATE), Waveform(n, RATE)], L),
                   Waveform(x, RATE))[-1].samples
    q, _ = np.linalg.qr(np.hstack([delayed_matrix(s, L), delayed_matrix(n, L)]))
    oracle = q @ (q.T @ x)
    tol = INVARIANT_TOLERANCES["fast_vs_dense_projection_rel"]
    assert np.linalg.norm(fast - oracle) <= tol * np.linalg.norm(oracle)


class TestDenseOracle:
    def test_orthogonal_input_projects_to_zero(self, running_example):
        s, n, _, _ = running_example
        x = Waveform([0.0, 0.0, 1.0, 0.0], RATE)
        out = project_dense_oracle([s, n], 1, x)
        assert_allclose(out.samples, np.zeros(4), atol=1e-14)

    def test_full_delay_impulse_basis_is_identity(self):
        delta = Waveform([1.0, 0.0, 0.0, 0.0, 0.0], RATE)
        x = Waveform([0.3, -1.0, 2.0, 0.5, -0.2], RATE)
        out = project_dense_oracle([delta], 5, x)
        assert_allclose(out.samples, x.samples, atol=1e-12)

    def test_guards(self):
        rng = np.random.default_rng(1)
        long_ref = Waveform(rng.standard_normal(9000), RATE)
        with pytest.raises(ValueError, match="guard"):
            project_dense_oracle([long_ref], 1, long_ref)
        small = Waveform(rng.standard_normal(100), RATE)
        other = Waveform(rng.standard_normal(100), RATE)
        with pytest.raises(ValueError, match="guard"):
            project_dense_oracle([small, other], 33, small)


@pytest.mark.parametrize("seed", range(6))
def test_projector_properties(seed):
    rng = np.random.default_rng(100 + seed)
    length = int(rng.integers(64, 600))
    max_delay = int(rng.integers(1, 17))
    s = Waveform(lowpass_noise(rng, length), RATE)
    n = Waveform(lowpass_noise(rng, length), RATE)
    x = Waveform(lowpass_noise(rng, length), RATE)
    z = Waveform(lowpass_noise(rng, length), RATE)
    joint = build_basis([s, n], max_delay)
    speech = build_basis([s], max_delay)

    px = project(joint, x)[-1]
    scale_x = np.linalg.norm(x.samples)

    # idempotence
    assert np.linalg.norm(project(joint, px)[-1].samples - px.samples) <= 1e-8 * scale_x
    # symmetry
    lhs, rhs = inner(px, z), inner(x, project(joint, z)[-1])
    assert abs(lhs - rhs) <= 1e-8 * scale_x * np.linalg.norm(z.samples)
    # containment: projecting the joint projection onto the speech span
    # equals projecting directly
    via_joint = project(speech, px)[-1]
    direct = project(speech, x)[-1]
    assert np.linalg.norm(via_joint.samples - direct.samples) <= 1e-8 * scale_x
    # the leading block of the joint factor projects onto the speech span
    nested = project(joint, x)[0]
    assert np.linalg.norm(nested.samples - direct.samples) <= 1e-8 * scale_x
    # a mixture lies in the joint span
    y = Waveform(s.samples + n.samples, RATE)
    assert np.linalg.norm(project(joint, y)[-1].samples - y.samples) \
        <= 1e-8 * np.linalg.norm(y.samples)
    # fast path equals the dense oracle
    dense = project_dense_oracle([s, n], max_delay, x)
    assert np.linalg.norm(px.samples - dense.samples) \
        <= 1e-8 * np.linalg.norm(dense.samples)
    # residual orthogonal to every delayed copy
    A = np.hstack([delayed_matrix(s.samples, max_delay),
                   delayed_matrix(n.samples, max_delay)])
    resid = x.samples - px.samples
    defects = np.abs(A.T @ resid) / (np.linalg.norm(A, axis=0)
                                     * max(np.linalg.norm(resid), 1e-30))
    assert np.max(defects) <= 1e-8


class TestValidation:
    def test_max_delay_bounds(self, running_example):
        s, _, _, _ = running_example
        with pytest.raises(ValueError, match="max_delay"):
            build_basis([s], 0)
        with pytest.raises(ValueError, match="max_delay"):
            build_basis([s], 5)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            build_basis([Waveform(np.zeros(8), RATE)], 2)

    def test_reference_count(self, running_example):
        s, n, _, _ = running_example
        with pytest.raises(ValueError, match="1 or 2"):
            build_basis([], 1)
        with pytest.raises(ValueError, match="1 or 2"):
            build_basis([s, n, s], 1)

    def test_reference_compat(self, running_example):
        s, _, _, _ = running_example
        with pytest.raises(ValueError, match="length"):
            build_basis([s, Waveform([1.0], RATE)], 1)
        with pytest.raises(ValueError, match="rate"):
            build_basis([s, Waveform([1.0, 0.0, 0.0, 0.0], 8000)], 1)


class TestRegularization:
    def test_singular_gram_gets_loaded_and_recorded(self):
        # an impulse at the last sample: every delayed copy beyond tau=0 is
        # all-zero, so the Gram is exactly singular
        ref = Waveform([0.0] * 7 + [1.0], RATE)
        basis = build_basis([ref], 3)
        assert basis.regularization > 0.0
        assert len(basis.regularization_events) == 1
        assert "loading" in basis.regularization_events[0]
        # projection still behaves: the span is just {impulse at T-1}
        x = Waveform(np.arange(8.0), RATE)
        out = project(basis, x)[-1]
        expected = np.zeros(8)
        expected[7] = 7.0
        assert_allclose(out.samples, expected, atol=1e-6)

    def test_failure_beyond_regularization_is_reported(self, monkeypatch,
                                                       running_example):
        s, _, _, _ = running_example

        def always_fail(a, **kwargs):
            # LAPACK potrf reports failure through info, here at the first
            # leading minor of the plain and the loaded Gram alike
            return a, 1

        monkeypatch.setattr(projection_module, "dpotrf", always_fail)
        with pytest.raises(SingularProjectionError, match="singular"):
            build_basis([s], 1)


_RESIDENT_GROWTH = """
import json, resource, sys
import numpy as np
from conftest import RATE, lowpass_noise
from opdkit.projection import build_basis, dpotrf
from opdkit.signals import Waveform
T, L, second = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
rng = np.random.default_rng(0)
s, n = (Waveform(lowpass_noise(rng, T), RATE) for _ in range(2))
build_basis([s, n], 4)  # loads LAPACK and the FFT
# pages in LAPACK's workspace for a 2L-by-2L factor on a matrix kept alive,
# so that the peak before the build is the resident size
warm = dpotrf(np.eye(2 * L, order="F") * 2.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
basis = build_basis([s, s if second == "s" else n], L)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in kB on Linux
print(json.dumps({"growth": (after - before) * unit,
                  "events": basis.regularization_events}))
"""


def _subprocess_env() -> dict:
    """The environment with ``src`` and this directory on PYTHONPATH."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(projection_module.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, here, os.environ.get("PYTHONPATH")) if p))


class TestMemory:
    """Memory of a k=2 basis at T=20000, L=1024, whose Gram is
    (2L)^2 * 8 = 33.5 MB and whose L-by-L blocks are 8.4 MB each."""

    T, L = 20000, 1024

    @pytest.fixture(scope="class")
    def signals(self):
        rng = np.random.default_rng(0)
        return [Waveform(lowpass_noise(rng, self.T), RATE) for _ in range(3)]

    @staticmethod
    def traced_peak(fn):
        """(result of fn(), bytes allocated at the peak of the call)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def resident_growth(self, second: str) -> dict:
        """Growth of the peak resident size over ``build_basis([s, <second>])``
        in a fresh interpreter: tracemalloc does not see the Gram's mmap."""
        if self.basis_bound() >= (2 * self.L) ** 2 * 8:
            pytest.skip(f"with {mmap.PAGESIZE}-byte pages the bound is not below the "
                        "whole Gram, so it cannot tell which half was paged in")
        result = subprocess.run(
            [sys.executable, "-c", _RESIDENT_GROWTH, str(self.T), str(self.L), second],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-3000:]
        return json.loads(result.stdout)

    def basis_bound(self):
        # the Gram's upper triangle, the last partial page of each of its
        # columns, and O(T) for spectra and lags; the whole Gram is 2x the first
        return 0.5 * (2 * self.L) ** 2 * 8 + 2 * self.L * mmap.PAGESIZE + 64 * self.T

    @pytest.mark.skipif(sys.platform == "win32", reason="needs resource.getrusage")
    def test_build_holds_one_gram(self):
        measured = self.resident_growth("n")
        assert measured["events"] == []
        assert measured["growth"] <= self.basis_bound()

    @pytest.mark.skipif(sys.platform == "win32", reason="needs resource.getrusage")
    def test_regularized_build_holds_one_gram(self):
        measured = self.resident_growth("s")
        assert measured["growth"] <= self.basis_bound()
        assert measured["events"] == [
            "gram-regularized: diagonal loading 1.0532e-05 from reference 1 on "
            "(L=1024, refs=2)"]

    def test_nested_projection_copies_no_factor_block(self, signals):
        s, n, x = signals
        basis = build_basis([s, n], self.L)
        _, peak = self.traced_peak(lambda: project(basis, x)[0])
        assert peak < self.L ** 2 * 8


class TestGramSizeCheck:
    def test_gram_over_available_memory_refused(self, monkeypatch, running_example):
        s, n, _, _ = running_example
        # a k=2, L=4 Gram is 8^2 * 8 = 512 bytes
        monkeypatch.setattr(projection_module, "_mem_available", lambda: 511)
        with pytest.raises(ValueError, match=r"^cannot allocate the Gram matrix: kL=8 "
                                             r"needs \(kL\)\^2\*8 = 512 bytes$"):
            build_basis([s, n], 4)
        monkeypatch.setattr(projection_module, "_mem_available", lambda: 512)
        assert build_basis([s, n], 4).regularization > 0.0

    def test_failed_mapping_is_the_size_error(self, monkeypatch, running_example):
        s, n, _, _ = running_example

        def no_memory(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(projection_module.mmap, "mmap", no_memory)
        with pytest.raises(ValueError, match=r"^cannot allocate the Gram matrix: kL=8 "
                                             r"needs \(kL\)\^2\*8 = 512 bytes$"):
            build_basis([s, n], 4)

    def test_no_meminfo_leaves_the_allocation_to_numpy(self, monkeypatch, running_example):
        s, n, _, _ = running_example
        monkeypatch.setattr(projection_module, "_mem_available", lambda: None)
        assert build_basis([s, n], 1).regularization == 0.0

    def test_reads_mem_available(self):
        if not os.path.exists("/proc/meminfo"):
            assert projection_module._mem_available() is None
        else:
            assert projection_module._mem_available() > 0


class TestLapackBinding:
    """dpotrf and dtrtrs write through raw pointers, so the wrappers must
    refuse an array LAPACK would misread before any call is made."""

    SOURCES = {"numpy-openblas": projection_module._numpy_openblas_pointers,
               "cython-lapack": projection_module._cython_lapack_pointers}

    @pytest.fixture
    def no_call(self, monkeypatch):
        def called(*args):
            raise AssertionError("LAPACK was called")
        fake = projection_module._Lapack(called, called, ctypes.c_int64)
        monkeypatch.setattr(projection_module, "_lapack", lambda: fake)

    @pytest.fixture(params=SOURCES)
    def lapack(self, request, monkeypatch):
        try:
            bound = projection_module._bind_lapack(self.SOURCES[request.param])
        except AttributeError:
            pytest.skip(f"this numpy exports no {request.param} LAPACK")
        monkeypatch.setattr(projection_module, "_lapack", lambda: bound)
        return bound

    @staticmethod
    def spd(n=6, seed=0):
        A = np.random.default_rng(seed).standard_normal((n + 4, n))
        return np.asfortranarray(A.T @ A)

    @pytest.mark.parametrize("bad", ["float32", "c-order", "read-only", "non-square",
                                     "vector", "empty"])
    def test_dpotrf_guard_raises_before_the_call(self, no_call, bad):
        a = {"float32": lambda: self.spd().astype(np.float32, order="F"),
             "c-order": lambda: np.ascontiguousarray(self.spd()),
             "read-only": lambda: self.spd(),
             "non-square": lambda: np.asfortranarray(self.spd()[:, :5]),
             "vector": lambda: np.ones(6),
             "empty": lambda: np.empty((0, 0), order="F")}[bad]()
        if bad == "read-only":
            a.flags.writeable = False
        with pytest.raises(ValueError, match="dpotrf: a must"):
            projection_module.dpotrf(a)

    @pytest.mark.parametrize("bad", ["a-c-order", "float32", "c-order", "read-only",
                                     "rows", "3-d"])
    def test_dtrtrs_guard_raises_before_the_call(self, no_call, bad):
        a = np.ascontiguousarray(self.spd()) if bad == "a-c-order" else self.spd()
        b = {"a-c-order": lambda: np.ones(6),
             "float32": lambda: np.ones(6, np.float32),
             "c-order": lambda: np.ones((6, 2)),
             "read-only": lambda: np.ones(6),
             "rows": lambda: np.ones(5),
             "3-d": lambda: np.ones((6, 1, 1), order="F")}[bad]()
        if bad == "read-only":
            b.flags.writeable = False
        with pytest.raises(ValueError, match="dtrtrs: a must" if bad == "a-c-order"
                           else "dtrtrs: b must"):
            projection_module.dtrtrs(a, b)

    def test_illegal_argument_raises(self, monkeypatch):
        def illegal(*args):
            args[-1].value = -4  # info, passed by reference
        fake = projection_module._Lapack(illegal, illegal, ctypes.c_int64)
        monkeypatch.setattr(projection_module, "_lapack", lambda: fake)
        with pytest.raises(ValueError, match="dpotrf: argument 4 had an illegal value"):
            projection_module.dpotrf(self.spd())
        with pytest.raises(ValueError, match="dtrtrs: argument 4 had an illegal value"):
            projection_module.dtrtrs(self.spd(), np.ones(6))

    def test_factor_and_solves_match_numpy(self, lapack):
        gram = self.spd(40, seed=1)
        factor, info = projection_module.dpotrf(gram.copy(order="F"))
        assert info == 0
        upper = np.triu(factor)
        assert_allclose(upper, np.linalg.cholesky(gram).T, rtol=0, atol=1e-12)
        assert np.array_equal(np.tril(factor, -1), np.tril(gram, -1))  # left as it was
        b = np.asfortranarray(np.random.default_rng(2).standard_normal((40, 3)))
        x, info = projection_module.dtrtrs(factor, b.copy(order="F"), trans=True)
        assert info == 0
        assert_allclose(x, np.linalg.solve(upper.T, b), rtol=1e-12, atol=1e-12)
        x, info = projection_module.dtrtrs(factor, b[:, 0].copy())
        assert info == 0
        assert_allclose(x, np.linalg.solve(upper, b[:, 0]), rtol=1e-12, atol=1e-12)

    def test_not_positive_definite_reports_the_minor(self, lapack):
        gram = self.spd()
        gram[3, 3] = -1.0
        assert projection_module.dpotrf(gram)[1] == 4

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_matches_dense_oracle(self, lapack, seed):
        case = make_case(seed)
        fast = project(build_basis([case.s, case.n], case.max_delay), case.s_hat)[-1]
        dense = project_dense_oracle([case.s, case.n], case.max_delay, case.s_hat)
        tol = INVARIANT_TOLERANCES["fast_vs_dense_projection_rel"]
        assert_allclose(fast.samples, dense.samples, atol=tol * np.linalg.norm(dense.samples))

    def test_zero_pivot_in_solve_raises(self, running_example):
        s, n, s_hat, _ = running_example
        basis = build_basis([s, n], 1)
        factor = basis._factor.copy(order="F")
        factor[1, 1] = 0.0
        broken = dataclasses.replace(basis, _factor=factor)
        with pytest.raises(SingularProjectionError, match="zero pivot 2"):
            project(broken, s_hat)


_FORCED_CYTHON_LAPACK = """
import sys, pytest
import opdkit.projection as projection
forced = projection._bind_lapack(projection._cython_lapack_pointers)
projection._lapack = lambda: forced
code = pytest.main(sys.argv[1:])
assert "scipy.linalg.cython_lapack" in sys.modules
sys.exit(code)
"""


def test_projection_tests_pass_on_cython_lapack(tmp_path):
    # the fallback source for a numpy without bundled OpenBLAS
    result = subprocess.run(
        [sys.executable, "-c", _FORCED_CYTHON_LAPACK, "-q", "-p", "no:cacheprovider",
         # the resident-growth builds run in their own interpreters, on numpy's LAPACK
         "-k", "not test_projection_tests_pass_on_cython_lapack and not holds_one_gram",
         "--rootdir", str(tmp_path), os.path.abspath(__file__)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-3000:]
