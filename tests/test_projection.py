import ctypes
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import RATE, lowpass_noise
from opdkit.projection import (DELAY_PADDING, SingularProjectionError, _gram_rows, _unpacked,
                               _unpacked_factor, build_basis, delayed_matrix, project,
                               project_dense_oracle, synthesize)
from opdkit.reporting import RunManifest
from opdkit.selftest import INVARIANT_TOLERANCES, make_case
from opdkit.signals import Waveform, inner
from test_analysis import _band_limited_references

import opdkit.projection as projection_module


def projections(basis, x):
    """Samples of ``P_s x`` and ``P_sn x``, from one ``project`` of ``x``."""
    _, c_s, c = project(basis, [x])
    return synthesize(basis, c_s)[0], synthesize(basis, c)[0]


def _lag_rows_of(refs, L):
    """The samples of ``refs`` and their lag rows, as ``build_basis`` makes
    them, with no factor: at any L <= T."""
    arrays = [r.samples for r in refs]
    M = projection_module._block_length(len(arrays[0]), L)
    spectra = [projection_module._block_spectra(a, L, M, extended=False) for a in arrays]
    return arrays, projection_module._lag_rows(arrays, spectra, L, M)


def _gram_of(refs, L):
    """The Gram ``ProjectionBasis.gram`` gives, at any L <= T."""
    return projection_module._dense_gram(*_lag_rows_of(refs, L), L)


def test_delayed_matrix_columns():
    A = delayed_matrix(np.array([1.0, 2.0, 3.0]), 2)
    assert_allclose(A, [[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])


class TestGram:
    def test_single_impulse_reference(self):
        basis = build_basis([Waveform([1.0, 0.0, 0.0, 0.0], RATE),
                             Waveform([0.0, 2.0, 0.0, 0.0], RATE)], 1)
        assert_allclose(basis.gram, [[1.0, 0.0], [0.0, 4.0]])

    def test_orthogonal_pair(self, running_example):
        s, n, _, _ = running_example
        basis = build_basis([s, n], 1)
        assert_allclose(basis.gram, np.eye(2))

    def test_two_taps_with_truncation(self):
        # delayed copies of [1, 1] and [1, -1] are both [0, 1]: the trailing
        # sample falls off (a Gram build_basis refuses, as T < 2L)
        gram = _gram_of([Waveform([1.0, 1.0], RATE), Waveform([1.0, -1.0], RATE)], 2)
        assert_allclose(gram, [[2.0, 1.0, 0.0, 1.0],
                                     [1.0, 1.0, -1.0, 1.0],
                                     [0.0, -1.0, 2.0, -1.0],
                                     [1.0, 1.0, -1.0, 1.0]])

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
        gram = _gram_of([s, n], max_delay)  # L = T included, which build_basis refuses
        assert np.array_equal(gram, gram.T)
        A = np.hstack([delayed_matrix(r.samples, max_delay) for r in (s, n)])
        dense = A.T @ A
        assert np.max(np.abs(gram - dense)) <= 1e-8 * np.max(np.abs(dense))

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
        # with a zero lag row the Toeplitz part is zero and the block made,
        # block[u, t] for b delayed by u and a delayed by t, is minus the loss
        block = np.array(list(_gram_rows(a, b, np.zeros(2 * max_delay - 1), max_delay)))
        loss = -block.T
        assert np.max(np.abs(loss - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("seed", range(8))
    def test_factor_is_the_factorized_gram(self, seed):
        # ties the Gram that the tests and the self-test check to the one
        # that was factorized; the basis holds U_ss and U_nn, two packed
        # arrays of L(L+1)/2 doubles, the lag row and reversed tails that
        # make products with G_sn, and nothing the size of the Gram else
        case = make_case(seed)
        L = case.max_delay
        basis = build_basis([case.s, case.n], L)
        gram, factor = basis.gram, basis._factor
        upper = _unpacked_factor(factor)
        assert np.max(np.abs(upper.T @ upper - gram)) <= 1e-12 * np.max(np.abs(gram))
        for packed in (factor.ss, factor.nn):
            assert packed.dtype == np.float64 and packed.base is None
            assert packed.size == L * (L + 1) // 2
        assert factor.lags.shape == (2 * L - 1,) and factor.tails.shape == (2, L - 1)

    def test_convention_recorded(self):
        assert DELAY_PADDING == "zero-pad-head"
        manifest = RunManifest(command="oa", parameters={}, max_delay=4,
                               aggregation="per-utterance")
        assert manifest.conventions["delay_padding"] == DELAY_PADDING


def _packed(matrix: np.ndarray) -> np.ndarray:
    """The upper triangle of ``matrix`` in rectangular full packed format,
    transposed (``TRANSR='T'``), from the layout's definition: row j holds
    column n1 + j from row 0 to the diagonal, then row j (j < n1) from the
    diagonal on."""
    dim = len(matrix)
    n1 = dim // 2
    out = np.empty((dim - n1, 2 * n1 + 1), order="F")
    for j in range(dim - n1):
        out[j, :n1 + j + 1] = matrix[:n1 + j + 1, n1 + j]
        out[j, n1 + 1 + j:] = matrix[j, j:n1]
    return out


class TestPackedLayout:
    """The factor's diagonal blocks, each packed and transposed
    (``TRANSR='T'``)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pair_factor_leads_with_the_speech_factor(self, seed):
        case = make_case(seed)
        L = case.max_delay
        # that it factorizes the Gram is test_factor_is_the_factorized_gram
        joint = build_basis([case.s, case.n], L)
        n1 = L // 2
        assert joint._factor.ss.shape == (L - n1, 2 * n1 + 1)
        assert joint._factor.ss.flags.f_contiguous
        speech = np.linalg.cholesky(joint.gram[:L, :L]).T
        lead = _unpacked(joint._factor.ss.T)
        assert np.max(np.abs(lead - speech)) <= 1e-12 * np.max(np.abs(speech))


def _lowpass_pair(T, seed=0):
    rng = np.random.default_rng(seed)
    return [Waveform(lowpass_noise(rng, T), RATE) for _ in range(2)]


def breakdown_case(kind, arg):
    """References and L of a Gram whose Schur steps break down at a pivot,
    with T >= 2L and a positive definite corner."""
    if kind == "delayed":  # n is s delayed by arg < L: noise delay 0 is speech delay arg
        s = lowpass_noise(np.random.default_rng(arg), 200)
        return [Waveform(s, RATE), Waveform(np.concatenate((np.zeros(arg), s[:-arg])), RATE)], 8
    if kind == "impulse":  # an impulse at the last sample: its delays past 0 are all-zero
        return [Waveform([0.0] * 7 + [1.0], RATE), Waveform(np.arange(8.0) % 3 - 1.0, RATE)], 3
    if kind == "float32":  # tier-1's pinned float32 cases, condition near 1e16
        s, n, _ = _band_limited_references(arg, kind)
        return [s, n], 256
    # the 4-sample running example at L = 2: s delayed by 1 is n, singular at a
    # pivot that rounding alone keeps from zero
    return [Waveform([1.0, 0.0, 0.0, 0.0], RATE), Waveform([0.0, 1.0, 0.0, 0.0], RATE)], arg


class TestRefusal:
    """A Gram the Schur steps cannot factor is refused, by an error naming
    its cause; no other factor is tried."""

    @staticmethod
    def refuse_allocation(monkeypatch):
        def refuse(*args):
            raise AssertionError("the factor was allocated")
        monkeypatch.setattr(projection_module, "_allocate", refuse)

    @pytest.mark.parametrize("refs,L", [(_lowpass_pair(48, 96), 48), (_lowpass_pair(49), 25),
                                        (_lowpass_pair(2), 2)],
                             ids=["L=T=48", "T=49-L=25", "L=T=2"])
    def test_too_few_samples_refused_before_allocation(self, monkeypatch, refs, L):
        # 2L delayed copies in R^T with T < 2L are linearly dependent
        self.refuse_allocation(monkeypatch)
        T = len(refs[0])
        with pytest.raises(ValueError, match=rf"^max_delay L={L} needs T >= 2L samples, got "
                                             rf"T={T}: .*; lower -L to at most T//2 = "
                                             rf"{T // 2}$"):
            build_basis(refs, L)

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_noise_a_multiple_of_speech_refused_before_allocation(self, monkeypatch, seed):
        case = make_case(seed)
        self.refuse_allocation(monkeypatch)
        for scale in (1.0, 2.0, -0.5):
            noise = Waveform(scale * case.s.samples, RATE)
            with pytest.raises(SingularProjectionError,
                               match=r"^the noise reference is a multiple of the speech "
                                     r"reference: .* not positive definite \(determinant "
                                     rf".*, L={case.max_delay}\)$"):
                build_basis([case.s, noise], case.max_delay)

    @pytest.mark.parametrize("kind,arg,step,block", [
        ("delayed", 3, 8, "noise block, delay 0"), ("delayed", 7, 8, "noise block, delay 0"),
        ("impulse", 0, 1, "speech block, delay 1"), ("running", 2, 2, "noise block, delay 0"),
        ("float32", 5, 275, "noise block, delay 19"),
        ("float32", 6, 274, "noise block, delay 18")],
        ids=["delayed-3", "delayed-7", "impulse", "running-2", "float32-5", "float32-6"])
    def test_pivot_at_the_rounding_floor_names_its_step(self, kind, arg, step, block):
        refs, L = breakdown_case(kind, arg)
        with pytest.raises(SingularProjectionError) as raised:
            build_basis(refs, L)
        message = str(raised.value)
        named = re.fullmatch(r"the Gram is singular to working precision: Schur step (\d+) of "
                             rf"{2 * L} \((speech|noise) block, delay (\d+)\) leaves a pivot "
                             r"delta\^2 = (\S+), at or below the rounding floor (\S+) = "
                             rf"2L\*eps\*G_(00|LL) \(L={L}\)", message)
        assert named, message
        i, which, delay, delta2, floor, diagonal = named.groups()
        assert int(delay) == int(i) % L and (which == "noise") == (int(i) >= L)
        assert diagonal == ("LL" if which == "noise" else "00")
        assert float(delta2) <= float(floor)
        assert f"step {step} of {2 * L} ({block})" in message


class TestSchurFactor:
    """The factor written from the Gram's displacement generator."""

    BACKWARD_TOL = INVARIANT_TOLERANCES["factor_backward_rel"]

    @staticmethod
    def generator(refs, L):
        return projection_module._generator(*_lag_rows_of(refs, L), L)

    @staticmethod
    def fill_with_nan(monkeypatch):
        """Have every factor's triangles allocated filled with NaN."""
        empty = projection_module._empty_split_factor

        def nan_filled(*args):
            factor = empty(*args)
            factor.ss.fill(np.nan)
            factor.nn.fill(np.nan)
            return factor
        monkeypatch.setattr(projection_module, "_empty_split_factor", nan_filled)

    def check_generator_identity(self, refs, L):
        gram = _gram_of(refs, L)
        shift = np.kron(np.eye(2), np.eye(L, k=-1))  # F = Z ⊕ Z
        gen = self.generator(refs, L)
        assert gen.shape == (5, 2 * L)
        displacement = gen.T @ np.diag([1.0, 1.0, -1.0, -1.0, -1.0]) @ gen
        assert np.max(np.abs(gram - shift @ gram @ shift.T - displacement)) \
            <= 1e-13 * np.max(np.abs(gram))

    @pytest.mark.parametrize("seed", range(6))  # L = 1, 4 and 16
    def test_generator_identity(self, seed):
        case = make_case(seed)
        self.check_generator_identity([case.s, case.n], case.max_delay)

    @pytest.mark.parametrize("T,L", [(50, 7), (50, 6), (10, 1), (12, 12), (13, 13)])
    def test_generator_identity_odd_even_and_edge_delays(self, T, L):
        # at L = T the Gram is singular, yet its generator is still exact
        self.check_generator_identity(_lowpass_pair(T, T + L), L)

    def check_backward_error(self, refs, L):
        basis = build_basis(refs, L)
        upper, gram = _unpacked_factor(basis._factor), basis.gram
        assert np.linalg.norm(upper.T @ upper - gram) <= self.BACKWARD_TOL * np.linalg.norm(gram)

    @pytest.mark.parametrize("seed", range(8))
    def test_factor_backward_error(self, seed):
        case = make_case(seed)
        self.check_backward_error([case.s, case.n], case.max_delay)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_factor_backward_error_on_band_limited_pcm16(self, seed):
        # condition near 1e9, T = 16000, L = 256
        s, n, _ = _band_limited_references(seed, "pcm16")
        self.check_backward_error([s, n], 256)

    # at L = 150 the 75 leading rows of each triangle are written in two blocks
    @pytest.mark.parametrize("T,L", [(64, 1), (64, 7), (64, 8), (200, 33), (4066, 32),
                                     (600, 150)])
    def test_every_packed_entry_is_written(self, monkeypatch, T, L):
        self.fill_with_nan(monkeypatch)
        factor = build_basis(_lowpass_pair(T), L)._factor
        assert factor.ss.flags.f_contiguous and factor.nn.flags.f_contiguous
        assert not any(np.isnan(a).any() for a in factor)

    @pytest.mark.parametrize("kind,arg", [*(("random", seed) for seed in range(8)),
                                          *(("pcm16", seed) for seed in (5, 6, 7)),
                                          ("T=64000", 512)])
    def test_implied_cross_block_is_the_schur_steps_one(self, monkeypatch, kind, arg):
        # U_sn = U_ss⁻ᵀ G_sn, as the solves use it, against the rows the
        # full-width Schur steps i < L make in the noise block's columns and
        # drop: row i is the generator image's row 0 when step i writes the
        # U_ss part of it (measured: up to 1.1e-13 on the pcm16 cases)
        if kind == "random":
            case = make_case(arg)
            refs, L = [case.s, case.n], case.max_delay
        elif kind == "pcm16":
            refs, L = list(_band_limited_references(arg, kind)[:2]), 256
        else:
            refs, L = _lowpass_pair(64000), arg
        steps, write = [], projection_module._write_row

        def recording(packed, i, row, lead):
            if len(steps) < L:
                steps.append(row.base[0, L:].copy())
            write(packed, i, row, lead)
        monkeypatch.setattr(projection_module, "_write_row", recording)
        implied = _unpacked_factor(build_basis(refs, L)._factor)[:L, L:]
        full_width = np.array(steps)
        assert np.linalg.norm(implied - full_width) <= \
            self.BACKWARD_TOL * np.linalg.norm(full_width)

    def test_well_conditioned_basis_is_not_refused(self):
        for seed in range(12):
            case = make_case(seed)
            assert build_basis([case.s, case.n], case.max_delay).max_delay == case.max_delay
        s, n, _ = _band_limited_references(5, "pcm16")
        assert build_basis([s, n], 256)._factor.ss.size == 256 * 257 // 2


class TestCrossProduct:
    """Products with the cross block ``G_sn`` and its transpose, from the lag
    row and reversed tails a basis keeps (``_cross_product``)."""

    @staticmethod
    def cross_data(refs, L):
        """The ``_SplitFactor`` of ``refs`` with its triangles unwritten: the
        product reads only the lag row and tails."""
        arrays, rows = _lag_rows_of(refs, L)
        return projection_module._empty_split_factor(L, rows[0, 1], arrays)

    @pytest.mark.parametrize("L", [1, 7, 8, 33])
    @pytest.mark.parametrize("extra", [0, 1])  # T = 2L and T = 2L + 1
    @pytest.mark.parametrize("m", [1, 3])
    def test_products_are_the_gram_blocks(self, L, extra, m):
        refs = _lowpass_pair(2 * L + extra, seed=L + extra)
        gram = build_basis(refs, L).gram
        factor = self.cross_data(refs, L)
        c = np.asfortranarray(np.random.default_rng(m).standard_normal((L, m)))
        for transpose, block in ((False, gram[:L, L:]), (True, gram[L:, :L])):
            product = projection_module._cross_product(factor, c, transpose)
            assert product.shape == (L, m) and product.flags.f_contiguous
            expected = block @ c
            assert np.linalg.norm(product - expected) <= 1e-12 * np.linalg.norm(expected)
            for j in range(m):  # bitwise the column alone
                alone = projection_module._cross_product(factor, c[:, j:j + 1], transpose)
                assert np.array_equal(product[:, j], alone[:, 0])


class TestProject:
    def test_member_is_fixed_point(self):
        rng = np.random.default_rng(0)
        s, n = (Waveform(lowpass_noise(rng, 200), RATE) for _ in range(2))
        basis = build_basis([s, n], 4)
        assert_allclose(projections(basis, s)[0], s.samples, rtol=0, atol=1e-12)

    def test_running_example_joint_reference(self, running_example):
        s, n, s_hat, _ = running_example
        basis = build_basis([s, n], 1)
        assert_allclose(projections(basis, s_hat)[1], [0.9, 0.2, 0.0, 0.0], atol=1e-14)

    def test_length_and_rate_validated(self, running_example):
        s, n, _, _ = running_example
        basis = build_basis([s, n], 1)
        with pytest.raises(ValueError, match="^project: length mismatch"):
            project(basis, [Waveform([1.0, 2.0], RATE)])
        with pytest.raises(ValueError, match=r"^project: sample rate mismatch \(8000 vs 16000"):
            project(basis, [s, Waveform([1.0, 0.0, 0.0, 0.0], 8000)])
        with pytest.raises(ValueError, match="^project: expected at least one signal, got an "
                                             "empty batch$"):
            project(basis, [])

    def test_nested_refs(self, running_example):
        s, n, s_hat, _ = running_example
        basis = build_basis([s, n], 1)
        z, c_s, c = project(basis, [s_hat])
        assert z.shape == c.shape == (2, 1) and c_s.shape == (1, 1)
        assert_allclose(synthesize(basis, c_s), [[0.9, 0.0, 0.0, 0.0]], atol=1e-14)
        # the row count says which projection: L rows P_s, 2L rows P_sn
        for bad in (c[:, 0], np.zeros((3, 1)), np.zeros((0, 1)), c[None]):
            with pytest.raises(ValueError) as raised:
                synthesize(basis, bad)
            assert str(raised.value) == ("synthesize: expected L=1 or 2L=2 coefficient rows, "
                                         f"got shape {bad.shape}")

    @pytest.mark.parametrize("seed", range(8))
    def test_leading_projection_is_the_speech_projection(self, seed):
        case = make_case(seed)
        joint = build_basis([case.s, case.n], case.max_delay)
        expected = project_dense_oracle([case.s], case.max_delay, case.s_hat).samples
        got = projections(joint, case.s_hat)[0]
        assert np.linalg.norm(got - expected) <= 1e-8 * np.linalg.norm(expected)


class TestBatch:
    """``project`` of m signals and ``synthesize`` of its m-column
    coefficients, on a basis of independent references (``[n]``) and on one
    whose noise reference is the speech one plus 1% of another signal
    (``[s]``, condition near 1e7)."""

    T, L = 3000, 40

    @pytest.fixture(params=["n", "s"])
    def basis_and_signals(self, request):
        rng = np.random.default_rng(7)
        s, n, x, w = (Waveform(lowpass_noise(rng, self.T), RATE) for _ in range(4))
        if request.param == "s":
            n = Waveform(s.samples + 1e-2 * n.samples, RATE)
        return build_basis([s, n], self.L), [x, w]

    def test_batch_is_its_one_column_calls(self, basis_and_signals):
        # bitwise: a decomposition's s_target is synthesized from its column
        # of the batch's c_s, so a batch gives what each signal alone gives
        basis, signals = basis_and_signals
        batch = project(basis, signals)
        assert [a.shape for a in batch] == [(2 * self.L, 2), (self.L, 2), (2 * self.L, 2)]
        p_s, p_sn = synthesize(basis, batch[1]), synthesize(basis, batch[2])
        assert p_s.shape == p_sn.shape == (2, self.T)
        for j, x in enumerate(signals):
            one = project(basis, [x])
            for got, alone in zip(batch, one):
                assert np.array_equal(got[:, j], alone[:, 0])
            assert np.array_equal(p_s[j], synthesize(basis, one[1])[0])
            assert np.array_equal(p_sn[j], synthesize(basis, one[2])[0])

    def test_speech_projection_replays_nothing(self, monkeypatch, basis_and_signals):
        # P_s is synthesized from c_s alone: no solve, no cross block
        basis, signals = basis_and_signals
        _, c_s, _ = project(basis, signals)

        def refuse(*args, **kwargs):
            raise AssertionError("synthesize solved")
        monkeypatch.setattr(projection_module, "_cross_product", refuse)
        monkeypatch.setattr(projection_module, "dtfsm", refuse)
        assert synthesize(basis, c_s).shape == (2, self.T)


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
        for fast, refs in zip(projections(basis, x), ([s], [s, n])):
            dense = project_dense_oracle(refs, self.L, x).samples
            tol = INVARIANT_TOLERANCES["fast_vs_dense_projection_rel"]
            assert np.linalg.norm(fast - dense) <= tol * np.linalg.norm(dense)


def test_production_length_projection_matches_householder_qr():
    # 4 s at 16 kHz, the utterance length the benchmark runs, against the
    # projection onto the orthonormal basis Householder QR gives of the
    # dense 64000 x 128 delayed-copy matrix
    T, L = 64000, 64
    rng = np.random.default_rng(64)
    s, n, w = (lowpass_noise(rng, T) for _ in range(3))
    x = np.convolve(s, [0.8, 0.5, 0.2])[:T] + 0.3 * n + 0.25 * w
    basis = build_basis([Waveform(s, RATE), Waveform(n, RATE)], L)
    fast = projections(basis, Waveform(x, RATE))[1]
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

    nested, px = projections(joint, x)
    px = Waveform(px, RATE)
    scale_x = np.linalg.norm(x.samples)

    # idempotence
    assert np.linalg.norm(projections(joint, px)[1] - px.samples) <= 1e-8 * scale_x
    # symmetry
    lhs, rhs = inner(px, z), float(np.dot(x.samples, projections(joint, z)[1]))
    assert abs(lhs - rhs) <= 1e-8 * scale_x * np.linalg.norm(z.samples)
    # containment: projecting the joint projection onto the speech span
    # equals projecting directly
    via_joint = projections(joint, px)[0]
    direct = project_dense_oracle([s], max_delay, x).samples
    assert np.linalg.norm(via_joint - direct) <= 1e-8 * scale_x
    # the leading block of the joint factor projects onto the speech span
    assert np.linalg.norm(nested - direct) <= 1e-8 * scale_x
    # a mixture lies in the joint span
    y = Waveform(s.samples + n.samples, RATE)
    assert np.linalg.norm(projections(joint, y)[1] - y.samples) \
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
        s, n, _, _ = running_example
        with pytest.raises(ValueError, match="max_delay"):
            build_basis([s, n], 0)
        with pytest.raises(ValueError, match="max_delay"):
            build_basis([s, n], 5)

    def test_zero_reference_rejected(self):
        zero, ramp = Waveform(np.zeros(8), RATE), Waveform(np.arange(8.0), RATE)
        with pytest.raises(ValueError, match="^reference 0 is all-zero$"):
            build_basis([zero, ramp], 2)
        with pytest.raises(ValueError, match="^reference 1 is all-zero$"):
            build_basis([ramp, zero], 2)

    def test_reference_count(self, running_example):
        s, n, _, _ = running_example
        for refs in ([], [s], [s, n, s]):
            with pytest.raises(ValueError, match=r"^expected two references, \[speech, noise\], "
                                                 rf"got {len(refs)}$"):
                build_basis(refs, 1)

    def test_reference_compat(self, running_example):
        s, _, _, _ = running_example
        with pytest.raises(ValueError, match="length"):
            build_basis([s, Waveform([1.0], RATE)], 1)
        with pytest.raises(ValueError, match="rate"):
            build_basis([s, Waveform([1.0, 0.0, 0.0, 0.0], 8000)], 1)


_RESIDENT_GROWTH = """
import json, resource, sys
import numpy as np
from conftest import RATE, lowpass_noise
from opdkit.projection import build_basis
from opdkit.signals import Waveform
T, L = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(0)
s, n = (Waveform(lowpass_noise(rng, T), RATE) for _ in range(2))
build_basis([s, n], 4)  # loads the FFT
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
basis = build_basis([s, n], L)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in kB on Linux
print(json.dumps({"growth": (after - before) * unit,
                  "held": basis._factor.ss.nbytes + basis._factor.nn.nbytes}))
"""


def _subprocess_env() -> dict:
    """The environment with ``src`` and this directory on PYTHONPATH."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(projection_module.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, here, os.environ.get("PYTHONPATH")) if p))


class TestMemory:
    """Memory of a k=2 basis at T=20000, L=1024, whose factor holds two
    packed L-by-L triangles, L(L+1) * 8 = 8.4 MB; an L-by-L block is 8.4 MB
    and a dense Gram 33.6 MB."""

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

    def resident_growth(self) -> dict:
        """Growth of the peak resident size over ``build_basis([s, n])`` in a
        fresh interpreter, which counts every page the build touches beside
        numpy's allocations."""
        result = subprocess.run(
            [sys.executable, "-c", _RESIDENT_GROWTH, str(self.T), str(self.L)],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-3000:]
        return json.loads(result.stdout)

    def basis_bound(self, packed_bytes):
        # the packed factor or Gram, one 2 MiB huge page that its allocation
        # may round up to, and O(T) for spectra, lags and reversed tails;
        # page-rounded columns of a dense Gram (16 MiB more at 4 KiB pages)
        # do not fit
        return packed_bytes + (2 << 20) + 64 * self.T

    @pytest.mark.skipif(sys.platform == "win32", reason="needs resource.getrusage")
    def test_build_holds_one_gram(self):
        # U_ss and U_nn, and no U_sn
        measured = self.resident_growth()
        assert measured["held"] == self.L * (self.L + 1) * 8
        assert measured["growth"] <= self.basis_bound(self.L * (self.L + 1) * 8)

    def test_nested_projection_copies_no_factor_block(self, signals):
        s, n, x = signals
        basis = build_basis([s, n], self.L)
        _, peak = self.traced_peak(lambda: projections(basis, x))
        assert peak < self.L ** 2 * 8


class TestGramSizeCheck:
    def test_schur_factor_over_available_memory_refused(self, monkeypatch):
        # a basis allocates two packed L-by-L triangles, at L = 7
        # 448 bytes, and copies the O(L) lag row and tails of G_sn unguarded
        refs, L = _lowpass_pair(64), 7
        allocated = []
        empty = projection_module._empty_split_factor
        monkeypatch.setattr(projection_module, "_empty_split_factor",
                            lambda *args: allocated.append(empty(*args)) or allocated[-1])
        monkeypatch.setattr(projection_module, "_mem_available", lambda: 447)
        with pytest.raises(ValueError, match=r"^cannot allocate the Gram factor: L=7 needs "
                                             r"L\(L\+1\)\*8 = 448 bytes$"):
            build_basis(refs, L)
        assert allocated == []
        monkeypatch.setattr(projection_module, "_mem_available", lambda: 448)
        factor = build_basis(refs, L)._factor
        assert factor is allocated[0]
        assert factor.ss.nbytes + factor.nn.nbytes == 448
        assert factor.lags.nbytes + factor.tails.nbytes == (4 * L - 3) * 8

    def test_failed_mapping_is_the_size_error(self, monkeypatch):
        # with no MemAvailable to check against, an allocation the system
        # refuses (here 2^57 bytes, beyond any address space) is the same error
        monkeypatch.setattr(projection_module, "_mem_available", lambda: None)
        L = 1 << 27
        with pytest.raises(ValueError, match=r"^cannot allocate the Gram factor: "
                                             rf"L={L} needs L\(L\+1\)\*8 = {L * (L + 1) * 8} "
                                             r"bytes$"):
            projection_module._empty_split_factor(L, np.zeros(1), [np.zeros(2)] * 2)

    def test_no_meminfo_leaves_the_allocation_to_numpy(self, monkeypatch, running_example):
        s, n, _, _ = running_example
        monkeypatch.setattr(projection_module, "_mem_available", lambda: None)
        assert build_basis([s, n], 1)._factor.ss.shape == (1, 1)

    def test_reads_mem_available(self):
        if not os.path.exists("/proc/meminfo"):
            assert projection_module._mem_available() is None
        else:
            assert projection_module._mem_available() > 0


class TestLapackBinding:
    """dpftrf, dtfsm and dsfrk write through raw pointers, so the wrappers
    must refuse an array LAPACK would misread before any call is made."""

    SOURCES = {"numpy-openblas": projection_module._numpy_openblas_pointers,
               "cython-lapack": projection_module._cython_lapack_pointers}

    @pytest.fixture
    def no_call(self, monkeypatch):
        def called(*args):
            raise AssertionError("LAPACK was called")
        fake = projection_module._Lapack(called, called, called, ctypes.c_int64, "none", None)
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

    @staticmethod
    def strided(shape, strides, base_size=36):
        # made, never read: the guards must refuse it before LAPACK sees it
        return np.lib.stride_tricks.as_strided(np.zeros(base_size), shape, strides)

    @pytest.mark.parametrize("bad", ["float32", "c-order", "read-only", "non-square",
                                     "vector", "empty", "outside-base"])
    def test_dpftrf_guard_raises_before_the_call(self, no_call, bad):
        a = {"float32": lambda: _packed(self.spd()).astype(np.float32, order="F"),
             "c-order": lambda: np.ascontiguousarray(_packed(self.spd())),
             "read-only": lambda: _packed(self.spd()),
             # square, so not n1-by-(2 n1 + 1) or (n1 + 1)-by-(2 n1 + 1)
             "non-square": lambda: self.spd(),
             "vector": lambda: np.ones(6),
             "empty": lambda: np.empty((0, 0), order="F"),
             "outside-base": lambda: self.strided((3, 7), (8, 24), base_size=20)}[bad]()
        if bad == "read-only":
            a.flags.writeable = False
        if bad == "outside-base":
            assert a.flags.f_contiguous and a.flags.writeable
        with pytest.raises(ValueError, match="^dpftrf: a "):
            projection_module.dpftrf(a)

    @pytest.mark.parametrize("bad", ["a-c-order", "float32", "c-order", "read-only",
                                     "rows", "3-d", "non-contiguous", "outside-base"])
    def test_dtfsm_guard_raises_before_the_call(self, no_call, bad):
        a = _packed(self.spd())  # order 6
        if bad == "a-c-order":
            a = np.ascontiguousarray(a)
        b = {"float32": lambda: np.ones(6, np.float32),
             "c-order": lambda: np.ones((6, 2)),
             "rows": lambda: np.ones(5),
             "3-d": lambda: np.ones((6, 1, 1), order="F"),
             # columns 8 apart for 6 rows: a strided view, not a whole array
             "non-contiguous": lambda: np.ones((8, 2), order="F")[:6],
             # contiguous, but past the end of a 4-element array
             "outside-base": lambda: self.strided((6,), (8,), base_size=4)
             }.get(bad, lambda: np.ones(6))()
        if bad == "read-only":
            b.flags.writeable = False
        if bad == "outside-base":
            assert b.flags.f_contiguous and b.flags.writeable
        with pytest.raises(ValueError, match="^dtfsm: a " if bad == "a-c-order"
                           else "^dtfsm: b "):
            projection_module.dtfsm(a, b, trans=True)

    def test_dtfsm_refuses_the_other_layout(self, no_call):
        # order 6: (3, 7) with TRANSR='T', the only layout bound; its
        # transpose (7, 3) is that of TRANSR='N'
        a = np.asfortranarray(_packed(self.spd()).T)
        with pytest.raises(ValueError, match="^dtfsm: a must be an "):
            projection_module.dtfsm(a, np.ones(6), trans=True)

    @pytest.mark.parametrize("bad", ["float32", "c-order", "read-only", "columns", "vector",
                                     "empty", "outside-base", "c-packed"])
    def test_dsfrk_guard_raises_before_the_call(self, no_call, bad):
        c = _packed(self.spd())  # order 6
        if bad == "c-packed":
            c = np.ascontiguousarray(c)
        a = {"float32": lambda: np.ones((2, 6), np.float32, order="F"),
             "c-order": lambda: np.ones((2, 6)),
             "columns": lambda: np.ones((2, 5), order="F"),
             "vector": lambda: np.ones(6),
             "empty": lambda: np.empty((0, 6), order="F"),
             # Fortran-contiguous, but past the end of a 4-element array
             "outside-base": lambda: self.strided((2, 6), (8, 16), base_size=4)
             }.get(bad, lambda: np.ones((2, 6), order="F"))()
        if bad == "read-only":
            a.flags.writeable = False
        if bad == "outside-base":
            assert a.flags.f_contiguous and a.flags.writeable
        with pytest.raises(ValueError, match="^dsfrk: a "):
            projection_module.dsfrk(a, c)

    def test_illegal_argument_raises(self, monkeypatch):
        def illegal(*args):
            args[-1].value = -4  # info, passed by reference
        fake = projection_module._Lapack(illegal, illegal, illegal, ctypes.c_int64, "fake",
                                         None)
        monkeypatch.setattr(projection_module, "_lapack", lambda: fake)
        with pytest.raises(ValueError, match="dpftrf: argument 4 had an illegal value"):
            projection_module.dpftrf(_packed(self.spd()))

    def test_factor_and_solves_match_numpy(self, lapack):
        rng = np.random.default_rng(2)
        for n in (40, 41):  # even and odd order
            upper = np.linalg.cholesky(self.spd(n, seed=1)).T
            factor = _packed(upper)
            assert np.array_equal(_unpacked(factor.T), upper)
            for b in (rng.standard_normal(n), np.asfortranarray(rng.standard_normal((n, 3)))):
                for trans, triangle in ((True, upper.T), (False, upper)):
                    x = projection_module.dtfsm(factor, b.copy(order="F"), trans=trans)
                    assert_allclose(x, np.linalg.solve(triangle, b), rtol=1e-12, atol=1e-12)

    def test_transposed_storage_solves_alike(self, lapack):
        # the TRANSR='T' array is the transpose of the TRANSR='N' one, in
        # which _write_row writes rows of the matrix along rows of the array
        rng = np.random.default_rng(3)
        for n in (1, 2, 40, 41):
            upper = np.linalg.cholesky(self.spd(n, seed=n)).T
            packed = np.empty((n - n // 2, 2 * (n // 2) + 1), order="F")
            lead = np.empty((projection_module.BLOCK_ROWS, n // 2))
            for i in range(n):
                projection_module._write_row(packed.T, i, upper[i, i:].copy(), lead)
            assert np.array_equal(packed, _packed(upper))
            for b in (rng.standard_normal(n), np.asfortranarray(rng.standard_normal((n, 3)))):
                for trans, triangle in ((True, upper.T), (False, upper)):
                    x = projection_module.dtfsm(packed, b.copy(order="F"), trans=trans)
                    assert_allclose(x, np.linalg.solve(triangle, b), rtol=1e-10, atol=1e-12)

    def test_rank_update_matches_numpy(self, lapack):
        rng = np.random.default_rng(4)
        for n, k in ((1, 1), (2, 3), (40, 40), (41, 7)):
            c = self.spd(n, seed=n)
            a = np.asfortranarray(rng.standard_normal((k, n)))
            updated = projection_module.dsfrk(a, _packed(c))
            want = c - a.T @ a
            assert_allclose(_unpacked(updated.T), np.triu(want), rtol=0,
                            atol=1e-12 * np.max(np.abs(want)))

    def test_thread_count_read_only_from_numpy_openblas(self, lapack):
        threads = projection_module.openblas_threads()
        if lapack.source == "numpy's OpenBLAS":
            assert isinstance(threads, int) and threads >= 1
        else:
            assert threads is None

    def test_not_positive_definite_reports_the_minor(self, lapack):
        # order 6 splits after row n1 = 3: index 1 fails in U11, index 3 in U22
        for index in (1, 3):
            gram = self.spd()
            gram[index, index] = -1.0
            assert projection_module.dpftrf(_packed(gram))[1] == index + 1

    @pytest.mark.parametrize("seed", range(4))
    def test_projection_matches_dense_oracle(self, lapack, seed):
        case = make_case(seed)
        basis = build_basis([case.s, case.n], case.max_delay)
        fast = projections(basis, case.s_hat)[1]
        dense = project_dense_oracle([case.s, case.n], case.max_delay, case.s_hat)
        tol = INVARIANT_TOLERANCES["fast_vs_dense_projection_rel"]
        assert_allclose(fast, dense.samples, atol=tol * np.linalg.norm(dense.samples))

    def test_every_factor_has_a_positive_diagonal(self, running_example):
        # dtfsm checks no pivot: a solve is safe because every factor that
        # build_basis keeps has a strictly positive diagonal
        s, n, _, _ = running_example
        bases = [build_basis([s, n], 1)]
        for seed in range(8):
            case = make_case(seed)
            bases.append(build_basis([case.s, case.n], case.max_delay))
        for basis in bases:
            assert np.all(np.diagonal(_unpacked_factor(basis._factor)) > 0.0)


def test_thread_count_is_openblas_own():
    # the count OpenBLAS runs with, not a constant: it follows the variable
    probe = "from opdkit.projection import lapack_source, openblas_threads as t; " \
            "print(lapack_source(), t())"
    result = subprocess.run([sys.executable, "-c", probe],
                            env=dict(_subprocess_env(), OPENBLAS_NUM_THREADS="1"),
                            capture_output=True, text=True, timeout=120, check=True)
    if not result.stdout.startswith("numpy's OpenBLAS "):
        pytest.skip("this numpy bundles no OpenBLAS")
    assert result.stdout == "numpy's OpenBLAS 1\n"


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
