import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import RATE, random_signals
from opdkit.decomposition import (Decomposer, Decomposition, cross_gram, export_components,
                                  recompose)
from opdkit.selftest import INVARIANT_TOLERANCES, make_case
from opdkit.signals import Waveform, add, energy
from opdkit.wavio import read_wav


def test_running_example_components(running_example):
    s, n, s_hat, _ = running_example
    d = Decomposer(s, n, 1).decompose(s_hat)
    assert_allclose(d.s_target.samples, [0.9, 0.0, 0.0, 0.0], atol=1e-14)
    assert_allclose(d.e_noise.samples, [0.0, 0.2, 0.0, 0.0], atol=1e-14)
    assert_allclose(d.e_artif.samples, [0.0, 0.0, 0.1, 0.0], atol=1e-14)
    assert not d.artifact_free


def test_perfect_enhancement(running_example):
    s, n, _, _ = running_example
    d = Decomposer(s, n, 1).decompose(s)
    assert_allclose(d.s_target.samples, s.samples, atol=1e-14)
    assert energy(d.e_noise) <= 1e-24
    assert energy(d.e_artif) <= 1e-24
    assert d.artifact_free


def test_mixture_splits_into_target_and_noise(running_example):
    s, n, _, y = running_example
    d = Decomposer(s, n, 1).decompose(y)
    assert_allclose(d.s_target.samples, s.samples, atol=1e-12)
    assert_allclose(d.e_noise.samples, n.samples, atol=1e-12)
    assert d.artifact_free


def test_recompose_is_exact(running_example):
    s, n, s_hat, _ = running_example
    d = Decomposer(s, n, 1).decompose(s_hat)
    assert_allclose(recompose(d).samples, [0.9, 0.2, 0.1, 0.0], atol=1e-15)


def test_recompose_zero_components(running_example):
    s, n, _, _ = running_example
    d = Decomposer(s, n, 1).decompose(Waveform(np.zeros(4), RATE))
    for name in ("s_target", "e_noise", "e_artif"):
        assert_array_equal(getattr(d, name).samples, np.zeros(4))
    assert_array_equal(recompose(d).samples, np.zeros(4))
    assert d.artifact_free


@pytest.mark.parametrize("seed", range(5))
def test_reconstruction_on_random_cases(seed):
    s, n, s_hat = random_signals(seed)
    d = Decomposer(s, n, 8).decompose(s_hat)
    rel = (np.linalg.norm(recompose(d).samples - s_hat.samples)
           / np.linalg.norm(s_hat.samples))
    assert rel <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_linearity_of_redecomposition(seed):
    rng = np.random.default_rng(1000 + seed)
    s, n, s_hat = random_signals(seed)
    dec = Decomposer(s, n, max_delay=8)
    d = dec.decompose(s_hat)
    a, b = rng.uniform(0.1, 3.0, 2)
    modified = Waveform(d.s_target.samples + a * d.e_noise.samples
                        + b * d.e_artif.samples, RATE)
    d2 = dec.decompose(modified)
    scale_ref = np.linalg.norm(s_hat.samples)
    assert np.linalg.norm(d2.s_target.samples - d.s_target.samples) <= 1e-8 * scale_ref
    assert np.linalg.norm(d2.e_noise.samples - a * d.e_noise.samples) <= 1e-8 * scale_ref
    assert np.linalg.norm(d2.e_artif.samples - b * d.e_artif.samples) <= 1e-8 * scale_ref


def test_one_correlation_pass_and_two_triangular_solves(monkeypatch):
    # a decomposition is one right-hand side, one project (a forward and a
    # back substitution, which also give the P_s coefficients c_s) and one
    # synthesis (P_sn x, for e_artif); reading s_target adds one synthesis
    # (P_s x, from c_s) and no solve.  Each
    # substitution is three dtfsm on the diagonal blocks and one product
    # with the cross block G_sn.
    import opdkit.decomposition as decomposition_module
    import opdkit.projection as projection_module
    assert decomposition_module.project is projection_module.project
    case = make_case(0)
    dec = Decomposer(case.s, case.n, case.max_delay)
    assert isinstance(dec.basis._factor, projection_module._SplitFactor)
    calls = dict.fromkeys(["_block_spectra", "_solve", "_cross_product", "dtfsm", "project",
                           "synthesize"], 0)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(decomposition_module, "project")
    counted(decomposition_module, "synthesize")
    for name in ("_block_spectra", "_solve", "_cross_product", "dtfsm"):
        counted(projection_module, name)
    decomposed = {"_block_spectra": 1, "_solve": 1, "_cross_product": 2, "dtfsm": 6,
                  "project": 1, "synthesize": 1}
    d = dec.decompose(case.s_hat)
    assert calls == decomposed
    d.gram, d.e_artif
    assert calls == decomposed
    d.s_target, d.e_noise
    assert calls == dict(decomposed, synthesize=2)


def test_energy_pythagoras(running_example):
    s, n, s_hat, _ = running_example
    d = Decomposer(s, n, 1).decompose(s_hat)
    projected = d.s_target.samples + d.e_noise.samples
    lhs = energy(s_hat)
    rhs = float(projected @ projected) + energy(d.e_artif)
    assert abs(lhs - rhs) <= 1e-8 * lhs


def test_mixture_has_no_artifacts(running_example):
    s, n, _, y = running_example
    d = Decomposer(s, n, 1).decompose(y)
    assert np.linalg.norm(d.e_artif.samples) <= 1e-8 * np.linalg.norm(y.samples)


def test_decomposer_matches_one_shot(running_example):
    # a Decomposer shared across signals gives what a fresh one gives
    s, n, s_hat, y = running_example
    one_shot = Decomposer(s, n, 1).decompose(s_hat)
    dec = Decomposer(s, n, max_delay=1)
    dec.decompose(y)
    shared = dec.decompose(s_hat)
    for name in ("s_target", "e_noise", "e_artif"):
        assert_array_equal(getattr(shared, name).samples, getattr(one_shot, name).samples)


def test_zero_references_rejected(running_example):
    s, n, s_hat, _ = running_example
    zero = Waveform(np.zeros(4), RATE)
    with pytest.raises(ValueError, match="all-zero"):
        Decomposer(zero, n, 1).decompose(s_hat)
    with pytest.raises(ValueError, match="all-zero"):
        Decomposer(s, zero, 1).decompose(s_hat)


def test_length_mismatch_rejected(running_example):
    s, n, _, _ = running_example
    with pytest.raises(ValueError, match="length") as raised:
        Decomposer(s, n, 1).decompose(Waveform([1.0, 2.0], RATE))
    assert str(raised.value).startswith("project: ")  # the routine that raised it
    with pytest.raises(ValueError, match="^project: expected at least one signal"):
        Decomposer(s, n, 1).decompose_batch([])


def test_export_components(tmp_path, running_example):
    s, n, s_hat, _ = running_example
    d = Decomposer(s, n, 1).decompose(s_hat)
    paths = export_components(d, tmp_path, "utt0")
    assert sorted(p.split("utt0")[-1] for p in paths.values()) == \
        [".eartif.wav", ".enoise.wav", ".target.wav"]
    back = read_wav(tmp_path / "utt0.target.wav")
    assert_allclose(back.samples, [0.9, 0.0, 0.0, 0.0], atol=1e-7)


def _waveform_products(a: Decomposition, b: Decomposition) -> np.ndarray:
    parts_a, parts_b = (np.stack([d.s_target.samples, d.e_noise.samples, d.e_artif.samples])
                        for d in (a, b))
    return parts_a @ parts_b.T


def _band_limited_case(seed):
    # references through a 401-tap windowed-sinc lowpass at a quarter of the
    # band (Gram condition about 1e9 at L=32), a white artifact
    rng = np.random.default_rng(seed)
    T, taps = 8000, np.arange(401) - 200
    fir = 0.25 * np.sinc(0.25 * taps) * np.hamming(401)
    s, n = (np.convolve(rng.standard_normal(T), fir)[:T] for _ in range(2))
    w = rng.standard_normal(T)
    s_hat = s + 0.3 * n + 0.5 * w * np.linalg.norm(s) / np.linalg.norm(w)
    return Waveform(s, RATE), Waveform(n, RATE), Waveform(s_hat, RATE), 32


def _oracle_case(kind, seed):
    if kind == "band-limited":
        return _band_limited_case(seed)
    case = make_case(seed, kind=kind)
    return case.s, case.n, case.s_hat, case.max_delay


@pytest.mark.parametrize("kind,seed", [("random", seed) for seed in range(12)]
                         + [("perfect", 0), ("negated-observation", 1)]
                         + [("band-limited", seed) for seed in range(3)])
def test_gram_and_cross_block_match_the_synthesized_waveforms(kind, seed):
    # the coefficient-space Gram and OA cross block against the products of
    # the waveforms they stand for
    s, n, s_hat, L = _oracle_case(kind, seed)
    dec = Decomposer(s, n, L)
    d, d_y = dec.decompose(s_hat), dec.decompose(add(s, n))
    for x in (d, d_y):
        assert type(x) is Decomposition
    got = {"gram": d.gram, "gram_y": d_y.gram, "cross": cross_gram(d, d_y)}
    want = {"gram": _waveform_products(d, d), "gram_y": _waveform_products(d_y, d_y),
            "cross": _waveform_products(d, d_y)}
    largest = max(np.max(np.diag(d.gram)), np.max(np.diag(d_y.gram)))
    for name in got:
        assert (np.max(np.abs(got[name] - want[name]))
                <= INVARIANT_TOLERANCES["coefficient_gram_rel"] * largest), name


def test_cross_gram_refuses_two_bases():
    # coefficients are coordinates of one basis only
    case = make_case(0)
    a = Decomposer(case.s, case.n, case.max_delay).decompose(case.s_hat)
    b = Decomposer(case.s, case.n, case.max_delay).decompose(case.s_hat)
    with pytest.raises(ValueError, match=r"^cross_gram: the decompositions are on two "
                                         r"different bases"):
        cross_gram(a, b)
    assert_array_equal(cross_gram(a, a), a.gram)
