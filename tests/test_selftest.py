import numpy as np
import pytest

from opdkit.selftest import (INVARIANT_TOLERANCES, LOWPASS_POLE, _check_case, _lowpass_noise,
                             make_case, run_property_suite)
from opdkit.signals import energy
from test_projection import TestSchurFactor  # collected here too: ROADMAP item 9

import opdkit.projection as projection_module


def test_lowpass_recursion_is_bitwise_lfilter():
    # the suite's cases (and so every reported deviation) are unchanged from
    # when the lowpass was scipy.signal.lfilter; the tests also draw at 0.7
    from scipy.signal import lfilter
    for pole in (LOWPASS_POLE, 0.7):
        for seed in range(100):
            length = int(np.random.default_rng(seed).integers(64, 1025))
            got = _lowpass_noise(np.random.default_rng(seed), length, pole)
            want = lfilter([1.0], [1.0, -pole],
                           np.random.default_rng(seed).standard_normal(length))
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_cases_reproducible_from_seed():
    a, b = make_case(123), make_case(123)
    np.testing.assert_array_equal(a.s.samples, b.s.samples)
    np.testing.assert_array_equal(a.s_hat.samples, b.s_hat.samples)
    assert a.max_delay == b.max_delay


def test_case_kinds():
    perfect = make_case(0, kind="perfect")
    np.testing.assert_array_equal(perfect.s_hat.samples, perfect.s.samples)
    negated = make_case(0, kind="negated-observation")
    np.testing.assert_allclose(negated.s_hat.samples, -negated.y.samples)


def test_case_sizes_within_bounds():
    for seed in range(20):
        case = make_case(seed)
        assert 64 <= len(case.s) <= 1024
        assert case.max_delay in (1, 4, 16)
        assert energy(case.s) > 0


def test_suite_passes_and_reports_every_invariant():
    report = run_property_suite(case_count=25, seed=11)
    assert report.passed, "\n".join(report.lines())
    assert not report.failures
    for name, tol in INVARIANT_TOLERANCES.items():
        assert name in report.deviations or tol == 0.0
        assert report.deviations.get(name, 0.0) <= tol


def test_report_lines_mention_every_invariant():
    report = run_property_suite(case_count=3, seed=0)
    text = "\n".join(report.lines())
    for name in INVARIANT_TOLERANCES:
        assert name in text
    assert "PASS" in text


def test_report_names_each_invariants_worst_case():
    # the named case, run alone, gives the reported worst value exactly, so
    # a regression can be replayed from the report's lines
    report = run_property_suite(case_count=12, seed=7)
    assert set(report.worst) == set(report.deviations)
    lines = report.lines()
    kinds = set()
    for name, (seed, kind) in report.worst.items():
        deviations = {}
        _check_case(make_case(seed, kind), deviations)
        assert deviations[name] == report.deviations[name], name
        assert any(line.split()[1] == name and line.endswith(f"  seed {seed} {kind}")
                   for line in lines), name
        kinds.add(kind)
    assert kinds == {"random", "perfect", "negated-observation"}


def test_report_names_the_lapack_it_ran_on(monkeypatch):
    # the two LAPACK sources round differently, so a report names its own
    try:
        projection_module._numpy_openblas_pointers()
        default = "numpy's OpenBLAS"
    except AttributeError:
        default = "scipy.linalg.cython_lapack"
    assert f"LAPACK: {default}" in run_property_suite(case_count=2, seed=0).lines()
    forced = projection_module._bind_lapack(projection_module._cython_lapack_pointers)
    monkeypatch.setattr(projection_module, "_lapack", lambda: forced)
    report = run_property_suite(case_count=2, seed=0)
    assert report.passed
    assert "LAPACK: scipy.linalg.cython_lapack" in report.lines()


def test_case_count_validated():
    with pytest.raises(ValueError):
        run_property_suite(case_count=0)
