"""Randomized cross-validation of the numerical core against brute force.

Each case draws correlated (one-pole lowpass filtered) Gaussian signals,
runs the full decomposition/analysis stack, and checks every advertised
identity against independent oracles: the projections of one Householder
QR of the dense delayed-copy matrix (``projection.oracle_decomposition``,
refused beyond the available memory before it allocates), explicit
delayed-copy matrices, re-decomposition of modified signals, and the
synthesized waveforms behind every coefficient-space Gram.
Correlated rather than white noise is used on purpose; it stresses the Gram
conditioning the way real speech does.  The lowpass is a plain recursion,
so the suite needs numpy alone; the CLI imports this module only under
``--self-test``.

The suite reports the maximum observed deviation per invariant, with the
seed and kind of the case that set it (``make_case(seed, kind)``), and fails
with the offending seed on any violation.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import dsa_synthesize, oa_apply
from .decomposition import Decomposer, cross_gram, recompose
from .metrics import compute_metrics, sar_improvement_closed_form
from .projection import _unpacked_factor, delayed_matrix, lapack_source, oracle_decomposition
from .signals import Waveform, add, energy, inner, scale

__all__ = ["OracleCase", "SelfTestReport", "make_case", "run_property_suite",
           "INVARIANT_TOLERANCES"]

SAMPLE_RATE = 16000
LOWPASS_POLE = 0.9
CASE_MAX_DELAYS = (1, 4, 16)

INVARIANT_TOLERANCES = {
    "reconstruction_rel": 1e-10,
    "gram_vs_dense_rel": 1e-8,
    "factor_backward_rel": 1e-12,
    "coefficient_gram_rel": 1e-8,
    "fast_vs_dense_projection_rel": 1e-8,
    "error_orthogonality_rel": 1e-8,
    "projection_idempotence_rel": 1e-8,
    "projection_symmetry_rel": 1e-8,
    "projection_containment_rel": 1e-8,
    "mixture_in_span_rel": 1e-8,
    "energy_pythagoras_rel": 1e-8,
    "mixture_artifact_rel": 1e-8,
    "projection_inner_identity_rel": 1e-8,
    "oa_artifact_invariance_rel": 1e-8,
    "oa_sari_closed_form_db": 1e-6,
    "oa_sar_monotonicity_violations": 0.0,
    "oa_noise_error_formula_rel": 1e-8,
    "dsa_linearity_rel": 1e-8,
    "dsa_snr_law_db": 1e-6,
    "degenerate_case_violations": 0.0,
    "adversarial_case_violations": 0.0,
}

OA_CHECK_GRID = [round(0.1 * i, 10) for i in range(16)]   # 0.0 .. 1.5
DSA_CHECK_POINTS = [(0.25, 2.0), (0.5, 0.5), (2.0, 0.25)]


@dataclass(frozen=True, eq=False)
class OracleCase:
    """One reproducible randomized test signal set."""

    seed: int
    kind: str
    max_delay: int
    s: Waveform
    n: Waveform
    s_hat: Waveform

    @property
    def y(self) -> Waveform:
        return add(self.s, self.n)


@dataclass
class SelfTestReport:
    case_count: int
    seed: int
    elapsed_s: float = 0.0
    lapack: str = ""  # the library the factor and solves ran on; they round differently
    deviations: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)  # invariant -> (seed, kind) of its maximum
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        if self.failures:
            return False
        return all(self.deviations.get(name, 0.0) <= tol
                   for name, tol in INVARIANT_TOLERANCES.items())

    def lines(self) -> list[str]:
        out = []
        for name, tol in INVARIANT_TOLERANCES.items():
            value = self.deviations.get(name, 0.0)
            status = "ok" if value <= tol else "FAIL"
            worst = "  seed {} {}".format(*self.worst[name]) if name in self.worst else ""
            out.append(f"{status:4s} {name:36s} max {value:.3e}  (tol {tol:g}){worst}")
        for failure in self.failures:
            out.append(f"FAIL {failure}")
        out.append(f"LAPACK: {self.lapack}")
        out.append(f"{self.case_count} cases, seed {self.seed}, "
                   f"{self.elapsed_s:.1f} s: {'PASS' if self.passed else 'FAIL'}")
        return out


def _lowpass_noise(rng: np.random.Generator, length: int,
                   pole: float = LOWPASS_POLE) -> np.ndarray:
    """White Gaussian noise through ``y[t] = x[t] + pole·y[t-1]``."""
    y = rng.standard_normal(length).tolist()  # Python floats: 3x faster than indexing
    for t in range(1, length):
        y[t] += pole * y[t - 1]
    return np.array(y)


def make_case(seed: int, kind: str = "random") -> OracleCase:
    """Build one case; ``kind`` is 'random', 'perfect', or 'negated-observation'."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        length = int(rng.integers(64, 1025))
        max_delay = CASE_MAX_DELAYS[seed % len(CASE_MAX_DELAYS)]
    else:
        length, max_delay = 256, 4
    s = _lowpass_noise(rng, length)
    n = _lowpass_noise(rng, length)

    if kind == "perfect":
        s_hat = s.copy()
    elif kind == "negated-observation":
        s_hat = -(s + n)
    else:
        # a short random FIR of the references keeps s_hat partly inside the
        # delayed-copy span; the extra filtered noise is the artifact part
        fir_len = min(max_delay, 3)
        fir_s = np.zeros(fir_len)
        fir_s[0] = rng.uniform(0.5, 1.2)
        fir_s[1:] = rng.uniform(-0.2, 0.2, fir_len - 1)
        fir_n = rng.uniform(0.05, 0.4, fir_len) * rng.choice([-1.0, 1.0], fir_len)
        w = _lowpass_noise(rng, length)
        w *= rng.uniform(0.1, 0.5) * np.linalg.norm(s) / np.linalg.norm(w)
        s_hat = (np.convolve(s, fir_s)[:length]
                 + np.convolve(n, fir_n)[:length] + w)

    return OracleCase(
        seed=seed, kind=kind, max_delay=max_delay,
        s=Waveform(s, SAMPLE_RATE), n=Waveform(n, SAMPLE_RATE),
        s_hat=Waveform(s_hat, SAMPLE_RATE),
    )


def _rel(diff: np.ndarray, ref_norm: float) -> float:
    return float(np.linalg.norm(diff)) / max(ref_norm, 1e-300)


def _check_case(case: OracleCase, dev: dict) -> None:
    def bump(name, value):
        dev[name] = max(dev.get(name, 0.0), float(value))

    s, n, s_hat, y, L = case.s, case.n, case.s_hat, case.y, case.max_delay
    scale_floor = 1e-10 * np.linalg.norm(s_hat.samples)
    dec = Decomposer(s, n, L)
    d = dec.decompose(s_hat)
    p_sn = d.s_target.samples + d.e_noise.samples

    # reconstruction of the input from the three parts
    bump("reconstruction_rel",
         _rel(recompose(d).samples - s_hat.samples, np.linalg.norm(s_hat.samples)))

    # Gram matrix against the explicit delayed-copy matrix
    a_joint = delayed_matrix(np.stack([s.samples, n.samples]), L)
    gram_dense = a_joint.T @ a_joint
    bump("gram_vs_dense_rel",
         np.max(np.abs(dec.basis.gram - gram_dense)) / np.max(np.abs(gram_dense)))

    # the factor, with its cross block U_ss⁻ᵀ G_sn as the solves use it,
    # against the Gram it factorizes
    upper = _unpacked_factor(dec.basis._factor)
    bump("factor_backward_rel",
         np.linalg.norm(upper.T @ upper - dec.basis.gram) / np.linalg.norm(gram_dense))

    # fast projections against the QR oracle's
    dense_s, dense_noise, _ = oracle_decomposition(s, n, s_hat, L)
    dense_sn = dense_s.samples + dense_noise.samples
    bump("fast_vs_dense_projection_rel",
         _rel(d.s_target.samples - dense_s.samples, np.linalg.norm(dense_s.samples)))
    bump("fast_vs_dense_projection_rel", _rel(p_sn - dense_sn, np.linalg.norm(dense_sn)))

    # error components orthogonal to the delayed copies they must not
    # contain; the angle is meaningless for dust-sized components, so those
    # are skipped (they are checked as dust by the metric tests instead)
    a_speech = a_joint[:, :L]
    col_norms = np.linalg.norm(a_joint, axis=0)
    dust_norm = 1e-6 * np.linalg.norm(s_hat.samples)
    e_a_norm = np.linalg.norm(d.e_artif.samples)
    e_n_norm = np.linalg.norm(d.e_noise.samples)
    if e_a_norm > dust_norm:
        bump("error_orthogonality_rel",
             np.max(np.abs(a_joint.T @ d.e_artif.samples) / (col_norms * e_a_norm)))
    if e_n_norm > dust_norm:
        bump("error_orthogonality_rel",
             np.max(np.abs(a_speech.T @ d.e_noise.samples) / (col_norms[:L] * e_n_norm)))

    # projector identities, through the decompositions the commands make:
    # a decomposition's ``projected`` is P_sn x and its ``s_target`` P_s x
    p_sn_wave = Waveform(p_sn, s_hat.sample_rate)
    d_p = dec.decompose(p_sn_wave)
    bump("projection_idempotence_rel", _rel(d_p.projected - p_sn, np.linalg.norm(p_sn)))
    probe = Waveform(_lowpass_noise(np.random.default_rng(case.seed + 10_000), len(s)),
                     s.sample_rate)
    lhs = inner(p_sn_wave, probe)
    rhs = float(np.dot(s_hat.samples, dec.decompose(probe).projected))
    bump("projection_symmetry_rel",
         abs(lhs - rhs) / (np.linalg.norm(s_hat.samples) * np.linalg.norm(probe.samples)))
    bump("projection_containment_rel",
         _rel(d_p.s_target.samples - d.s_target.samples,
              max(np.linalg.norm(d.s_target.samples), scale_floor)))
    d_y = dec.decompose(y)
    y_proj = d_y.s_target.samples + d_y.e_noise.samples
    bump("mixture_in_span_rel", _rel(y_proj - y.samples, np.linalg.norm(y.samples)))

    # the coefficient-space Grams and OA cross block against the products of
    # the synthesized waveforms, relative to the largest energy
    parts, parts_y = (np.stack([c.s_target.samples, c.e_noise.samples, c.e_artif.samples])
                      for c in (d, d_y))
    largest = max(np.max(np.diag(d.gram)), np.max(np.diag(d_y.gram)))
    for got, want in ((d.gram, parts @ parts.T), (d_y.gram, parts_y @ parts_y.T),
                      (cross_gram(d, d_y), parts @ parts_y.T)):
        bump("coefficient_gram_rel", np.max(np.abs(got - want)) / largest)

    # energy split and the mixture's lack of artifacts
    total = energy(s_hat)
    bump("energy_pythagoras_rel",
         abs(total - (float(np.dot(p_sn, p_sn)) + energy(d.e_artif))) / total)
    bump("mixture_artifact_rel",
         _rel(d_y.e_artif.samples, np.linalg.norm(y.samples)))

    # <P s_hat, y> == <s_hat, y>
    bump("projection_inner_identity_rel",
         abs(float(np.dot(p_sn, y.samples)) - inner(s_hat, y))
         / (np.linalg.norm(s_hat.samples) * np.linalg.norm(y.samples)))

    if case.kind == "perfect":
        _check_perfect(case, dec, d, dev)
        return
    if case.kind == "negated-observation":
        _check_negated(case, d, dev)
        return

    baseline = compute_metrics(d)
    saris = sar_improvement_closed_form(d, y, OA_CHECK_GRID)

    # observation adding across the grid
    sars = []
    e_artif_norm = max(np.linalg.norm(d.e_artif.samples), scale_floor)
    for omega, sari in zip(OA_CHECK_GRID, saris):
        d_bar = dec.decompose(oa_apply(s_hat, y, omega))
        report = compute_metrics(d_bar)
        sars.append(report.sar_db)
        bump("oa_artifact_invariance_rel",
             _rel(d_bar.e_artif.samples - d.e_artif.samples, e_artif_norm))
        if np.isfinite(report.sar_db) and np.isfinite(baseline.sar_db):
            bump("oa_sari_closed_form_db",
                 abs(sari - (report.sar_db - baseline.sar_db)))
        expected = d.e_noise.samples + omega * d_y.e_noise.samples
        expected_energy = float(np.dot(expected, expected))
        bump("oa_noise_error_formula_rel",
             abs(energy(d_bar.e_noise) - expected_energy)
             / max(expected_energy, scale_floor ** 2))
    if inner(s_hat, y) > 0.0 and all(np.isfinite(sars)):
        bump("oa_sar_monotonicity_violations",
             sum(1 for a, b in zip(sars, sars[1:]) if not b > a))

    # direct scaling linearity and the SNR shift law
    for omega_noise, omega_artif in DSA_CHECK_POINTS:
        d_w = dec.decompose(dsa_synthesize(d, omega_noise, omega_artif))
        bump("dsa_linearity_rel",
             _rel(d_w.s_target.samples - d.s_target.samples,
                  np.linalg.norm(d.s_target.samples)))
        for got, want in ((d_w.e_noise, scale(d.e_noise, omega_noise)),
                          (d_w.e_artif, scale(d.e_artif, omega_artif))):
            bump("dsa_linearity_rel",
                 _rel(got.samples - want.samples,
                      max(np.linalg.norm(want.samples), scale_floor)))
        snr = compute_metrics(d_w).snr_db
        if np.isfinite(snr) and np.isfinite(baseline.snr_db):
            bump("dsa_snr_law_db",
                 abs(snr - (baseline.snr_db - 20.0 * np.log10(omega_noise))))


def _check_perfect(case, dec, d, dev):
    """s_hat == s: every error is dust and all metrics must be +inf."""
    violations = 0
    report = compute_metrics(d)
    if not (np.isinf(report.sdr_db) and np.isinf(report.snr_db) and np.isinf(report.sar_db)):
        violations += 1
    if not d.artifact_free:
        violations += 1
    d_bar = dec.decompose(oa_apply(case.s_hat, case.y, 0.5))
    if not compute_metrics(d_bar).sar_db == np.inf:
        violations += 1
    dev["degenerate_case_violations"] = dev.get("degenerate_case_violations", 0.0) + violations


def _check_negated(case, d, dev):
    """s_hat == -y: the gain condition must fail and small additions hurt SAR."""
    violations = 0
    if not inner(case.s_hat, case.y) < 0.0:
        violations += 1
    # with <P s_hat, y> < 0, SARi is negative for omega below 2|<P s_hat, y>|/||y||^2
    p = d.s_target.samples + d.e_noise.samples
    cross = float(np.dot(p, case.y.samples))
    omega_small = abs(cross) / energy(case.y)
    if not sar_improvement_closed_form(d, case.y, [omega_small])[0] < 0:
        violations += 1
    dev["adversarial_case_violations"] = dev.get("adversarial_case_violations", 0.0) + violations


def run_property_suite(case_count: int = 200, seed: int = 0) -> SelfTestReport:
    """Run every invariant over ``case_count`` random cases plus the two
    dedicated degenerate ones, and report maximum deviations."""
    if case_count < 1:
        raise ValueError("case_count must be >= 1")
    report = SelfTestReport(case_count=case_count, seed=seed, lapack=lapack_source())
    started = time.perf_counter()
    cases = [make_case(seed + i) for i in range(case_count)]
    cases.append(make_case(seed, kind="perfect"))
    cases.append(make_case(seed + 1, kind="negated-observation"))
    for case in cases:
        deviations = {}
        try:
            _check_case(case, deviations)
        except Exception as exc:  # noqa: BLE001 - reported with the seed
            report.failures.append(f"case seed={case.seed} kind={case.kind}: {exc!r}")
        for name, value in deviations.items():  # the first case to reach a maximum names it
            if value > report.deviations.get(name, -1.0):
                report.deviations[name], report.worst[name] = value, (case.seed, case.kind)
    report.elapsed_s = time.perf_counter() - started
    return report
