"""README's Library example runs as written."""

from pathlib import Path

import numpy as np

import opdkit.decomposition as decomposition_module

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs(monkeypatch, capsys):
    # white references, T=4000 >= 2L at the example's L=512
    rng = np.random.default_rng(0)
    s, n, w = (rng.standard_normal(4000) for _ in range(3))
    bases = []
    build_basis = decomposition_module.build_basis
    monkeypatch.setattr(decomposition_module, "build_basis",
                        lambda *a: bases.append(a) or build_basis(*a))
    namespace = {"speech_samples": s, "noise_samples": n,
                 "enhanced_samples": 0.8 * s + 0.3 * n + 0.1 * w}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert capsys.readouterr().out.startswith("MetricsReport(sdr_db=")
    assert len(bases) == 1  # one basis serves the decomposition and both sweeps
    assert [r.omega_obs for r in namespace["oa_rows"]] == np.arange(0, 1.6, 0.1).tolist()
    assert [(r.omega_noise, r.omega_artif) for r in namespace["dsa_rows"]] == [(0.5, 1.0),
                                                                              (1.0, 0.5)]
