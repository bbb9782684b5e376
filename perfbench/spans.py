"""In-process span tracing of the CLI pipeline, and the per-layer metrics.

Spans come from wrappers put around the package's public names at the
sites where the CLI code looks them up (``opdkit.decomposition.project``,
``opdkit.cli.enhance``, ...); no package source is edited.  The traced pass
calls ``opdkit.cli.main`` in-process for ``mix``, ``enhance`` and the sweep,
so it runs exactly the code the CLI runs, serially.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

import checks

LAYERS = ("cli", "wavio", "enhance", "projection", "decomposition", "metrics",
          "analysis", "reporting", "svgplot")

# (object holding the name, attribute, span name).  The object is where the
# calling code looks the name up, so one function may appear twice.
SITES = (
    ("opdkit.cli", "read_wav", "wavio.read_wav"),
    ("opdkit.reporting", "read_wav", "wavio.read_wav"),
    ("opdkit.cli", "write_wav", "wavio.write_wav"),
    ("opdkit.cli", "enhance", "enhance.enhance"),
    ("opdkit.cli", "load_corpus_manifest", "reporting.load_corpus_manifest"),
    ("opdkit.cli", "load_triplet", "reporting.load_triplet"),
    ("opdkit.cli", "write_corpus_manifest", "reporting.write_corpus_manifest"),
    ("opdkit.cli", "write_run_manifest", "reporting.write_run_manifest"),
    ("opdkit.cli", "summarize_rows", "reporting.summarize_rows"),
    ("opdkit.cli", "write_sweep_csv", "reporting.write_sweep_csv"),
    ("opdkit.cli", "write_summary_csv", "reporting.write_summary_csv"),
    ("opdkit.cli", "line_plot", "svgplot.line_plot"),
    ("opdkit.cli", "write_plot", "svgplot.write_plot"),
    ("opdkit.cli", "oa_sweep", "analysis.oa_sweep"),
    ("opdkit.cli", "dsa_sweep", "analysis.dsa_sweep"),
    ("opdkit.cli", "compute_metrics", "metrics.compute_metrics"),
    ("opdkit.analysis", "compute_metrics", "metrics.compute_metrics"),
    ("opdkit.analysis", "sar_improvement_closed_form", "metrics.sari_closed_form"),
    ("opdkit.analysis", "make_decomposition", "decomposition.make_decomposition"),
    ("opdkit.decomposition:Decomposer", "__init__", "decomposition.decomposer_init"),
    ("opdkit.decomposition:Decomposer", "decompose", "decomposition.decompose"),
    ("opdkit.decomposition", "build_basis", "projection.build_basis"),
    ("opdkit.decomposition", "project", "projection.project"),
)

# Corpus-level calls end the current utterance: spans after them carry none.
CORPUS_LEVEL = {"reporting.load_corpus_manifest", "reporting.write_corpus_manifest",
                "reporting.write_run_manifest", "reporting.summarize_rows",
                "reporting.write_sweep_csv", "reporting.write_summary_csv",
                "svgplot.line_plot", "svgplot.write_plot"}

# Per-layer metric -> the end-to-end metric it should move, and on which
# workload.  BENCHMARK.json's schema has no field for this; names and units
# are in its per_layer list.
LAYER_METRICS = {
    "cli.import_s": "startup_s and setup_s on every workload",
    "cli.import_scipy_signal_s": "startup_s and setup_s on every workload",
    "cli.sweep_cpu_s": "sweep_s on every workload (BLAS threads spinning)",
    "cli.cpu_per_wall": "sweep_s on every workload (BLAS threads spinning)",
    "cli.pool_sweep_s": "none end to end: the --workers 2 sweep, pool oversubscription",
    "cli.pool_cpu_s": "none end to end: the --workers 2 sweep, pool oversubscription",
    "cli.pool_speedup": "none end to end: serial over --workers 2 sweep wall time",
    "cli.self_s": "sweep_s and setup_s on every workload",
    "wavio.read_wav_s": "setup_s on every workload",
    "wavio.write_wav_s": "setup_s on every workload",
    "wavio.bytes": "setup_s on every workload",
    "wavio.self_s": "setup_s on every workload",
    "enhance.enhance_s": "setup_s, most on dsa-t16 (set-up is mostly two interpreter start-ups)",
    "enhance.enhance_p90_s": "setup_s, most on dsa-t16 (set-up is mostly two interpreter start-ups)",
    "enhance.calls": "setup_s, most on dsa-t16 (set-up is mostly two interpreter start-ups)",
    "enhance.self_s": "setup_s, most on dsa-t16 (set-up is mostly two interpreter start-ups)",
    "projection.build_basis_k1_s": "sweep_s, peak_rss_mb on oa-l2048; sweep_s on dsa-t16",
    "projection.build_basis_k2_s": "sweep_s, peak_rss_mb on oa-l2048; sweep_s on dsa-t16",
    "projection.build_basis_calls": "sweep_s on oa-l2048 and dsa-t16",
    "projection.regularized_calls": "sweep_s on oa-l2048",
    "projection.cholesky_gflop": "sweep_s on oa-l2048",
    "projection.tail_gflop": "sweep_s on oa-l2048",
    "projection.gram_mb": "peak_rss_mb on oa-l2048",
    "projection.nfft": "sweep_s on every workload",
    "projection.project_s": "sweep_s on oa-l512",
    "projection.project_calls": "sweep_s on oa-l512",
    "projection.orthogonality_rel": "none: numerical health",
    "projection.self_s": "sweep_s on oa-l2048 and oa-l512",
    "decomposition.decomposer_init_s": "sweep_s on oa-l512 and oa-l2048",
    "decomposition.decompose_s": "sweep_s on oa-l512 and oa-l2048",
    "decomposition.decompose_calls": "sweep_s on oa-l512 and oa-l2048",
    "decomposition.self_s": "sweep_s on oa-l512 and dsa-t16",
    "metrics.compute_metrics_s": "sweep_s on dsa-t16 (49 points per utterance; ~3% of sweep_s at seed size)",
    "metrics.sari_closed_form_calls": "sweep_s on oa-l512",
    "metrics.self_s": "sweep_s on dsa-t16 and oa-l512",
    "analysis.sweep_s": "sweep_s on dsa-t16 (dsa_sweep) and oa-l512 (oa_sweep)",
    "analysis.self_s": "sweep_s on oa-l512 (oa_sweep self time)",
    "analysis.grid_points": "none: workload shape",
    "analysis.max_check_gap_db": "none: numerical health",
    "reporting.summarize_rows_s": "sweep_s on dsa-t16 (under 1% of it at seed size), barely on oa-l2048",
    "reporting.write_sweep_csv_s": "sweep_s on dsa-t16 (under 1% of it at seed size), barely on oa-l2048",
    "reporting.csv_rows": "sweep_s on dsa-t16 (under 1% of it at seed size), barely on oa-l2048",
    "reporting.self_s": "sweep_s on dsa-t16 (under 1% of it at seed size), barely on oa-l2048",
    "svgplot.line_plot_s": "sweep_s on dsa-t16 (under 1% of it at seed size), barely on oa-l2048",
    "svgplot.write_plot_s": "sweep_s on dsa-t16 (under 1% of it at seed size), barely on oa-l2048",
    "svgplot.self_s": "sweep_s on dsa-t16 (under 1% of it at seed size), barely on oa-l2048",
    "trace.traced_sweep_s": "none: tracing overhead, beside trace.untraced_sweep_s",
    "trace.untraced_sweep_s": "none: the untraced sweep_s of the same run",
    "trace.uncovered_s": "none: traced wall time outside every span",
    "trace.spans": "none: spans recorded per traced pass",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    utterance: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder.  Spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.utterance: str | None = None
        self._stack: list[Span] = []
        self._installed: list[tuple] = []

    def call(self, name: str, attrs: dict, fn, *args, **kwargs):
        """Run ``fn`` inside a new span."""
        span = Span(len(self.spans), name,
                    self._stack[-1].id if self._stack else None, self.utterance,
                    0.0, attrs=dict(attrs))
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_call=None, on_return=None) -> None:
        """Replace ``owner.attr`` by a traced version.  ``on_call(bound)`` may
        return an utterance id that starts a new utterance; ``on_return(bound,
        result)`` returns span attributes and runs after the span closes."""
        original = vars(owner)[attr]
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if name in CORPUS_LEVEL:
                tracer.utterance = None
            elif on_call is not None:
                utterance = on_call(bound.arguments)
                if utterance is not None:
                    tracer.utterance = utterance
            span_index = len(tracer.spans)
            result = tracer.call(name, {}, original, *args, **kwargs)
            if on_return is not None:
                tracer.spans[span_index].attrs.update(on_return(bound.arguments, result))
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, fh, pass_index: int) -> None:
        """Write the spans as JSON lines tagged with ``pass_index``."""
        for s in self.spans:
            fh.write(json.dumps({"pass": pass_index, "id": s.id, "name": s.name,
                                 "parent": s.parent, "utterance": s.utterance,
                                 "start": s.start, "end": s.end, **s.attrs}) + "\n")


def _resolve(site: str):
    """The module or class named by ``site`` ("module" or "module:Class"),
    or None when the package no longer has it."""
    module_name, _, class_name = site.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


class TracedPass:
    """One traced replay of a workload: hooks, the residual probe and the
    spans of that replay."""

    def __init__(self, speech_dir: str):
        self.tracer = Tracer()
        self.speech_dir = os.path.abspath(speech_dir)
        self.missing_sites: list[str] = []
        self._pending_refs: dict[int, tuple] = {}
        self.residual_inputs: list[tuple] = []

    def _hooks(self, name: str):
        """(on_call, on_return) for the span name, or (None, None)."""
        if name == "wavio.read_wav":
            def mix_utterance(a):
                path = os.path.abspath(a["path"])
                if os.path.dirname(path) == self.speech_dir:
                    return os.path.splitext(os.path.basename(path))[0]
                return None
            return mix_utterance, lambda a, r: {"bytes": os.path.getsize(a["path"])}
        if name == "wavio.write_wav":
            return None, lambda a, r: {"bytes": os.path.getsize(a["path"])}
        if name == "reporting.load_triplet":
            return lambda a: a["t"].utterance_id, None
        if name == "projection.build_basis":
            def basis_shape(a, result):
                refs = a["references"]
                return {"k": len(refs), "L": a["max_delay"], "T": len(refs[0]),
                        "regularized": float(result.regularization) > 0.0}
            return None, basis_shape
        if name == "decomposition.decomposer_init":
            def remember(a, _):
                self._pending_refs[id(a["self"])] = (a["s"], a["n"], a["max_delay"])
                return {}
            return None, remember
        if name == "decomposition.decompose":
            def first_decomposition(a, d):
                refs = self._pending_refs.pop(id(a["self"]), None)
                if refs is not None:
                    self.residual_inputs.append((self.tracer.utterance, refs, d))
                return {}
            return None, first_decomposition
        if name in ("analysis.oa_sweep", "analysis.dsa_sweep"):
            return None, lambda a, r: {"grid_points": len(a["grid"])}
        if name == "reporting.write_sweep_csv":
            return None, lambda a, r: {"rows": len(a["rows"]) + len(a["error_rows"] or [])}
        return None, None

    def install(self) -> None:
        for site, attr, name in SITES:
            owner = _resolve(site)
            if owner is None or attr not in vars(owner):
                self.missing_sites.append(f"{site}.{attr}")
                continue
            self.tracer.wrap(owner, attr, name, *self._hooks(name))

    def run_cli(self, argv: list[str]) -> int:
        import opdkit.cli
        with contextlib.redirect_stdout(io.StringIO()):
            return self.tracer.call("cli.main", {"command": argv[0]}, opdkit.cli.main, argv)

    def orthogonality(self) -> dict[str, float]:
        """Residual of the first decomposition of every utterance, by
        utterance id; artifact parts at numerical-dust size count as 0, as
        the self-test skips them."""
        residuals = {}
        for utterance, (s, n, L), d in self.residual_inputs:
            e = d.e_artif.samples
            s_hat = d.s_target.samples + d.e_noise.samples + e
            residuals[utterance] = (
                checks.orthogonality_residual([s.samples, n.samples], L, e)
                if np.linalg.norm(e) > 1e-6 * np.linalg.norm(s_hat) else 0.0)
        return residuals


def _self_times(spans: list[Span]) -> list[float]:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def pass_metrics(spans: list[Span], wall_s: float, sweep_command: str) -> dict:
    """Per-layer metrics of one traced pass (all spans of one replay)."""
    self_time = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def spans_of(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name, pick=lambda s: True):
        return sum(s.duration for s in spans_of(name) if pick(s))

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, own in zip(spans, self_time):
        m[f"{s.name.split('.')[0]}.self_s"] += own

    m["wavio.read_wav_s"] = total("wavio.read_wav")
    m["wavio.write_wav_s"] = total("wavio.write_wav")
    m["wavio.bytes"] = sum(s.attrs["bytes"] for name in ("wavio.read_wav", "wavio.write_wav")
                           for s in spans_of(name))

    enhance_times = [s.duration for s in spans_of("enhance.enhance")]
    m["enhance.calls"] = len(enhance_times)
    m["enhance.enhance_s"] = statistics.median(enhance_times) if enhance_times else 0.0
    m["enhance.enhance_p90_s"] = (float(np.percentile(enhance_times, 90))
                                  if enhance_times else 0.0)

    bases = spans_of("projection.build_basis")
    m["projection.build_basis_k1_s"] = total("projection.build_basis", lambda s: s.attrs["k"] == 1)
    m["projection.build_basis_k2_s"] = total("projection.build_basis", lambda s: s.attrs["k"] == 2)
    m["projection.build_basis_calls"] = len(bases)
    m["projection.regularized_calls"] = sum(s.attrs["regularized"] for s in bases)
    # Computed from the input shapes, so they repeat exactly: Cholesky of
    # the kL x kL Gram, the 2 L^2 (L-1) tail product per Gram block
    # (k(k+1)/2 blocks), the largest Gram, and the FFT length.
    m["projection.cholesky_gflop"] = sum((s.attrs["k"] * s.attrs["L"]) ** 3 / 3.0
                                         for s in bases) / 1e9
    m["projection.tail_gflop"] = sum(s.attrs["k"] * (s.attrs["k"] + 1) // 2
                                     * 2.0 * s.attrs["L"] ** 2 * (s.attrs["L"] - 1)
                                     for s in bases) / 1e9
    m["projection.gram_mb"] = max(((s.attrs["k"] * s.attrs["L"]) ** 2 * 8 / 1e6
                                   for s in bases), default=0.0)
    m["projection.nfft"] = max((next_fast_len(s.attrs["T"] + s.attrs["L"] - 1)
                                for s in bases), default=0)
    m["projection.project_s"] = total("projection.project")
    m["projection.project_calls"] = len(spans_of("projection.project"))

    m["decomposition.decomposer_init_s"] = total("decomposition.decomposer_init")
    m["decomposition.decompose_s"] = total("decomposition.decompose")
    m["decomposition.decompose_calls"] = len(spans_of("decomposition.decompose"))

    m["metrics.compute_metrics_s"] = total("metrics.compute_metrics")
    m["metrics.sari_closed_form_calls"] = len(spans_of("metrics.sari_closed_form"))

    sweeps = spans_of(f"analysis.{sweep_command}_sweep")
    m["analysis.sweep_s"] = sum(s.duration for s in sweeps)
    m["analysis.grid_points"] = max((s.attrs["grid_points"] for s in sweeps), default=0)

    m["reporting.summarize_rows_s"] = total("reporting.summarize_rows")
    m["reporting.write_sweep_csv_s"] = total("reporting.write_sweep_csv")
    m["reporting.csv_rows"] = sum(s.attrs["rows"] for s in spans_of("reporting.write_sweep_csv"))
    m["svgplot.line_plot_s"] = total("svgplot.line_plot")
    m["svgplot.write_plot_s"] = total("svgplot.write_plot")

    roots = [s for s in spans if s.parent is None]
    m["trace.traced_sweep_s"] = sum(s.duration for s in roots
                                    if s.attrs.get("command") == sweep_command)
    m["trace.uncovered_s"] = wall_s - sum(s.duration for s in roots)
    m["trace.spans"] = len(spans)
    return m
