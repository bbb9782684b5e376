"""Command-line interface.

Subcommands: ``mix`` (SNR-controlled mixture synthesis), ``enhance``
(baseline enhancement over a corpus), ``dsa`` and ``oa`` (parameter sweeps
over a corpus manifest) and ``decompose`` (one utterance).  Only ``enhance``
runs an enhancer: the sweeps analyse the file each manifest record's
``enhanced_path`` names, and ``decompose`` the file ``--enhanced`` names.
``opdkit --self-test`` runs the randomized invariant suite.

``oa`` and ``dsa`` run ``_sweep_task`` on each utterance, serially or, with
``--workers N``, up to N at once on threads, whose FFTs and ``ctypes``
LAPACK calls release the GIL.  It returns the utterance's rows and its error
as values, from which the sweep writes the CSVs and the run manifest's
``errors``.  An exception, such as references refused by ``build_basis``,
fails only its utterance; a crash that kills the process (an out-of-memory
kill, say) ends the run, as it does serially.

Exit codes: 0 success, 1 validation/I-O error or missing LAPACK, 2 numerical
failure, 3 an ``oa`` or ``dsa`` run in which some utterances failed and the
rest were written (the failures are in the CSV, the run manifest's
``errors`` and on stderr).  A run in which every utterance failed writes
nothing and exits 1.
"""

import argparse
import dataclasses
import gc
import glob
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import dsa_sweep, oa_sweep
from .decomposition import COMPONENT_SUFFIXES, Decomposer, export_components
from .enhance import ENHANCE_METHODS, enhance
from .metrics import _check_omega, compute_metrics
from .projection import (DEFAULT_MAX_DELAY, check_max_delay, lapack_source,
                         openblas_threads)
from .reporting import (AGGREGATION_MODE, RunManifest, UtteranceTriplet,
                        load_corpus_manifest, load_triplet, summarize_rows,
                        write_corpus_manifest, write_run_manifest,
                        write_summary_csv, write_sweep_csv)
from .signals import Waveform, add, mix_at_snr
from .svgplot import Series, line_plot, write_plot
from .wavio import float32_image, read_wav, write_wav

DEFAULT_DSA_GRID = "0:1.5:0.25"
DEFAULT_OA_GRID = "0:1.5:0.1"

# Largest value count a grid may have; a dsa sweep squares it.
MAX_GRID_VALUES = 1000


def parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive) or a comma-separated value list.

    The value count is checked against ``MAX_GRID_VALUES`` before a range
    is expanded.
    """
    try:
        values = [float(v) for v in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise ValueError(f"bad grid {text!r}: every value must be a number") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"bad grid {text!r}: every value must be finite")
    count = len(values)
    if ":" in text:
        if len(values) != 3:
            raise ValueError(f"bad grid {text!r}: expected start:stop:step")
        start, stop, step = values
        if step <= 0 or stop < start or not math.isfinite((stop - start) / step):
            raise ValueError(f"bad grid {text!r}: need step > 0, stop >= start "
                             "and a finite number of points")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count > MAX_GRID_VALUES:
        raise ValueError(f"bad grid {text!r}: {count} values, at most "
                         f"{MAX_GRID_VALUES} allowed")
    if ":" in text:
        values = [round(start + i * step, 10) for i in range(count)]
    if len(set(values)) != len(values):
        raise ValueError(f"bad grid {text!r}: values must be distinct")
    return values


def _sweep_task(command: str, triplet: UtteranceTriplet, max_delay: int, points: list):
    """``(rows, error)``; on an exception, no rows and the exception's text."""
    try:
        if triplet.enhanced_path is None:
            raise ValueError(f"{triplet.utterance_id}: no enhanced_path in the manifest; "
                             "run `opdkit enhance` first")
        s, n, s_hat = load_triplet(triplet)
        dec = Decomposer(s, n, max_delay)
        if command == "oa":
            rows = oa_sweep(dec, s_hat, add(s, n), grid=points,
                            utterance_id=triplet.utterance_id)
        else:
            rows = dsa_sweep(dec.decompose(s_hat), grid=points,
                             utterance_id=triplet.utterance_id)
    except Exception as exc:  # noqa: BLE001 - tagged into the report
        return (), f"{type(exc).__name__}: {exc}"
    return rows, None


def _metric_series(rows, summary, x_field: str, metric: str) -> list[Series]:
    series = []
    by_utterance: dict[str, list] = {}
    for row in rows:
        by_utterance.setdefault(row.utterance_id, []).append(row)
    for utt_rows in by_utterance.values():
        utt_rows = sorted(utt_rows, key=lambda r: getattr(r, x_field))
        series.append(Series("", [getattr(r, x_field) for r in utt_rows],
                             [getattr(r.metrics, metric) for r in utt_rows],
                             color="#bbbbbb", width=1.0, opacity=0.7))
    series.append(Series("corpus mean", [rec[x_field] for rec in summary],
                         [rec[metric] for rec in summary], color="#d62728",
                         width=2.5))
    return series


def _numerics() -> dict:
    """What the last digits of the dB values depend on besides the inputs and
    parameters.  Binding LAPACK here makes a missing one an error before any
    audio is read."""
    return {"lapack_source": lapack_source(), "numpy_version": np.__version__,
            "openblas_threads": openblas_threads()}


def _check_file_stem(utterance_id: str) -> None:
    """An id that names files in --out must be one path component."""
    if utterance_id in ("", ".", "..") or "/" in utterance_id or os.sep in utterance_id:
        raise ValueError(f"utterance id {utterance_id!r} cannot name a file in --out: "
                         "it must be one path component")


def cmd_decompose(args) -> int:
    check_max_delay(args.max_delay)  # 2L <= T needs the audio; build_basis checks it
    utterance_id = args.id or os.path.splitext(os.path.basename(args.speech))[0]
    _check_file_stem(utterance_id)
    numerics = _numerics()
    s, n, s_hat = load_triplet(UtteranceTriplet(utterance_id, args.speech, args.noise,
                                                args.enhanced))
    dec = Decomposer(s, n, args.max_delay)
    d = dec.decompose(s_hat)
    report = compute_metrics(d)
    for name, suffix in COMPONENT_SUFFIXES.items():  # every WAV is checked before --out exists
        float32_image(getattr(d, name), utterance_id + suffix)
    os.makedirs(args.out, exist_ok=True)
    export_components(d, args.out, utterance_id)
    with open(os.path.join(args.out, f"{utterance_id}.metrics.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_run_manifest(args.out, RunManifest(
        command="decompose",
        parameters={"speech": args.speech, "noise": args.noise,
                    "enhanced": args.enhanced, "utterance_id": utterance_id},
        max_delay=args.max_delay,
        aggregation="per-utterance",
        numerics=numerics,
    ))
    print(f"{utterance_id}: SDR {report.sdr_db:.2f} dB, SNR {report.snr_db:.2f} dB, "
          f"SAR {report.sar_db:.2f} dB -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    name = args.command
    grid = parse_grid(args.grid)
    # refused here, as the sweep would refuse them, before any audio is read
    points = ([_check_omega(w, "omega_obs") for w in grid] if name == "oa"
              else [(_check_omega(wn, "omega_noise"), _check_omega(wa, "omega_artif"))
                    for wn in grid for wa in grid])
    check_max_delay(args.max_delay)
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    numerics = _numerics()  # bound once, before any worker thread starts
    triplets = load_corpus_manifest(args.corpus)

    def task(triplet):
        return _sweep_task(name, triplet, args.max_delay, points)
    if args.workers == 1:
        results = list(map(task, triplets))
    else:
        # imported here: it loads logging, which a serial run need not pay for
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(min(args.workers, len(triplets))) as pool:
            results = list(pool.map(task, triplets))
    rows, errors = [], []
    for triplet, (utterance_rows, error) in zip(triplets, results):
        rows.extend(utterance_rows)
        if error:
            errors.append({"utterance_id": triplet.utterance_id, "error": error})
    if not rows:
        raise ValueError("every utterance failed: " + "; ".join(e["error"] for e in errors))
    summary = summarize_rows(rows)
    os.makedirs(args.out, exist_ok=True)

    write_sweep_csv(os.path.join(args.out, f"{name}.csv"), rows, errors)
    write_summary_csv(os.path.join(args.out, f"{name}_summary.csv"), summary)

    if name == "oa":
        for metric in ("sdr_db", "snr_db", "sar_db"):
            label = metric[:3].upper()
            svg = line_plot(f"{label} vs observation-adding amount", "omega_obs",
                            f"{label} [dB]",
                            _metric_series(rows, summary, "omega_obs", metric))
            write_plot(os.path.join(args.out, f"oa_{metric[:3]}.svg"), svg)
    elif 1.0 not in grid:
        print("dsa: --grid has no 1.0, so the omega_artif=1.0 and omega_noise=1.0 "
              "slices are empty; skipped dsa_{sdr,snr,sar}_vs_omega_{noise,artif}.svg",
              file=sys.stderr)
    else:
        for axis, fixed in (("omega_noise", "omega_artif"),
                            ("omega_artif", "omega_noise")):
            slice_rows = [r for r in rows if getattr(r, fixed) == 1.0]
            slice_summary = summarize_rows(slice_rows)
            for metric in ("sdr_db", "snr_db", "sar_db"):
                label = metric[:3].upper()
                svg = line_plot(f"{label} vs {axis} ({fixed}=1.0)", axis,
                                f"{label} [dB]",
                                _metric_series(slice_rows, slice_summary, axis, metric))
                write_plot(os.path.join(args.out, f"dsa_{metric[:3]}_vs_{axis}.svg"), svg)

    write_run_manifest(args.out, RunManifest(
        command=name,
        parameters={"corpus": args.corpus, "grid": grid, "workers": args.workers},
        max_delay=args.max_delay,
        aggregation=AGGREGATION_MODE,
        errors=errors,
        numerics=numerics,
    ))
    done = len(triplets) - len(errors)
    print(f"{name}: {done}/{len(triplets)} utterances, {len(rows)} rows -> {args.out}")
    for err in errors:
        print(f"  failed {err['utterance_id']}: {err['error']}", file=sys.stderr)
    return 3 if errors else 0


# quoted: evaluating np.random here would import numpy.random for every
# command, and only mix draws from it
def _fit_length(w: Waveform, length: int, rng: "np.random.Generator") -> Waveform:
    samples = w.samples
    if len(samples) < length:
        samples = np.tile(samples, -(-length // len(samples)))
    offset = int(rng.integers(0, len(samples) - length + 1))
    return Waveform(samples[offset:offset + length], w.sample_rate)


def _list_wavs(directory: str) -> list[str]:
    files = sorted(glob.glob(os.path.join(directory, "*.wav")))
    if not files:
        raise ValueError(f"no WAV files found in {directory!r}")
    return files


def cmd_mix(args) -> int:
    speech_files = _list_wavs(args.speech_dir)
    noises = [read_wav(path) for path in _list_wavs(args.noise_dir)]
    rng = np.random.default_rng(args.seed)
    mixtures = []  # every input is read and mixed before --out exists
    for speech_path in speech_files:
        utterance_id = os.path.splitext(os.path.basename(speech_path))[0]
        s = read_wav(speech_path)
        n_raw = noises[int(rng.integers(len(noises)))]
        if n_raw.sample_rate != s.sample_rate:
            raise ValueError(f"{utterance_id}: noise rate {n_raw.sample_rate} "
                             f"!= speech rate {s.sample_rate}")
        n = _fit_length(n_raw, len(s), rng)
        y, n_scaled = mix_at_snr(s, n, args.snr)
        signals = {"speech": s, "noise": n_scaled, "mix": y}
        for kind, w in signals.items():
            float32_image(w, f"{utterance_id}.{kind}.wav")
        mixtures.append((utterance_id, signals))
    os.makedirs(args.out, exist_ok=True)
    triplets = []
    for utterance_id, signals in mixtures:
        for kind, w in signals.items():
            write_wav(os.path.join(args.out, f"{utterance_id}.{kind}.wav"), w)
        triplets.append(UtteranceTriplet(utterance_id=utterance_id,
                                         speech_path=f"{utterance_id}.speech.wav",
                                         noise_path=f"{utterance_id}.noise.wav"))
    write_corpus_manifest(os.path.join(args.out, "corpus.jsonl"), triplets)
    write_run_manifest(args.out, RunManifest(
        command="mix",
        parameters={"speech_dir": args.speech_dir, "noise_dir": args.noise_dir,
                    "snr_db": args.snr, "seed": args.seed},
        max_delay=None,
        aggregation="per-utterance",
    ))
    print(f"mix: {len(triplets)} mixtures at {args.snr} dB -> {args.out}")
    return 0


def cmd_enhance(args) -> int:
    triplets = load_corpus_manifest(args.corpus)
    for triplet in triplets:
        _check_file_stem(triplet.utterance_id)
    enhanced = []  # every utterance is read and enhanced before --out exists
    for triplet in triplets:
        # the record's old enhanced_path, if any, is never read
        s, n, _ = load_triplet(dataclasses.replace(triplet, enhanced_path=None))
        s_hat = enhance(add(s, n), s, n, args.method)
        float32_image(s_hat, f"{triplet.utterance_id}.enhanced.wav")
        enhanced.append(s_hat)
    os.makedirs(args.out, exist_ok=True)
    out_triplets = []
    for triplet, s_hat in zip(triplets, enhanced):
        enhanced_name = f"{triplet.utterance_id}.enhanced.wav"
        write_wav(os.path.join(args.out, enhanced_name), s_hat)
        out_triplets.append(UtteranceTriplet(
            utterance_id=triplet.utterance_id,
            speech_path=os.path.relpath(triplet.speech_path, args.out),
            noise_path=os.path.relpath(triplet.noise_path, args.out),
            enhanced_path=enhanced_name,
        ))
    write_corpus_manifest(os.path.join(args.out, "corpus.jsonl"), out_triplets)
    write_run_manifest(args.out, RunManifest(
        command="enhance",
        parameters={"corpus": args.corpus, "method": args.method},
        max_delay=None,
        aggregation="per-utterance",
    ))
    print(f"enhance[{args.method}]: {len(out_triplets)} utterances -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opdkit",
        description="Decompose enhanced speech into target/noise/artifact parts, "
                    "compute SDR/SNR/SAR, and run error-scaling or "
                    "observation-adding sweeps.")
    parser.add_argument("--version", action="version", version=f"opdkit {__version__}")
    parser.add_argument("--self-test", action="store_true",
                        help="run the randomized invariant suite and exit")
    parser.add_argument("--self-test-cases", type=int, default=200)
    parser.add_argument("--self-test-seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("decompose", help="decompose one utterance and report metrics")
    p.add_argument("--speech", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--enhanced", required=True)
    p.add_argument("--id", default=None)
    p.add_argument("--max-delay", "-L", type=int, default=DEFAULT_MAX_DELAY)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    for name, help_text, default_grid in (
            ("dsa", "sweep error-component scalings over a corpus", DEFAULT_DSA_GRID),
            ("oa", "sweep observation-adding amounts over a corpus", DEFAULT_OA_GRID)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--corpus", required=True, help="corpus manifest (JSON lines)")
        p.add_argument("--grid", default=default_grid,
                       help=f"start:stop:step or comma list of at most "
                            f"{MAX_GRID_VALUES} values (default {default_grid})")
        p.add_argument("--max-delay", "-L", type=int, default=DEFAULT_MAX_DELAY)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mix", help="synthesize SNR-controlled mixtures")
    p.add_argument("--speech-dir", required=True)
    p.add_argument("--noise-dir", required=True)
    p.add_argument("--snr", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("enhance", help="run a baseline enhancer over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=ENHANCE_METHODS, required=True,
                   help="baseline enhancement stub to run")
    p.set_defaults(func=cmd_enhance)

    return parser


def cmd_self_test(args) -> int:
    from .selftest import run_property_suite
    report = run_property_suite(args.self_test_cases, args.self_test_seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func = cmd_self_test if args.self_test else getattr(args, "func", None)
    if not func:
        parser.print_help()
        return 1
    try:
        return func(args)
    except (ValueError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The console entry point.  On the way out, ``SystemExit`` from
    ``--help`` and ``--version`` included, every object is frozen out of the
    collector's reach: the interpreter's last cyclic collection would spend
    about 30 ms scanning numpy's import graph to free nothing the exit does
    not.  ``main()`` does not freeze, so in-process callers are unaffected."""
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
