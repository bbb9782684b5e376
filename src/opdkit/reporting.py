"""Corpus manifests, run manifests, and CSV sweep tables.

The corpus manifest is JSON lines, one utterance triplet per line with keys
``utterance_id``, ``speech_path``, ``noise_path``, and optionally
``enhanced_path`` (absent or null when not enhanced yet); no
``utterance_id`` may repeat.  Relative paths are
resolved against the manifest's own directory.  Every command writes a
``run_manifest.json`` describing its parameters.  ``oa``, ``dsa`` and
``decompose`` also record under ``numerics`` the LAPACK they solved with,
numpy's version and OpenBLAS's thread count, since the last digits of their
dB values can change with each; the same inputs, parameters and
``numerics`` reproduce the outputs bit-identically on the same CPU model.
"""

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import SweepRow
from .metrics import db_to_str
from .projection import DELAY_PADDING
from .signals import Waveform
from .wavio import read_wav

__all__ = [
    "UtteranceTriplet",
    "RunManifest",
    "load_corpus_manifest",
    "write_corpus_manifest",
    "load_triplet",
    "write_run_manifest",
    "write_sweep_csv",
    "write_summary_csv",
    "summarize_rows",
    "SWEEP_CSV_COLUMNS",
]

SWEEP_CSV_COLUMNS = [
    "utterance_id", "omega_noise", "omega_artif", "omega_obs",
    "sdr_db", "snr_db", "sar_db", "inner_s_hat_y", "sari_closed_form_db",
    "error",
]

AGGREGATION_MODE = "mean-of-per-utterance-db"


@dataclass(frozen=True)
class UtteranceTriplet:
    utterance_id: str
    speech_path: str
    noise_path: str
    enhanced_path: str | None = None


@dataclass
class RunManifest:
    """Everything needed to re-run a command on the same inputs."""

    command: str
    parameters: dict
    max_delay: int | None
    aggregation: str
    tool_version: str = __version__
    conventions: dict = dataclasses.field(default_factory=lambda: {
        "delay_padding": DELAY_PADDING,
        "snr_weighting": "full-signal-power",
        "normalization": "none",
    })
    regularization_events: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)
    numerics: dict | None = None  # None for commands that run no LAPACK


def load_corpus_manifest(path: str | os.PathLike) -> list[UtteranceTriplet]:
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    triplets, first_line = [], {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc.msg}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got "
                                 f"{type(record).__name__}")
            try:
                fields = [record[k] for k in ("utterance_id", "speech_path", "noise_path")]
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing manifest key {exc}") from exc
            enhanced = record.get("enhanced_path")  # absent or null: not enhanced yet
            if not all(isinstance(v, str) for v in fields):
                raise ValueError(f"{path}:{lineno}: utterance_id and the paths must be strings")
            if enhanced is not None and not (isinstance(enhanced, str) and enhanced):
                raise ValueError(f"{path}:{lineno}: enhanced_path must be null or a "
                                 f"non-empty string, got {enhanced!r}")
            utterance_id, speech, noise = fields
            if utterance_id in first_line:
                raise ValueError(f"{path}:{lineno}: utterance_id {utterance_id!r} "
                                 f"repeats line {first_line[utterance_id]}")
            first_line[utterance_id] = lineno
            triplets.append(UtteranceTriplet(utterance_id, resolve(speech), resolve(noise),
                                             resolve(enhanced) if enhanced else None))
    if not triplets:
        raise ValueError(f"{path}: corpus manifest is empty")
    return triplets


def write_corpus_manifest(path: str | os.PathLike,
                          triplets: list[UtteranceTriplet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triplets:
            record = {"utterance_id": t.utterance_id,
                      "speech_path": t.speech_path,
                      "noise_path": t.noise_path}
            if t.enhanced_path:
                record["enhanced_path"] = t.enhanced_path
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_triplet(t: UtteranceTriplet) -> tuple[Waveform, Waveform, Waveform | None]:
    """Load and cross-validate the waveforms of one triplet."""
    s = read_wav(t.speech_path)
    n = read_wav(t.noise_path)
    s_hat = read_wav(t.enhanced_path) if t.enhanced_path else None
    loaded = [("speech", s), ("noise", n)] + ([("enhanced", s_hat)] if s_hat else [])
    for name, w in loaded[1:]:
        if len(w) != len(s):
            raise ValueError(f"{t.utterance_id}: {name} length {len(w)} != speech length {len(s)}")
        if w.sample_rate != s.sample_rate:
            raise ValueError(f"{t.utterance_id}: {name} sample rate {w.sample_rate} "
                             f"!= speech rate {s.sample_rate}")
    return s, n, s_hat


def write_run_manifest(out_dir: str | os.PathLike, manifest: RunManifest) -> str:
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return db_to_str(value) if math.isinf(value) else repr(value)
    return str(value)


def _row_record(row: SweepRow) -> dict:
    return {
        "utterance_id": row.utterance_id,
        "omega_noise": row.omega_noise,
        "omega_artif": row.omega_artif,
        "omega_obs": row.omega_obs,
        "sdr_db": row.metrics.sdr_db,
        "snr_db": row.metrics.snr_db,
        "sar_db": row.metrics.sar_db,
        "inner_s_hat_y": row.inner_s_hat_y,
        "sari_closed_form_db": row.sari_closed_form_db,
        "error": None,
    }


def write_sweep_csv(path: str | os.PathLike, rows: list[SweepRow],
                    error_rows: list[dict] | None = None) -> None:
    """Per-(utterance, grid point) table; failed utterances get error tags."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for row in rows:
            record = _row_record(row)
            writer.writerow([_cell(record[c]) for c in SWEEP_CSV_COLUMNS])
        for err in error_rows or []:
            record = {c: None for c in SWEEP_CSV_COLUMNS}
            record.update(err)
            writer.writerow([_cell(record[c]) for c in SWEEP_CSV_COLUMNS])


def summarize_rows(rows: list[SweepRow]) -> list[dict]:
    """Corpus mean per grid point (mean of per-utterance dB values)."""
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        key = (row.omega_noise, row.omega_artif, row.omega_obs)
        groups.setdefault(key, []).append(row)
    summary = []
    for key in sorted(groups, key=lambda k: tuple(-1.0 if v is None else v for v in k)):
        members = groups[key]
        summary.append({
            "omega_noise": key[0],
            "omega_artif": key[1],
            "omega_obs": key[2],
            "sdr_db": float(np.mean([r.metrics.sdr_db for r in members])),
            "snr_db": float(np.mean([r.metrics.snr_db for r in members])),
            "sar_db": float(np.mean([r.metrics.sar_db for r in members])),
            "utterances": len(members),
        })
    return summary


def write_summary_csv(path: str | os.PathLike, summary: list[dict]) -> None:
    columns = ["omega_noise", "omega_artif", "omega_obs",
               "sdr_db", "snr_db", "sar_db", "utterances"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for record in summary:
            writer.writerow([_cell(record[c]) for c in columns])
