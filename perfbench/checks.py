"""Output checks on the CLI's sweep tables and on traced decompositions.

Every tolerance comes from the package itself, so the benchmark never
holds a looser copy of the contract it checks.
"""

import csv
import math

import numpy as np

from opdkit.analysis import SARI_VALIDATION_TOL_DB
from opdkit.selftest import INVARIANT_TOLERANCES

CORPUS = ""  # problem key for failures that hit every utterance
CORRUPTION_DB = 1e-3
DB_COLUMNS = ("sdr_db", "snr_db", "sar_db", "sari_closed_form_db")
CORRUPTIONS = ("offset", "nan")


def _number(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def read_table(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _nan_cells(rows: list[dict]) -> list[str]:
    """NaN compares false against every tolerance, so the law checks would
    pass it; flag it on its own."""
    return [f"NaN {column} at row {i}" for i, row in enumerate(rows) for column in DB_COLUMNS
            if (value := _number(row[column])) is not None and math.isnan(value)]


def _check_oa(rows: list[dict], problems: list[str]) -> float:
    rows = sorted(rows, key=lambda r: _number(r["omega_obs"]))
    if _number(rows[0]["omega_obs"]) != 0.0:
        problems.append("no omega_obs=0 baseline row")
        return 0.0
    base_sar = _number(rows[0]["sar_db"])
    gap = 0.0
    for prev, row in zip([None] + rows[:-1], rows):
        sar, sari = _number(row["sar_db"]), _number(row["sari_closed_form_db"])
        if not math.isfinite(sar) and math.isfinite(base_sar):
            problems.append(f"sar_db {sar} at omega_obs={row['omega_obs']} with a finite baseline")
        elif math.isfinite(sar) and math.isfinite(base_sar):
            deviation = abs((sar - base_sar) - sari)
            gap = max(gap, deviation)
            if deviation > SARI_VALIDATION_TOL_DB:
                problems.append(f"SARi gap {deviation:.3e} dB at omega_obs={row['omega_obs']}")
        if prev is not None and _number(row["inner_s_hat_y"]) > 0.0 \
                and sar < _number(prev["sar_db"]):
            problems.append(f"sar_db decreases at omega_obs={row['omega_obs']}")
    return gap


def _check_dsa(rows: list[dict], problems: list[str]) -> float:
    tol = INVARIANT_TOLERANCES["dsa_snr_law_db"]
    snr = {(_number(r["omega_noise"]), _number(r["omega_artif"])): _number(r["snr_db"])
           for r in rows}
    gap = 0.0
    for (w_noise, w_artif), value in snr.items():
        unit = snr.get((1.0, w_artif))
        if unit is None:
            problems.append(f"no omega_noise=1 row for omega_artif={w_artif}")
            continue
        if w_noise == 0.0 or not math.isfinite(unit):
            continue
        deviation = abs(value - (unit - 20.0 * math.log10(w_noise)))
        gap = max(gap, deviation)
        if deviation > tol:
            problems.append(f"SNR law gap {deviation:.3e} dB at ({w_noise}, {w_artif})")
    return gap


def check_sweep_table(path: str, command: str, utterance_ids: list[str],
                      grid_points: int) -> tuple[dict[str, list[str]], float]:
    """Problems per utterance id (``CORPUS`` for table-wide ones) and the
    largest deviation from the checked law: the closed-form SARi for ``oa``,
    the SNR scaling law for ``dsa``."""
    problems: dict[str, list[str]] = {}
    try:
        table = read_table(path)
    except OSError as exc:
        return {CORPUS: [f"cannot read {path}: {exc}"]}, 0.0
    if table and not {"utterance_id", "error"} <= set(table[0]):
        return {CORPUS: [f"{path}: no utterance_id or error column"]}, 0.0
    by_utterance: dict[str, list[dict]] = {}
    for row in table:
        by_utterance.setdefault(row["utterance_id"], []).append(row)
    for utt in set(by_utterance) - set(utterance_ids):
        problems.setdefault(CORPUS, []).append(f"unexpected utterance {utt!r}")
    law = _check_oa if command == "oa" else _check_dsa
    worst = 0.0
    for utt in utterance_ids:
        rows = by_utterance.get(utt, [])
        found = problems.setdefault(utt, [])
        errors = [r["error"] for r in rows if r["error"]]
        if errors:
            found.append(f"error row: {errors[0]}")
        elif len(rows) != grid_points:
            found.append(f"{len(rows)} rows, expected {grid_points}")
        else:
            try:
                nan_cells = _nan_cells(rows)
                if nan_cells:
                    found += nan_cells
                else:
                    worst = max(worst, law(rows, found))
            except (KeyError, TypeError, ValueError) as exc:
                found.append(f"malformed row: {exc!r}")
    return {k: v for k, v in problems.items() if v}, worst


def corrupt_table(src: str, dst: str, command: str, corruption: str) -> str:
    """Copy a sweep table with one metric off by CORRUPTION_DB ("offset") or
    set to NaN ("nan"); returns the utterance id of the corrupted row."""
    table = read_table(src)
    if command == "oa":
        column = "sar_db"
        victim = next(r for r in table if _number(r["omega_obs"]) not in (None, 0.0))
    else:
        column = "snr_db"
        victim = next(r for r in table if _number(r["omega_noise"]) not in (None, 0.0, 1.0))
    victim[column] = ("nan" if corruption == "nan"
                      else repr(float(victim[column]) + CORRUPTION_DB))
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table[0]))
        writer.writeheader()
        writer.writerows(table)
    return victim["utterance_id"]


def orthogonality_residual(references: list[np.ndarray], max_delay: int,
                           e_artif: np.ndarray) -> float:
    """max over delayed reference columns a of |a.e| / (|a| |e|).

    Correlations use numpy's FFT with a power-of-two length of at least
    T + L, so no circular wrap reaches lags 0 .. L-1.  Column ``tau`` of the
    delayed-copy matrix holds x[0 : T-tau], so its norm is a prefix energy.
    """
    T, L = len(e_artif), max_delay
    nfft = 1 << (T + L - 1).bit_length()
    fe = np.fft.rfft(e_artif, nfft)
    e_norm = np.linalg.norm(e_artif)
    worst = 0.0
    for x in references:
        corr = np.fft.irfft(fe * np.conj(np.fft.rfft(x, nfft)), nfft)[:L]
        col_norms = np.sqrt(np.cumsum(x * x)[T - 1 - np.arange(L)])
        worst = max(worst, float(np.max(np.abs(corr) / (col_norms * e_norm))))
    return worst


def orthogonality_tolerance() -> float:
    return INVARIANT_TOLERANCES["error_orthogonality_rel"]
