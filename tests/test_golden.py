"""Golden numbers: the whole CLI pipeline on a seeded mini-corpus, pinned.

``mix``, ``enhance`` (all three methods), ``oa``, ``dsa`` and
``decompose -L 64`` run through ``main()`` on 3 utterances of 0.5 s.  The
SHA-256 of every WAV that ``mix`` and ``enhance`` write must match exactly.
Every cell of every sweep CSV and metrics JSON is kept as the text the file
holds (``repr`` for a float): a dB cell must match within ``DB_TOL`` dB,
any other number to a relative ``DB_TOL``, and ``inf``, ``error`` and text
cells exactly.  Component WAVs from ``decompose`` are not hashed: they are
rounded to float32, so a change far inside ``DB_TOL`` can flip their bits.

After a deliberate change of the numbers, regenerate the golden file with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and name it in CHANGES.md with the largest cell change and the reason.
"""

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import RATE, lowpass_noise
from opdkit.cli import main
from opdkit.enhance import ENHANCE_METHODS
from opdkit.signals import Waveform
from opdkit.wavio import write_wav

GOLDEN = Path(__file__).with_name("golden") / "pipeline.json"
DB_TOL = 1e-9
UTTERANCE_SAMPLES = RATE // 2


def _build_corpus(root: Path) -> tuple[Path, Path]:
    speech_dir, noise_dir = root / "speech", root / "noise"
    speech_dir.mkdir()
    noise_dir.mkdir()
    rng = np.random.default_rng(2024)
    t = np.arange(UTTERANCE_SAMPLES)
    for i in range(3):
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * t / 2000.0 + i) ** 2
        write_wav(speech_dir / f"utt{i}.wav",
                  Waveform(lowpass_noise(rng, UTTERANCE_SAMPLES) * envelope * 0.1, RATE))
    # one noise file shorter than the speech (tiled), one longer (cut)
    write_wav(noise_dir / "n0.wav", Waveform(lowpass_noise(rng, 5000) * 0.05, RATE))
    write_wav(noise_dir / "n1.wav", Waveform(lowpass_noise(rng, 12000) * 0.05, RATE))
    return speech_dir, noise_dir


def _run(*argv: str) -> None:
    assert main(list(argv)) == 0, argv


def _flatten(record: dict, prefix: str = "") -> dict:
    cells = {}
    for key, value in record.items():
        if isinstance(value, dict):
            cells.update(_flatten(value, f"{prefix}{key}."))
        else:
            cells[prefix + key] = value if isinstance(value, str) else repr(value)
    return cells


def run_pipeline(root: Path) -> dict:
    """Run the pipeline under ``root``; return WAV hashes and tables (a
    header row, then the cells), keyed by path relative to ``root``."""
    speech_dir, noise_dir = _build_corpus(root)
    mixed = root / "mix"
    _run("mix", "--speech-dir", str(speech_dir), "--noise-dir", str(noise_dir),
         "--snr", "5", "--seed", "3", "--out", str(mixed))
    for method in ENHANCE_METHODS:
        enhanced = root / method
        _run("enhance", "--corpus", str(mixed / "corpus.jsonl"), "--method", method,
             "--out", str(enhanced))
        for sweep in ("oa", "dsa"):
            _run(sweep, "--corpus", str(enhanced / "corpus.jsonl"),
                 "--out", str(enhanced / sweep))
        _run("decompose", "--speech", str(mixed / "utt0.speech.wav"),
             "--noise", str(mixed / "utt0.noise.wav"),
             "--enhanced", str(enhanced / "utt0.enhanced.wav"),
             "-L", "64", "--out", str(enhanced / "decompose"))
    outputs = {"wav_sha256": {}, "tables": {}}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.suffix == ".wav" and path.parent in (mixed, *(root / m for m in ENHANCE_METHODS)):
            outputs["wav_sha256"][rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                outputs["tables"][rel] = list(csv.reader(fh))
        elif path.name.endswith(".metrics.json"):
            cells = _flatten(json.loads(path.read_text()))
            outputs["tables"][rel] = [list(cells), list(cells.values())]
    return outputs


def _cell_matches(column: str, got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    if column.endswith("_db"):
        return abs(a - b) <= DB_TOL
    return math.isclose(a, b, rel_tol=DB_TOL, abs_tol=0.0)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_wavs_are_bit_identical(outputs, golden):
    assert outputs["wav_sha256"] == golden["wav_sha256"]


def test_every_table_cell_matches(outputs, golden):
    assert sorted(outputs["tables"]) == sorted(golden["tables"])
    mismatches = []
    for name, (header, *want_rows) in golden["tables"].items():
        got_header, *got_rows = outputs["tables"][name]
        assert got_header == header and len(got_rows) == len(want_rows), name
        for i, (got, want) in enumerate(zip(got_rows, want_rows), start=1):
            mismatches += [f"{name} row {i} {col}: {a} != {b}"
                           for col, a, b in zip(header, got, want, strict=True)
                           if not _cell_matches(col, a, b)]
    assert not mismatches, "\n".join(mismatches[:20])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --regenerate")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        result = run_pipeline(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(result['wav_sha256'])} WAV hashes, "
          f"{len(result['tables'])} tables")
