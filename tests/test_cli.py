import argparse
import csv
import gc
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import RATE, lowpass_noise, random_signals
import opdkit
import opdkit.cli as cli_module
from opdkit.cli import MAX_GRID_VALUES, build_parser, main, parse_grid
from opdkit.projection import lapack_source, openblas_threads
from opdkit.reporting import SWEEP_CSV_COLUMNS
from opdkit.signals import Waveform, energy
from opdkit.wavio import read_wav, write_wav


class TestParseGrid:
    def test_range(self):
        assert parse_grid("0:1.5:0.5") == [0.0, 0.5, 1.0, 1.5]

    def test_range_inclusive_of_inexact_stop(self):
        assert parse_grid("0:1.5:0.1")[-1] == 1.5
        assert len(parse_grid("0:1.5:0.1")) == 16

    def test_comma_list(self):
        assert parse_grid("0,0.25,2") == [0.0, 0.25, 2.0]

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            parse_grid("0:1")
        with pytest.raises(ValueError):
            parse_grid("1:0:0.5")
        with pytest.raises(ValueError):
            parse_grid("0:1:-0.5")

    @pytest.mark.parametrize("text", ["0:inf:1", "nan:1:0.1", "-inf:0:1",
                                      "0:1:inf", "0:1:nan", "1,nan", "inf",
                                      "0,-inf", "-1e308:1e308:1e-308"])
    def test_nonfinite_grid_rejected(self, text):
        with pytest.raises(ValueError, match="bad grid"):
            parse_grid(text)

    def test_nonfinite_grid_exit_code(self, tmp_path, capsys):
        rc = main(["oa", "--corpus", str(tmp_path / "absent.jsonl"),
                   "--grid", "0:inf:1", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "bad grid" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0:1e18:1", "0:1000:1", pytest.param(
        ",".join(["0"] * 1001), id="1001-fields")])
    def test_too_many_values_rejected(self, text):
        # refused from the value count, before the range is expanded
        with pytest.raises(ValueError, match="bad grid"):
            parse_grid(text)

    def test_largest_grid(self):
        assert parse_grid("0:999:1") == [float(i) for i in range(MAX_GRID_VALUES)]

    @pytest.mark.parametrize("text", ["0.5,0.5", "0,1,-0.0", "0:1e-11:1e-12"])
    def test_duplicate_values_rejected(self, text):
        # the last range collapses to 0.0 when its values are rounded
        with pytest.raises(ValueError, match="bad grid .*distinct"):
            parse_grid(text)

    @pytest.mark.parametrize("text", ["", "0:x:1", "0,,1"])
    def test_unparsable_grid_rejected(self, text):
        with pytest.raises(ValueError, match="bad grid"):
            parse_grid(text)

    @pytest.mark.parametrize("grid", ["0:1e18:1", ""])
    def test_bad_grid_exit_code(self, tmp_path, capsys, grid):
        rc = main(["oa", "--corpus", str(tmp_path / "absent.jsonl"),
                   "--grid", grid, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "bad grid" in capsys.readouterr().err

    @given(start=st.decimals(-100, 100, places=3),
           step=st.decimals("0.001", 10, places=3),
           steps=st.integers(0, 999),
           fraction=st.decimals(0, "0.999", places=3))
    def test_range_properties(self, start, step, steps, fraction):
        # decimal text, as typed on the command line, at most 1000 points
        stop = start + step * (steps + fraction)
        values = parse_grid(f"{start}:{stop}:{step}")
        assert values[0] == float(start)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] <= float(stop) + float(step) * 1e-9
        assert len(values) == steps + 1


@pytest.fixture
def corpus_dirs(tmp_path):
    speech_dir = tmp_path / "speech"
    noise_dir = tmp_path / "noise"
    speech_dir.mkdir()
    noise_dir.mkdir()
    rng = np.random.default_rng(202)
    for i in range(2):
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * np.arange(1600) / 400.0 + i) ** 2
        write_wav(speech_dir / f"utt{i}.wav",
                  Waveform(lowpass_noise(rng, 1600) * envelope * 0.05, RATE))
    # one noise file shorter than the speech (exercises tiling), one longer
    write_wav(noise_dir / "n0.wav", Waveform(lowpass_noise(rng, 1000) * 0.05, RATE))
    write_wav(noise_dir / "n1.wav", Waveform(lowpass_noise(rng, 2500) * 0.05, RATE))
    return speech_dir, noise_dir


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


class TestMix:
    def test_mix_outputs_and_snr(self, tmp_path, corpus_dirs):
        speech_dir, noise_dir = corpus_dirs
        out = tmp_path / "mix"
        rc = main(["mix", "--speech-dir", str(speech_dir), "--noise-dir",
                   str(noise_dir), "--snr", "0", "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert (out / "corpus.jsonl").exists()
        # mix runs no LAPACK, so it records none
        assert json.loads((out / "run_manifest.json").read_text())["numerics"] is None
        for i in range(2):
            s = read_wav(out / f"utt{i}.speech.wav")
            n = read_wav(out / f"utt{i}.noise.wav")
            y = read_wav(out / f"utt{i}.mix.wav")
            assert len(s) == len(n) == len(y) == 1600
            measured = 10.0 * math.log10(energy(s) / energy(n))
            # written as float32, so the file-level SNR carries quantization
            assert measured == pytest.approx(0.0, abs=1e-5)

    def test_same_seed_is_byte_identical(self, tmp_path, corpus_dirs):
        speech_dir, noise_dir = corpus_dirs
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert main(["mix", "--speech-dir", str(speech_dir), "--noise-dir",
                         str(noise_dir), "--snr", "3", "--seed", "5",
                         "--out", str(out)]) == 0
            outs.append(out)
        for rel in ("utt0.mix.wav", "utt1.noise.wav", "corpus.jsonl"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_malformed_wav_fails_naming_it(self, tmp_path, corpus_dirs, capsys):
        speech_dir, noise_dir = corpus_dirs
        bad = speech_dir / "utt1.wav"
        bad.write_bytes(bad.read_bytes()[:30])
        rc = main(["mix", "--speech-dir", str(speech_dir), "--noise-dir",
                   str(noise_dir), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # utt0 was not written either

    def test_malformed_noise_leaves_no_output(self, tmp_path, corpus_dirs, capsys):
        speech_dir, noise_dir = corpus_dirs
        bad = noise_dir / "n0.wav"
        bad.write_bytes(bad.read_bytes()[:30])
        rc = main(["mix", "--speech-dir", str(speech_dir), "--noise-dir",
                   str(noise_dir), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_reads_each_file_once(self, tmp_path, corpus_dirs, monkeypatch):
        import opdkit.cli as cli_module
        speech_dir, noise_dir = corpus_dirs
        for i in range(2, 5):  # 5 utterances over 2 noise files: some noise repeats
            (speech_dir / f"utt{i}.wav").write_bytes((speech_dir / "utt0.wav").read_bytes())
        reads = []
        monkeypatch.setattr(cli_module, "read_wav",
                            lambda path: reads.append(str(path)) or read_wav(path))
        assert main(["mix", "--speech-dir", str(speech_dir), "--noise-dir",
                     str(noise_dir), "--out", str(tmp_path / "m")]) == 0
        inputs = [*speech_dir.glob("*.wav"), *noise_dir.glob("*.wav")]
        assert sorted(reads) == sorted(map(str, inputs))

    def test_empty_noise_dir_fails(self, tmp_path, corpus_dirs, capsys):
        speech_dir, _ = corpus_dirs
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["mix", "--speech-dir", str(speech_dir), "--noise-dir",
                   str(empty), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "no WAV files" in capsys.readouterr().err


@pytest.fixture
def mixed_corpus(tmp_path, corpus_dirs):
    speech_dir, noise_dir = corpus_dirs
    out = tmp_path / "mixed"
    assert main(["mix", "--speech-dir", str(speech_dir), "--noise-dir",
                 str(noise_dir), "--snr", "0", "--seed", "7",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture
def enhanced_corpus(tmp_path, mixed_corpus):
    out = tmp_path / "enhanced"
    assert main(["enhance", "--corpus", str(mixed_corpus / "corpus.jsonl"),
                 "--method", "spectral-subtraction", "--frame-len", "256",
                 "--hop", "128", "--out", str(out)]) == 0
    return out


class TestEnhanceCommand:
    def test_writes_enhanced_files_and_manifest(self, enhanced_corpus):
        manifest_lines = (enhanced_corpus / "corpus.jsonl").read_text().splitlines()
        assert len(manifest_lines) == 2
        for line in manifest_lines:
            record = json.loads(line)
            assert record["enhanced_path"].endswith(".enhanced.wav")
        enhanced = read_wav(enhanced_corpus / "utt0.enhanced.wav")
        assert len(enhanced) == 1600

    def test_malformed_speech_leaves_no_output(self, tmp_path, mixed_corpus, capsys):
        bad = mixed_corpus / "utt1.speech.wav"  # the last utterance
        bad.write_bytes(bad.read_bytes()[:30])
        rc = main(["enhance", "--corpus", str(mixed_corpus / "corpus.jsonl"),
                   "--method", "oracle-wiener", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # utt0 was not written either

    def test_output_float32_cannot_hold_leaves_no_output(self, tmp_path, mixed_corpus,
                                                         capsys):
        # utt1 rewritten as float64 WAVs at 1e-60: its enhanced file would be
        # float32 zeros, and utt0 is not written either
        from scipy.io import wavfile
        for kind in ("speech", "noise"):
            path = mixed_corpus / f"utt1.{kind}.wav"
            wavfile.write(path, RATE, read_wav(path).samples * 1e-60)
        rc = main(["enhance", "--corpus", str(mixed_corpus / "corpus.jsonl"),
                   "--method", "oracle-wiener", "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: utt1.enhanced.wav: ") and "float32" in err
        assert not (tmp_path / "x").exists()

    def test_reads_only_speech_and_noise_once(self, tmp_path, mixed_corpus,
                                              enhanced_corpus, monkeypatch):
        import opdkit.reporting as reporting_module
        # re-enhancing an enhanced corpus never reads its old enhanced files
        (enhanced_corpus / "utt0.enhanced.wav").unlink()
        reads = []
        monkeypatch.setattr(reporting_module, "read_wav",
                            lambda path: reads.append(os.path.realpath(path)) or read_wav(path))
        assert main(["enhance", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--method", "oracle-wiener", "--out", str(tmp_path / "again")]) == 0
        inputs = [*mixed_corpus.glob("*.speech.wav"), *mixed_corpus.glob("*.noise.wav")]
        assert sorted(reads) == sorted(os.path.realpath(p) for p in inputs)
        assert (tmp_path / "again" / "utt0.enhanced.wav").exists()


    @pytest.mark.parametrize("bad_id", ["../../escaped", "sub/dir", "..", ".", ""])
    def test_path_like_id_rejected_before_out(self, tmp_path, mixed_corpus, capsys,
                                              bad_id):
        records = [json.loads(line) for line in
                   (mixed_corpus / "corpus.jsonl").read_text().splitlines()]
        records[-1]["utterance_id"] = bad_id
        manifest = mixed_corpus / "bad_id.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
        before = set(tmp_path.rglob("*"))
        rc = main(["enhance", "--corpus", str(manifest), "--method", "oracle-wiener",
                   "--out", str(tmp_path / "enh" / "x")])
        assert rc == 1
        assert repr(bad_id) in capsys.readouterr().err
        assert set(tmp_path.rglob("*")) == before


class TestDecomposeCommand:
    def test_metrics_json_and_components(self, tmp_path, enhanced_corpus,
                                          mixed_corpus):
        out = tmp_path / "dec"
        rc = main(["decompose",
                   "--speech", str(mixed_corpus / "utt0.speech.wav"),
                   "--noise", str(mixed_corpus / "utt0.noise.wav"),
                   "--enhanced", str(enhanced_corpus / "utt0.enhanced.wav"),
                   "--id", "utt0", "-L", "8", "--out", str(out)])
        assert rc == 0
        record = json.loads((out / "utt0.metrics.json").read_text())
        assert set(record) == {"sdr_db", "snr_db", "sar_db", "energies"}
        assert isinstance(record["sar_db"], float)
        for suffix in (".target.wav", ".enoise.wav", ".eartif.wav"):
            assert (out / f"utt0{suffix}").exists()

    def test_perfect_enhancement_reports_inf(self, tmp_path, mixed_corpus):
        out = tmp_path / "dec_perfect"
        rc = main(["decompose",
                   "--speech", str(mixed_corpus / "utt0.speech.wav"),
                   "--noise", str(mixed_corpus / "utt0.noise.wav"),
                   "--enhanced", str(mixed_corpus / "utt0.speech.wav"),
                   "--id", "perfect", "-L", "8", "--out", str(out)])
        assert rc == 0
        record = json.loads((out / "perfect.metrics.json").read_text())
        assert record["sar_db"] == "inf"
        assert record["sdr_db"] == "inf"

    def test_four_sample_running_example(self, tmp_path):
        # the worked example rendered as real WAV files end to end
        wavs = tmp_path / "tiny"
        wavs.mkdir()
        write_wav(wavs / "s.wav", Waveform([1.0, 0.0, 0.0, 0.0], RATE))
        write_wav(wavs / "n.wav", Waveform([0.0, 1.0, 0.0, 0.0], RATE))
        write_wav(wavs / "sh.wav", Waveform([0.9, 0.2, 0.1, 0.0], RATE))
        out = tmp_path / "dec_tiny"
        rc = main(["decompose", "--speech", str(wavs / "s.wav"),
                   "--noise", str(wavs / "n.wav"),
                   "--enhanced", str(wavs / "sh.wav"),
                   "--id", "tiny", "-L", "1", "--out", str(out)])
        assert rc == 0
        record = json.loads((out / "tiny.metrics.json").read_text())
        assert record["sar_db"] == pytest.approx(19.2941892571, abs=1e-3)
        assert record["snr_db"] == pytest.approx(13.0642502755, abs=1e-3)
        assert record["sdr_db"] == pytest.approx(12.0951501454, abs=1e-3)
        target = read_wav(out / "tiny.target.wav")
        np.testing.assert_allclose(target.samples, [0.9, 0.0, 0.0, 0.0], atol=1e-6)

    def test_components_float32_cannot_hold_refused_before_out(self, tmp_path, capsys):
        # float64 WAVs at 1e-60: the decomposition is sound, but every
        # component would be written as float32 zeros
        from scipy.io import wavfile
        rng = np.random.default_rng(3)
        s, n, w = (lowpass_noise(rng, 400) * 1e-60 for _ in range(3))
        for name, x in (("s", s), ("n", n), ("sh", s + 0.3 * n + 0.2 * w)):
            wavfile.write(tmp_path / f"{name}.wav", RATE, x)
        out = tmp_path / "dec_tiny"
        assert main(["decompose", "--speech", str(tmp_path / "s.wav"),
                     "--noise", str(tmp_path / "n.wav"), "--enhanced", str(tmp_path / "sh.wav"),
                     "--id", "tiny", "-L", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tiny.target.wav: samples up to ") and err.count("\n") == 1
        assert err.endswith(" in magnitude all round to zero in float32\n")
        assert not out.exists()

    def test_mismatched_lengths_exit_code(self, tmp_path, mixed_corpus, capsys):
        short = tmp_path / "short.wav"
        write_wav(short, Waveform(np.ones(100) * 0.1, RATE))
        rc = main(["decompose",
                   "--speech", str(mixed_corpus / "utt0.speech.wav"),
                   "--noise", str(short), "-L", "8",
                   "--enhanced", str(mixed_corpus / "utt0.mix.wav"),
                   "--out", str(tmp_path / "dec_bad")])
        assert rc == 1
        assert "length" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_id", ["../dec_escaped", "sub/dir", ".."])
    def test_path_like_id_rejected_before_out(self, tmp_path, enhanced_corpus,
                                              mixed_corpus, capsys, bad_id):
        before = set(tmp_path.rglob("*"))
        rc = main(["decompose",
                   "--speech", str(mixed_corpus / "utt0.speech.wav"),
                   "--noise", str(mixed_corpus / "utt0.noise.wav"),
                   "--enhanced", str(enhanced_corpus / "utt0.enhanced.wav"),
                   "--id", bad_id, "-L", "8", "--out", str(tmp_path / "dec" / "a")])
        assert rc == 1
        assert repr(bad_id) in capsys.readouterr().err
        assert set(tmp_path.rglob("*")) == before

    def test_zero_max_delay_creates_no_out(self, tmp_path, enhanced_corpus,
                                           mixed_corpus, monkeypatch, capsys):
        import opdkit.reporting as reporting_module
        reads = []
        monkeypatch.setattr(reporting_module, "read_wav",
                            lambda path: reads.append(path) or read_wav(path))
        out = tmp_path / "X"
        assert main(["decompose",
                     "--speech", str(mixed_corpus / "utt0.speech.wav"),
                     "--noise", str(mixed_corpus / "utt0.noise.wav"),
                     "--enhanced", str(enhanced_corpus / "utt0.enhanced.wav"),
                     "-L", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_delay" in err
        assert reads == []
        assert not out.exists()


class TestOaCommand:
    def test_sweep_outputs(self, tmp_path, enhanced_corpus):
        out = tmp_path / "oa"
        rc = main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                   "--grid", "0:1:0.5", "-L", "8", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "oa.csv")
        assert header == SWEEP_CSV_COLUMNS
        assert len(rows) == 2 * 3
        by_utt = {}
        for record in rows:
            assert record["error"] == ""
            assert float(record["inner_s_hat_y"]) > 0
            by_utt.setdefault(record["utterance_id"], []).append(
                float(record["sar_db"]))
        # gain condition held, so SAR must rise along the grid per utterance
        for sars in by_utt.values():
            assert sars[0] < sars[1] < sars[2]
        _, summary = read_csv(out / "oa_summary.csv")
        assert len(summary) == 3
        for name in ("oa_sdr.svg", "oa_snr.svg", "oa_sar.svg"):
            ElementTree.parse(out / name)  # well-formed XML
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parameters"]["grid"] == [0.0, 0.5, 1.0]
        assert manifest["errors"] == []
        assert manifest["numerics"] == {"lapack_source": lapack_source(),
                                        "numpy_version": np.__version__,
                                        "openblas_threads": openblas_threads()}

    def test_zero_grid_matches_decompose_baseline(self, tmp_path,
                                                  enhanced_corpus, mixed_corpus):
        out = tmp_path / "oa0"
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--grid", "0", "-L", "8", "--out", str(out)]) == 0
        _, rows = read_csv(out / "oa.csv")
        row = next(r for r in rows if r["utterance_id"] == "utt0")

        dec_out = tmp_path / "dec_baseline"
        assert main(["decompose",
                     "--speech", str(mixed_corpus / "utt0.speech.wav"),
                     "--noise", str(mixed_corpus / "utt0.noise.wav"),
                     "--enhanced", str(enhanced_corpus / "utt0.enhanced.wav"),
                     "--id", "utt0", "-L", "8", "--out", str(dec_out)]) == 0
        baseline = json.loads((dec_out / "utt0.metrics.json").read_text())
        assert float(row["sar_db"]) == pytest.approx(baseline["sar_db"], abs=1e-9)
        assert float(row["sari_closed_form_db"]) == 0.0

    def test_workers_do_not_change_results(self, tmp_path, mixed_corpus, enhanced_corpus):
        # "bad" fails with an error row, and so does "same", whose noise_path
        # names its speech file and whose basis is refused; with three threads
        # both must still be reported in corpus order, and every file must be
        # the serial run's but for the worker count in the manifest
        bad = tmp_path / "bad.enhanced.wav"
        bad.write_bytes(b"RIFF\x00\x00\x00\x00WAVE")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({
            "utterance_id": utt, "speech_path": str(mixed_corpus / f"{src}.speech.wav"),
            "noise_path": str(mixed_corpus / f"{src}.{noise}.wav"),
            "enhanced_path": str(enhanced or enhanced_corpus / f"{src}.enhanced.wav")}) + "\n"
            for utt, src, noise, enhanced in (("utt0", "utt0", "noise", None),
                                              ("bad", "utt1", "noise", bad),
                                              ("same", "utt1", "speech", None))))
        for command, grid in (("oa", "0:1:0.5"), ("dsa", "0,1")):
            outputs = []
            for workers in ("3", "1"):
                out = tmp_path / f"{command}_w{workers}"
                assert main([command, "--corpus", str(corpus), "--grid", grid, "-L", "8",
                             "--workers", workers, "--out", str(out)]) == 3
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                manifest = json.loads(files.pop("run_manifest.json"))
                assert manifest["parameters"].pop("workers") == int(workers)
                outputs.append((files, manifest))
            (files, manifest), serial = outputs
            assert (files, manifest) == serial, command
            assert [e["utterance_id"] for e in manifest["errors"]] == ["bad", "same"]
            _, rows = read_csv(tmp_path / f"{command}_w3" / f"{command}.csv")
            assert [r["utterance_id"] for r in rows] == \
                ["utt0"] * (len(rows) - 2) + ["bad", "same"]

    def test_threads_match_serial_where_lapack_does_real_work(self, tmp_path, monkeypatch):
        # L=8 corpora never run two multithreaded LAPACK calls at once; at
        # T=16000 and L=256 each basis solves with 256-by-256 dtfsm, beside
        # the others
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            for i in range(4):
                paths = [str(tmp_path / f"u{i}.{kind}.wav") for kind in ("s", "n", "e")]
                s, n, s_hat = random_signals(i, length=16000, max_delay=256)
                for path, w in zip(paths, (s, n, s_hat)):
                    write_wav(path, w)
                fh.write(json.dumps(dict(zip(("speech_path", "noise_path", "enhanced_path"),
                                             paths), utterance_id=f"u{i}")) + "\n")
        written, write = [], cli_module.write_sweep_csv

        def recording(path, rows, error_rows=None):
            written.append(rows)
            write(path, rows, error_rows)
        monkeypatch.setattr(cli_module, "write_sweep_csv", recording)
        for workers in ("4", "1"):
            out = tmp_path / f"w{workers}"
            assert main(["oa", "--corpus", str(corpus), "--grid", "0,1", "-L", "256",
                         "--workers", workers, "--out", str(out)]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["errors"] == []
        threaded, serial = written
        assert [row.utterance_id for row in threaded] == [f"u{i}" for i in range(4) for _ in "01"]
        assert [(row.utterance_id, row.metrics) for row in threaded] == \
            [(row.utterance_id, row.metrics) for row in serial]

    def test_default_grid(self, tmp_path, enhanced_corpus):
        out = tmp_path / "oa_default"
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "-L", "8", "--out", str(out)]) == 0
        _, rows = read_csv(out / "oa.csv")
        assert len(rows) == 2 * 16
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parameters"]["grid"] == [round(0.1 * i, 10) for i in range(16)]

    def test_missing_method_and_enhanced_fails(self, tmp_path, mixed_corpus, capsys):
        rc = main(["oa", "--corpus", str(mixed_corpus / "corpus.jsonl"),
                   "--grid", "0", "-L", "8", "--out", str(tmp_path / "oa_bad")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("no enhanced_path in the manifest; run `opdkit enhance` first") == 2
        assert not (tmp_path / "oa_bad").exists()

    def test_malformed_enhanced_file_fails_only_that_utterance(self, tmp_path,
                                                                enhanced_corpus):
        bad = enhanced_corpus / "utt1.enhanced.wav"
        bad.write_bytes(b"RIFF\x00\x00\x00\x00WAVE")
        out = tmp_path / "oa"
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--grid", "0", "-L", "8", "--out", str(out)]) == 3
        _, rows = read_csv(out / "oa.csv")
        by_utterance = {r["utterance_id"]: r for r in rows}
        assert by_utterance["utt0"]["error"] == ""
        assert by_utterance["utt1"]["error"].startswith("ValueError: ")
        assert str(bad) in by_utterance["utt1"]["error"]


class TestDsaCommand:
    def test_sweep_outputs(self, tmp_path, enhanced_corpus):
        out = tmp_path / "dsa"
        rc = main(["dsa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                   "--grid", "0,1", "-L", "8", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "dsa.csv")
        assert header == SWEEP_CSV_COLUMNS
        assert len(rows) == 2 * 4
        for record in rows:
            assert record["omega_obs"] == ""
            assert record["inner_s_hat_y"] == ""
        assert (out / "dsa_sar_vs_omega_noise.svg").exists()
        assert (out / "dsa_snr_vs_omega_artif.svg").exists()

    def test_default_grid(self, tmp_path, enhanced_corpus):
        out = tmp_path / "dsa_default"
        assert main(["dsa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "-L", "8", "--out", str(out)]) == 0
        _, rows = read_csv(out / "dsa.csv")
        for utterance_id in ("utt0", "utt1"):
            assert sum(r["utterance_id"] == utterance_id for r in rows) == 49
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parameters"]["grid"] == [0.25 * i for i in range(7)]

    def test_grid_without_unit_point_skips_plots(self, tmp_path, enhanced_corpus,
                                                 capsys):
        out = tmp_path / "dsa_no_unit"
        assert main(["dsa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--grid", "0:0.9:0.3", "-L", "8", "--out", str(out)]) == 0
        assert not list(out.glob("*.svg"))
        skipped = [line for line in capsys.readouterr().err.splitlines()
                   if "skipped" in line]
        assert len(skipped) == 1
        assert "omega_artif=1.0" in skipped[0] and ".svg" in skipped[0]

    def test_unit_point_matches_oa_baseline(self, tmp_path, enhanced_corpus):
        dsa_out = tmp_path / "dsa_unit"
        oa_out = tmp_path / "oa_unit"
        assert main(["dsa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--grid", "0,1", "-L", "8", "--out", str(dsa_out)]) == 0
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--grid", "0", "-L", "8", "--out", str(oa_out)]) == 0
        _, dsa_rows = read_csv(dsa_out / "dsa.csv")
        _, oa_rows = read_csv(oa_out / "oa.csv")
        unit = next(r for r in dsa_rows if r["utterance_id"] == "utt1"
                    and r["omega_noise"] == "1.0" and r["omega_artif"] == "1.0")
        base = next(r for r in oa_rows if r["utterance_id"] == "utt1")
        assert float(unit["sar_db"]) == pytest.approx(float(base["sar_db"]), abs=1e-9)
        assert float(unit["sdr_db"]) == pytest.approx(float(base["sdr_db"]), abs=1e-9)


# Address-space cap set by the child process on itself: room for the
# interpreter, numpy and scipy, far below a 12.8 GB Gram.
_LIMITED_PRELUDE = ("import resource, sys; "
                    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); ")


def _child_env():
    """The environment with this opdkit's source tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(opdkit.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_limited(code, *args):
    return subprocess.run([sys.executable, "-c", _LIMITED_PRELUDE + code, *args],
                          env=_child_env(), capture_output=True, text=True, timeout=120)


class TestGramAllocation:
    """L=20000 over a 3 s pair (T >= 2L) needs a factor of L(L+1) * 8 = 3.2
    GB, more than the 2 GiB address space the child is limited to."""

    @pytest.fixture
    def three_second_pair(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        for name in ("speech", "noise", "enhanced"):
            path = tmp_path / f"{name}.wav"
            write_wav(path, Waveform(0.05 * lowpass_noise(rng, 3 * RATE), RATE))
            paths.append(str(path))
        return paths

    def test_decompose_exits_cleanly(self, tmp_path, three_second_pair):
        speech, noise, enhanced = three_second_pair
        out = tmp_path / "X"
        result = _run_limited("from opdkit.cli import main; sys.exit(main(sys.argv[1:]))",
                              "decompose", "--speech", speech, "--noise", noise,
                              "--enhanced", enhanced, "-L", "20000", "--out", str(out))
        assert result.returncode == 1
        assert result.stderr == ("error: cannot allocate the Gram factor: L=20000 "
                                 "needs L(L+1)*8 = 3200160000 bytes\n")
        assert not out.exists()

    def test_sweep_fails_only_that_utterance(self, three_second_pair):
        code = ("import json; from opdkit.cli import _sweep_task; "
                "from opdkit.analysis import OaPoint; "
                "from opdkit.reporting import UtteranceTriplet; "
                "t = UtteranceTriplet('utt', *sys.argv[1:4]); "
                "results = [_sweep_task('oa', t, L, [OaPoint(0.0)]) for L in (20000, 64)]; "
                "print(json.dumps([[error, len(rows)] for rows, error in results]))")
        result = _run_limited(code, *three_second_pair)
        assert result.returncode == 0, result.stderr
        (error, rows), (later_error, later_rows) = json.loads(result.stdout)
        assert error.startswith("ValueError: cannot allocate the Gram factor: L=20000")
        assert rows == 0
        assert later_error is None and later_rows == 1


class TestSweepArguments:
    def test_bad_grid_creates_no_out(self, tmp_path, enhanced_corpus, capsys):
        out = tmp_path / "X"
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--grid", "0:x:1", "--out", str(out)]) == 1
        assert "bad grid" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_max_delay_fails_before_reading_audio(self, tmp_path, enhanced_corpus,
                                                       monkeypatch, capsys):
        import opdkit.reporting as reporting_module
        reads = []
        monkeypatch.setattr(reporting_module, "read_wav",
                            lambda path: reads.append(path) or read_wav(path))
        out = tmp_path / "X"
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "-L", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("max_delay") == 1
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_fail_before_reading_audio(self, tmp_path, enhanced_corpus,
                                                         monkeypatch, capsys, workers):
        import opdkit.reporting as reporting_module
        reads = []
        monkeypatch.setattr(reporting_module, "read_wav",
                            lambda path: reads.append(path) or read_wav(path))
        out = tmp_path / "X"
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--workers", workers, "--out", str(out)]) == 1
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oa", "dsa"])
    @pytest.mark.parametrize("grid", ["0.5,0.5", "-0.5,1"])
    def test_bad_grid_point_fails_once_before_reading_audio(
            self, tmp_path, enhanced_corpus, monkeypatch, capsys, command, grid):
        import opdkit.reporting as reporting_module
        reads = []
        monkeypatch.setattr(reporting_module, "read_wav",
                            lambda path: reads.append(path) or read_wav(path))
        out = tmp_path / "X"
        assert main([command, "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     f"--grid={grid}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "every utterance failed" not in err
        assert reads == []
        assert not out.exists()

    def test_worker_pool_bounded_by_utterances(self, tmp_path, enhanced_corpus,
                                               monkeypatch):
        # stands in for ThreadPoolExecutor; the CLI imports the pool from
        # concurrent.futures only when it starts one
        import concurrent.futures
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "--grid", "0,1", "-L", "8", "--workers", "1000",
                     "--out", str(tmp_path / "X")]) == 0
        assert sizes == [2]

    def test_max_delay_beyond_length_fails_each_utterance(self, tmp_path,
                                                          enhanced_corpus, capsys):
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "-L", "1601", "--out", str(tmp_path / "X")]) == 1
        err = capsys.readouterr().err
        assert "every utterance failed" in err
        assert err.count("ValueError: max_delay L=1601 needs T >= 2L samples, got T=1600: ") == 2
        assert err.count("lower -L to at most T//2 = 800") == 2

    def test_max_delay_beyond_half_the_length_fails_each_utterance(self, tmp_path,
                                                                   enhanced_corpus, capsys):
        # 2L delayed copies in R^T with T < 2L are linearly dependent
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"),
                     "-L", "801", "--out", str(tmp_path / "X")]) == 1
        err = capsys.readouterr().err
        assert "every utterance failed" in err
        assert err.count("ValueError: max_delay L=801 needs T >= 2L samples, got T=1600: ") == 2
        assert err.count("lower -L to at most T//2 = 800") == 2
        assert not (tmp_path / "X").exists()


@pytest.mark.parametrize("argv", [
    ["enhance", "--corpus", "{mixed}/corpus.jsonl", "--method", "oracle-wiener",
     "--hop", "0"],
    ["enhance", "--corpus", "{tmp}/missing.jsonl", "--method", "oracle-wiener"],
    ["mix", "--speech-dir", "{speech}", "--noise-dir", "{tmp}"],
    ["mix", "--speech-dir", "{speech}", "--noise-dir", "{noise}", "--snr", "nan"],
    # power ratios of 10^400 and 10^-400: no float holds them
    ["mix", "--speech-dir", "{speech}", "--noise-dir", "{noise}", "--snr", "4000"],
    ["mix", "--speech-dir", "{speech}", "--noise-dir", "{noise}", "--snr", "-4000"],
    ["enhance", "--corpus", "{mixed}/corpus.jsonl", "--method", "ideal-binary-mask",
     "--mask-threshold-db", "4000"],
    # noise scaled by 10^-150 and 10^150: a float64 holds it, a float32 WAV does not
    ["mix", "--speech-dir", "{speech}", "--noise-dir", "{noise}", "--snr", "3000"],
    ["mix", "--speech-dir", "{speech}", "--noise-dir", "{noise}", "--snr", "-3000"],
], ids=["enhance-hop-0", "enhance-missing-corpus", "mix-empty-noise-dir",
        "mix-nan-snr", "mix-snr-4000", "mix-snr-minus-4000", "enhance-mask-threshold-4000",
        "mix-snr-3000", "mix-snr-minus-3000"])
def test_mix_and_enhance_check_inputs_before_out(tmp_path, corpus_dirs, mixed_corpus,
                                                 capsys, argv):
    speech_dir, noise_dir = corpus_dirs
    out = tmp_path / "X"
    argv = [a.format(mixed=mixed_corpus, tmp=tmp_path, speech=speech_dir,
                     noise=noise_dir) for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dB is out of range" in err or not any("4000" in a for a in argv)
    assert "float32" in err or not any("3000" in a for a in argv)
    assert not out.exists()


# Every option of every subcommand; a new one needs a measured reason.
SUBCOMMAND_OPTIONS = {
    "decompose": [["--speech"], ["--noise"], ["--enhanced"], ["--id"],
                  ["--max-delay", "-L"], ["--out"]],
    "dsa": [["--corpus"], ["--grid"], ["--max-delay", "-L"], ["--workers"], ["--out"]],
    "oa": [["--corpus"], ["--grid"], ["--max-delay", "-L"], ["--workers"], ["--out"]],
    "mix": [["--speech-dir"], ["--noise-dir"], ["--snr"], ["--seed"], ["--out"]],
    "enhance": [["--corpus"], ["--out"], ["--method"], ["--frame-len"], ["--hop"],
                ["--oversubtraction"], ["--mask-threshold-db"]],
}
ENHANCER_FLAGS = ["--method", "--frame-len", "--hop", "--oversubtraction",
                  "--mask-threshold-db"]


class TestParser:
    @staticmethod
    def subparsers():
        (action,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_subcommand_options_pinned(self):
        options = {name: [a.option_strings for a in sub._actions
                          if not isinstance(a, argparse._HelpAction)]
                   for name, sub in self.subparsers().items()}
        assert options == SUBCOMMAND_OPTIONS
        required = {name: [a.option_strings[0] for a in sub._actions if a.required]
                    for name, sub in self.subparsers().items()}
        assert required["decompose"] == ["--speech", "--noise", "--enhanced", "--out"]
        assert required["enhance"] == ["--corpus", "--out", "--method"]

    @pytest.mark.parametrize("command", ["decompose", "oa", "dsa"])
    @pytest.mark.parametrize("flag", ENHANCER_FLAGS)
    def test_analysis_commands_reject_enhancer_flags(self, capsys, command, flag):
        assert flag not in self.subparsers()[command].format_help()
        argv = ([command, "--speech", "s", "--noise", "n", "--enhanced", "e"]
                if command == "decompose" else [command, "--corpus", "c"])
        argv += ["--out", "o"]
        build_parser().parse_args(argv)
        value = "spectral-subtraction" if flag == "--method" else "256"
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv + [flag, value])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, mixed_corpus, monkeypatch, capsys):
    import opdkit.cli as cli_module
    from opdkit.projection import SingularProjectionError

    def broken(*args, **kwargs):
        raise SingularProjectionError("forced singular system")

    monkeypatch.setattr(cli_module, "Decomposer", broken)
    rc = main(["decompose",
               "--speech", str(mixed_corpus / "utt0.speech.wav"),
               "--noise", str(mixed_corpus / "utt0.noise.wav"),
               "--enhanced", str(mixed_corpus / "utt0.mix.wav"),
               "-L", "8", "--out", str(tmp_path / "dec_sing")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.fixture
def no_lapack(monkeypatch):
    """Neither numpy's OpenBLAS nor scipy: both pointer sources fail."""
    import opdkit.projection as projection_module

    def numpy_without_openblas():
        raise AttributeError("_umath_linalg.so: undefined symbol: scipy_dtfsm_64_")

    def scipy_missing():
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.setattr(projection_module, "_numpy_openblas_pointers", numpy_without_openblas)
    monkeypatch.setattr(projection_module, "_cython_lapack_pointers", scipy_missing)
    projection_module._lapack.cache_clear()
    yield
    projection_module._lapack.cache_clear()


def test_missing_lapack_is_an_error_naming_scipy(tmp_path, enhanced_corpus, mixed_corpus,
                                                 no_lapack, capsys):
    from opdkit.analysis import OaPoint
    from opdkit.cli import _sweep_task
    from opdkit.reporting import load_corpus_manifest
    rc = main(["decompose",
               "--speech", str(mixed_corpus / "utt0.speech.wav"),
               "--noise", str(mixed_corpus / "utt0.noise.wav"),
               "--enhanced", str(enhanced_corpus / "utt0.enhanced.wav"),
               "-L", "8", "--out", str(tmp_path / "dec")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    message = err.strip().removeprefix("error: ")
    assert "scipy_dtfsm_64_" in message and "No module named 'scipy'" in message
    assert not (tmp_path / "dec").exists()
    triplet = load_corpus_manifest(enhanced_corpus / "corpus.jsonl")[0]
    assert _sweep_task("oa", triplet, 8, [OaPoint(0.0)])[1] == f"ImportError: {message}"
    # a sweep binds LAPACK before its pool starts: one error, not one per utterance
    for workers in ("1", "2"):
        assert main(["oa", "--corpus", str(enhanced_corpus / "corpus.jsonl"), "-L", "8",
                     "--workers", workers, "--out", str(tmp_path / "oa")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "oa").exists()


def test_noise_equal_to_speech_fails_only_that_utterance(tmp_path, mixed_corpus,
                                                         enhanced_corpus, capsys):
    # utt0's noise_path names its speech file, so its basis is refused: utt1
    # is written, utt0 is an error naming the cause, and the exit code says
    # that some utterances failed
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({
        "utterance_id": utt, "speech_path": str(mixed_corpus / f"{utt}.speech.wav"),
        "noise_path": str(mixed_corpus / f"{utt}.{kind}.wav"),
        "enhanced_path": str(enhanced_corpus / f"{utt}.enhanced.wav")}) + "\n"
        for utt, kind in (("utt0", "speech"), ("utt1", "noise"))))
    cause = ("SingularProjectionError: the noise reference is a multiple of the speech "
             "reference: ")
    for command in ("oa", "dsa"):
        out = tmp_path / command
        assert main([command, "--corpus", str(corpus), "--grid", "0,1", "-L", "8",
                     "--out", str(out)]) == 3
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "regularization_events" not in manifest
        (error,) = manifest["errors"]
        assert error["utterance_id"] == "utt0" and error["error"].startswith(cause)
        _, rows = read_csv(out / f"{command}.csv")
        assert [r["utterance_id"] for r in rows] == ["utt1"] * (len(rows) - 1) + ["utt0"]
        assert rows[-1]["error"] == error["error"]
        assert f"  failed utt0: {error['error']}" in capsys.readouterr().err
    out = tmp_path / "dec"
    assert main(["decompose", "--speech", str(mixed_corpus / "utt0.speech.wav"),
                 "--noise", str(mixed_corpus / "utt0.speech.wav"),
                 "--enhanced", str(enhanced_corpus / "utt0.enhanced.wav"),
                 "-L", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: " + cause.removeprefix("SingularProjectionError: "))
    assert not out.exists()


def test_self_test_argument_error_exits_1(capsys):
    assert main(["--self-test", "--self-test-cases", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: case_count must be >= 1\n"
    assert captured.out == ""


def test_self_test_flag(capsys):
    rc = main(["--self-test", "--self-test-cases", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "reconstruction_rel" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "decompose" in capsys.readouterr().out


_FREEZE_PROBE = """
import gc, sys
import opdkit.cli
sys.argv = ["opdkit", "--version"]
try:
    opdkit.cli.run()
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0)
"""


def test_entry_point_exits_as_before_and_freezes_the_collector():
    # run() freezes the collector on every way out, SystemExit from
    # --version included, so exit skips the last cyclic collection
    for module in ("opdkit", "opdkit.cli"):
        out = subprocess.run([sys.executable, "-m", module, "--version"], env=_child_env(),
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stdout, out.stderr) == \
            (0, f"opdkit {opdkit.__version__}\n", ""), module
    out = subprocess.run([sys.executable, "-c", _FREEZE_PROBE], env=_child_env(), check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines() == [f"opdkit {opdkit.__version__}", "0 True"]


def test_main_in_process_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main([]) == 1
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == before


_SCIPY_PROBE = """
import json, os, sys
import numpy as np
from opdkit.signals import Waveform
from opdkit.wavio import write_wav
from opdkit.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def lazy_modules():
    return sorted({"opdkit.selftest", "concurrent.futures"}.intersection(sys.modules))

tmp = sys.argv[1]
seen = {"import": scipy_modules() + lazy_modules()}
rng = np.random.default_rng(0)
for sub in ("speech", "noise"):
    os.makedirs(os.path.join(tmp, sub))
    write_wav(os.path.join(tmp, sub, "a.wav"), Waveform(rng.standard_normal(800) * 0.1, 8000))
assert main(["mix", "--speech-dir", os.path.join(tmp, "speech"), "--noise-dir",
             os.path.join(tmp, "noise"), "--out", os.path.join(tmp, "mix")]) == 0
assert main(["enhance", "--corpus", os.path.join(tmp, "mix", "corpus.jsonl"),
             "--method", "oracle-wiener", "--out", os.path.join(tmp, "enh")]) == 0
seen["mix+enhance"] = scipy_modules()
from opdkit.projection import _lapack
seen["mix+enhance_bound_lapack"] = _lapack.cache_info().currsize > 0
for sweep in ("oa", "dsa"):
    assert main([sweep, "--corpus", os.path.join(tmp, "enh", "corpus.jsonl"), "--grid", "0",
                 "-L", "8", "--out", os.path.join(tmp, sweep)]) == 0
    seen[sweep] = scipy_modules()
seen["serial_sweeps"] = lazy_modules()
assert main(["decompose", "--speech", os.path.join(tmp, "mix", "a.speech.wav"),
             "--noise", os.path.join(tmp, "mix", "a.noise.wav"),
             "--enhanced", os.path.join(tmp, "enh", "a.enhanced.wav"),
             "-L", "8", "--out", os.path.join(tmp, "dec")]) == 0
seen["decompose"] = scipy_modules()
assert main(["--self-test", "--self-test-cases", "3"]) == 0
seen["self-test"] = scipy_modules()
import ctypes
from opdkit.projection import _numpy_openblas_pointers
seen["lapack_int_bytes"] = ctypes.sizeof(_lapack().int_t)
try:
    _numpy_openblas_pointers()
    seen["numpy_exports_lapack"] = True
except AttributeError:
    seen["numpy_exports_lapack"] = False
print(json.dumps(seen))
"""


def test_cli_import_leaves_out_numpy_random():
    # only mix draws random numbers; every other command, --version among
    # them, should not pay for importing numpy.random
    probe = "import sys, opdkit.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(), check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_analysis_loads_no_scipy(tmp_path):
    # scipy's import dominates start-up; LAPACK's factor and solve run on the
    # OpenBLAS numpy bundles, so no command needs scipy when numpy exports them.
    # The self-test and the thread pool are imported only when used, and
    # LAPACK is bound only by the commands that solve.
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                         env=_child_env(), check=True, capture_output=True, text=True,
                         timeout=120)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["mix+enhance"] == []
    assert not seen["mix+enhance_bound_lapack"]
    assert seen["serial_sweeps"] == []
    if not seen["numpy_exports_lapack"]:
        pytest.skip("this numpy bundles no OpenBLAS; LAPACK comes from scipy")
    assert seen["lapack_int_bytes"] == 8  # numpy's OpenBLAS has 64-bit integers
    for command in ("oa", "dsa", "decompose", "self-test"):
        assert seen[command] == [], command
