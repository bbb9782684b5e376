import csv
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opdkit.analysis import SweepRow
from opdkit.metrics import MetricsReport
from opdkit.reporting import (RunManifest, SWEEP_CSV_COLUMNS, UtteranceTriplet,
                              load_corpus_manifest, load_triplet, summarize_rows,
                              write_corpus_manifest, write_run_manifest, write_summary_csv,
                              write_sweep_csv)
from opdkit.signals import Waveform
from opdkit.wavio import write_wav


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
# any JSON value per line, and objects with some or all manifest keys, so
# that some manifests load
_MANIFEST_LINES = _JSON_VALUES | st.fixed_dictionaries({}, optional={
    key: st.text() | _JSON_VALUES
    for key in ("utterance_id", "speech_path", "noise_path", "enhanced_path")})


def _record(utterance_id):
    return json.dumps({"utterance_id": utterance_id, "speech_path": "s.wav",
                       "noise_path": "n.wav"}) + "\n"


def _report(sdr=1.0, snr=2.0, sar=3.0):
    return MetricsReport(sdr_db=sdr, snr_db=snr, sar_db=sar,
                         target_energy=1.0, noise_energy=0.1,
                         artifact_energy=0.05, projected_energy=1.1)


def _row(utt="u0", sar=3.0, omega_obs=0.5):
    return SweepRow(utterance_id=utt, omega_noise=None, omega_artif=None,
                    omega_obs=omega_obs, metrics=_report(sar=sar),
                    inner_s_hat_y=1.25, sari_closed_form_db=0.75)


class TestCorpusManifest:
    def test_round_trip_and_relative_resolution(self, tmp_path):
        for name in ("a.speech.wav", "a.noise.wav"):
            write_wav(tmp_path / name, Waveform(np.ones(32), 8000))
        manifest = tmp_path / "corpus.jsonl"
        write_corpus_manifest(manifest, [UtteranceTriplet(
            utterance_id="a", speech_path="a.speech.wav", noise_path="a.noise.wav")])
        triplets = load_corpus_manifest(manifest)
        assert len(triplets) == 1
        assert triplets[0].enhanced_path is None
        s, n, s_hat = load_triplet(triplets[0])
        assert len(s) == 32 and len(n) == 32 and s_hat is None

    def test_missing_key_rejected(self, tmp_path):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(json.dumps({"utterance_id": "x"}) + "\n")
        with pytest.raises(ValueError, match="missing manifest key"):
            load_corpus_manifest(manifest)

    @pytest.mark.parametrize("line", ["[1, 2]", '"a.speech.wav"', json.dumps(
        {"utterance_id": "a", "speech_path": 5, "noise_path": "a.noise.wav"}), "{oops"],
        ids=["list", "string", "numeric-path", "not-json"])
    def test_malformed_record_rejected(self, tmp_path, line):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(_record("first") + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:2: ")):
            load_corpus_manifest(manifest)

    @pytest.mark.parametrize("value", [0, False, [], "", 1])
    def test_enhanced_path_must_be_a_non_empty_string(self, tmp_path, value):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(_record("first") + json.dumps(
            {"utterance_id": "a", "speech_path": "s.wav", "noise_path": "n.wav",
             "enhanced_path": value}) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:2: enhanced_path")):
            load_corpus_manifest(manifest)

    def test_absent_or_null_enhanced_path_is_none(self, tmp_path):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(_record("first") + json.dumps(
            {"utterance_id": "a", "speech_path": "s.wav", "noise_path": "n.wav",
             "enhanced_path": None}) + "\n")
        assert [t.enhanced_path for t in load_corpus_manifest(manifest)] == [None, None]

    def test_repeated_utterance_id_rejected(self, tmp_path):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text(_record("same") + _record("other") + _record("same"))
        with pytest.raises(ValueError, match=re.escape(
                f"{manifest}:3: utterance_id 'same' repeats line 1")):
            load_corpus_manifest(manifest)

    @given(st.lists(_MANIFEST_LINES, max_size=4))
    def test_loads_or_raises_value_error(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = os.path.join(tmp, "corpus.jsonl")
            with open(manifest, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(r) + "\n" for r in records)
            try:
                triplets = load_corpus_manifest(manifest)
            except ValueError:
                return
        for t in triplets:
            assert all(isinstance(v, str) for v in
                       (t.utterance_id, t.speech_path, t.noise_path))
            assert t.enhanced_path is None or isinstance(t.enhanced_path, str)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            load_corpus_manifest(manifest)

    def test_length_mismatch_detected(self, tmp_path):
        write_wav(tmp_path / "s.wav", Waveform(np.ones(32), 8000))
        write_wav(tmp_path / "n.wav", Waveform(np.ones(16), 8000))
        triplet = UtteranceTriplet("u", str(tmp_path / "s.wav"), str(tmp_path / "n.wav"))
        with pytest.raises(ValueError, match="length"):
            load_triplet(triplet)


class TestSweepCsv:
    def test_schema_and_infinity_literal(self, tmp_path):
        path = tmp_path / "oa.csv"
        write_sweep_csv(path, [_row(sar=math.inf)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_CSV_COLUMNS
        record = dict(zip(rows[0], rows[1]))
        assert record["sar_db"] == "inf"
        assert record["omega_noise"] == ""
        assert record["omega_obs"] == "0.5"
        assert float(record["sdr_db"]) == 1.0
        assert record["error"] == ""

    def test_full_precision_round_trip(self, tmp_path):
        value = 19.29418925714533
        path = tmp_path / "oa.csv"
        write_sweep_csv(path, [_row(sar=value)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(dict(zip(rows[0], rows[1]))["sar_db"]) == value

    def test_error_rows_tagged(self, tmp_path):
        path = tmp_path / "oa.csv"
        write_sweep_csv(path, [_row()],
                        error_rows=[{"utterance_id": "bad", "error": "boom"}])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "bad"
        assert rows[-1][-1] == "boom"


def test_summarize_rows_means_per_grid_point():
    rows = [_row("u0", sar=2.0, omega_obs=0.0), _row("u1", sar=4.0, omega_obs=0.0),
            _row("u0", sar=6.0, omega_obs=0.5), _row("u1", sar=10.0, omega_obs=0.5)]
    summary = summarize_rows(rows)
    assert [rec["omega_obs"] for rec in summary] == [0.0, 0.5]
    assert summary[0]["sar_db"] == pytest.approx(3.0)
    assert summary[1]["sar_db"] == pytest.approx(8.0)
    assert summary[0]["utterances"] == 2


def test_summary_csv(tmp_path):
    rows = [_row("u0", sar=2.0), _row("u1", sar=4.0)]
    path = tmp_path / "summary.csv"
    write_summary_csv(path, summarize_rows(rows))
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0][:3] == ["omega_noise", "omega_artif", "omega_obs"]
    assert len(table) == 2


def test_run_manifest_is_json_without_timestamps(tmp_path):
    path = write_run_manifest(tmp_path, RunManifest(
        command="oa", parameters={"grid": [0.0, 0.5]}, max_delay=16,
        aggregation="mean-of-per-utterance-db",
        regularization_events=["gram-regularized: diagonal loading 1e-12"]))
    record = json.loads(Path(path).read_text())
    assert record["command"] == "oa"
    assert record["max_delay"] == 16
    assert record["tool_version"]
    assert record["conventions"]["delay_padding"] == "zero-pad-head"
    assert "time" not in json.dumps(record).lower()
