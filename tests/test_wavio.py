import re
import struct
import warnings
import wave

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.io import wavfile

from opdkit.signals import Waveform
from opdkit.wavio import _write, read_wav, write_wav


@pytest.fixture
def wave_in():
    rng = np.random.default_rng(42)
    return Waveform(np.clip(rng.standard_normal(300) * 0.2, -0.99, 0.99), 22050)


def test_float32_round_trip(tmp_path, wave_in):
    path = tmp_path / "f32.wav"
    write_wav(path, wave_in)
    back = read_wav(path)
    assert back.sample_rate == wave_in.sample_rate
    assert back.samples.dtype == np.float64
    assert_allclose(back.samples, wave_in.samples, atol=1e-7)


def test_pcm16_round_trip(tmp_path, wave_in):
    # PCM 16-bit is read, never written: the standard library writes it here
    path = tmp_path / "p16.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(wave_in.sample_rate)
        fh.writeframes(np.round(wave_in.samples * 32767).astype("<i2").tobytes())
    back = read_wav(path)
    assert back.sample_rate == wave_in.sample_rate
    assert_allclose(back.samples, wave_in.samples, atol=1.0 / 32767)


def test_multichannel_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="mono"):
        read_wav(path)


def test_unsupported_sample_format_rejected(tmp_path):
    path = tmp_path / "i32.wav"
    wavfile.write(path, 8000, np.zeros(100, dtype=np.int32))
    with pytest.raises(ValueError, match="unsupported sample format"):
        read_wav(path)


# scipy.io.wavfile below is the oracle: opdkit's codec must match it byte for
# byte on write and value for value on read.

def _chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag, bits, subformat=None, channels=1, rate=8000):
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    if subformat is not None:  # WAVE_FORMAT_EXTENSIBLE: cbSize 22, then the extension
        body += struct.pack("<HHI", 22, bits, 0x4) + struct.pack("<I", subformat) \
            + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return _chunk(b"fmt ", body)


def _scipy_read(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        return rate, data.astype(np.float64) / 32767.0
    return rate, data.astype(np.float64)


@pytest.mark.parametrize("length", [1, 3, 300, 64001])
@pytest.mark.parametrize("fmt", ["float32"])  # the one format write_wav writes
def test_writer_is_byte_identical_to_scipy(tmp_path, fmt, length):
    rng = np.random.default_rng(length)
    w = Waveform(rng.uniform(-1.2, 1.2, length), 16000)
    write_wav(tmp_path / "ours.wav", w)
    wavfile.write(tmp_path / "scipy.wav", w.sample_rate, w.samples.astype(fmt))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


_PCM16 = np.array([0, 1, -1, 32767, -32768, 1234], dtype="<i2")
_FLOAT32 = np.array([0.0, 0.5, -0.25, 1.5, -3e-8], dtype="<f4")
_FLOAT64 = np.array([0.0, 0.5, -0.25, 1.5, 1e-300], dtype="<f8")

READABLE = {
    "pcm16": _riff(_fmt(1, 16), _chunk(b"data", _PCM16.tobytes())),
    "float32": _riff(_fmt(3, 32), _chunk(b"data", _FLOAT32.tobytes())),
    "float64": _riff(_fmt(3, 64), _chunk(b"data", _FLOAT64.tobytes())),
    "extensible-pcm16": _riff(_fmt(0xFFFE, 16, subformat=1),
                              _chunk(b"data", _PCM16.tobytes())),
    "extensible-float32": _riff(_fmt(0xFFFE, 32, subformat=3),
                                _chunk(b"data", _FLOAT32.tobytes())),
    "list-before-data": _riff(_fmt(1, 16), _chunk(b"LIST", b"INFOISFT\x04\x00\x00\x00abc\x00"),
                              _chunk(b"data", _PCM16.tobytes())),
    "odd-unknown-chunk": _riff(_fmt(3, 32), _chunk(b"odd ", b"xyz"),
                               _chunk(b"data", _FLOAT32.tobytes())),
}


@pytest.mark.parametrize("name", READABLE)
def test_reader_matches_scipy(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(READABLE[name])
    rate, expected = _scipy_read(path)
    w = read_wav(path)
    assert w.sample_rate == rate == 8000
    assert w.samples.dtype == np.float64
    np.testing.assert_array_equal(w.samples, expected)


_VALID = READABLE["pcm16"]
MALFORMED = {
    "not-riff": b"ID3\x04" + bytes(60),
    "truncated-header": _VALID[:22],
    "short-file": _VALID[:6],
    "no-data-chunk": _riff(_fmt(1, 16)),
    "data-before-fmt": _riff(_chunk(b"data", _PCM16.tobytes()), _fmt(1, 16)),
    "data-larger-than-file": _VALID[:40] + struct.pack("<I", 1000) + _VALID[44:],
    "empty-data": _riff(_fmt(1, 16), _chunk(b"data", b"")),
    "nan-sample": _riff(_fmt(3, 32), _chunk(b"data", np.array([0.5, np.nan], "<f4").tobytes())),
    "inf-sample": _riff(_fmt(3, 64), _chunk(b"data", np.array([np.inf, 0.5], "<f8").tobytes())),
    "zero-rate": _riff(_fmt(1, 16, rate=0), _chunk(b"data", _PCM16.tobytes())),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_file_is_value_error_naming_path(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(MALFORMED[name])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_wav(path)


def test_signalling_nan_raises_only_the_value_error(tmp_path):
    # casting a float32 signalling NaN to float64 sets numpy's "invalid" flag
    path = tmp_path / "snan.wav"
    samples = np.array([0.5, 0.0], "<f4").tobytes()[:4] + struct.pack("<I", 0x7F800001)
    path.write_bytes(_riff(_fmt(3, 32), _chunk(b"data", samples)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_wav(path)


def test_file_over_4_gib_refused(tmp_path):
    # a RIFF size field is 32 bits; a broadcast view has the bytes without the memory
    path = tmp_path / "huge.wav"
    with pytest.raises(ValueError, match="4 GiB"):
        _write(path, 16000, np.broadcast_to(np.float32(0.0), (2 ** 30,)))
    assert not path.exists()


@pytest.mark.parametrize("samples,reason", [
    ([0.5, 1e39], "up to 1e\\+39 in magnitude overflow float32"),  # float32's largest is 3.4e38
    ([1e-50, -1e-46], "up to 1e-46 in magnitude all round to zero in float32"),  # least: 1.4e-45
], ids=["overflow", "underflow"])
def test_samples_float32_cannot_hold_are_refused(tmp_path, samples, reason):
    path = tmp_path / "x.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not an overflow warning
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: samples {reason}$"):
            write_wav(path, Waveform(samples, 16000))
    assert not path.exists()
    # a zero waveform is stored as it is
    write_wav(path, Waveform([0.0, 0.0], 16000))
    assert_allclose(read_wav(path).samples, [0.0, 0.0])
