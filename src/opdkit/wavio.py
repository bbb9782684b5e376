"""Mono WAV file I/O on numpy and ``struct`` alone: reads PCM 16-bit and IEEE
float, writes IEEE float-32.

``read_wav`` accepts a little-endian RIFF/WAVE file with one channel of PCM
16-bit, IEEE float-32 or IEEE float-64 samples, tagged plainly or as
``WAVE_FORMAT_EXTENSIBLE`` with one of those subformats.  It walks the
chunks up to ``data``, skipping unknown ones (``LIST``, ``fact``, ...) and the
pad byte after an odd-sized chunk.  Samples are promoted to float64 (PCM
16-bit normalized to roughly [-1, 1]).  A file it cannot read, or whose
samples do not make a ``Waveform`` (none, NaN/inf, a sample rate of 0),
raises ``ValueError`` naming the path.

``write_wav`` writes float-32 samples in the layout ``scipy.io.wavfile.write``
writes, byte for byte: ``RIFF``/``WAVE``, a ``fmt `` chunk with a 2-byte
``cbSize``, a ``fact`` chunk holding the sample count, then ``data``, of
samples that ``float32_image`` accepts.
"""

import os
import struct

import numpy as np

from .signals import Waveform

__all__ = ["float32_image", "read_wav", "write_wav"]

PCM16_FULL_SCALE = 32767.0

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# An extensible subformat GUID is its format tag followed by this tail (RFC 2361).
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

_SAMPLE_DTYPES = {(WAVE_FORMAT_PCM, 16): np.dtype("<i2"),
                  (WAVE_FORMAT_IEEE_FLOAT, 32): np.dtype("<f4"),
                  (WAVE_FORMAT_IEEE_FLOAT, 64): np.dtype("<f8")}
_FORMAT_NAMES = {WAVE_FORMAT_PCM: "PCM", WAVE_FORMAT_IEEE_FLOAT: "IEEE float"}


def _sample_dtype(path, fmt: bytes) -> np.dtype:
    """Sample dtype named by the body of a ``fmt `` chunk; mono only."""
    if len(fmt) < 16:
        raise ValueError(f"{path}: fmt chunk of {len(fmt)} bytes, expected at least 16")
    tag, channels, _, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == WAVE_FORMAT_EXTENSIBLE and fmt[28:40] == _SUBFORMAT_GUID_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if channels != 1:
        raise ValueError(f"{path}: expected mono audio, got {channels} channels")
    if (tag, bits) not in _SAMPLE_DTYPES:
        name = _FORMAT_NAMES.get(tag, f"format tag 0x{tag:04x}")
        raise ValueError(f"{path}: unsupported sample format {bits}-bit {name} "
                         "(expected PCM 16-bit or IEEE float)")
    return _SAMPLE_DTYPES[tag, bits]


def read_wav(path: str | os.PathLike) -> Waveform:
    """Read a mono WAV file; rejects multi-channel input."""
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    dtype = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: {chunk_id!r} chunk of {size} bytes runs past "
                             f"the end of the file ({len(body)} bytes left)")
        if chunk_id == b"fmt ":
            dtype = _sample_dtype(path, body)
            rate = struct.unpack_from("<I", body, 4)[0]
        elif chunk_id == b"data":
            if dtype is None:
                raise ValueError(f"{path}: data chunk before the fmt chunk")
            data = np.frombuffer(body, dtype, count=size // dtype.itemsize)
            if dtype.kind == "i":
                samples = data.astype(np.float64) / PCM16_FULL_SCALE
            else:
                with np.errstate(invalid="ignore"):  # a signalling NaN; Waveform rejects it
                    samples = data.astype(np.float64)
            try:
                return Waveform(samples, rate)
            except ValueError as err:  # no samples, non-finite samples, rate 0
                raise ValueError(f"{path}: {err}") from None
        pos += 8 + size + (size & 1)  # an odd-sized chunk is followed by a pad byte
    raise ValueError(f"{path}: no data chunk")


def _write(path, sample_rate: int, data: np.ndarray) -> None:
    """Write mono little-endian float32 ``data`` in scipy.io.wavfile's layout."""
    fmt = struct.pack("<HHIIHHH", WAVE_FORMAT_IEEE_FLOAT, 1, sample_rate,
                      sample_rate * 4, 4, 32, 0)  # cbSize 0: no extension
    header = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"fact" + struct.pack("<II", 4, len(data)))
    riff_size = 4 + len(header) + 8 + data.nbytes
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{path}: {data.nbytes} bytes of samples exceed a RIFF file's 4 GiB")
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + header
                 + b"data" + struct.pack("<I", data.nbytes))
        fh.write(data.data)


def float32_image(w: Waveform, name) -> np.ndarray:
    """The little-endian float-32 samples ``write_wav`` stores for ``w``;
    ``ValueError`` naming ``name`` when that image is not finite, or is all
    zero while ``w`` is not."""
    with np.errstate(over="ignore"):  # the overflow is the error raised below
        data = w.samples.astype("<f4")
    finite = np.isfinite(data).all()
    if not finite or not data.any() and w.samples.any():
        raise ValueError(f"{name}: samples up to {np.max(np.abs(w.samples)):g} in magnitude "
                         + ("overflow float32" if not finite else "all round to zero in float32"))
    return data


def write_wav(path: str | os.PathLike, w: Waveform) -> None:
    """Write a mono IEEE float-32 WAV file; refuses what ``float32_image``
    refuses, leaving no file."""
    _write(path, w.sample_rate, float32_image(w, path))
