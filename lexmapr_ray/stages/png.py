"""Minimal pure-stdlib PNG codec (8-bit non-interlaced grayscale).

Built from the public PNG specification (RFC 2083 / ISO 15948) with only
``zlib`` + ``struct`` + numpy — the container has no image library, so this
is how the multimodal column carries a REAL interchange format instead of a
synthetic header.  The encoder emits filter-type-0 scanlines (simple and
byte-deterministic across platforms); the decoder implements all five
standard filter types so it reads any conforming 8-bit grayscale PNG, not
just its own output.

Scale note: encode/decode are per-payload kernels that run inside
task ``map_batches`` stages (`stages/multimodal.py`); nothing here
touches the driver.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def encode_png_gray(img: np.ndarray, level: int = 6) -> bytes:
    """Encode a 2-D uint8 array as an 8-bit grayscale PNG (filter 0)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("encode_png_gray expects a 2-D grayscale array")
    h, w = img.shape
    if h == 0 or w == 0:
        raise ValueError("empty image")
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    raw = np.empty((h, w + 1), np.uint8)
    raw[:, 0] = 0                      # filter type 0 on every scanline
    raw[:, 1:] = img
    idat = zlib.compress(raw.tobytes(), level)
    return (SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))


def decode_png_gray(data: bytes) -> np.ndarray:
    """Decode an 8-bit non-interlaced grayscale PNG to a 2-D uint8 array.

    Handles all five scanline filter types (None/Sub/Up/Average/Paeth) and
    verifies every chunk CRC.  Raises ``ValueError`` on anything outside
    the supported profile (bit depth != 8, color type != 0, interlacing).
    """
    if not data.startswith(SIGNATURE):
        raise ValueError("not a PNG (bad signature)")
    pos, w, h, idat = len(SIGNATURE), None, None, []
    while pos + 12 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if zlib.crc32(tag + body) & 0xFFFFFFFF != crc:
            raise ValueError(f"bad CRC in {tag!r} chunk")
        if tag == b"IHDR":
            w, h, depth, ctype, comp, filt, inter = struct.unpack(">IIBBBBB", body)
            if (depth, ctype, comp, filt, inter) != (8, 0, 0, 0, 0):
                raise ValueError(
                    "unsupported PNG profile (need 8-bit non-interlaced "
                    f"grayscale): depth={depth} color={ctype} interlace={inter}")
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
        pos += 12 + length
    if w is None or not idat:
        raise ValueError("truncated PNG (missing IHDR/IDAT)")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
    if raw.size != h * (w + 1):
        raise ValueError("IDAT size does not match dimensions")
    raw = raw.reshape(h, w + 1)
    filters = raw[:, 0]
    rows = raw[:, 1:].astype(np.int64)
    out = np.empty((h, w), np.uint8)
    prev = np.zeros(w, np.int64)
    for y in range(h):
        f, cur = int(filters[y]), rows[y]
        if f == 0:                          # None
            rec = cur
        elif f == 1:                        # Sub (bpp=1 -> running sum)
            rec = np.cumsum(cur) & 255
        elif f == 2:                        # Up
            rec = (cur + prev) & 255
        elif f == 3:                        # Average
            rec = np.empty(w, np.int64)
            left = 0
            for x in range(w):
                left = (int(cur[x]) + ((left + int(prev[x])) >> 1)) & 255
                rec[x] = left
        elif f == 4:                        # Paeth
            rec = np.empty(w, np.int64)
            left = up_left = 0
            for x in range(w):
                a, b, c = left, int(prev[x]), up_left
                p = a + b - c
                pa, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc_) else (b if pb <= pc_ else c)
                left = (int(cur[x]) + pred) & 255
                rec[x] = left
                up_left = b
        else:
            raise ValueError(f"unknown filter type {f}")
        out[y] = rec.astype(np.uint8)
        prev = rec
    return out
