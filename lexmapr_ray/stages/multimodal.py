"""Multimodal (binary-column) stages: decode / feature-extract pipelines.

Images/audio/video ride a Dataset as opaque ``binary`` columns with typed
metadata.  Payloads are REAL 8-bit grayscale PNGs produced and parsed by
the pure-stdlib codec in :mod:`lexmapr_ray.stages.png` (zlib + struct; the
container has no image library, so the codec is implemented from the public
PNG spec rather than imported).  Video payloads are a Motion-PNG-style
container: a small header plus length-prefixed per-frame PNGs, so frame
sampling can SKIP non-sampled frames without decompressing them.

The Ray-side shape is the scale-relevant part: decode/resize/frame-sample
run as Ray Data task stages (a callable instance per ``map_batches``) with
deliberately small batches (payload bytes dominate block memory).  A
``codec="pil"`` seam on each stage is where a real deployment swaps in
libjpeg-turbo-class decoders for formats beyond this profile; in THIS
container PIL is absent, so constructing that stage raises
``NotImplementedError`` with the dependency named.

Reference parity: the reference engine (cidgoh/LexMapr) has no media path
at all; these stages are the engine-only multimodal plumbing a 100-TB
training-data pipeline needs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from lexmapr_ray.stages.dedup import _auto_concurrency
from lexmapr_ray.stages.png import SIGNATURE as _PNG_SIG
from lexmapr_ray.stages.png import decode_png_gray, encode_png_gray

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),       # "image" | "video"
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
    ]
)

# Legacy synthetic header (rounds 1-3); still decodable so old written
# media parquet remains readable.
_MAGIC = b"FAKEIMG1"
# Motion-PNG video container: magic + n_frames(u16) + [len(u32) + PNG]*n
_VMAGIC = b"MPNGVID1"


def _tile_pixels(data: bytes, need: int) -> bytes:
    return (data * (need // len(data) + 1))[:need]


def synth_media_dataset(n_items: int, seed: int = 42):
    """Deterministic media table: payload = real grayscale PNG bytes."""
    import ray.data as rd

    def make(batch) -> pa.Table:
        rows = []
        for i in batch["id"]:
            rng = np.random.RandomState(seed * 7919 + int(i))
            w, h = int(rng.randint(8, 33)), int(rng.randint(8, 33))
            img = rng.randint(0, 256, size=(h, w), dtype=np.int64).astype(np.uint8)
            rows.append({
                "media_id": int(i), "kind": "image",
                "payload": encode_png_gray(img),
                "width": w, "height": h,
            })
        return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

    return rd.range(n_items).map_batches(make, batch_format="numpy", batch_size=256)


class DecodeImage:
    """Ray Data task decode stage (small batches: payloads are large).

    Default codec is the pure-stdlib PNG reader (real format, real
    inflate + unfilter work per payload).  ``codec="pil"`` is the
    real-deployment seam: the constructor import-tries PIL, so a missing
    library fails on the driver before any task runs; PIL is absent in
    this container, so that path raises ``NotImplementedError`` naming
    the dependency — the plumbing (schema, batch sizing, stage signature)
    is identical either way.
    """

    def __init__(self, codec: str = "stdlib"):
        if codec == "pil":
            try:
                import PIL.Image  # noqa: F401  (absent in this container)
            except ImportError:
                raise NotImplementedError(
                    "codec='pil' needs an image library (pip install pillow); "
                    "none is available in this environment"
                ) from None
        elif codec != "stdlib":
            raise ValueError(f"unknown codec {codec!r}")
        self.codec = codec

    @staticmethod
    def _decode(payload: bytes) -> np.ndarray:
        """Stdlib decode: real PNG, with the legacy synthetic header kept
        readable for media parquet written by earlier rounds."""
        if payload.startswith(_PNG_SIG):
            return decode_png_gray(payload)
        if payload.startswith(_MAGIC):
            w = int.from_bytes(payload[8:10], "big")
            h = int.from_bytes(payload[10:12], "big")
            return np.frombuffer(payload[12:12 + w * h], dtype=np.uint8).reshape(h, w)
        raise ValueError("unknown payload format")

    def _decode_any(self, payload: bytes) -> np.ndarray:
        if self.codec == "pil":
            import io

            from PIL import Image

            return np.asarray(Image.open(io.BytesIO(payload)).convert("L"))
        return self._decode(payload)

    def __call__(self, t: pa.Table) -> pa.Table:
        means, stds = [], []
        for payload in t["payload"].to_pylist():
            img = self._decode_any(payload)
            means.append(int(img.mean() * 1000))
            stds.append(int(img.std() * 1000))
        return pa.table({
            "media_id": t["media_id"],
            "mean_milli": pa.array(means, pa.int64()),
            "std_milli": pa.array(stds, pa.int64()),
        })


def _decode_features(ds):
    return ds.map_batches(
        DecodeImage(), batch_format="pyarrow", batch_size=32,
        concurrency=_auto_concurrency(),
    ).sort("media_id")


def media_features(n_items: int = 256):
    """Synth -> decode -> per-item features (batch_size kept small on
    purpose: payload bytes dominate block memory)."""
    return _decode_features(synth_media_dataset(n_items))


def media_from_documents(sf_dir: str):
    """Deterministic media table DERIVED FROM TESTDATA: each document's
    text bytes are tiled into a pixel grid whose dimensions are a pure
    function of (doc_id, text length), then encoded as a REAL grayscale
    PNG.  The decode stage therefore inflates + unfilters genuine PNG
    bytes end-to-end."""
    from lexmapr_ray.sources.tables import sized_read_parquet

    ds = sized_read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_media(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            data = text.encode() or b"\x00"
            w = 8 + (len(data) % 25)
            h = 8 + (int(doc_id) % 25)
            img = np.frombuffer(_tile_pixels(data, w * h), np.uint8).reshape(h, w)
            rows.append({
                "media_id": int(doc_id), "kind": "image",
                "payload": encode_png_gray(img),
                "width": w, "height": h,
            })
        return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

    return ds.map_batches(to_media, batch_format="pyarrow", batch_size=64)


def media_features_from_documents(sf_dir: str):
    """sf_dir-driven decode + feature pipeline (the driver's media query)."""
    return _decode_features(media_from_documents(sf_dir))


class ResizeImage:
    """Ray Data task resize stage: decode -> integer box-downsample to
    ``target`` x ``target`` -> per-item features of the RESIZED image.

    The downsample is exact integer math (np.add.reduceat over
    floor-divided grid boundaries, block mean floored to uint8) so results
    are engine-independent; ``codec="pil"`` is the seam where a real
    deployment swaps in ``PIL.Image.resize``.  Same small-batch task shape
    as decode: payload bytes dominate block memory, so batch_size stays
    small and ``_auto_concurrency`` caps the concurrent tasks.
    """

    def __init__(self, target: int = 8, codec: str = "stdlib"):
        if codec == "pil":
            raise NotImplementedError(
                "codec='pil' needs an image library; none is available "
                "in this environment"
            )
        if codec != "stdlib":
            raise ValueError(f"unknown codec {codec!r}")
        self.target = int(target)

    def _resize(self, img: np.ndarray) -> np.ndarray:
        t = self.target
        h, w = img.shape
        rb = (np.arange(t, dtype=np.int64) * h) // t
        cb = (np.arange(t, dtype=np.int64) * w) // t
        sums = np.add.reduceat(np.add.reduceat(img.astype(np.int64), rb, axis=0),
                               cb, axis=1)
        rc = np.diff(np.append(rb, h))
        cc = np.diff(np.append(cb, w))
        return (sums // np.outer(rc, cc)).astype(np.uint8)

    def __call__(self, t: pa.Table) -> pa.Table:
        means, mins, maxs = [], [], []
        for payload in t["payload"].to_pylist():
            small = self._resize(DecodeImage._decode(payload))
            means.append(int(small.mean() * 1000))
            mins.append(int(small.min()))
            maxs.append(int(small.max()))
        return pa.table({
            "media_id": t["media_id"],
            "resized_mean_milli": pa.array(means, pa.int64()),
            "resized_min": pa.array(mins, pa.int64()),
            "resized_max": pa.array(maxs, pa.int64()),
        })


def _encode_video(frames: np.ndarray) -> bytes:
    """Motion-PNG container: each frame independently PNG-encoded and
    length-prefixed, so a sampler can seek past unwanted frames without
    inflating them."""
    n = frames.shape[0]
    parts = [_VMAGIC, n.to_bytes(2, "big")]
    for i in range(n):
        png = encode_png_gray(frames[i])
        parts.append(len(png).to_bytes(4, "big"))
        parts.append(png)
    return b"".join(parts)


def video_from_documents(sf_dir: str):
    """Video table derived from testdata: each doc's text bytes are tiled
    into ``n_frames`` (4-11, a function of doc_id) frames of w*h pixels,
    then packed as a Motion-PNG container — an opaque binary column with
    typed metadata, exactly how real video rides a Dataset."""
    from lexmapr_ray.sources.tables import sized_read_parquet

    ds = sized_read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_video(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            data = text.encode() or b"\x00"
            n = 4 + (int(doc_id) % 8)
            w = 8 + (len(data) % 9)
            h = 8 + (int(doc_id) % 9)
            pixels = np.frombuffer(_tile_pixels(data, n * w * h), np.uint8)
            payload = _encode_video(pixels.reshape(n, h, w))
            rows.append({"media_id": int(doc_id), "kind": "video",
                         "payload": payload, "width": w, "height": h})
        return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

    return ds.map_batches(to_video, batch_format="pyarrow", batch_size=32)


class SampleFrames:
    """Ray Data task frame sampler: every ``stride``-th frame of each video
    decodes to a per-frame feature row (media_id, frame_idx, mean_milli) —
    a flat-map, so one input row fans out to len/stride output rows.

    The Motion-PNG container is length-prefixed, so non-sampled frames
    are SKIPPED byte-wise without zlib inflate — the access pattern that
    makes stride sampling cheap at video scale.  ``codec="pil"`` is the
    real-video-codec seam (absent here).
    """

    def __init__(self, stride: int = 2, codec: str = "stdlib"):
        if codec == "pil":
            raise NotImplementedError(
                "codec='pil' needs a video/image library; none is "
                "available in this environment"
            )
        if codec != "stdlib":
            raise ValueError(f"unknown codec {codec!r}")
        self.stride = int(stride)

    @staticmethod
    def _iter_frames(payload: bytes, stride: int = 1):
        """Yield (frame_idx, decoded frame), seeking past skipped frames."""
        if not payload.startswith(_VMAGIC):
            raise ValueError("bad magic")
        n = int.from_bytes(payload[8:10], "big")
        pos = 10
        for i in range(n):
            ln = int.from_bytes(payload[pos:pos + 4], "big")
            if i % stride == 0:
                yield i, decode_png_gray(payload[pos + 4:pos + 4 + ln])
            pos += 4 + ln

    @staticmethod
    def _frames(payload: bytes) -> np.ndarray:
        """Decode ALL frames (test/diagnostic helper)."""
        return np.stack([f for _, f in SampleFrames._iter_frames(payload)])

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, idxs, means = [], [], []
        for media_id, payload in zip(t["media_id"].to_pylist(),
                                     t["payload"].to_pylist()):
            for i, frame in self._iter_frames(payload, self.stride):
                ids.append(media_id)
                idxs.append(i)
                means.append(int(frame.mean() * 1000))
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(idxs, pa.int64()),
            "frame_mean_milli": pa.array(means, pa.int64()),
        })


def media_resize_features(sf_dir: str):
    """sf_dir-driven decode+resize feature pipeline (driver media query)."""
    return media_from_documents(sf_dir).map_batches(
        ResizeImage(), batch_format="pyarrow", batch_size=32,
        concurrency=_auto_concurrency(),
    ).sort("media_id")


def video_frame_features(sf_dir: str, stride: int = 2):
    """sf_dir-driven frame-sample pipeline (driver media query)."""
    return video_from_documents(sf_dir).map_batches(
        SampleFrames(stride), batch_format="pyarrow", batch_size=32,
        concurrency=_auto_concurrency(),
    ).sort(["media_id", "frame_idx"])
