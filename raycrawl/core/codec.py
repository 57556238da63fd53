"""Deterministic synthetic image codec + perceptual hash (numpy-only).

The sandbox ships no image library (no PIL / cv2), so — per the build spec —
the *decode* of real image formats is stubbed with a deterministic fake codec
whose Ray-side plumbing (binary column, batch sizing, PSNR invariant) is real
and tested:

  * ``FPNG`` — lossless: zlib of raw RGB bytes (models PNG).
  * ``FJPG`` — lossy: uniform 2-bit quantization of each channel then zlib
    (models JPEG). Quantization step 4 gives mean-squared-error 1.5 →
    PSNR ≈ 46.4 dB, comfortably over the ≥40 dB gate in BASELINE.json.

``decode_real_image`` is the marked stub for true PNG/JPEG payloads.

The perceptual hash is the classic 64-bit DCT pHash (resize→32×32 gray,
2-D DCT-II, top-left 8×8 minus DC, median threshold) implemented with a
precomputed numpy DCT matrix. Near-duplicate = Hamming distance ≤ radius.
"""

from __future__ import annotations

import zlib
import struct

import numpy as np

MAGIC_PNG = b"FPNG"
MAGIC_JPG = b"FJPG"
_Q = 4  # lossy quantization step → PSNR ≈ 46 dB


def synth_pixels(seed: int, w: int, h: int) -> np.ndarray:
    """Deterministic H×W×3 uint8 image: smooth gradient + seeded noise.

    Determinism-by-key follows the reference's ``predict_age`` trick of
    seeding an RNG from content bytes (``Postprocess_scripts/Functions.py:47-49``).
    """
    rng = np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
    a, b, c = rng.integers(0, 256, 3)
    x = np.linspace(0, 255, w, dtype=np.float32)[None, :]
    y = np.linspace(0, 255, h, dtype=np.float32)[:, None]
    zero = np.zeros((h, w), dtype=np.float32)
    base = np.stack(
        [(x + a) % 256 + zero, (y + b) % 256 + zero, (x * 0.5 + y * 0.5 + c) % 256],
        axis=-1,
    )
    noise = rng.integers(0, 32, (h, w, 3)).astype(np.float32)
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    h, w, _ = pixels.shape
    hdr = struct.pack("<II", w, h)
    if fmt == "png":
        return MAGIC_PNG + hdr + zlib.compress(pixels.tobytes(), 6)
    if fmt == "jpeg":
        q = (pixels // _Q).astype(np.uint8)
        return MAGIC_JPG + hdr + zlib.compress(q.tobytes(), 6)
    raise ValueError(f"unknown fmt {fmt!r}")


# Real-format magic bytes (public file signatures): dispatch MUST happen
# before any fake-codec header parsing — a real JPEG fed to the fake
# decoder would die in zlib with an unrelated error instead of reaching
# the clearly-marked integration seam.
MAGIC_REAL_PNG = b"\x89PNG\r\n\x1a\n"
MAGIC_REAL_JPEG = b"\xff\xd8\xff"
MAGIC_REAL_GIF = (b"GIF87a", b"GIF89a")
MAGIC_REAL_WEBP_RIFF = b"RIFF"  # + "WEBP" at offset 8


def sniff_image_format(data: bytes) -> str:
    """Classify payload bytes by magic: 'fake-png' / 'fake-jpeg' for the
    synthetic codec, 'png'/'jpeg'/'gif'/'webp' for real formats, 'unknown'
    otherwise. Pure byte inspection — safe on arbitrary input."""
    if data[:4] == MAGIC_PNG:
        return "fake-png"
    if data[:4] == MAGIC_JPG:
        return "fake-jpeg"
    if data[:8] == MAGIC_REAL_PNG:
        return "png"
    if data[:3] == MAGIC_REAL_JPEG:
        return "jpeg"
    if data[:6] in MAGIC_REAL_GIF:
        return "gif"
    if data[:4] == MAGIC_REAL_WEBP_RIFF and data[8:12] == b"WEBP":
        return "webp"
    return "unknown"


def decode_image(data: bytes) -> tuple[np.ndarray, str]:
    """Decode an image payload → (H×W×3 uint8 pixels, fmt).

    Dispatches on magic bytes FIRST: fake-codec headers take the synthetic
    path; real PNG/JPEG/GIF/WEBP signatures route to ``decode_real_image``
    (the marked env-gated seam); anything else is a corrupt payload."""
    kind = sniff_image_format(data)
    if kind in ("png", "jpeg", "gif", "webp"):
        return decode_real_image(data)
    if kind == "unknown":
        raise ValueError(
            f"unrecognized image payload (first bytes {data[:8]!r})"
        )
    (w, h) = struct.unpack("<II", data[4:12])
    raw = np.frombuffer(zlib.decompress(data[12:]), dtype=np.uint8)
    if kind == "fake-png":
        return raw.reshape(h, w, 3), "png"
    # fake-jpeg: dequantize to interval midpoint (error ≤ 2 per channel)
    px = np.clip(raw.reshape(h, w, 3).astype(np.int16) * _Q + _Q // 2, 0, 255)
    return px.astype(np.uint8), "jpeg"


def decode_real_image(data: bytes) -> tuple[np.ndarray, str]:
    """STUB: true PNG/JPEG decoding needs an image library absent from this
    container. The surrounding pipeline (schema, actor signature, batch
    sizing, PSNR verification) is identical for real payloads."""
    raise NotImplementedError(
        "real image decoding requires PIL/cv2; not available in this sandbox"
    )


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))


# ---------------------------------------------------------------- perceptual hash

_N = 32  # DCT input size


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.cos(np.pi / n * (i + 0.5) * k) * np.sqrt(2.0 / n)
    m[0] /= np.sqrt(2.0)
    return m


_DCT = _dct_matrix(_N)


def _resize_gray(pixels: np.ndarray) -> np.ndarray:
    """Nearest-neighbour resize of the grayscale image to 32×32. The grid
    is sampled from the uint8 pixels before the grey-scale: the mean of a
    pixel's three channels does not depend on its neighbours, so this
    gives the same float32 values as grey-scaling the whole image first,
    at 1,024 pixels' cost instead of h × w. Row and column indices
    i * side // 32 stay below side, so they need no clip."""
    h, w = pixels.shape[:2]
    rows = pixels[np.arange(_N) * h // _N]
    return rows[:, np.arange(_N) * w // _N].astype(np.float32).mean(axis=-1)


def phash64(pixels: np.ndarray) -> int:
    """64-bit DCT perceptual hash (signed int64 for Arrow friendliness)."""
    g = _resize_gray(pixels)
    d = _DCT @ g @ _DCT.T
    block = d[:8, :8].ravel()[1:]  # drop DC term
    bits = block > np.partition(block, 31)[31]  # the median of 63 values
    # 63 bits, most significant first, padded with a 0 bit to 64
    out = int.from_bytes(np.packbits(bits).tobytes(), "big")
    return out - (1 << 64) if out >= (1 << 63) else out


def hamming64(a: int, b: int) -> int:
    return int(bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1"))


def hamming64_vec(arr: np.ndarray, v: int) -> np.ndarray:
    """Vectorized Hamming distance of an int64 array against scalar ``v``."""
    x = (arr.astype(np.uint64) ^ np.uint64(v & 0xFFFFFFFFFFFFFFFF))
    x = x.view(np.uint8).reshape(-1, 8)
    return np.unpackbits(x, axis=1).sum(axis=1)


def content_etag(w: int, h: int, fmt: str, phash: int, caption: str) -> bytes:
    """Conditional-fetch validator (HTTP ETag analog): 20-byte sha1 of the
    decoded-content tuple. Both the engine and the sequential oracle derive
    it from the FETCHED page, so a recrawl against a previous generation's
    manifest marks a URL not_modified iff its content tuple is identical."""
    import hashlib

    return hashlib.sha1(
        f"{w}:{h}:{fmt}:{phash}:{caption}".encode("utf-8", "surrogatepass")
    ).digest()
