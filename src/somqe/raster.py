"""8-bit RGB raster images: loading, saving, contrast rescaling.

Binary PPM (P6, maxval 255) is the canonical interchange format.  Reads are
value-exact and writes are byte-for-byte reproducible, which is what makes
whole pipeline runs comparable by checksum.  8-bit PNG is accepted on input
for convenience: the decoder handles color types 0, 2, 3, 4 and 6, expands
grayscale and palette to RGB, and drops any alpha channel.  All five
scanline filters predict a pixel only from its left, upper and upper-left
neighbours, so they are undone exactly one pixel anti-diagonal at a time.
Chunk CRCs are checked, and image data is inflated no further than the size
the header implies.

Pixel data lives in float64 arrays of shape (height, width, 3) with values in
[0, 255].  Mid-pipeline stages (resampling, rescaling before the final round)
may hold fractional values; files always carry rounded 8-bit samples.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# channels per pixel for the PNG color types we accept
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Immutable RGB image, float64 samples in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise InputError("pixel array must have shape (height, width, 3)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError("image dimensions must be positive")
        if not np.all(np.isfinite(arr)):
            raise InputError("pixel values must be finite")
        if arr.min() < 0.0 or arr.max() > 255.0:
            raise InputError("pixel values must lie in [0, 255]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def pixel_count(self) -> int:
        return self.height * self.width

    @classmethod
    def from_uint8(cls, data) -> "RasterImage":
        return cls(np.asarray(data, dtype=np.uint8).astype(np.float64))

    def to_uint8(self) -> np.ndarray:
        """Samples rounded half-up (floor(x + 0.5)) and clipped to 8 bits."""
        rounded = np.floor(self.pixels + 0.5)
        return np.clip(rounded, 0.0, 255.0).astype(np.uint8)

    def luminance(self) -> np.ndarray:
        """Rec. 601 luma plane: 0.299 R + 0.587 G + 0.114 B, float64."""
        p = self.pixels
        return 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]


# ---------------------------------------------------------------------------
# PPM (P6)

def _ppm_tokens(data: bytes, count: int, start: int):
    """Yield `count` whitespace-separated header tokens starting at `start`.

    '#' starts a comment running to end of line.  Returns (tokens, position
    of the byte right after the last token).
    """
    tokens = []
    i = start
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (10, 13):
                i += 1
            continue
        if i >= n:
            raise InputError("malformed header: unexpected end of file")
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j] != ord("#"):
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i

def decode_ppm(data: bytes) -> RasterImage:
    if data[:2] != b"P6":
        raise InputError("malformed header: missing P6 magic")
    (width_tok, height_tok, maxval_tok), pos = _ppm_tokens(data, 3, 2)
    try:
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except ValueError:
        raise InputError("malformed header: non-numeric dimension field") from None
    if width < 1 or height < 1:
        raise InputError("malformed header: non-positive dimensions")
    if maxval != 255:
        raise InputError(f"unsupported bit depth: maxval {maxval}")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise InputError("malformed header: missing separator before payload")
    payload = data[pos + 1 :]
    expected = width * height * 3
    if len(payload) < expected:
        raise InputError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    flat = np.frombuffer(payload[:expected], dtype=np.uint8)
    return RasterImage.from_uint8(flat.reshape(height, width, 3))

def encode_ppm(image: RasterImage) -> bytes:
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.to_uint8().tobytes()


# ---------------------------------------------------------------------------
# PNG (8-bit, non-interlaced)

def _png_chunks(data: bytes):
    i = 8
    n = len(data)
    while i + 8 <= n:
        length, ctype = struct.unpack(">I4s", data[i : i + 8])
        body = data[i + 8 : i + 8 + length]
        crc = data[i + 8 + length : i + 12 + length]
        if len(body) < length or len(crc) < 4:
            raise InputError("truncated payload: incomplete PNG chunk")
        if zlib.crc32(ctype + body) != struct.unpack(">I", crc)[0]:
            name = ctype.decode("latin-1")
            raise InputError(f"corrupt payload: CRC mismatch in PNG {name!r} chunk")
        yield ctype, body
        i += 12 + length  # length + type + body + crc
        if ctype == b"IEND":
            return
    raise InputError("truncated payload: missing IEND chunk")

def _unfilter(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """Undo the per-row PNG filters; returns (height, width, bpp) uint8.

    Every filter predicts a byte from the same channel of the pixels left (a),
    above (b) and above-left (c) of it (PNG specification, section 9), so one
    numpy step per anti-diagonal y + x = k decodes any mix of filters exactly.
    With a zero first row and column, an anti-diagonal's pixels lie `width`
    apart in the flat buffer, and a, b and c lie 1, width + 1 and width + 2
    before them.
    """
    size = height * (width * bpp + 1)
    if len(raw) < size:
        raise InputError("truncated payload: inflated data shorter than image")
    data = np.frombuffer(raw, dtype=np.uint8, count=size).reshape(height, -1)
    ftypes = data[:, 0]
    unknown = ftypes[ftypes > 4]
    if unknown.size:
        raise InputError(f"malformed header: unknown PNG filter type {unknown[0]}")
    buf = np.zeros((height + 1, width + 1, bpp), dtype=np.int16)  # fits a + b - 2c
    buf[1:, 1:] = data[:, 1:].reshape(height, width, bpp)
    flat = buf.reshape(-1, bpp)  # pixel (y, x) is row (y + 1) * (width + 1) + x + 1
    for k in range(height + width - 1):
        y0, y1 = max(0, k - width + 1), min(height - 1, k)
        at = np.arange((y0 + 1) * width + k + 2, (y1 + 1) * width + k + 3, width)
        a, b, c = flat[at - 1], flat[at - width - 1], flat[at - width - 2]
        pa, pb, pc = np.abs(b - c), np.abs(a - c), np.abs(a + b - 2 * c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        pred = np.choose(ftypes[y0 : y1 + 1, None], (0, a, b, (a + b) >> 1, paeth))
        flat[at] = (flat[at] + pred) & 255
    return buf[1:, 1:].astype(np.uint8)

def decode_png(data: bytes) -> RasterImage:
    if data[:8] != _PNG_SIGNATURE:
        raise InputError("malformed header: missing PNG signature")
    header = None
    palette = None
    idat = []
    for ctype, body in _png_chunks(data):
        if ctype == b"IHDR":
            if len(body) != 13:
                raise InputError("malformed header: bad IHDR length")
            header = struct.unpack(">IIBBBBB", body)
        elif ctype == b"PLTE":
            if len(body) % 3 != 0:
                raise InputError("malformed header: bad palette length")
            palette = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        elif ctype == b"IDAT":
            idat.append(body)
    if header is None:
        raise InputError("malformed header: missing IHDR chunk")
    width, height, depth, ctype_id, comp, filt, interlace = header
    if width < 1 or height < 1:
        raise InputError("malformed header: non-positive dimensions")
    if comp != 0 or filt != 0:
        raise InputError("malformed header: unknown compression or filter method")
    if depth != 8:
        raise InputError(f"unsupported bit depth: {depth}-bit PNG")
    if interlace != 0:
        raise InputError("unsupported PNG: interlaced (Adam7)")
    if ctype_id not in _PNG_CHANNELS:
        raise InputError(f"malformed header: unknown PNG color type {ctype_id}")
    if not idat:
        raise InputError("truncated payload: no IDAT data")
    channels = _PNG_CHANNELS[ctype_id]
    # inflate no further than the image needs; trailing bytes are ignored
    try:
        raw = zlib.decompressobj().decompress(
            b"".join(idat), height * (width * channels + 1)
        )
    except zlib.error as exc:
        raise InputError(f"truncated payload: {exc}") from None
    except OverflowError:
        raise InputError(f"unsupported PNG: {width}x{height} is too large") from None
    planes = _unfilter(raw, width, height, channels)
    if ctype_id == 3:
        if palette is None:
            raise InputError("malformed header: palette image without PLTE")
        idx = planes[:, :, 0]
        if idx.max() >= len(palette):
            raise InputError("malformed header: palette index out of range")
        rgb = palette[idx]
    elif channels < 3:  # grey, with or without alpha
        rgb = np.repeat(planes[:, :, :1], 3, axis=2)
    else:  # RGB, with or without alpha
        rgb = planes[:, :, :3]
    return RasterImage.from_uint8(rgb)


# ---------------------------------------------------------------------------
# file-level helpers

def load_image(path) -> RasterImage:
    """Read a P6 PPM or an 8-bit PNG, dispatching on the magic bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P6":
        return decode_ppm(data)
    if data[:8] == _PNG_SIGNATURE:
        return decode_png(data)
    raise InputError("malformed header: not a P6 PPM or PNG file")

def save_image(image: RasterImage, path) -> None:
    """Write as binary PPM, atomically (temp file then rename)."""
    atomic_write_bytes(path, encode_ppm(image))

def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".somqe-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# contrast

def normalize_contrast(image: RasterImage) -> RasterImage:
    """Stretch each channel to the full 8-bit range.

    Per channel: (I - min) * 255 / (max - min), rounded half-up to an
    integer.  A constant channel maps to 0.  The multiply-before-divide
    order keeps every exactly-representable half-integer exact, so ties
    round the same way real arithmetic would, and a second application is
    the identity on the result.
    """
    p = image.pixels
    out = np.empty_like(p)
    for c in range(3):
        plane = p[:, :, c]
        lo = plane.min()
        hi = plane.max()
        if hi == lo:
            out[:, :, c] = 0.0
        else:
            out[:, :, c] = np.floor((plane - lo) * 255.0 / (hi - lo) + 0.5)
    return RasterImage(out)
