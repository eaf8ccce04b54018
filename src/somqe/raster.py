"""8-bit RGB raster images: loading, saving, contrast rescaling.

Binary PPM (P6, maxval 255) is the canonical interchange format.  Reads are
value-exact and writes are byte-for-byte reproducible, which is what makes
whole pipeline runs comparable by checksum.  8-bit PNG is accepted on input
for convenience: the decoder handles color types 0, 2, 3, 4 and 6, expands
grayscale and palette to RGB, and drops any alpha channel.  All five
scanline filters predict a pixel only from its left, upper and upper-left
neighbours, so they are undone exactly one pixel anti-diagonal at a time,
each diagonal a contiguous slice of a diagonal-major buffer whose columns
follow the shorter image side.  Chunk CRCs are checked, a header over
MAX_PNG_PIXELS pixels is refused, and image data is inflated no further than
the size the header implies.

An image holds its samples as one C-contiguous (3, height, width) array, a
plane per channel, so every per-channel step (luminance, pyramid halving,
warping, stretching, scoring) reads contiguous memory.  Decoded and
stretched frames are uint8, 1 byte per sample; only a resampled frame, whose
samples are fractional, is float64 in [0, 255].  Every step that does
arithmetic on uint8 samples does it in float64, so a frame gives the same
bits in either dtype; files always carry rounded 8-bit samples.
"""

from __future__ import annotations

import os
import re
import stat
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# channels per pixel for the PNG color types we accept
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}

# largest PNG frame accepted, above a full Landsat TM scene (about 7,000 x
# 8,000 pixels); a larger header is refused before anything is inflated
MAX_PNG_PIXELS = 2**26

# Rec. 601 luma weights of R, G and B
_LUMA = (0.299, 0.587, 0.114)


@dataclass(frozen=True, eq=False, init=False)
class RasterImage:
    """Immutable RGB image: a C-contiguous (3, height, width) array of planes.

    The planes are uint8, or float64 with values in [0, 255] where resampling
    left fractional samples."""

    planes: np.ndarray

    def __init__(self, pixels):
        """The image of a (height, width, 3) array, copied; uint8 stays uint8."""
        arr = np.asarray(pixels)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise InputError("pixel array must have shape (height, width, 3)")
        dtype = np.uint8 if arr.dtype == np.uint8 else np.float64
        self._hold(np.array(arr.transpose(2, 0, 1), dtype=dtype, order="C"))

    @classmethod
    def from_planes(cls, planes: np.ndarray) -> "RasterImage":
        """The image of a C-contiguous (3, height, width) array, taken over uncopied."""
        image = cls.__new__(cls)
        image._hold(planes)
        return image

    def _hold(self, planes: np.ndarray) -> None:
        # the one check of both constructors; the planes are frozen and held
        if planes.ndim != 3 or planes.shape[0] != 3 or not planes.flags.c_contiguous:
            raise InputError("planes must be one C-contiguous (3, height, width) array")
        if planes.shape[1] < 1 or planes.shape[2] < 1:
            raise InputError("image dimensions must be positive")
        if planes.dtype != np.uint8:  # 8-bit samples need no scan
            if planes.dtype != np.float64:
                raise InputError("planes must be uint8 or float64")
            if not np.all(np.isfinite(planes)):
                raise InputError("pixel values must be finite")
            if planes.min() < 0.0 or planes.max() > 255.0:
                raise InputError("pixel values must lie in [0, 255]")
        planes.flags.writeable = False
        object.__setattr__(self, "planes", planes)

    @property
    def pixels(self) -> np.ndarray:
        """A read-only (height, width, 3) view of the planes, in their dtype."""
        return self.planes.transpose(1, 2, 0)

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]

    @property
    def pixel_count(self) -> int:
        return self.height * self.width

    def to_uint8(self) -> np.ndarray:
        """(height, width, 3) samples rounded half-up (floor(x + 0.5)), clipped to 8 bits."""
        if self.planes.dtype == np.uint8:
            return np.ascontiguousarray(self.pixels)
        rounded = np.floor(self.pixels + 0.5)
        return np.clip(rounded, 0.0, 255.0).astype(np.uint8)

    def luminance(self) -> np.ndarray:
        """Rec. 601 luma plane of the pixels, float64: 0.299 R + 0.587 G + 0.114 B."""
        r, g, b = (np.multiply(w, p, dtype=np.float64) for w, p in zip(_LUMA, self.planes))
        r += g
        r += b
        return r


# ---------------------------------------------------------------------------
# PPM (P6)

# a header token after any whitespace and '#' comments; a comment must reach a
# line end or the data's end (no tail of it is a token), and a repeat takes one
# byte or one comment, so a failed match backtracks in linear time
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")

def _ppm_tokens(data: bytes, count: int, start: int):
    """Return (tokens, position): the `count` whitespace-separated header
    tokens from `start`, and the position of the byte right after the last.

    '#' starts a comment running to end of line.
    """
    tokens = []
    for _ in range(count):
        match = _PPM_TOKEN.match(data, start)
        if match is None:
            raise InputError("malformed header: unexpected end of file")
        tokens.append(match[1])
        start = match.end()
    return tokens, start

def decode_ppm(data: bytes) -> RasterImage:
    if data[:2] != b"P6":
        raise InputError("malformed header: missing P6 magic")
    tokens, pos = _ppm_tokens(data, 3, 2)
    # ASCII digits, where int() takes '1_0' and '+1' too; a '-' is named below
    if not all(tok.removeprefix(b"-").isdigit() for tok in tokens):
        raise InputError("malformed header: non-numeric dimension field")
    width, height, maxval = map(int, tokens)
    if width < 1 or height < 1:
        raise InputError("malformed header: non-positive dimensions")
    if maxval != 255:
        raise InputError(f"unsupported bit depth: maxval {maxval}")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise InputError("malformed header: missing separator before payload")
    expected, got = width * height * 3, len(data) - pos - 1
    if got < expected:
        raise InputError(f"truncated payload: expected {expected} bytes, got {got}")
    flat = np.frombuffer(data, np.uint8, count=expected, offset=pos + 1)
    return RasterImage(flat.reshape(height, width, 3))

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
    numpy step per anti-diagonal decodes any mix of filters exactly.

    The filtered bytes are copied once into a zero-padded int16 buffer laid
    out diagonal-major: pixel (y, x) sits in row d = y + x + 2, and its
    column j runs along the shorter image side (j = y + 1 when the image is
    no taller than wide, else x + 1).  Each diagonal is then a contiguous
    slice of row d.  Of a and b, one is the same column of row d - 1 (a when
    j follows rows, b when it follows columns) and the other the column
    before it; c is the column before on row d - 2.  Keying the columns to
    the shorter side keeps the buffer at (h + w + 1) x (min(h, w) + 1)
    pixels, about twice the image's count; keyed to the longer side it
    would grow as the square of that side.
    """
    size = height * (width * bpp + 1)
    if len(raw) < size:
        raise InputError("truncated payload: inflated data shorter than image")
    data = np.frombuffer(raw, dtype=np.uint8, count=size).reshape(height, -1)
    ftypes = data[:, 0]
    unknown = ftypes[ftypes > 4]
    if unknown.size:
        raise InputError(f"malformed header: unknown PNG filter type {unknown[0]}")
    by_rows = height <= width  # column j follows rows, else columns
    short, long_side = (height, width) if by_rows else (width, height)
    buf = np.zeros((height + width + 1, short + 1, bpp), dtype=np.int16)  # fits a + b - 2c
    down, across, channel = buf.strides
    steps = (down + across, down) if by_rows else (down, down + across)
    pixels = np.lib.stride_tricks.as_strided(
        buf[2, 1], (height, width, bpp), (*steps, channel)
    )
    pixels[...] = data[:, 1:].reshape(height, width, bpp)
    # every pixel's first guess is Paeth; each other filter that occurs
    # overwrites it on its own rows, whose masks run in column order
    rows = ftypes if by_rows else ftypes[::-1]
    masks = [(t, (rows == t)[:, None]) for t in range(4) if t in ftypes]
    scratch = np.empty((4, short, bpp), dtype=np.int16)
    wins = np.empty((short, bpp), dtype=bool)
    for d in range(2, height + width + 1):
        lo, hi = max(1, d - long_side), min(short, d - 1) + 1
        n = hi - lo
        cur, same, back = buf[d, lo:hi], buf[d - 1, lo:hi], buf[d - 1, lo - 1 : hi - 1]
        a, b = (same, back) if by_rows else (back, same)
        c = buf[d - 2, lo - 1 : hi - 1]
        pa, pb, pc, p = scratch[:, :n]
        m = wins[:n]
        np.subtract(b, c, out=pa)
        np.subtract(a, c, out=pb)
        np.add(pa, pb, out=pc)
        np.abs(pa, out=pa)
        np.abs(pb, out=pb)
        np.abs(pc, out=pc)
        np.copyto(p, c)  # Paeth's tie order: a, then b, then c
        np.less_equal(pb, pc, out=m)
        np.copyto(p, b, where=m)
        np.minimum(pb, pc, out=pb)
        np.less_equal(pa, pb, out=m)
        np.copyto(p, a, where=m)
        # row of column j: j - 1 down the rows, or its mirror down the columns
        first = lo - 1 if by_rows else height - d + lo
        for t, mask in masks:
            if t == 3:
                np.add(a, b, out=pc)
                np.right_shift(pc, 1, out=pc)
            np.copyto(p, (0, a, b, pc)[t], where=mask[first : first + n])
        np.add(cur, p, out=cur)
        np.bitwise_and(cur, 255, out=cur)
    return pixels.astype(np.uint8, order="C")

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
    if width * height > MAX_PNG_PIXELS:
        raise InputError(
            f"unsupported PNG: {width}x{height} is too large"
            f" (over {MAX_PNG_PIXELS} pixels)"
        )
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
    return RasterImage(rgb)


# ---------------------------------------------------------------------------
# file-level helpers

def read_bytes(path) -> bytes:
    """An input file's bytes; the one place an input is opened.  A device, FIFO
    or directory raises InputError unopened: none is read endlessly or waited on."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise InputError(f"{path}: not a regular file")
    with open(path, "rb") as fh:
        return fh.read()

def load_image(path) -> RasterImage:
    """Read a P6 PPM or 8-bit PNG by its magic bytes; every error names the file."""
    data = read_bytes(path)
    try:
        if data[:2] == b"P6":
            return decode_ppm(data)
        if data[:8] == _PNG_SIGNATURE:
            return decode_png(data)
        raise InputError("malformed header: not a P6 PPM or PNG file")
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None

def save_image(image: RasterImage, path) -> None:
    """Write as binary PPM, atomically (temp file then rename)."""
    atomic_write_bytes(path, encode_ppm(image))

def read_text(path, encoding: str = "utf-8") -> str:
    """A text input's contents, with CRLF and CR line ends read as LF and
    one leading byte-order mark, which spreadsheet exports write, dropped.

    A byte that does not decode raises InputError naming the file and its
    offset, and so does a NUL, which no field (and no path) may hold,
    naming its line."""
    data = read_bytes(path)
    try:
        text = data.decode(encoding).removeprefix("\ufeff")
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        byte = f"byte {data[exc.start]:#04x} at offset {exc.start}"
        raise InputError(f"{path}: {byte} is not {encoding}") from None
    if "\0" in text:
        line = text.count("\n", 0, text.index("\0")) + 1
        raise InputError(f"{path} line {line}: NUL character")
    return text

def text_records(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor a
    '#' comment; lines end at '\\n' only and are numbered from 1, all counted."""
    lines = enumerate(text.split("\n"), start=1)
    return [(n, s) for n, line in lines if (s := line.strip()) and s[0] != "#"]

def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    # mode 0666 less the umask, as open() gives; mkstemp's 0600 would stick
    tmp = os.path.join(directory, f".somqe-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    """Stretch each channel to the full 8-bit range; the result is uint8.

    Per channel: (I - min) * 255 / (max - min), rounded half-up to an
    integer, in float64 whatever the input's dtype.  A constant channel maps
    to 0.  The multiply-before-divide order keeps every exactly-representable
    half-integer exact, so ties round the same way real arithmetic would,
    and a second application is the identity on the result.  The rounding
    is the cast to uint8 of the value plus 0.5: the cast truncates, which
    for values in [0.5, 255.5] is the floor.
    """
    out = np.empty(image.planes.shape, dtype=np.uint8)
    for plane, stretched in zip(image.planes, out):
        lo = float(plane.min())
        hi = float(plane.max())
        if hi == lo:
            stretched.fill(0)
        else:
            span = np.subtract(plane, lo, dtype=np.float64)
            span *= 255.0
            span /= hi - lo
            span += 0.5
            stretched[...] = span
    return RasterImage.from_planes(out)
