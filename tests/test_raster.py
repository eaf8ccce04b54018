"""Image IO and contrast: exact bytes in, exact values out."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from somqe import InputError, RasterImage, load_image, normalize_contrast, save_image
from somqe.raster import decode_png, decode_ppm, encode_ppm

from conftest import random_image


# ---------------------------------------------------------------------------
# independent PNG encoder used as the decode oracle

def _chunk(ctype: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + ctype
        + body
        + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
    )


def encode_png(array: np.ndarray, color_type: int, filters=None,
               palette: np.ndarray | None = None) -> bytes:
    """Minimal encoder: 8-bit, no interlace, filter type chosen per row.

    Filtering is written forward (the decoder must invert it), so agreement
    between this encoder and the package decoder checks both directions.
    """
    height, width = array.shape[:2]
    channels = 1 if array.ndim == 2 else array.shape[2]
    flat = array.reshape(height, width * channels).astype(np.int64)
    if filters is None:
        filters = [0] * height
    bpp = channels
    raw = bytearray()
    prev = np.zeros(width * channels, dtype=np.int64)
    for y in range(height):
        row = flat[y]
        ftype = filters[y]
        raw.append(ftype)
        if ftype == 0:
            enc = row % 256
        elif ftype == 1:
            enc = row.copy()
            for i in range(len(row) - 1, -1, -1):
                left = row[i - bpp] if i >= bpp else 0
                enc[i] = (row[i] - left) % 256
        elif ftype == 2:
            enc = (row - prev) % 256
        elif ftype == 3:
            enc = row.copy()
            for i in range(len(row)):
                left = row[i - bpp] if i >= bpp else 0
                enc[i] = (row[i] - (left + prev[i]) // 2) % 256
        elif ftype == 4:
            enc = row.copy()
            for i in range(len(row)):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
                enc[i] = (row[i] - pred) % 256
        else:
            raise AssertionError(ftype)
        raw.extend(int(v) for v in enc)
        prev = row
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    out = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
    if palette is not None:
        out += _chunk(b"PLTE", palette.astype(np.uint8).tobytes())
    out += _chunk(b"IDAT", zlib.compress(bytes(raw)))
    out += _chunk(b"IEND", b"")
    return out


# ---------------------------------------------------------------------------
# RasterImage basics

def test_pixels_are_immutable_and_copied():
    source = np.zeros((2, 2, 3))
    image = RasterImage(source)
    source[0, 0, 0] = 99.0
    assert image.pixels[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        image.pixels[0, 0, 0] = 1.0


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2)),
        np.zeros((2, 2, 4)),
        np.full((1, 1, 3), -1.0),
        np.full((1, 1, 3), 256.0),
        np.full((1, 1, 3), np.nan),
    ],
)
def test_invalid_pixel_arrays_rejected(bad):
    with pytest.raises(InputError):
        RasterImage(bad)


def test_to_uint8_rounds_half_up():
    image = RasterImage(np.array([[[0.5, 1.49, 254.5]]]))
    assert list(image.to_uint8()[0, 0]) == [1, 1, 255]


def test_luminance_weights():
    image = RasterImage(np.array([[[100.0, 200.0, 50.0]]]))
    assert image.luminance()[0, 0] == pytest.approx(
        0.299 * 100 + 0.587 * 200 + 0.114 * 50
    )


# ---------------------------------------------------------------------------
# PPM

def test_ppm_round_trip_is_bitwise(tmp_path):
    image = random_image(3, 5, 9)
    encoded = encode_ppm(image)
    again = encode_ppm(decode_ppm(encoded))
    assert encoded == again
    path = tmp_path / "img.ppm"
    save_image(image, path)
    assert path.read_bytes() == encoded
    assert np.array_equal(load_image(path).pixels, image.pixels)


def test_ppm_header_allows_comments_and_whitespace():
    payload = bytes(range(12))
    data = b"P6 # trailing comment\n# full comment line\n 2\t2 \n255\n" + payload
    image = decode_ppm(data)
    assert image.width == 2 and image.height == 2
    assert np.array_equal(
        image.pixels.reshape(-1), np.frombuffer(payload, np.uint8).astype(float)
    )


def test_ppm_error_malformed_header():
    with pytest.raises(InputError, match="malformed header"):
        decode_ppm(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(InputError, match="malformed header"):
        decode_ppm(b"P6\n2 two\n255\n" + bytes(12))
    with pytest.raises(InputError, match="malformed header"):
        decode_ppm(b"P6\n2 2")


def test_ppm_error_truncated_payload():
    with pytest.raises(InputError, match="truncated payload"):
        decode_ppm(b"P6\n2 2\n255\n" + bytes(11))


def test_ppm_error_unsupported_depth():
    with pytest.raises(InputError, match="unsupported bit depth"):
        decode_ppm(b"P6\n2 2\n65535\n" + bytes(24))


# ---------------------------------------------------------------------------
# PNG

@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_each_filter_type_decodes_exactly(ftype):
    rng = np.random.default_rng(ftype)
    array = rng.integers(0, 256, (7, 5, 3)).astype(np.uint8)
    data = encode_png(array, color_type=2, filters=[ftype] * 7)
    decoded = decode_png(data)
    assert np.array_equal(decoded.pixels, array.astype(float))


def test_png_mixed_filters_decode_exactly():
    rng = np.random.default_rng(99)
    array = rng.integers(0, 256, (10, 8, 3)).astype(np.uint8)
    filters = [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]
    decoded = decode_png(encode_png(array, 2, filters))
    assert np.array_equal(decoded.pixels, array.astype(float))


def test_png_grayscale_expands_to_rgb():
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    decoded = decode_png(encode_png(gray, color_type=0, filters=[1, 2, 4]))
    assert np.array_equal(decoded.pixels, np.repeat(gray[:, :, None], 3, 2).astype(float))


def test_png_palette_resolves_to_rgb():
    palette = np.array([[10, 20, 30], [200, 100, 0], [0, 0, 255]], dtype=np.uint8)
    idx = np.array([[0, 1], [2, 1]], dtype=np.uint8)
    decoded = decode_png(encode_png(idx, color_type=3, palette=palette))
    assert np.array_equal(decoded.pixels, palette[idx].astype(float))


def test_png_alpha_channels_dropped():
    rng = np.random.default_rng(7)
    rgba = rng.integers(0, 256, (4, 4, 4)).astype(np.uint8)
    decoded = decode_png(encode_png(rgba, color_type=6, filters=[4, 3, 2, 1]))
    assert np.array_equal(decoded.pixels, rgba[:, :, :3].astype(float))
    gray_alpha = rng.integers(0, 256, (3, 3, 2)).astype(np.uint8)
    decoded = decode_png(encode_png(gray_alpha, color_type=4))
    assert np.array_equal(
        decoded.pixels, np.repeat(gray_alpha[:, :, :1], 3, 2).astype(float)
    )


def test_png_agrees_with_pillow():
    PIL_Image = pytest.importorskip("PIL.Image")
    import io

    rng = np.random.default_rng(123)
    array = rng.integers(0, 256, (23, 17, 3)).astype(np.uint8)
    buf = io.BytesIO()
    PIL_Image.fromarray(array, "RGB").save(buf, format="PNG")
    decoded = decode_png(buf.getvalue())
    assert np.array_equal(decoded.pixels, array.astype(float))


def test_png_error_cases():
    with pytest.raises(InputError, match="truncated payload"):
        decode_png(b"\x89PNG\r\n\x1a\nXXXX")
    with pytest.raises(InputError, match="malformed header"):
        decode_png(b"\x89PNG\r\n\x1a\n" + _chunk(b"IEND", b""))
    # 16-bit depth
    ihdr16 = struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0)
    with pytest.raises(InputError, match="unsupported bit depth"):
        decode_png(_png_from_ihdr(ihdr16))
    # truncated IDAT payload
    with pytest.raises(InputError, match="truncated payload"):
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
        data = (
            b"\x89PNG\r\n\x1a\n"
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(b"\x00")[:4])
            + _chunk(b"IEND", b"")
        )
        decode_png(data)


def _png_from_ihdr(ihdr: bytes, idat: bytes = zlib.compress(bytes(20))) -> bytes:
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def test_png_interlaced_error_names_interlacing():
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 1)
    with pytest.raises(InputError, match=r"^unsupported PNG: interlaced \(Adam7\)$"):
        decode_png(_png_from_ihdr(ihdr))


def test_png_unknown_filter_type_rejected():
    rows = [bytes([ftype]) + bytes(range(6)) for ftype in (0, 1, 5, 2)]
    ihdr = struct.pack(">IIBBBBB", 2, 4, 8, 2, 0, 0, 0)
    data = _png_from_ihdr(ihdr, zlib.compress(b"".join(rows)))
    message = r"^malformed header: unknown PNG filter type 5$"
    with pytest.raises(InputError, match=message):
        decode_png(data)


def test_png_dimensions_past_addressable_size_rejected():
    ihdr = struct.pack(">IIBBBBB", 2**32 - 1, 2**32 - 1, 8, 6, 0, 0, 0)
    with pytest.raises(InputError, match="too large"):
        decode_png(_png_from_ihdr(ihdr))


def test_png_crc_mismatch_rejected():
    good = encode_png(np.zeros((2, 2, 3), dtype=np.uint8), 2)
    body = good.index(b"IDAT") + 4
    for offset in (body, len(good) - 1):  # an IDAT body byte, the IEND CRC
        bad = bytearray(good)
        bad[offset] ^= 0x01
        with pytest.raises(InputError, match="CRC mismatch"):
            decode_png(bytes(bad))


def test_png_inflate_stops_at_the_size_ihdr_implies():
    # 2x2 RGB needs 2 * (1 + 6) bytes; the IDAT inflates to 64 MiB more
    array = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    raw = b"".join(b"\x00" + array[y].tobytes() for y in range(2))
    zero_block = bytes(1 << 20)
    compressor = zlib.compressobj()
    idat = compressor.compress(raw) + b"".join(
        compressor.compress(zero_block) for _ in range(64)
    ) + compressor.flush()
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
    data = _png_from_ihdr(ihdr, idat)
    tracemalloc.start()
    try:
        decoded = decode_png(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded.pixels, array.astype(float))
    assert peak < 1 << 22


_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


@given(st.sampled_from([0, 2, 4, 6]), st.integers(1, 6), st.integers(1, 9),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_png_filters_round_trip_property(color_type, height, width, seed, data):
    filters = data.draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))
    channels = _CHANNELS[color_type]
    shape = (height, width) if channels == 1 else (height, width, channels)
    array = np.random.default_rng(seed).integers(0, 256, shape).astype(np.uint8)
    decoded = decode_png(encode_png(array, color_type, filters))
    if channels == 1:
        expected = np.repeat(array[:, :, None], 3, axis=2)
    elif channels == 2:
        expected = np.repeat(array[:, :, :1], 3, axis=2)
    else:
        expected = array[:, :, :3]
    assert np.array_equal(decoded.pixels, expected.astype(float))


# ---------------------------------------------------------------------------
# mutated files

_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 2**16), st.just(0)),
        st.tuples(
            st.just("insert"), st.integers(0, 2**16), st.binary(min_size=1, max_size=8)
        ),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, mutations, keep: int) -> bytes:
    """Apply the mutations after the first `keep` bytes (the magic number)."""
    out = bytearray(data)
    for kind, position, value in mutations:
        at = keep + position % (len(out) - keep + 1)
        if kind == "flip" and at < len(out):
            out[at] ^= value
        elif kind == "truncate":
            del out[at:]
        elif kind == "insert":
            out[at:at] = value
    return bytes(out)


def _mutate_chunk_bodies(data: bytes, mutations) -> bytes:
    """Mutate the chunk bodies of a well-formed PNG, then rewrite each chunk
    with a fresh length and CRC, so the mutations reach inflate and unfilter.
    The mutation at `position` hits chunk `position % count`.
    """
    chunks, i = [], 8
    while i < len(data):
        (length,) = struct.unpack(">I", data[i : i + 4])
        chunks.append([data[i + 4 : i + 8], data[i + 8 : i + 8 + length]])
        i += 12 + length
    for kind, position, value in mutations:
        chunk = chunks[position % len(chunks)]
        chunk[1] = _mutate(chunk[1], [(kind, position // len(chunks), value)], 0)
    return data[:8] + b"".join(_chunk(ctype, body) for ctype, body in chunks)


@given(st.sampled_from([None, 0, 2, 3, 4, 6]), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2**32 - 1), _MUTATIONS, st.booleans())
@settings(max_examples=400, deadline=None)
def test_mutated_files_decode_or_raise_input_error(
    color_type, height, width, seed, mutations, fresh_crcs
):
    """Flipped, cut or grown PPM and PNG files end as an image or InputError.

    `color_type` None draws a PPM.  Half of the PNG cases get fresh chunk
    lengths and CRCs after the mutation, so they reach inflate and unfilter.
    """
    rng = np.random.default_rng(seed)
    if color_type is None:
        decode = decode_ppm
        image = RasterImage.from_uint8(rng.integers(0, 256, (height, width, 3)))
        data = _mutate(encode_ppm(image), mutations, 2)
    else:
        decode = decode_png
        channels = {3: 1, **_CHANNELS}[color_type]
        high = 16 if color_type == 3 else 256
        array = rng.integers(0, high, (height, width, channels)).astype(np.uint8)
        palette = rng.integers(0, 256, (16, 3)) if color_type == 3 else None
        filters = [int(f) for f in rng.integers(0, 5, height)]
        data = encode_png(array, color_type, filters, palette)
        if fresh_crcs:
            data = _mutate_chunk_bodies(data, mutations)
        else:
            data = _mutate(data, mutations, 8)
    try:
        decoded = decode(data)
    except InputError:
        return
    assert isinstance(decoded, RasterImage)


def test_load_image_rejects_unknown_magic(tmp_path):
    path = tmp_path / "mystery.bin"
    path.write_bytes(b"GIF89a...")
    with pytest.raises(InputError, match="malformed header"):
        load_image(path)


# ---------------------------------------------------------------------------
# contrast

def test_normalize_unit_example():
    # channel min 50, max 100: value 75 sits exactly halfway, ties round up
    plane = np.array([[[50.0, 0.0, 0.0], [75.0, 0.0, 0.0], [100.0, 0.0, 0.0]]])
    out = normalize_contrast(RasterImage(plane))
    assert out.pixels[0, 0, 0] == 0.0
    assert out.pixels[0, 1, 0] == 128.0
    assert out.pixels[0, 2, 0] == 255.0


def test_normalize_constant_channel_maps_to_zero():
    image = RasterImage(np.full((3, 3, 3), 77.0))
    assert np.all(normalize_contrast(image).pixels == 0.0)


def test_normalize_is_idempotent_on_integer_images():
    for seed in range(25):
        image = random_image(seed, 6, 6)
        once = normalize_contrast(image)
        twice = normalize_contrast(once)
        assert np.array_equal(once.pixels, twice.pixels)


def test_normalize_output_spans_full_range():
    image = random_image(5, 8, 8)
    out = normalize_contrast(image).pixels
    for c in range(3):
        assert out[:, :, c].min() == 0.0
        assert out[:, :, c].max() == 255.0


def test_normalize_channels_are_independent():
    pixels = np.zeros((1, 2, 3))
    pixels[0, 0] = [10.0, 100.0, 0.0]
    pixels[0, 1] = [20.0, 210.0, 0.0]
    out = normalize_contrast(RasterImage(pixels)).pixels
    assert list(out[0, 0]) == [0.0, 0.0, 0.0]
    assert list(out[0, 1]) == [255.0, 255.0, 0.0]
