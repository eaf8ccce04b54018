"""Image IO and contrast: exact bytes in, exact values out."""

import ast
import os
import stat
import struct
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from somqe import InputError, RasterImage, load_image, normalize_contrast, save_image
from somqe import raster
from somqe.raster import MAX_PNG_PIXELS, decode_png, decode_ppm, encode_ppm

from conftest import random_image
from oracles import png_unfilter_bytewise, ppm_tokens_by_loop


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


def test_planes_are_uint8_for_8_bit_samples_and_float64_otherwise():
    samples = np.arange(24).reshape(2, 4, 3)
    for source, dtype in ((samples.astype(np.uint8), np.uint8),
                          (samples, np.float64), (samples + 0.5, np.float64)):
        image = RasterImage(source)
        assert image.planes.dtype == dtype
        assert image.planes.shape == (3, 2, 4)
        assert image.planes.flags.c_contiguous
        assert np.array_equal(image.pixels, source)
    data = encode_ppm(RasterImage(samples.astype(np.uint8)))
    assert decode_ppm(data).planes.dtype == np.uint8


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2)),
        np.zeros((2, 2, 4)),
        np.full((1, 1, 3), -1.0),
        np.full((1, 1, 3), 256.0),
        np.full((1, 1, 3), np.nan),
        # integers outside 8 bits are refused, never wrapped
        np.array([[[300, 0, 5]]], dtype=np.int64),
        np.array([[[-1, 0, 5]]], dtype=np.int64),
        [[[300, 0, 5]]],
        # a zero dimension: no image is empty, so no later step checks for it
        np.zeros((0, 4, 3), dtype=np.uint8),
        np.zeros((4, 0, 3), dtype=np.uint8),
    ],
)
def test_invalid_pixel_arrays_rejected(bad):
    with pytest.raises(InputError):
        RasterImage(bad)


def test_planes_with_a_zero_dimension_rejected():
    with pytest.raises(InputError, match="dimensions must be positive"):
        RasterImage.from_planes(np.zeros((3, 0, 2), dtype=np.uint8))


def test_planes_of_another_dtype_or_layout_rejected():
    with pytest.raises(InputError, match="^planes must be uint8 or float64$"):
        RasterImage.from_planes(np.zeros((3, 2, 2), dtype=np.float32))
    strided = np.zeros((3, 2, 4), dtype=np.uint8)[:, :, ::2]
    message = r"^planes must be one C-contiguous \(3, height, width\) array$"
    with pytest.raises(InputError, match=message):
        RasterImage.from_planes(strided)


def test_to_uint8_rounds_half_up():
    image = RasterImage(np.array([[[0.5, 1.49, 254.5]]]))
    assert list(image.to_uint8()[0, 0]) == [1, 1, 255]


def test_luminance_weights():
    image = RasterImage(np.array([[[100.0, 200.0, 50.0]]]))
    assert image.luminance()[0, 0] == pytest.approx(
        0.299 * 100 + 0.587 * 200 + 0.114 * 50
    )


def _calls(module: Path, wanted):
    """(function, callee) of every call in `module` that `wanted(call, callee)`
    picks, `callee` being the source text of the called expression."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if wanted(child, callee):
                    found.append((function, callee))
            visit(child, function)

    visit(ast.parse(module.read_text(encoding="utf-8")), None)
    return found


def _package_calls(wanted) -> set:
    """(module, function, callee) of every call in the package that `wanted` picks."""
    package = Path(raster.__file__).parent
    return {
        (module.stem, function, callee)
        for module in sorted(package.glob("*.py"))
        for function, callee in _calls(module, wanted)
    }


def _opens_a_file(call, callee) -> bool:
    # a bare read_bytes or read_text is raster's own reader, not Path's
    return callee == "open" or callee.endswith((".open", ".fdopen", ".read_bytes", ".read_text"))


def _splits_lines(call, callee) -> bool:
    if callee.endswith(".splitlines"):
        return True
    args = [*call.args, *(k.value for k in call.keywords)]
    newline = any(isinstance(a, ast.Constant) and a.value == "\n" for a in args)
    return callee.endswith(".split") and newline


def test_read_bytes_is_the_only_place_an_input_file_is_opened():
    """Every input goes through the regular-file check in `read_bytes`; the
    one other open is the temporary file `atomic_write_bytes` writes."""
    assert _package_calls(_opens_a_file) == {
        ("raster", "read_bytes", "open"),
        ("raster", "atomic_write_bytes", "os.open"),
        ("raster", "atomic_write_bytes", "os.fdopen"),
    }


# definitions that no command reaches, and the acceptance criterion keeping each
_KEPT_WITHOUT_A_CALLER = {
    "train_step": "criterion 04a",
    "best_matching_unit": "criterion 04a",
    "model_position": "criterion 04a",
    "load_qe_series": "criteria 01-03",
    "load_demographics": "criteria 01-03",
}


def test_every_definition_is_named_by_the_package():
    """Each top-level function and class, and each method but the dunders,
    outside `__init__.py` is named by some package code (an import does not
    count), unless an acceptance criterion keeps it."""
    defined, named = set(), set()
    for module in sorted(Path(raster.__file__).parent.glob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (module.stem, method.name) for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                )
        named.update(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
        )
    unnamed = {f"{module}.{name}" for module, name in defined if name not in named}
    assert unnamed == {
        f"{module}.{name}" for module, name in defined if name in _KEPT_WITHOUT_A_CALLER
    }
    assert {name for _, name in defined} >= set(_KEPT_WITHOUT_A_CALLER)


_BLAS_CALLS = ("np.dot", "np.matmul", "np.inner", "np.vdot", "np.tensordot", "np.linalg.multi_dot")


def test_no_sum_goes_through_blas_and_einsum_keeps_one_place():
    """Long sums are one-thread `np.add.reduce` calls: BLAS rounding follows
    its thread count.  The one `np.einsum` sum kept is `_nearest`'s three
    channel terms."""
    package = Path(raster.__file__).parent
    matmul = [
        module.name for module in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert matmul == []
    assert _package_calls(lambda call, callee: callee in _BLAS_CALLS) == set()
    assert _package_calls(lambda call, callee: callee == "np.einsum") == {
        ("som", "_nearest", "np.einsum"),
    }


def test_every_source_file_parses_as_python_3_10():
    """pyproject.toml promises Python 3.10, older than the interpreter that
    runs the tests, so no file may use newer syntax."""
    root = Path(__file__).resolve().parent.parent
    files = sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")])
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_text_records_is_the_one_line_splitter():
    """Every text input, QE rows too, shares one blank/'#' line rule."""
    splitters = {(module, function) for module, function, _ in _package_calls(_splits_lines)}
    assert splitters == {("raster", "text_records")}


def test_no_code_polls_the_parent_pid():
    """A frame worker waits on its parent's sentinel instead."""
    assert _package_calls(lambda call, callee: callee.endswith("getppid")) == set()


def test_text_records_numbers_every_line_and_keeps_the_rest_stripped():
    text = "# head\n\n  a b \n\t# indented comment\nc\x0cd\r\n   \ne"
    assert raster.text_records(text) == [(3, "a b"), (5, "c\x0cd"), (7, "e")]
    assert raster.text_records("") == []


def test_an_atomic_write_takes_its_mode_from_the_umask(tmp_path):
    """0666 less the umask, as open() gives, on a new file and on a replaced one."""
    path = tmp_path / "report.csv"
    previous = os.umask(0o022)
    try:
        for umask, mode in [(0o022, 0o644), (0o077, 0o600)]:
            os.umask(umask)
            raster.atomic_write_bytes(path, b"a,b\n1,2\n")
            assert stat.S_IMODE(path.stat().st_mode) == mode
            assert path.read_bytes() == b"a,b\n1,2\n"
    finally:
        os.umask(previous)
    assert list(tmp_path.iterdir()) == [path]


def test_an_atomic_write_onto_a_directory_raises_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "report.csv"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        raster.atomic_write_bytes(target, b"a,b\n")
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


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
    # int() reads these as a 10x1 frame with maxval 255
    for header in (b"P6 1_0 1 255\n", b"P6 10 +1 255\n", b"P6 10 1 25_5\n",
                   b"P6 1_0 +1 25_5\n", b"P6 --2 1 255\n"):
        with pytest.raises(InputError, match="^malformed header: non-numeric dimension field$"):
            decode_ppm(header + bytes(30))
    with pytest.raises(InputError, match="malformed header"):
        decode_ppm(b"P6\n2 2")
    # a comment that runs to the end of the data is no token, nor is its tail
    with pytest.raises(InputError, match="^malformed header: unexpected end of file$"):
        decode_ppm(b"P6 2 2 #255")
    # the data ends at the maxval, with no byte to separate a payload
    with pytest.raises(InputError, match="^malformed header: missing separator before payload$"):
        decode_ppm(b"P6 1 1 255")


# every byte that decides a token boundary: the six ASCII whitespace bytes
# (CR and LF among them, which also end a comment), '#', and bytes that only
# look like whitespace elsewhere (0x1c and Latin-1's 0x85 and 0xa0)
_HEADER_BYTES = st.sampled_from(
    [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"\x1c", b"\x85", b"\xa0",
     b"0", b"2", b"5", b"9", b"P", b"a", b"Z"]
)


def _lex(lexer, data: bytes, count: int, start: int):
    try:
        return lexer(data, count, start)
    except (InputError, ValueError) as exc:
        return str(exc)


@pytest.mark.parametrize("data", [
    b"P6 2 2 #255",  # a comment that runs to the end of the data is no token
    b"P6 2 2 #255\n255",
    b"P6 2 2 #255\r255",
    b"P6#c\n2#c\r2#\n255#",
    b"P6 2 2",
    b"P6",
])
def test_ppm_tokens_match_the_byte_loop(data):
    assert _lex(raster._ppm_tokens, data, 3, 2) == _lex(ppm_tokens_by_loop, data, 3, 2)


@given(st.lists(_HEADER_BYTES, max_size=40).map(b"".join), st.integers(0, 45),
       st.integers(1, 4))
@settings(max_examples=500, deadline=None)
def test_ppm_tokens_match_the_byte_loop_on_drawn_headers(data, start, count):
    """Tokens, end position and error text all agree with the byte loop."""
    assert _lex(raster._ppm_tokens, data, count, start) == _lex(
        ppm_tokens_by_loop, data, count, start
    )


def test_a_long_blank_ppm_header_lexes_in_linear_time():
    """A long header of blanks and comments with no token fails fast: the
    lexer backtracks over it in linear time, where a nested repeat in its
    pattern would take minutes."""
    data = b"P6" + b" \t\n# c\r" * 200_000
    started = time.perf_counter()
    with pytest.raises(InputError, match="unexpected end of file"):
        decode_ppm(data)
    assert time.perf_counter() - started < 5.0


def test_ppm_error_truncated_payload():
    with pytest.raises(InputError, match="truncated payload"):
        decode_ppm(b"P6\n2 2\n255\n" + bytes(11))


def test_ppm_error_unsupported_depth():
    with pytest.raises(InputError, match="unsupported bit depth"):
        decode_ppm(b"P6\n2 2\n65535\n" + bytes(24))


@pytest.mark.parametrize("width, height", [(0, 4), (-2, 4), (-2, -2)])
def test_ppm_non_positive_dimensions_rejected(width, height):
    data = f"P6 {width} {height} 255\n".encode() + bytes(48)
    with pytest.raises(InputError, match=r"^malformed header: non-positive dimensions$"):
        decode_ppm(data)


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
    # colour type 5 is not one PNG defines (0, 2, 3, 4 and 6 are)
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 5, 0, 0, 0)
    with pytest.raises(InputError, match="^malformed header: unknown PNG color type 5$"):
        decode_png(_png_from_ihdr(ihdr))
    # 16-bit depth
    ihdr16 = struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0)
    with pytest.raises(InputError, match="unsupported bit depth"):
        decode_png(_png_from_ihdr(ihdr16))
    # compression method 1, then filter method 1: only method 0 of each exists
    for methods in ((1, 0), (0, 1)):
        ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, *methods, 0)
        message = "^malformed header: unknown compression or filter method$"
        with pytest.raises(InputError, match=message):
            decode_png(_png_from_ihdr(ihdr))
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


def test_png_over_the_pixel_limit_rejected_before_inflating(monkeypatch):
    def no_inflate(*args, **kwargs):
        raise AssertionError("image data inflated")

    monkeypatch.setattr(raster.zlib, "decompressobj", no_inflate)
    assert 8193 * 8192 > MAX_PNG_PIXELS == 2**26
    ihdr = struct.pack(">IIBBBBB", 8193, 8192, 8, 2, 0, 0, 0)
    message = r"^unsupported PNG: 8193x8192 is too large \(over 67108864 pixels\)$"
    with pytest.raises(InputError, match=message):
        decode_png(_png_from_ihdr(ihdr, zlib.compress(bytes(8))))


def test_png_zero_width_rejected():
    ihdr = struct.pack(">IIBBBBB", 0, 2, 8, 2, 0, 0, 0)
    with pytest.raises(InputError, match=r"^malformed header: non-positive dimensions$"):
        decode_png(_png_from_ihdr(ihdr))


def test_png_without_idat_rejected():
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)
    data = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + _chunk(b"IEND", b"")
    with pytest.raises(InputError, match=r"^truncated payload: no IDAT data$"):
        decode_png(data)


def test_png_palette_errors():
    idx = np.array([[0, 1], [2, 3]], dtype=np.uint8)
    with pytest.raises(InputError, match=r"^malformed header: palette image without PLTE$"):
        decode_png(encode_png(idx, color_type=3))
    for palette in (np.zeros((3, 3)), np.zeros((0, 3))):  # index 3 past it, or empty
        with pytest.raises(InputError, match=r"^malformed header: palette index out of range$"):
            decode_png(encode_png(idx, color_type=3, palette=palette))


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


_SIDES = st.one_of(
    st.tuples(st.integers(1, 64), st.integers(1, 64)),
    st.tuples(st.integers(32, 64), st.integers(1, 3)),  # h >> w
    st.tuples(st.integers(1, 3), st.integers(32, 64)),  # w >> h
)


@given(st.sampled_from([0, 2, 4, 6]), _SIDES,
       st.sets(st.integers(0, 4), min_size=1), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_png_random_residuals_match_bytewise_oracle(color_type, sides, kinds, seed):
    """Random filtered bytes, not an encoder's output, decode as section 9 says.

    Each row draws its filter type from `kinds`, so runs of one type and every
    mix of types occur; the residual bytes are uniform, so predictions wrap.
    """
    height, width = sides
    channels = _CHANNELS[color_type]
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, (height, 1 + width * channels), dtype=np.uint8)
    rows[:, 0] = rng.choice(sorted(kinds), height)
    raw = rows.tobytes()
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    decoded = decode_png(_png_from_ihdr(ihdr, zlib.compress(raw)))
    planes = png_unfilter_bytewise(raw, width, height, channels)
    expected = np.repeat(planes[:, :, :1], 3, axis=2) if channels < 3 else planes[:, :, :3]
    assert np.array_equal(decoded.pixels, expected.astype(float))


@pytest.mark.parametrize("height,width", [(4096, 2), (2, 4096)])
def test_png_extreme_aspect_ratio_decodes_in_little_memory(height, width):
    """The unfilter buffer follows the shorter side, so a strip stays small."""
    array = np.random.default_rng(height).integers(0, 256, (height, width, 3))
    data = encode_png(array.astype(np.uint8), 2, filters=[4] * height)
    tracemalloc.start()
    try:
        decoded = decode_png(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded.pixels, array.astype(float))
    assert peak < 1 << 20


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
        image = RasterImage(rng.integers(0, 256, (height, width, 3)).astype(np.uint8))
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


def test_normalize_stretches_uint8_samples_above_a_nonzero_minimum():
    # lo > 0 in every channel; (I - lo) * 255 would wrap in uint8
    pixels = np.array([[[50, 7, 200], [75, 7, 201], [100, 9, 255]]], dtype=np.uint8)
    out = normalize_contrast(RasterImage(pixels))
    assert out.planes.dtype == np.uint8
    assert out.pixels[0].T.tolist() == [[0, 128, 255], [0, 0, 255], [0, 5, 255]]
    assert np.array_equal(out.planes, normalize_contrast(RasterImage(pixels * 1.0)).planes)


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
