"""Self-tests of the benchmark: generator, PNG writer, checks and runner.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import run
import stackgen
import traced
from checks import read_transforms, registration_errors
from stackgen import Scene, StackSpec, encode_png, to_uint8, write_stack
from somqe.cli import main as cli_main
from somqe.raster import decode_png

ROOT = Path(__file__).resolve().parents[2]
TINY = 128
# register_pair does not converge on the rigid stack, so BENCHMARK.json
# leaves it out; test_rigid_stack_failure_is_reported pins that down
TIMED = sorted(set(run.WORKLOADS) - {"rigid-256"})


def _stack_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_bytes_other_seed_differs(tmp_path, name):
    spec = dataclasses.replace(run.WORKLOADS[name].spec, size=TINY)
    write_stack(spec, 5, tmp_path / "a")
    write_stack(spec, 5, tmp_path / "b")
    write_stack(spec, 6, tmp_path / "c")
    a, b, c = (_stack_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    # a registering workload keeps its scene, so only its anchor repeats
    anchor = "frame_1984." + spec.fmt
    assert all(a[k] != c[k] for k in a if k.startswith("frame_") and k != anchor)
    assert (a[anchor] != c[anchor]) == (spec.mode == "none")


def test_png_writer_round_trips_with_valid_crcs():
    pixels = to_uint8(Scene(np.random.default_rng(3), 48).sample(0.4, -1.3, 0.0, 0.1))
    data = encode_png(pixels)
    assert np.array_equal(decode_png(data).to_uint8(), pixels)
    pos, types = 8, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        body = data[pos + 4 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        assert zlib.crc32(body) & 0xFFFFFFFF == crc
        types.append(body[:4])
        pos += 12 + length
    assert types == [b"IHDR", b"IDAT", b"IEND"]


def test_png_rows_of_a_smooth_scene_pick_paeth():
    pixels = to_uint8(Scene(np.random.default_rng(4), 96).sample(0.0, 0.0, 0.0, 0.0))
    data = encode_png(pixels)
    ihdr_end = 8 + 12 + 13
    (length,) = struct.unpack(">I", data[ihdr_end : ihdr_end + 4])
    raw = zlib.decompress(data[ihdr_end + 8 : ihdr_end + 8 + length])
    filters = [raw[y * (96 * 3 + 1)] for y in range(96)]
    assert filters.count(4) >= 90


@pytest.mark.parametrize(
    "mode, max_shift, max_theta, px_limit",
    [("translation", 0.0, 0.0, 0.0), ("translation", 6.0, 0.0, 0.1), ("rigid", 6.0, 0.02, 0.1)],
)
def test_stack_without_new_colour_registers_to_its_truth(
    tmp_path, monkeypatch, mode, max_shift, max_theta, px_limit
):
    """Without the disc the truth file's convention must match the solver's."""
    monkeypatch.setattr(stackgen, "MAX_NEW_SHARE", 0.0)
    truth = write_stack(StackSpec(TINY, mode, "ppm", max_shift, max_theta), 2, tmp_path)
    code = cli_main(["run", "--manifest", str(tmp_path / "frames.tsv"), "--mode", mode,
                     "--out", str(tmp_path / "out"), "--iterations", "50"])
    assert code == 0
    errors = registration_errors(read_transforms(tmp_path / "out" / "transforms.txt"), truth)
    assert errors["registered"] == 24
    assert errors["px_max"] <= px_limit
    assert errors["within_0.1px"] == 24
    if mode == "rigid":
        assert errors["rad_max"] <= 1e-3


def test_registration_error_uses_the_generator_truth():
    truth = {"mode": "rigid", "anchor_index": 1,
             "frames": [{"dx": 1.0, "dy": 2.0, "theta": 0.01}, {"dx": 0.0, "dy": 0.0, "theta": 0.0}]}
    errors = registration_errors([(4.0, 6.0, 0.0), (9.0, 9.0, 9.0)], truth)
    assert errors == {"registered": 1, "px_max": 5.0, "rad_max": 0.01, "within_0.1px": 0}


def _tiny(name):
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, spec=dataclasses.replace(workload.spec, size=TINY))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", TIMED)
def test_tiny_workload_smoke_run(tmp_path, monkeypatch, name, trace):
    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = _tiny(name)
    children, metrics, lines, problems = run.measure(name, workload, 1, 0.0, trace)
    assert problems == []
    assert children and all(c.exit_code == 0 for c in children)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(metrics) == list(expected)
    assert all(np.isfinite(v) for v in metrics.values())
    if trace:
        assert metrics["trace.missing_names"] == 0
        registers = workload.spec.mode != "none"
        assert (metrics["register.pair_calls"] > 0) == registers
        assert (metrics["register.pair_s"] > 0.0) == registers
        layered = sum(metrics[k] for k in ("raster.self_s", "register.self_s", "som.self_s",
                                           "stats.s", "pipeline.emit_s", "pipeline.self_s"))
        assert layered == pytest.approx(metrics["trace.overhead_s"] + children[0].wall_s, rel=0.5)
    else:
        assert len(children) == run.MIN_CHILDREN
        assert all(v > 0.0 for v in metrics.values())


@pytest.mark.parametrize("trace", [False, True])
def test_rigid_stack_failure_is_reported(tmp_path, monkeypatch, trace):
    """register_pair stops without converging once the disc is large.

    When this test fails because the program converges, rigid-256 can be
    timed: list it in BENCHMARK.json and drop it from this test.
    """
    monkeypatch.setattr(run, "WORK", tmp_path)
    children, _, _, problems = run.measure("rigid-256", _tiny("rigid-256"), 1, 0.0, trace)
    assert children[-1].exit_code == 2
    assert problems and "exit code 2" in problems[0]
    log = children[-1].out_dir.with_suffix(".log").read_text()
    assert "registration did not converge" in log


def test_missing_wrapped_name_is_reported_not_fatal(monkeypatch):
    import types

    module = types.SimpleNamespace(load_image=lambda path: path)
    monkeypatch.setattr(traced, "WRAPPED", (("pipeline", "load_image", "raster.decode"),
                                            ("pipeline", "gone", "som.score")))
    tracer = traced.Tracer()
    assert tracer.install({"pipeline": module}) == ["pipeline.gone"]
    assert module.load_image("x") == "x"
    assert [s["fn"] for s in tracer.spans] == ["load_image"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == TIMED
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rigid-256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
