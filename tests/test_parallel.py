"""The frame stage on forked workers: same bytes, same errors, no leftovers.

Every test here that runs the pool uses the `two_cpus` fixture, which also
checks that no child process is left once the test is done.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import somqe
import somqe.pipeline as pipeline_module
from somqe.cli import main
from somqe.errors import RegistrationError
from somqe.pipeline import read_manifest, RunConfig, preprocessed_frames
from somqe.raster import RasterImage, save_image

from conftest import sinusoid_sampler

SIDE = 64
# (dx, dy, theta) per frame; the last frame is the anchor
MOTIONS = [(1.4, -0.6, 0.004), (-2.2, 0.9, -0.006), (0.3, 1.7, 0.002),
           (-0.8, -1.1, 0.0), (0.0, 0.0, 0.0)]


def write_stack(directory: Path, motions=MOTIONS, side: int = SIDE) -> Path:
    """Rounded frames of an analytic scene, each moved and given a growing disc."""
    directory.mkdir(parents=True, exist_ok=True)
    sample = sinusoid_sampler(np.random.default_rng(5), side)
    lines = []
    for k, (dx, dy, theta) in enumerate(motions):
        image = sample(dx, dy, theta, share=0.02 * k)
        pixels = np.round(image.pixels).astype(np.uint8)
        save_image(RasterImage(pixels), directory / f"img_{k}.ppm")
        lines.append(f"img_{k}.ppm\tframe{k}\t{2000 + k}")
    manifest = directory / "frames.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def run_cli(monkeypatch, cpus: int, argv) -> int:
    use_cpus(monkeypatch, cpus)
    return main(argv)


def tree_bytes(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def watch_registration(monkeypatch, on_register) -> None:
    """Call on_register(frame file name) as each frame starts registering.

    The name is remembered by the process that loaded the frame, so this
    works in forked workers as well as in this process."""
    loading = []
    load = pipeline_module.load_image
    register = pipeline_module.register_pair

    def recording_load(path):
        loading[:] = [path.name]
        return load(path)

    def watched_register(levels, frame, mode):
        on_register(loading[0])
        return register(levels, frame, mode)

    monkeypatch.setattr(pipeline_module, "load_image", recording_load)
    monkeypatch.setattr(pipeline_module, "register_pair", watched_register)


# ---------------------------------------------------------------------------
# the same bytes from one process and from the pool

@pytest.mark.parametrize("normalize", ["on", "off"])
@pytest.mark.parametrize("mode", ["translation", "rigid", "none"])
def test_pooled_and_in_process_runs_write_identical_artifacts(
    tmp_path, monkeypatch, two_cpus, mode, normalize
):
    manifest = write_stack(tmp_path / "stack")
    (tmp_path / "run.cfg").write_text(f"normalize = {normalize}\n")
    common = ["run", "--manifest", str(manifest), "--mode", mode, "--grid", "2x2",
              "--iterations", "60", "--seed", "3", "--config", str(tmp_path / "run.cfg")]
    outs = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        assert run_cli(monkeypatch, cpus, common + ["--out", str(out)]) == 0
        outs[cpus] = tree_bytes(out)
    assert sorted(outs[2]) == [
        "grid.txt", "plots/frames_qe_trend.svg", "report.csv", "transforms.txt"
    ]
    assert outs[1] == outs[2]
    transforms = (tmp_path / "cpus2" / "transforms.txt").read_text()
    assert (" 0 0 0 " in transforms.splitlines()[2]) == (mode == "none")


@pytest.mark.parametrize("normalize", ["on", "off"])
@pytest.mark.parametrize("mode", ["translation", "none"])
def test_pooled_and_in_process_register_and_score_agree(
    tmp_path, monkeypatch, two_cpus, mode, normalize
):
    manifest = write_stack(tmp_path / "stack")
    (tmp_path / "run.cfg").write_text(f"normalize = {normalize}\nmode = {mode}\n")
    common = ["--manifest", str(manifest), "--config", str(tmp_path / "run.cfg")]
    assert main([
        "train", *common, "--grid", "2x2", "--iterations", "60",
        "--out", str(tmp_path / "trained"),
    ]) == 0
    grid_file = str(tmp_path / "trained" / "grid.txt")
    outs = {}
    for cpus in (1, 2):
        registered, scored = tmp_path / f"registered{cpus}", tmp_path / f"scored{cpus}"
        assert run_cli(monkeypatch, cpus, ["register", *common, "--out", str(registered)]) == 0
        assert run_cli(monkeypatch, cpus, [
            "score", *common, "--grid-file", grid_file, "--out", str(scored)
        ]) == 0
        outs[cpus] = (tree_bytes(registered), tree_bytes(scored))
    assert len(outs[2][0]) == len(MOTIONS) + 2  # frames, sidecar, manifest
    assert list(outs[2][1]) == ["qe.csv"]
    assert outs[1] == outs[2]


def test_one_frame_after_the_anchor_runs_in_this_process(tmp_path, two_cpus):
    manifest = write_stack(tmp_path / "stack", MOTIONS[-2:])
    staged = preprocessed_frames(
        read_manifest(manifest), RunConfig(), lambda i, frame, timed: os.getpid()
    )
    assert [s.result for s in staged] == [os.getpid()] * 2


def test_without_an_affinity_call_every_frame_runs_in_this_process(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    manifest = write_stack(tmp_path / "stack")
    staged = preprocessed_frames(
        read_manifest(manifest), RunConfig(registration_mode="none"),
        lambda i, frame, timed: os.getpid(),
    )
    assert [s.result for s in staged] == [os.getpid()] * len(MOTIONS)


def test_without_mallopt_keep_freed_buffers_changes_nothing(monkeypatch):
    """A libc with no `mallopt` symbol, as on macOS: nothing is set, False."""
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert pipeline_module.keep_freed_buffers() is False


# ---------------------------------------------------------------------------
# the trace

@pytest.mark.parametrize("mode", ["rigid", "none"])
def test_trace_records_every_frame_and_leaves_the_artifacts_alone(
    tmp_path, monkeypatch, two_cpus, mode
):
    manifest = write_stack(tmp_path / "stack")
    common = ["run", "--manifest", str(manifest), "--mode", mode, "--grid", "2x2",
              "--iterations", "40"]
    trace = tmp_path / "trace.jsonl"
    assert main(common + ["--out", str(tmp_path / "plain")]) == 0
    assert main(common + ["--out", str(tmp_path / "traced"), "--trace", str(trace)]) == 0
    assert tree_bytes(tmp_path / "plain") == tree_bytes(tmp_path / "traced")
    *frames, tail = [json.loads(line) for line in trace.read_text().splitlines()]
    anchor = len(MOTIONS) - 1
    assert [f["frame"] for f in frames] == [anchor, *range(anchor)]
    assert frames[0]["pid"] == os.getpid()
    assert all(f["pid"] != os.getpid() for f in frames[1:])
    first = ["load_s"] + ([] if mode == "none" else ["pyramid_s"])
    # the anchor is not compared with itself, so it times no residual; it
    # builds the map's colour-cell table, which the workers inherit
    assert list(frames[0]) == ["frame", "pid", *first, "normalize_s", "train_s",
                               "candidates_s", "score_s", "minflt"]
    # a registered frame's residual is its solver's cost, inside `register_s`
    compared = ["residual_s"] if mode == "none" else ["register_s", "resample_s"]
    for f in frames[1:]:
        assert list(f) == ["frame", "pid", "load_s", *compared,
                           "normalize_s", "score_s", "minflt"]
    # the anchor's line holds its pid and training seconds; the tail adds the emit
    assert list(tail) == ["emit_s", "minflt"]
    assert all(v >= 0.0 for record in (*frames, tail)
               for k, v in record.items() if k.endswith("_s"))
    assert all(type(record["minflt"]) is int and record["minflt"] >= 0
               for record in (*frames, tail))


@pytest.mark.parametrize("command", ["run", "score"])
def test_the_map_table_is_built_once_in_this_process(tmp_path, monkeypatch, two_cpus, command):
    """The anchor's score builds the map's colour-cell table; the workers
    inherit it through fork and build none of their own."""
    import somqe.som as som_module

    manifest = write_stack(tmp_path / "stack")
    argv = [command, "--manifest", str(manifest), "--out", str(tmp_path / "o")]
    if command == "score":
        grid = tmp_path / "grid.txt"
        som_module.save_grid(som_module.SomGrid(2, 2, np.full((4, 3), 0.25)), grid)
        argv += ["--grid-file", str(grid)]
    builders = tmp_path / "builders"
    build = som_module._cell_candidates

    def recording_build(models):
        with open(builders, "a") as log:  # appended to by whichever process builds
            log.write(f"{os.getpid()}\n")
        return build(models)

    monkeypatch.setattr(som_module, "_cell_candidates", recording_build)
    assert main(argv) == 0
    assert builders.read_text() == f"{os.getpid()}\n"


def test_traced_and_untraced_score_write_the_same_rows(tmp_path, monkeypatch, two_cpus):
    manifest = write_stack(tmp_path / "stack")
    grid = tmp_path / "grid.txt"
    assert main(["train", "--manifest", str(manifest), "--grid", "2x2",
                 "--iterations", "40", "--out", str(tmp_path)]) == 0
    common = ["score", "--manifest", str(manifest), "--grid-file", str(grid)]
    trace = tmp_path / "trace.jsonl"
    assert main(common + ["--out", str(tmp_path / "plain")]) == 0
    assert main(common + ["--out", str(tmp_path / "traced"), "--trace", str(trace)]) == 0
    assert tree_bytes(tmp_path / "plain") == tree_bytes(tmp_path / "traced")
    *frames, tail = [json.loads(line) for line in trace.read_text().splitlines()]
    anchor = len(MOTIONS) - 1
    assert [f["frame"] for f in frames] == [anchor, *range(anchor)]
    assert frames[0]["pid"] == os.getpid()
    assert all(f["pid"] != os.getpid() for f in frames[1:])
    # a loaded map trains nothing, but the anchor still builds its table
    assert list(frames[0]) == ["frame", "pid", "load_s", "pyramid_s", "normalize_s",
                               "candidates_s", "score_s", "minflt"]
    assert all("candidates_s" not in f for f in frames[1:])
    assert list(tail) == ["emit_s", "minflt"]


def test_a_one_cpu_trace_runs_every_frame_here(tmp_path, monkeypatch):
    manifest = write_stack(tmp_path / "stack")
    trace = tmp_path / "trace.jsonl"
    assert run_cli(monkeypatch, 1, ["run", "--manifest", str(manifest), "--out",
                                    str(tmp_path / "o"), "--trace", str(trace)]) == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(lines) == len(MOTIONS) + 1
    assert {line["pid"] for line in lines[:-1]} == {os.getpid()}
    assert list(lines[-1]) == ["emit_s", "minflt"]


# ---------------------------------------------------------------------------
# failures through the pool

def cli_error(capsys, monkeypatch, cpus, argv):
    """(exit code, stderr) of one CLI call, which must print one line."""
    code = run_cli(monkeypatch, cpus, argv)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    return code, err


def test_first_failing_frame_in_stack_order_wins(tmp_path, capsys, monkeypatch, two_cpus):
    """Frame 1 fails late and frame 3 at once; frame 1 is reported, as in one process."""
    manifest = write_stack(tmp_path / "stack")

    def fail(name):
        if name == "img_1.ppm":
            time.sleep(0.3)
        if name in ("img_1.ppm", "img_3.ppm"):
            raise RegistrationError("no convergence", residual=float(name[4]))

    watch_registration(monkeypatch, fail)
    argv = ["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
    errors = {cpus: cli_error(capsys, monkeypatch, cpus, argv) for cpus in (1, 2)}
    assert errors[1] == errors[2]
    assert errors[2][0] == 2
    assert errors[2][1] == "somqe: error: computation: frame 1: no convergence\n"
    use_cpus(monkeypatch, 2)
    with pytest.raises(RegistrationError) as info:
        list(preprocessed_frames(
            read_manifest(manifest), RunConfig(), lambda i, frame, timed: None
        ))
    assert (info.value.index, info.value.residual) == (1, 1.0)


@pytest.mark.parametrize("damage", ["missing", "truncated", "resized"])
def test_a_bad_frame_fails_the_same_through_the_pool(
    tmp_path, capsys, monkeypatch, two_cpus, damage
):
    manifest = write_stack(tmp_path / "stack")
    frame = tmp_path / "stack" / "img_2.ppm"
    if damage == "missing":
        frame.unlink()
    elif damage == "truncated":
        frame.write_bytes(frame.read_bytes()[:-100])
    else:
        pixels = np.zeros((SIDE, SIDE + 1, 3), dtype=np.uint8)
        save_image(RasterImage(pixels), frame)
    argv = ["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
    errors = {cpus: cli_error(capsys, monkeypatch, cpus, argv) for cpus in (1, 2)}
    assert errors[1] == errors[2]
    code, err = errors[2]
    assert code == 1
    assert err.startswith("somqe: error: input: ")
    assert "frame 2" in err


def test_a_failure_cancels_the_frames_not_yet_started(tmp_path, monkeypatch, two_cpus):
    motions = [(0.5, -0.5, 0.0)] * 15 + [(0.0, 0.0, 0.0)]
    manifest = write_stack(tmp_path / "stack", motions, side=48)
    started = tmp_path / "started"
    started.mkdir()

    def slow_after_the_first(name):
        (started / name).touch()
        if name == "img_0.ppm":
            raise RegistrationError("no convergence")
        time.sleep(0.2)

    watch_registration(monkeypatch, slow_after_the_first)
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    # frame 0, one running frame per worker and the few already queued for them
    assert len(list(started.iterdir())) <= 8


def test_a_dead_worker_is_a_computation_error(tmp_path, capsys, monkeypatch, two_cpus):
    manifest = write_stack(tmp_path / "stack")

    def die(name):
        if name == "img_1.ppm":
            os._exit(3)

    watch_registration(monkeypatch, die)
    code = main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("somqe: error: computation: a frame worker process died")
    assert len(err.splitlines()) == 1


def test_workers_ignore_sigint(tmp_path, two_cpus):
    manifest = write_stack(tmp_path / "stack")
    handlers = [
        s.result for s in preprocessed_frames(
            read_manifest(manifest), RunConfig(registration_mode="none"),
            lambda i, frame, timed: signal.getsignal(signal.SIGINT),
        )
    ]
    assert handlers[0] is signal.default_int_handler
    assert handlers[1:] == [signal.SIG_IGN] * (len(MOTIONS) - 1)


INTERRUPTED_RUN = """
import os, sys, time
import somqe.pipeline as pipeline
from somqe.cli import main

marks = sys.argv[1]
register = pipeline.register_pair

def slow_register(levels, frame, mode):
    open(os.path.join(marks, str(os.getpid())), "w").close()
    time.sleep(0.5)
    return register(levels, frame, mode)

pipeline.register_pair = slow_register
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(main(["run", "--manifest", sys.argv[2], "--out", sys.argv[3]]))
"""


def test_ctrl_c_ends_the_run_and_leaves_no_worker(tmp_path):
    """SIGINT to the whole process group, as a terminal sends it."""
    manifest = write_stack(tmp_path / "stack")
    marks = tmp_path / "marks"
    marks.mkdir()
    src = str(Path(somqe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_RUN, str(marks), str(manifest),
         str(tmp_path / "o")],
        env=env, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while len(list(marks.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        workers = [int(p.name) for p in marks.iterdir()]
        assert len(workers) == 2
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err.startswith("somqe: error: interrupted: ")
    assert len(err.splitlines()) == 1, err
    assert not (tmp_path / "o" / "report.csv").exists()
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def running(pid: int) -> bool:
    """Whether pid is a live process; an exited one its new parent has not
    reaped yet (a zombie) does not count."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL])
def test_workers_exit_when_the_main_process_is_killed(tmp_path, signum):
    manifest = write_stack(tmp_path / "stack")
    marks = tmp_path / "marks"
    marks.mkdir()
    src = str(Path(somqe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_RUN, str(marks), str(manifest),
         str(tmp_path / "o")],
        env=env, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60.0
        while len(list(marks.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        workers = [int(p.name) for p in marks.iterdir()]
        assert len(workers) == 2
        proc.send_signal(signum)
        assert proc.wait(timeout=60) == -signum
        deadline = time.monotonic() + 10.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
