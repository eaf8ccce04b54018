"""The somqe benchmark: times `python -m somqe run` on generated frame stacks.

    python3 bench/run.py --workload translation-512 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the program is imported from ./src.  Each
invocation writes a seeded 25-frame stack (see stackgen.py) under
.bench_work/, then, one child process at a time:

  --trace 0  spawns fresh interpreters that import somqe.cli (setup_s), then
             untraced `somqe run` children until --seconds have been spent
             (at least MIN_CHILDREN), and reports the end-to-end metrics as
             medians.
  --trace 1  spawns pairs of one untraced child and one traced child
             (traced.py), and reports per-layer metrics from the spans.

Every child's outputs are checked (checks.py) and all children of one
invocation must write byte-identical artifacts.  Human-readable lines go to
stdout first; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  A failed check prints the problem on stderr
and exits 1.  `--workload all` runs every workload both ways.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_run, determinism_digest
from stackgen import N_FRAMES, StackSpec, write_stack
from traced import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
# every median and the byte-identity check rest on at least this many children
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    spec: StackSpec
    args: tuple[str, ...] = ()
    config: str | None = None


WORKLOADS = {
    # the paper's pipeline at default settings: registration, scoring and
    # whole-stack memory all show here
    "translation-512": Workload(StackSpec(512, "translation", "ppm", max_shift=6.0)),
    # the register layer with 3 parameters and no constant fractional shift,
    # so a translation-only fast path must leave it unchanged.  Not listed in
    # BENCHMARK.json: register_pair does not converge on frame 4 of this stack
    # for any seed, so every run exits 2 and there is nothing to time.
    "rigid-256": Workload(
        StackSpec(256, "rigid", "ppm", max_shift=6.0, max_theta=0.02), ("--mode", "rigid")
    ),
    # pre-registered PNG frames (Paeth-filtered) on an 8x8 map: decode and
    # scoring dominate and register is bypassed
    "png-384-noreg": Workload(StackSpec(384, "none", "png"), ("--grid", "8x8"), "mode = none\n"),
}

END_TO_END = {"run_s": "s", "mpix_per_s": "Mpix/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "raster.decode_s": "s",
    "raster.decode_mb_per_s": "MB/s",
    "raster.normalize_s": "s",
    "raster.self_s": "s",
    "register.pair_s": "s",
    "register.pair_s_p50": "s",
    "register.pair_calls": "count",
    "register.resample_s": "s",
    "register.residual_s": "s",
    "register.self_s": "s",
    "register.within_0.1px_ratio": "ratio",
    "reg_err_px_max": "px",
    "reg_err_rad_max": "rad",
    "som.train_s": "s",
    "som.score_s": "s",
    "som.score_mpix_per_s": "Mpix/s",
    "som.empty_models": "count",
    "som.self_s": "s",
    "stats.s": "s",
    "pipeline.emit_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_names": "count",
}


@dataclass
class Child:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    out_dir: Path
    problems: list
    errors: dict
    digest: str | None = None


def child_env() -> dict:
    """The program from ./src, otherwise the environment users run it in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, cwd, log_path) -> tuple[float, int, float]:
    """(wall seconds from spawn to exit, exit code, peak RSS in MB) of a child."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(work: Path) -> list[float]:
    """Seconds for fresh interpreters to import somqe.cli; the first is warm-up."""
    argv = [sys.executable, "-c", "import somqe.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        wall, code, _ = spawn(argv, work, work / "setup.log")
        if code != 0:
            raise SystemExit(f"bench: importing somqe.cli failed, see {work / 'setup.log'}")
        if i:
            samples.append(wall)
    return samples


def run_child(workload: Workload, stack: Path, truth: dict, index: int, spans: Path | None) -> Child:
    out = stack / f"out-{index}"
    cli = ["run", "--manifest", "frames.tsv", "--covariates", "covariates.csv", "--out", out.name]
    cli += list(workload.args)
    if workload.config is not None:
        cli += ["--config", "run.conf"]
    if spans is None:
        argv = [sys.executable, "-m", "somqe", *cli]
    else:
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans), *cli]
    wall, code, rss = spawn(argv, stack, stack / f"out-{index}.log")
    child = Child(wall, code, rss, out, [], {})
    if code != 0:
        child.problems.append(f"exit code {code}, see {stack / f'out-{index}.log'}")
        return child
    child.problems, child.errors = check_run(out, truth)
    child.digest = determinism_digest(out)
    return child


def prepare(name: str, workload: Workload, seed: int) -> tuple[Path, dict]:
    stack = WORK / f"{name}-seed{seed}"
    shutil.rmtree(stack, ignore_errors=True)
    truth = write_stack(workload.spec, seed, stack)
    if workload.config is not None:
        (stack / "run.conf").write_text(workload.config, encoding="utf-8")
    return stack, truth


def mark_nondeterministic(children) -> None:
    digests = {c.digest for c in children if c.digest}
    if len(digests) > 1:
        for c in children:
            c.problems.append("artifacts differ between repetitions: " + ", ".join(sorted(digests)))


def registration_lines(errors: dict, mode: str) -> list[str]:
    if mode == "none":
        return ["  reg_err_px_max     n/a (workload does not register)"]
    if not errors:
        return ["  reg_err_px_max     n/a (run failed)"]
    lines = [f"  reg_err_px_max     {errors['px_max']:.6g} px over {errors['registered']} frames"]
    if errors["rad_max"] is not None:
        lines.append(f"  reg_err_rad_max    {errors['rad_max']:.6g} rad")
    return lines


def untraced(name: str, workload: Workload, seed: int, seconds: float):
    stack, truth = prepare(name, workload, seed)
    setup = measure_setup(stack)
    children = []
    t0 = time.perf_counter()
    while True:
        children.append(run_child(workload, stack, truth, len(children), None))
        spent = time.perf_counter() - t0
        # a failed child ends the run: the program fails the same way again
        enough = len(children) >= MIN_CHILDREN and spent + children[-1].wall_s > seconds
        if children[-1].problems or enough:
            break
    mark_nondeterministic(children)
    spec = workload.spec
    mpix = N_FRAMES * spec.size * spec.size / 1e6
    run_s = statistics.median(c.wall_s for c in children)
    metrics = {
        "run_s": run_s,
        "mpix_per_s": mpix / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
    }
    failed = sum(bool(c.problems) for c in children)
    lines = [f"{name} seed {seed}: {len(children)} untraced runs, {failed} failed "
             f"(fail_ratio {failed / len(children):.3g})"]
    lines += [f"  {k:<18} {v:.6g} {END_TO_END[k]}" for k, v in metrics.items()]
    lines.append("  run_s samples      " + " ".join(f"{c.wall_s:.3f}" for c in children))
    lines += registration_lines(children[0].errors, spec.mode)
    lines.append(f"  determinism_sha256 {children[0].digest}")
    return stack, children, metrics, lines


def traced(name: str, workload: Workload, seed: int, seconds: float):
    stack, truth = prepare(name, workload, seed)
    plain, spanned, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        i = 2 * len(plain)
        plain.append(run_child(workload, stack, truth, i, None))
        spans = stack / f"spans-{i + 1}.jsonl"
        spanned.append(run_child(workload, stack, truth, i + 1, spans))
        if spanned[-1].exit_code == 0:
            layers.append(layer_metrics(spans, spanned[-1].wall_s))
        spent = time.perf_counter() - t0 + plain[-1].wall_s + spanned[-1].wall_s
        if plain[-1].problems or spanned[-1].problems or spent > seconds:
            break
    children = plain + spanned
    mark_nondeterministic(children)
    metrics = {k: statistics.median(m[k] for m, _ in layers) for k in layers[0][0]} if layers else {}
    errors = plain[0].errors
    registered = errors.get("registered", 0)
    metrics["register.within_0.1px_ratio"] = errors["within_0.1px"] / registered if registered else 0.0
    metrics["reg_err_px_max"] = errors.get("px_max") or 0.0
    metrics["reg_err_rad_max"] = errors.get("rad_max") or 0.0
    run_s = statistics.median(c.wall_s for c in spanned)
    metrics["trace.overhead_s"] = run_s - statistics.median(c.wall_s for c in plain)
    failed = sum(bool(c.problems) for c in children)
    lines = [f"{name} seed {seed}: {len(spanned)} traced + {len(plain)} untraced runs, {failed} failed"]
    metrics = {key: metrics.get(key, 0.0) for key in PER_LAYER}
    for key, value in metrics.items():
        unit = PER_LAYER[key]
        share = f"  {100.0 * value / run_s:5.1f}% of traced run_s" if unit == "s" and "p50" not in key else ""
        lines.append(f"  {key:<28} {value:<10.6g} {unit:<7}{share}")
    for missing in sorted({m for _, names in layers for m in names}):
        lines.append(f"  layer function missing, reported as 0: {missing}")
    return stack, children, metrics, lines


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool):
    stack, children, metrics, lines = (traced if trace else untraced)(name, workload, seed, seconds)
    problems = [f"{c.out_dir.name}: {p}" for c in children for p in c.problems]
    if not problems:
        shutil.rmtree(stack, ignore_errors=True)
    return children, metrics, lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "somqe" / "cli.py").is_file():
        print(f"bench: no somqe sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    out_metrics, all_problems = {}, []
    for name, trace in runs:
        children, metrics, lines, problems = measure(name, WORKLOADS[name], args.seed, args.seconds, trace)
        print("\n".join(lines), flush=True)
        attempted += len(children)
        failed += sum(bool(c.problems) for c in children)
        all_problems += [f"{name}: {p}" for p in problems]
        for key, value in metrics.items():
            unit = END_TO_END.get(key) or PER_LAYER[key]
            prefix = f"{name}/" if args.workload == "all" else ""
            out_metrics[prefix + key] = {"value": value, "unit": unit}
    for problem in all_problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not all_problems, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 1 if all_problems else 0


if __name__ == "__main__":
    sys.exit(main())
