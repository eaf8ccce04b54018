"""Run `somqe` in-process with a span around every call into a module.

    python3 bench/traced.py SPANS.jsonl run --manifest ... --out ...

The public functions that `somqe.pipeline` and `somqe.cli` call are replaced,
at the names those two modules call them by, with wrappers that record a
span: layer, function, start, end, parent span and a count of the work done
where the result carries one.  Spans stay in memory and are written as JSONL
when `cli.main` returns.  A name that no longer exists is recorded as missing
instead of failing, so the trace degrades when the program is refactored.

The first JSONL line describes the run; every further line is one span.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (module, function, layer); a layer is a module-named metric prefix
WRAPPED = (
    ("pipeline", "load_image", "raster.decode"),
    ("pipeline", "normalize_contrast", "raster.normalize"),
    ("pipeline", "register_pair", "register.pair"),
    ("pipeline", "resample", "register.resample"),
    ("pipeline", "mean_square_residual", "register.residual"),
    ("pipeline", "fit_som", "som.train"),
    ("pipeline", "quantization_error", "som.score"),
    ("pipeline", "empty_model_count", "som.empty_models"),
    ("pipeline", "linear_fit", "stats"),
    ("pipeline", "pearson", "stats"),
    ("pipeline", "parse_decimal", "stats"),
    ("cli", "read_manifest", "pipeline"),
    ("cli", "run_pipeline", "pipeline"),
    ("cli", "ingest_covariates", "pipeline"),
    ("cli", "correlate", "pipeline"),
    # artifact writers; the grid and sidecar writers live in som and register
    # but belong to the emit stage, which must not count as layer work
    ("cli", "emit_csv", "pipeline.emit"),
    ("cli", "save_grid", "pipeline.emit"),
    ("cli", "write_transform_sidecar", "pipeline.emit"),
    ("cli", "emit_svg_plots", "pipeline.emit"),
)


def _work(result):
    """Work count carried by a result: decoded bytes, scored pixels, or an int."""
    if hasattr(result, "pixel_count") and hasattr(result, "qe"):
        return result.pixel_count
    if hasattr(result, "pixels") and hasattr(result, "width"):
        return int(result.pixels.shape[0] * result.pixels.shape[1] * 3)
    if isinstance(result, int) and not isinstance(result, bool):
        return result
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, layer: str, name: str):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "layer": layer, "fn": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            span["work"] = _work(result)
            return result

        return traced

    def install(self, modules) -> list[str]:
        """Wrap every WRAPPED name; return the names that are missing."""
        missing = []
        for module_name, fn_name, layer in WRAPPED:
            module = modules[module_name]
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                missing.append(f"{module_name}.{fn_name}")
                continue
            setattr(module, fn_name, self.wrap(fn, layer, fn_name))
        return missing


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t_start = time.perf_counter()
    from somqe import cli, pipeline

    tracer = Tracer()
    missing = tracer.install({"cli": cli, "pipeline": pipeline})
    t_main = time.perf_counter()
    code = cli.main(cli_args)
    t_end = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"run": cli_args, "exit": code, "missing": missing,
                             "t_start": t_start, "t_main": t_main, "t_end": t_end}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return code


def layer_metrics(spans_path, run_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and the wrapped names missing.

    A span's self time is its duration minus that of its direct children, so
    the layer self times plus pipeline.self_s add up to run_s, the traced
    child's wall time from spawn to exit.
    """
    lines = open(spans_path, encoding="utf-8").read().splitlines()
    meta = json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["t1"] - s["t0"]
    self_s, calls, work = {}, {}, {}
    for s in spans:
        layer = s["layer"]
        duration = s["t1"] - s["t0"]
        self_s[layer] = self_s.get(layer, 0.0) + duration - children.get(s["id"], 0.0)
        calls.setdefault(layer, []).append(duration)
        work[layer] = work.get(layer, 0) + (s["work"] or 0)

    def t(layer):
        return self_s.get(layer, 0.0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    pair_calls = calls.get("register.pair", [])
    metrics = {
        "raster.decode_s": t("raster.decode"),
        "raster.decode_mb_per_s": rate(work.get("raster.decode", 0) / 1e6, t("raster.decode")),
        "raster.normalize_s": t("raster.normalize"),
        "raster.self_s": t("raster.decode") + t("raster.normalize"),
        "register.pair_s": t("register.pair"),
        "register.pair_s_p50": statistics.median(pair_calls) if pair_calls else 0.0,
        "register.pair_calls": len(pair_calls),
        "register.resample_s": t("register.resample"),
        "register.residual_s": t("register.residual"),
        "register.self_s": t("register.pair") + t("register.resample") + t("register.residual"),
        "som.train_s": t("som.train"),
        "som.score_s": t("som.score"),
        "som.score_mpix_per_s": rate(work.get("som.score", 0) / 1e6, t("som.score")),
        "som.empty_models": work.get("som.empty_models", 0),
        "som.self_s": t("som.train") + t("som.score") + t("som.empty_models"),
        "stats.s": t("stats"),
        "pipeline.emit_s": t("pipeline.emit"),
        "pipeline.self_s": run_s - sum(v for k, v in self_s.items() if k != "pipeline"),
        "trace.missing_names": len(meta["missing"]),
    }
    return metrics, meta["missing"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
