"""Traced in-process run of the cofactor CLI, with a span around every layer call.

    PYTHONPATH=src python3 perfbench/traced.py --workdir DIR --eval-mode in|out

Runs `ingest`, `train`, `eval` and `sweep` through `cofactor.cli.main` in this
process, with DIR/config.json, three times: untraced, traced and untraced
again, and checks each stage's outputs as perfbench/run.py does. The traced
pass wraps every public function of the layer modules (corpus, ppmi, factor,
sdae, predict_eval, container, cli). A wrapper is installed under every name a caller looks the function up by, so
`cli.train`, `predict_eval.train`, `factor.loss_terms`, `cli.write_container`
and the module's own global all record. Spans (name, start, end, parent) are
kept in memory and written to DIR/spans.json when the run ends; the per-layer
summary and the tracing overhead are printed as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import shutil
import sys
import time
from pathlib import Path

from run import CHECKS, stage_argv

LAYERS = ("corpus", "ppmi", "factor", "sdae", "predict_eval", "container", "cli")


class Recorder:
    """Spans as [name, start, end, parent index] plus counters, all in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.ppmi_builds: list[tuple[str, int, int]] = []
        self.stage = ""

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()


def _dense_bytes(rec: Recorder, args: tuple, result) -> None:
    # loss_terms(params, x0, xc, beta) and sdae_gradients(params, x0, xc, beta, ...)
    # each densify xc to n_items x vocab float64.
    rows, cols = args[2].shape
    rec.add("sdae.dense_bytes_computed", rows * cols * 8)


def _bytes_written(rec: Recorder, args: tuple, result) -> None:
    rec.add("container.bytes_written", os.path.getsize(args[0]))


def _bytes_read(rec: Recorder, args: tuple, result) -> None:
    rec.add("container.bytes_read", os.path.getsize(args[0]))


def _ppmi_built(rec: Recorder, args: tuple, result) -> None:
    rec.ppmi_builds.append((rec.stage, int(result.matrix.nnz), int(result.n_items)))


AFTER = {"sdae.loss_terms": _dense_bytes, "sdae.sdae_gradients": _dense_bytes,
         "container.write_container": _bytes_written,
         "container.read_container": _bytes_read,
         "ppmi.build_ppmi": _ppmi_built}


def _wrap(rec: Recorder, name: str, fn):
    after = AFTER.get(name)

    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(rec: Recorder) -> list[tuple]:
    """Wrap every public layer function under every module name bound to it.

    Returns the (module, name, original) bindings, for `uninstall`.
    """
    import cofactor
    modules = {layer: __import__(f"cofactor.{layer}", fromlist=[layer]) for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and (layer, attr) != ("cli", "main")):
                wrappers[obj] = _wrap(rec, f"{layer}.{attr}", obj)
    patched = []
    for mod in (cofactor, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                patched.append((mod, attr, obj))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for mod, attr, original in patched:
        setattr(mod, attr, original)


def summarize(rec: Recorder) -> dict:
    """Per-function busy time, self time and calls; per-stage time outside layer spans.

    A span's self time is its duration minus that of its direct children. A
    stage's self time is its duration minus that of its outermost spans in a
    layer other than `cli`, so it is the time the CLI spends on its own.
    """
    spans = rec.spans
    glue = [s[0].split(".", 1)[0] in ("cli", "stage") for s in spans]
    child_sum = [0.0] * len(spans)
    covered = [0.0] * len(spans)
    for idx, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_sum[parent] += end - start
        if glue[idx]:
            continue
        root, anc = -1, parent
        while anc >= 0 and glue[anc]:
            root, anc = anc, spans[anc][3]
        if anc < 0 and root >= 0:
            covered[root] += end - start
    per_fn: dict[str, dict] = {}
    stages = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        if name.startswith("stage."):
            stages[name[len("stage."):]] = {"s": end - start, "self_s": end - start - covered[idx]}
            continue
        entry = per_fn.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_sum[idx]
    return {"functions": per_fn, "stages": stages, "counters": rec.counters,
            "ppmi_builds": rec.ppmi_builds, "n_spans": len(spans)}


def run_stages(rec: Recorder | None, eval_mode: str, world: dict,
               cfg: dict) -> dict[str, dict]:
    """ingest → train → eval → sweep through cli.main; per stage seconds and problem."""
    from cofactor import cli
    shutil.rmtree("out", ignore_errors=True)
    results = {}
    for stage, argv in stage_argv(eval_mode).items():
        idx = None
        if rec is not None:
            rec.stage = stage
            idx = rec.open(f"stage.{stage}")
        start = time.perf_counter()
        try:
            code = cli.main([*argv, "--config", "config.json"])
        finally:
            seconds = time.perf_counter() - start
            if idx is not None:
                rec.close(idx)
        problem = f"exit code {code}" if code != 0 else CHECKS[stage](Path("."), world, cfg)
        results[stage] = {"s": seconds, "problem": problem}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--eval-mode", choices=["in", "out"], required=True)
    args = parser.parse_args()
    os.chdir(args.workdir)
    world = json.loads(Path("world.json").read_text(encoding="utf-8"))
    cfg = json.loads(Path("config.json").read_text(encoding="utf-8"))

    # Untraced, traced, untraced: the overhead is the traced pass against the
    # mean of the untraced passes around it, all in this warm process.
    before = run_stages(None, args.eval_mode, world, cfg)
    rec = Recorder()
    patched = install(rec)
    traced_pass = run_stages(rec, args.eval_mode, world, cfg)
    uninstall(patched)
    after = run_stages(None, args.eval_mode, world, cfg)
    sys.stdout.flush()

    with open("spans.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": rec.spans}, fh)
    summary = summarize(rec)
    summary["problems"] = [p[stage]["problem"] for p in (before, traced_pass, after)
                           for stage in p]
    summary["overhead_s"] = sum(traced_pass[s]["s"] - (before[s]["s"] + after[s]["s"]) / 2
                                for s in traced_pass)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
